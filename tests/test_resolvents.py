"""Exit-space extensions: compressed resolvents, the L/B/F chain, boundary test."""

import gc
import json
import weakref

import numpy as np
import pytest

import symext as sx
from symext import resolvents
from symext.cayley import (AdmissibilityResult, DefectData, ForbiddenOperator, defect_data,
                           forbidden_operator)
from symext.errors import (ExpandingParameter, InsufficientSamples, NotAdmissible,
                           ProjectionDegenerate, ResolventSingular, SpectrumHit)
from symext.invertibility import build_invertible_selfadjoint, check_invertibility, double
from symext.neumann import (ContractionParameter, construct_extension, extend, injectivity,
                            recover_parameter)
from symext.operators import (DomainOperator, graph_contains, graph_distance, inverse_op,
                              is_injective, is_symmetric, operator_from_matrix)
from symext.resolvents import (EmbeddedExtension, ParameterFunction,
                               compressed_resolvent, default_lambda_grid,
                               frak_b, frak_f, i_admissibility_test,
                               script_l, shtraus_resolvent)
from symext.serialize import decode_operator, encode_operator, json_dump
from symext.subspaces import TOL, SectorSpec, opnorm, rank_split

from conftest import random_contraction, random_instance


def canonical_diag(worked_a, b):
    atilde = operator_from_matrix(np.diag([1.0, b]).astype(complex))
    return EmbeddedExtension.canonical(worked_a, atilde)


def doubled_ext(worked_a, seed=0):
    chain = build_invertible_selfadjoint(worked_a, 1j, seed=seed, double_first=True)
    return EmbeddedExtension.from_chain(chain)


def test_embedded_extension_validation(worked_a):
    good = operator_from_matrix(np.diag([1.0, 4.0]).astype(complex))
    EmbeddedExtension.canonical(worked_a, good)
    with pytest.raises(ValueError):
        EmbeddedExtension(worked_a, good, np.eye(3, 2), 0)  # wrong shape
    with pytest.raises(ValueError):
        EmbeddedExtension(worked_a, good, 2.0 * np.eye(2), 0)  # not isometric
    with pytest.raises(ValueError):
        EmbeddedExtension.canonical(worked_a,
                                    operator_from_matrix(np.array([[1.0, 1.0],
                                                                   [0.0, 2.0]], dtype=complex)))
    with pytest.raises(ValueError):
        # Hermitian but does not extend A
        EmbeddedExtension.canonical(worked_a,
                                    operator_from_matrix(np.diag([5.0, 1.0]).astype(complex)))


def test_compressed_resolvent_diagonal(worked_a):
    ext = canonical_diag(worked_a, 5.0)
    got = compressed_resolvent(ext, 1j)
    assert np.allclose(got, np.diag([1.0 / (1 - 1j), 1.0 / (5 - 1j)]), atol=1e-12)


def test_compressed_resolvent_spectrum_hit(worked_a):
    ext = canonical_diag(worked_a, 5.0)
    with pytest.raises(SpectrumHit):
        compressed_resolvent(ext, 5.0)


GATE_STEPS = (1e-6, 1e-8, 1e-9, 3e-10, 1e-10, 3e-11, 1e-11, 1e-12, 0.0)


def gate_decisions(ext):
    """At lam = mu_k + delta and mu_k + i delta, for three eigenvalues mu_k of the
    Hermitian part: (whether compressed_resolvent raises SpectrumHit, whether the
    old cut rank_split(Atilde - lam, spectrum_hit) does, whether lam lies in the
    band of width kappa around that cut where the spectral bounds cannot tell)."""
    m = ext.atilde_matrix()
    size = m.shape[0]
    mu, _, kappa = ext._spectrum
    # kappa covers the skew the self-adjoint gate admitted (Weyl's inequality)
    assert kappa >= opnorm(m - m.conj().T) / 2
    cut = TOL.spectrum_hit
    for k in (0, size // 2, size - 1):
        for lam in {mu[k] + step for delta in GATE_STEPS for step in (delta, 1j * delta)}:
            try:
                compressed_resolvent(ext, lam)
                hit = False
            except SpectrumHit:
                hit = True
            oracle = rank_split(m - lam * np.eye(size), cut)[0] < size
            gaps = np.abs(mu - lam)
            g, big = gaps.min(), gaps.max()
            band = g - kappa <= cut * max(1.0, big + kappa) and (
                g + kappa > cut * max(1.0, big - kappa))
            yield hit, oracle, band


def skewed_extension(scale):
    """A doubled-chain extension plus a skew of norm ``scale * ||M||`` in its exit
    block, orthogonal to the lifted domain, which the self-adjoint gate admits."""
    a, z, _ = random_instance(77, max_dim=6)
    m = build_invertible_selfadjoint(a, z, seed=1, double_first=True).final.to_matrix()
    d = a.ambient_dim
    rng = np.random.default_rng(5)
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    k = (k - k.conj().T) / 2
    bump = np.zeros_like(m)
    bump[d:, d:] = scale * opnorm(m) * k / opnorm(k)
    return EmbeddedExtension(a, operator_from_matrix(m + bump), np.eye(2 * d, d), d)


@pytest.mark.parametrize("doubled", [True, False])
def test_spectrum_hit_gate_matches_the_rank_cut(doubled):
    # on chain-built extensions the spectral gate decides as the SVD cut did
    cases = []
    for d in (8, 32, 64):
        a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=d, defect=d // 4, seed=d))
        chain = build_invertible_selfadjoint(a, 1j, seed=3, double_first=doubled)
        cases += list(gate_decisions(EmbeddedExtension.from_chain(chain)))
    assert len(cases) == 3 * 3 * (2 * len(GATE_STEPS) - 1)
    assert not any(band for _, _, band in cases)
    assert [hit for hit, _, _ in cases] == [oracle for _, oracle, _ in cases]
    assert 0 < sum(hit for hit, _, _ in cases) < len(cases)


def test_spectrum_hit_gate_is_conservative_within_the_skew():
    # a skew of 1e-9 ||M|| widens the band: the gate raises inside it, where the
    # SVD cut may not, and agrees with the cut outside it
    cases = list(gate_decisions(skewed_extension(1e-9)))
    inside = [(hit, oracle) for hit, oracle, band in cases if band]
    outside = [(hit, oracle) for hit, oracle, band in cases if not band]
    assert inside and outside
    assert all(hit for hit, _ in inside)
    assert any(not oracle for _, oracle in inside)
    assert all(hit == oracle for hit, oracle in outside)


def test_skew_norm_is_taken_once_per_extension(monkeypatch):
    # the self-adjoint gate and the slack kappa of the SpectrumHit gate read one
    # ||M - M^H||: building an extension and its first resolvent take one SVD of it
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=8, defect=2, seed=8))
    chain = build_invertible_selfadjoint(a, 1j, seed=3, double_first=True)
    m = chain.final.to_matrix()
    skew, svd = m - m.conj().T, np.linalg.svd
    calls = []

    def counting(x, *args, **kwargs):
        calls.append(x.shape == skew.shape and np.array_equal(x, skew))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    compressed_resolvent(EmbeddedExtension.from_chain(chain), 0.4 + 0.8j)
    assert sum(calls) == 1


def test_resolvent_symmetry(worked_a):
    ext = doubled_ext(worked_a)
    for lam in (0.4 + 0.8j, -1.2 + 0.3j, 2.0 - 0.6j):
        left = compressed_resolvent(ext, lam).conj().T
        right = compressed_resolvent(ext, np.conj(lam))
        assert np.allclose(left, right, atol=1e-12)


def test_script_l_exit_dim_zero_full(worked_a):
    ext = canonical_diag(worked_a, 3.0)
    assert script_l(ext, 0.7 + 0.2j).dim == 2


def test_script_l_generic_dimension(worked_a):
    ext = doubled_ext(worked_a)
    # generic lam: the constraint has full rank e, leaving dim d
    for lam in (0.123, 0.9 + 0.4j, -2.0):
        assert script_l(ext, lam).dim == 2


def test_script_l_constrained_space_inverse_identity(worked_a):
    # Atilde L_lam(A, Atilde) = L_{1/lam}(A^{-1}, Atilde^{-1})
    ext = doubled_ext(worked_a)
    ext_inv = ext.inverse_pair()
    m = ext.atilde_matrix()
    for lam in (0.5 + 0.5j, -0.8 + 0.2j, 1.1 - 0.7j):
        left = sx.orthonormalize(m @ script_l(ext, lam).frame, ambient_dim=4)
        right = script_l(ext_inv, 1.0 / lam)
        assert left.distance(right) < 1e-10


def test_frak_b_exit_dim_zero_is_atilde(worked_a):
    ext = canonical_diag(worked_a, 3.0)
    for lam in (1j, 0.4 - 0.2j, 2.7):
        b = frak_b(ext, lam)
        assert graph_distance(b, ext.atilde) < 1e-12


def test_frak_b_extends_base_and_inverts_resolvent(worked_a):
    ext = doubled_ext(worked_a)
    for lam in (0.3 + 0.9j, -1.0 - 0.4j):
        b = frak_b(ext, lam)
        assert graph_contains(b, worked_a)
        r = compressed_resolvent(ext, lam)
        assert np.allclose(np.linalg.inv(b.to_matrix() - lam * np.eye(2)), r, atol=1e-10)


def test_frak_b_projection_degenerate_at_exit_eigenvalue():
    # eigenvector of Atilde orthogonal to H blows up the constrained projection
    base = operator_from_matrix(np.array([[2.0]], dtype=complex))
    embed = np.array([[1.0], [0.0]], dtype=complex)
    ext = EmbeddedExtension(base, operator_from_matrix(np.diag([2.0, 3.0]).astype(complex)),
                            embed, 1)
    with pytest.raises(ProjectionDegenerate):
        frak_b(ext, 3.0)


def test_frak_b_inverse_identity(worked_a):
    # B_lam(A, Atilde)^{-1} = B_{1/lam}(A^{-1}, Atilde^{-1})
    ext = doubled_ext(worked_a)
    ext_inv = ext.inverse_pair()
    for lam in (0.5 + 0.5j, 1.4 - 0.3j):
        left = inverse_op(frak_b(ext, lam))
        right = frak_b(ext_inv, 1.0 / lam)
        assert graph_distance(left, right) < 1e-10


def test_frak_f_canonical_constant(worked_a):
    # exit_dim 0, Atilde = diag(1, b): constant (b+i)/(b-i), matching recover_parameter
    for b in (3.0, -1.0, 0.5):
        ext = canonical_diag(worked_a, b)
        expect = (b + 1j) / (b - 1j)
        for lam in (0.2 + 0.7j, -0.5 + 1.2j):
            mat = frak_f(ext, lam, 1j)
            assert mat.shape == (1, 1)
            assert abs(mat[0, 0] - expect) < 1e-10
        rec = recover_parameter(worked_a, ext.atilde, 1j)
        assert abs(rec.t.compression()[0, 0] - expect) < 1e-10


def test_frak_f_nonexpanding_random(worked_a):
    ext = doubled_ext(worked_a)
    grid = default_lambda_grid(1j, ext.atilde_matrix())
    for lam in grid:
        s = np.linalg.svd(frak_f(ext, lam, 1j), compute_uv=False)
        assert s.size == 0 or s[0] <= 1.0 + 1e-9


def test_frak_f_halfplane_guard(worked_a):
    ext = doubled_ext(worked_a)
    with pytest.raises(ValueError):
        frak_f(ext, 0.5 - 0.5j, 1j)


def test_frak_f_defect_zero_empty():
    h = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=3, defect=0, seed=4))
    ext = EmbeddedExtension.canonical(h, h)
    mat = frak_f(ext, 0.4 + 0.6j, 1j)
    assert mat.shape == (0, 0)


def test_frak_f_inverse_scaling_identity(worked_a):
    # F(1/lam; 1/lam0) of the inverse pair = (lam0/lam0bar) F(lam; lam0)
    ext = doubled_ext(worked_a)
    ext_inv = ext.inverse_pair()
    lambda0 = 1j
    dd = defect_data(worked_a, lambda0)
    frames = (dd.n_z.frame, dd.n_zbar.frame)
    for lam in (0.4 + 0.8j, -0.9 + 0.5j):
        left = frak_f(ext_inv, 1.0 / lam, 1.0 / lambda0, frames)
        right = (lambda0 / np.conj(lambda0)) * frak_f(ext, lam, lambda0, frames)
        assert np.allclose(left, right, atol=1e-10)


def test_shtraus_constant_parameter_hand_value(worked_a):
    # constant F = c: resolvent of diag(1, i(c+1)/(c-1)) minus lam
    c = 0.3 - 0.4j
    f = ParameterFunction.constant(worked_a, 1j, np.array([[c]], dtype=complex))
    b = np.diag([1.0, 1j * (c + 1) / (c - 1)])
    for lam in (0.5 + 0.5j, -0.2 + 1.4j):
        got = shtraus_resolvent(worked_a, 1j, f, lam)
        assert np.allclose(got, np.linalg.inv(b - lam * np.eye(2)), atol=1e-10)


def test_shtraus_matches_compressed_both_branches(worked_a):
    for seed in range(6):
        ext = doubled_ext(worked_a, seed=seed)
        grid = default_lambda_grid(1j, ext.atilde_matrix())
        f = ParameterFunction.from_extension(ext, 1j, grid)
        for lam in list(grid)[:8]:
            up = shtraus_resolvent(worked_a, 1j, f, lam)
            assert np.allclose(up, compressed_resolvent(ext, lam), atol=1e-9)
            down = shtraus_resolvent(worked_a, 1j, f, np.conj(lam))
            assert np.allclose(down, compressed_resolvent(ext, np.conj(lam)), atol=1e-9)
            # adjoint-branch symmetry
            assert np.allclose(up.conj().T, down, atol=1e-9)


def test_shtraus_random_instances():
    for seed in range(8):
        a, z, _ = random_instance(seed + 75, max_dim=6)
        chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=True)
        ext = EmbeddedExtension.from_chain(chain)
        grid = default_lambda_grid(z, ext.atilde_matrix())
        f = ParameterFunction.from_extension(ext, z, grid)
        worst = 0.0
        for lam in grid:
            got = shtraus_resolvent(a, z, f, lam)
            worst = max(worst, float(np.max(np.abs(got - compressed_resolvent(ext, lam)))))
        assert worst < 1e-8


def test_shtraus_singular_extension(worked_a):
    # F = -1 gives B = diag(1, 0); off the spectrum the inverse is exact
    f = ParameterFunction.constant(worked_a, 1j, np.array([[-1.0]], dtype=complex))
    got = shtraus_resolvent(worked_a, 1j, f, 0.5j)
    assert np.allclose(got, np.linalg.inv(np.diag([1.0, 0.0]) - 0.5j * np.eye(2)), atol=1e-12)
    # isometric c near 1 yields a huge second eigenvalue b ~ 2e6, inflating the
    # relative singularity gate past 1e-8; lam = 1 + 1e-8j then sits off-axis
    # yet numerically on the exact eigenvalue 1 inherited from the base operator
    c = (2e6 + 1j) / (2e6 - 1j)
    f2 = ParameterFunction.constant(worked_a, 1j, np.array([[c]], dtype=complex))
    with pytest.raises(ResolventSingular):
        shtraus_resolvent(worked_a, 1j, f2, 1.0 + 1e-8j)


def test_shtraus_inadmissible_sample(worked_a):
    f = ParameterFunction.constant(worked_a, 1j, np.array([[1.0]], dtype=complex))
    with pytest.raises(NotAdmissible):
        shtraus_resolvent(worked_a, 1j, f, 0.5j)


def shtraus_oracle(a, lambda0, f, lam):
    """(B - lam)^{-1} with B built by the general construct_extension."""
    if np.sign(lam.imag) == np.sign(lambda0.imag):
        z, dom, rng, mat = lambda0, f.domain_frame, f.range_frame, f.sample_at(lam)
    else:
        z, dom, rng = np.conj(lambda0), f.range_frame, f.domain_frame
        mat = f.sample_at(np.conj(lam)).conj().T
    t = sx.DomainOperator(a.ambient_dim, sx.Subspace(a.ambient_dim, dom, a.tol), rng @ mat)
    b = construct_extension(a, z, ContractionParameter.from_operator(z, t))
    return np.linalg.inv(b.to_matrix() - lam * np.eye(a.ambient_dim))


@pytest.mark.parametrize("doubled", [False, True])
def test_shtraus_cayley_form_matches_construct_extension(doubled):
    # bases: the instance itself and, for a partial chain, its operator after
    # the first step, a symmetric extension with the defect one lower
    cases = partial = 0
    for seed in range(6):
        a, z, _ = random_instance(seed + 140, max_dim=8)
        chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=doubled)
        exts = [EmbeddedExtension.from_chain(chain)]
        if len(chain.steps) > 1:
            exts.append(EmbeddedExtension.canonical(chain.operator(0), chain.final))
        for ext in exts:
            base = ext.base
            grid = default_lambda_grid(z, ext.atilde_matrix())[::5]
            f = ParameterFunction.from_extension(ext, z, grid)
            for lam in grid + tuple(np.conj(grid)):
                got = shtraus_resolvent(base, z, f, lam)
                want = shtraus_oracle(base, z, f, lam)
                scale = max(1.0, opnorm(want))
                assert opnorm(got - want) <= 1e-12 * scale, (seed, lam)
                # the Cayley-form extension B = lam + R^{-1} extends the base
                b = lam * np.eye(base.ambient_dim) + np.linalg.inv(got)
                assert graph_contains(operator_from_matrix(b), base), (seed, lam)
                cases += 1
                partial += base is not a
    assert cases >= 100 and partial >= 10


def test_shtraus_singular_z_is_typed(worked_a, monkeypatch):
    # F = 1 makes T N = N, so V - Q = [U_z M_z - M_z, T N - N] has an exact zero
    # column and admissibility a margin of 0. Admissibility rejects that first;
    # with its verdict forced to pass (its margin kept), the formula must still
    # end in ResolventSingular, not in numpy's LinAlgError or a RuntimeWarning
    f = ParameterFunction.constant(worked_a, 1j, np.array([[1.0]], dtype=complex))
    assert np.array_equal(f.range_frame @ f.sample_at(0.5j), f.domain_frame)
    margins = []

    def forced(*args, _fn=resolvents.is_admissible, **kwargs):
        margins.append(_fn(*args, **kwargs).margin)
        return AdmissibilityResult(True, None, margins[-1])
    monkeypatch.setattr(resolvents, "is_admissible", forced)
    for lam in (0.5j, -0.5j):
        with pytest.raises(ResolventSingular):
            shtraus_resolvent(worked_a, 1j, f, lam)
    assert margins == [0.0, 0.0]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.5, np.nan)])
def test_shtraus_non_finite_sample_is_typed(worked_a, value):
    f = ParameterFunction.constant(worked_a, 1j, np.array([[value]], dtype=complex))
    for lam in (0.5j, -0.5j):
        with pytest.raises(ResolventSingular):
            shtraus_resolvent(worked_a, 1j, f, lam)


def test_shtraus_rejects_an_expanding_sample(worked_a):
    # the gate a ContractionParameter applies, on both branches
    f = ParameterFunction.constant(worked_a, 1j, np.array([[1.0 + 1e-6]], dtype=complex))
    for lam in (0.5j, -0.5j):
        with pytest.raises(ValueError, match="expanding"):
            shtraus_resolvent(worked_a, 1j, f, lam)


def test_shtraus_expanding_sample_is_typed(worked_a):
    # a norm of 1 + 5e-8 passes the sample guard at 1 + TOL.sample_expansion
    # and fails the gate at 1 + TOL.expanding, on both branches and in
    # ContractionParameter, with a typed error that shows the excess
    matrix = np.array([[1.0 + 5e-8]], dtype=complex)
    assert 1.0 + TOL.expanding < opnorm(matrix) <= 1.0 + TOL.sample_expansion
    f = ParameterFunction.constant(worked_a, 1j, matrix)
    for lam in (0.5j, -0.5j):
        with pytest.raises(ExpandingParameter, match=r"1 \+ 5\.000e-08"):
            shtraus_resolvent(worked_a, 1j, f, lam)
    with pytest.raises(ExpandingParameter, match=r"1 \+ 5\.000e-08"):
        ContractionParameter.from_matrix(defect_data(worked_a, 1j), matrix)


def count_linalg(monkeypatch, names):
    """Record ``(shape, compute_uv)`` of every call to the named ``np.linalg`` functions."""
    calls = {name: [] for name in names}
    for name in names:
        def counted(m, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name].append((m.shape, kwargs.get("compute_uv", True)))
            return _fn(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def cost_case():
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=8, defect=2, seed=5))
    ext = EmbeddedExtension.from_chain(build_invertible_selfadjoint(a, 1j, seed=0))
    return a, ext, default_lambda_grid(1j, ext.atilde_matrix())


def test_shtraus_per_lambda_cost(monkeypatch):
    # once the base point is cached, a lam costs one values-only d x d SVD
    # (admissibility), one inverse (of G) and no QR: the inverse and the
    # admissibility margin certify the ResolventSingular gate, and D(T), framed
    # by N_z's own frame, needs no test
    a, ext, grid = cost_case()
    f = ParameterFunction.from_extension(ext, 1j, grid)
    # the sampler filled A's defect data at lam0: the formula needs no frame of
    # D(A)^perp, so even the first call takes no complement
    complements, complement = [], sx.Subspace.complement
    monkeypatch.setattr(sx.Subspace, "complement",
                        lambda self: complements.append(self) or complement(self))
    shtraus_resolvent(a, 1j, f, grid[0])
    assert complements == []
    monkeypatch.undo()
    shtraus_resolvent(a, 1j, f, np.conj(grid[0]))
    calls = count_linalg(monkeypatch, ("svd", "qr", "inv"))
    # besides the admissibility SVD, only the n x n norm of the sample (n = 2 here),
    # on the adjoint branch too
    for lam in (grid[1], np.conj(grid[1])):
        for name in calls:
            calls[name].clear()
        shtraus_resolvent(a, 1j, f, lam)
        assert calls["svd"] == [((2, 2), False), ((8, 8), False)]
        assert calls["qr"] == [] and calls["inv"] == [((8, 8), True)]


def test_spectral_sampler_per_lambda_cost(monkeypatch):
    # a certified lam takes no QR and no SVD but the n x n norm of its sample
    a, ext, grid = cost_case()
    ParameterFunction.from_extension(ext, 1j, grid[:1])
    calls = count_linalg(monkeypatch, ("svd", "qr"))
    ParameterFunction.from_extension(ext, 1j, grid)
    assert calls["qr"] == [] and calls["svd"] == [((2, 2), False)] * len(grid)


def counted_rank_split(monkeypatch, certify=True):
    """Shapes of the rank_split calls of ``resolvents``; with ``certify`` False every
    clears_cut certificate is refused, so each gate takes the exact path."""
    cut = []
    if not certify:
        monkeypatch.setattr(resolvents, "clears_cut", lambda *args, **kwargs: False)
    monkeypatch.setattr(resolvents, "rank_split",
                        lambda m, *args, **kwargs: cut.append(m.shape) or rank_split(
                            m, *args, **kwargs))
    return cut


def test_uncertified_lambda_takes_the_exact_path(monkeypatch):
    # eigenvalues up to 2e6: kappa (eigh rounding) and |Im lam| = 2e-8 put the
    # sampler's bound on s_min below the cut, so rank_split decides every gate,
    # and samples and resolvents have the bits of a run with no certificate
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=6, defect=1, spectrum_window=(0.5, 2e6),
                                         seed=1))
    ext = EmbeddedExtension.from_chain(build_invertible_selfadjoint(a, 1j, seed=0))
    lams = (0.3 + 2e-8j, -0.7 + 3e-8j, 0.2 + 0.4j)
    runs = []
    for certify in (True, False):
        cut = counted_rank_split(monkeypatch, certify)
        f = ParameterFunction.from_extension(ext, 1j, lams)
        assert cut == [(6, 6)] * len(lams)
        values = [f.sample_at(lam) for lam in lams]
        values += [shtraus_resolvent(a, 1j, f, lam) for lam in lams]
        # M's gate is certified by its inverse here, unless the certificate is refused
        assert len(cut) == len(lams) * (1 if certify else 2)
        runs.append([m.tobytes() for m in values])
        monkeypatch.undo()
    assert runs[0] == runs[1]


def test_parameter_function_sampling(worked_a):
    mat = np.array([[0.25j]], dtype=complex)
    f = ParameterFunction.from_samples(worked_a, 1j, {0.5 + 0.5j: mat})
    assert np.allclose(f.sample_at(0.5 + 0.5j + 1e-10), mat)
    with pytest.raises(KeyError):
        f.sample_at(0.7 + 0.5j)


def test_default_lambda_grid_properties(worked_a):
    ext = doubled_ext(worked_a)
    grid = default_lambda_grid(1j, ext.atilde_matrix())
    eigs = np.linalg.eigvalsh(ext.atilde_matrix())
    assert len(grid) >= 20
    for lam in grid:
        assert lam.imag > 1e-6
        assert np.min(np.abs(eigs - lam)) > 1e-6
        assert abs(lam) > 1e-6


def test_i_admissibility_rejects_noninvertible_constant(worked_a):
    f = ParameterFunction.constant(worked_a, 1j, np.array([[-1.0]], dtype=complex))
    verdict = i_admissibility_test(worked_a, 1j, f)
    assert not verdict.admissible
    assert np.allclose(verdict.witness, [0.0, 1.0], atol=1e-8)
    assert verdict.witness_limit_residual < 1e-8
    assert verdict.witness_rate_proxy < verdict.tolerances["rate_bound"]


def test_i_admissibility_accepts_invertible_constant(worked_a):
    f = ParameterFunction.constant(worked_a, 1j, np.array([[1j]], dtype=complex))
    verdict = i_admissibility_test(worked_a, 1j, f)
    assert verdict.admissible and verdict.witness is None


def test_i_admissibility_accepts_from_extension(worked_a):
    ext = doubled_ext(worked_a)
    sector = SectorSpec.default_for(1j)
    points = [lam for pts in sector.sample_points().values() for lam in pts]
    f = ParameterFunction.from_extension(ext, 1j, points)
    verdict = i_admissibility_test(worked_a, 1j, f, sector)
    assert verdict.admissible


def test_i_admissibility_dense_range_accepts_everything():
    # defect 0: D(X) = {0}, every parameter function passes immediately
    h = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=3, defect=0, seed=9))
    f = ParameterFunction.constant(h, 1j, np.zeros((0, 0), dtype=complex))
    verdict = i_admissibility_test(h, 1j, f)
    assert verdict.admissible


def test_i_admissibility_insufficient_samples(worked_a):
    sector = SectorSpec(half_plane_sign=1, epsilon=np.pi / 6,
                        ray_angles=(np.pi / 2,), radii=(0.25, 0.2, 0.15))
    f = ParameterFunction.constant(worked_a, 1j, np.array([[1j]], dtype=complex))
    with pytest.raises(InsufficientSamples):
        i_admissibility_test(worked_a, 1j, f, sector)


def test_inverse_pair_requires_invertible(worked_a):
    ext = canonical_diag(worked_a, 3.0)
    pair = ext.inverse_pair()
    assert np.allclose(pair.atilde_matrix(), np.diag([1.0, 1.0 / 3.0]), atol=1e-12)
    singular = operator_from_matrix(np.diag([1.0, 0.0]).astype(complex))
    bad = EmbeddedExtension.canonical(worked_a, singular)
    with pytest.raises(SpectrumHit):
        bad.inverse_pair()


def grid_and_sector(lambda0, ext):
    """The points the CLI and the boundary test sample F at."""
    sector = SectorSpec.default_for(lambda0).sample_points()
    return (list(default_lambda_grid(lambda0, ext.atilde_matrix()))
            + [lam for ray in sector.values() for lam in ray])


def engine_vs_oracle(ext, lambda0):
    """Largest entrywise gap between from_extension samples and frak_f."""
    points = grid_and_sector(lambda0, ext)
    f = ParameterFunction.from_extension(ext, lambda0, points)
    frames = (f.domain_frame, f.range_frame)
    assert len(f.sampled_points()) == len(points)
    worst = 0.0
    for lam in points:
        sample, oracle = f.sample_at(lam), frak_f(ext, lam, lambda0, frames)
        assert sample.shape == oracle.shape
        if sample.size:
            worst = max(worst, float(np.max(np.abs(sample - oracle))))
    return worst


@pytest.mark.parametrize("doubled", [True, False])
def test_from_extension_matches_frak_f_on_chains(doubled):
    for seed in range(6):
        a, z, _ = random_instance(seed + 40, max_dim=7)
        chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=doubled)
        assert engine_vs_oracle(EmbeddedExtension.from_chain(chain), z) <= 1e-12


def test_from_extension_matches_frak_f_canonical_family(worked_a):
    for b in (3.0, -1.0, 0.5):
        ext = canonical_diag(worked_a, b)
        assert engine_vs_oracle(ext, 1j) <= 1e-12
        f = ParameterFunction.from_extension(ext, 1j, (0.2 + 0.7j,))
        assert abs(f.sample_at(0.2 + 0.7j)[0, 0] - (b + 1j) / (b - 1j)) < 1e-10


def test_from_extension_defect_zero_empty():
    h = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=3, defect=0, seed=4))
    ext = EmbeddedExtension.canonical(h, h)
    f = ParameterFunction.from_extension(ext, 1j, (0.4 + 0.6j, -0.3 + 0.2j))
    assert all(f.sample_at(lam).shape == (0, 0) for lam in f.sampled_points())


def test_from_extension_halfplane_guard(worked_a):
    ext = doubled_ext(worked_a)
    with pytest.raises(ValueError, match="half-plane"):
        ParameterFunction.from_extension(ext, 1j, (0.3 + 0.5j, 0.5 - 0.5j))


def test_from_extension_non_hermitian_within_gate():
    # a skew perturbation of the exit block, orthogonal to the lifted domain,
    # that the EmbeddedExtension gate still admits; samples taken from the
    # Hermitian part alone, without the correction step, miss frak_f by 6e-9
    a, z, _ = random_instance(77, max_dim=6)
    chain = build_invertible_selfadjoint(a, z, seed=1, double_first=True)
    m = chain.final.to_matrix()
    d = a.ambient_dim
    rng = np.random.default_rng(5)
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    bump = np.zeros_like(m)
    bump[d:, d:] = 4e-9 * np.linalg.norm(m, 2) * k / np.linalg.norm(k, 2)
    ext = EmbeddedExtension(a, operator_from_matrix(m + bump), np.eye(2 * d, d), d)
    skew = ext.atilde_matrix() - ext.atilde_matrix().conj().T
    assert np.linalg.norm(skew, 2) > 1e-9 * np.linalg.norm(m, 2)
    assert engine_vs_oracle(ext, z) <= 1e-12
    grid = default_lambda_grid(z, ext.atilde_matrix())
    f = ParameterFunction.from_extension(ext, z, grid)
    worst = max(float(np.linalg.norm(shtraus_resolvent(a, z, f, lam)
                                     - compressed_resolvent(ext, lam), 2)) for lam in grid)
    assert worst < 1e-12


def _bits(fact) -> list:
    """The arrays and numbers of a memoized fact, for a bitwise comparison."""
    if isinstance(fact, DefectData):
        return [fact.z, fact.defect_numbers] + [
            space.frame for space in (fact.m_z, fact.n_z, fact.m_zbar, fact.n_zbar)
        ] + _bits(fact.u)
    if isinstance(fact, ForbiddenOperator):
        return [fact.z, fact.single_valued, fact.relation.graph.frame] + _bits(fact.operator)
    if isinstance(fact, DomainOperator):
        return [fact.domain.frame, fact.action]
    if isinstance(fact, tuple):
        return [x for part in fact for x in _bits(part)]
    return [fact]


def _memo_matches_scratch(op, a, scratch):
    """Each fact in op's memo has the bits of its computation on a fresh copy of a,
    and ``scratch`` names every key the memo holds, with that computation."""
    assert set(op._memo) == set(scratch)
    for key, kept in op._memo.items():
        fresh = decode_operator(json.loads(json_dump(encode_operator(a))))
        want = scratch[key](fresh)
        assert all(np.array_equal(x, y) for x, y in zip(_bits(kept), _bits(want))), key
    return [weakref.ref(fact) for fact in op._memo.values()
            if isinstance(fact, (DefectData, DomainOperator))]


def test_operator_memo_sound_and_weak():
    a, z, _ = random_instance(81, max_dim=6)
    ext = EmbeddedExtension.from_chain(build_invertible_selfadjoint(a, z, seed=2))
    grid = default_lambda_grid(z, ext.atilde_matrix())
    f = ParameterFunction.from_extension(ext, z, grid)
    points = list(grid[:3]) + [np.conj(lam) for lam in grid[:3]]
    copy = decode_operator(json.loads(json_dump(encode_operator(a))))
    assert copy is not a and "_memo" not in vars(copy)
    for lam in points:
        # the copy misses the memo on each branch's first point; a keeps what
        # its chain build computed and misses the Shtraus entries once
        assert np.array_equal(shtraus_resolvent(copy, z, f, lam),
                              shtraus_resolvent(a, z, f, lam))
    # the Shtraus formula reads these on both branches, and nothing else
    held = _memo_matches_scratch(copy, a, {
        "symmetric": is_symmetric,
        ("defect_data", z): lambda fresh: defect_data(fresh, z),
        ("defect_data", np.conj(z)): lambda fresh: defect_data(fresh, np.conj(z))})
    assert len(held) == 2
    gone = weakref.ref(copy)
    del copy
    gc.collect()
    assert gone() is None and all(fact() is None for fact in held)
    assert ("defect_data", complex(z)) in a._memo


def test_invertibility_memo_sound():
    # check_invertibility keeps A's verdicts, its record at z and X_{1/z}(A^{-1}),
    # that record relabelled, each with the bits a fresh copy of A computes
    for seed in range(6):
        a, z, _ = random_instance(seed, max_dim=6)
        copy = decode_operator(json.loads(json_dump(encode_operator(a))))
        parameter = random_contraction(np.random.default_rng(seed), defect_data(copy, z))
        check_invertibility(copy, z, parameter)
        _memo_matches_scratch(copy, a, {
            "symmetric": is_symmetric,
            "injective": is_injective,
            ("defect_data", z): lambda fresh: defect_data(fresh, z),
            ("forbidden_of_inverse", z): lambda fresh: forbidden_operator(
                inverse_op(fresh), 1.0 / z, dd=defect_data(fresh, z).of_inverse())})


def test_extension_memo_sound_and_weak():
    # check_invertibility -> extend -> recover_parameter keeps B in T's memo, and
    # B's verdicts and its SVD of (B - z)F_B in B's, each with the bits of its
    # computation on fresh copies; A's memo keeps what the check alone keeps, and
    # B is freed with its parameter and report
    for seed in range(6):
        a, z, _ = random_instance(seed, max_dim=6)
        copy = decode_operator(json.loads(json_dump(encode_operator(a))))
        dd = defect_data(copy, z)
        parameter = random_contraction(np.random.default_rng(seed), dd)
        check_invertibility(copy, z, parameter)
        report = extend(copy, z, parameter, dd)
        recover_parameter(copy, report.b, z)

        def fresh_a():
            return decode_operator(json.loads(json_dump(encode_operator(a))))
        held = _memo_matches_scratch(parameter.t, parameter.t, {
            ("extension", copy, dd): lambda fresh, kind=parameter.kind: construct_extension(
                fresh_a(), z, ContractionParameter(z, fresh, kind))})
        _memo_matches_scratch(report.b, report.b, {
            "symmetric": is_symmetric,
            "injectivity": injectivity,
            ("extends", copy): lambda fresh: graph_contains(fresh, fresh_a()),
            ("shifted", z): lambda fresh: rank_split(
                fresh.action - z * fresh.domain.frame, fresh.tol, floor=0.0, part="svd")})
        _memo_matches_scratch(copy, a, {
            "symmetric": is_symmetric,
            "injective": is_injective,
            ("defect_data", z): lambda fresh: defect_data(fresh, z),
            ("forbidden_of_inverse", z): lambda fresh: forbidden_operator(
                inverse_op(fresh), 1.0 / z, dd=defect_data(fresh, z).of_inverse())})
        assert len(held) == 1
        del parameter, report
        gc.collect()
        assert held[0]() is None, seed
