"""Exit-space extensions: compressed resolvents, the L/B/F chain, boundary test."""

import dataclasses
import gc
import itertools
import json
import sys
import weakref

import numpy as np
import pytest

import symext as sx
from symext import resolvents
from symext.cayley import (AdmissibilityResult, DefectData, _admissibility_bounds, defect_data,
                           forbidden_of_inverse, forbidden_operator, is_admissible)
from symext.errors import (ExpandingParameter, InsufficientSamples, NotAdmissible,
                           ProjectionDegenerate, ResolventSingular, SpectrumHit)
from symext.invertibility import build_invertible_selfadjoint, check_invertibility, double
from symext.neumann import ContractionParameter, construct_extension, extend, recover_parameter
from symext.operators import (DomainOperator, graph_contains, graph_distance, injectivity,
                              inverse_op, is_symmetric, operator_from_matrix)
from symext.resolvents import (EmbeddedExtension, ParameterFunction,
                               compressed_resolvent, default_lambda_grid,
                               frak_b, frak_f, i_admissibility_test,
                               script_l, shtraus_resolvent)
from symext.serialize import decode_operator, encode_operator, json_dump
from symext.subspaces import TOL, SectorSpec, Subspace, clears_cut, opnorm, rank_split

from conftest import random_contraction, random_instance, worked_parameter


def canonical_diag(worked_a, b):
    atilde = operator_from_matrix(np.diag([1.0, b]).astype(complex))
    return EmbeddedExtension(worked_a, atilde)


def doubled_ext(worked_a, seed=0):
    chain = build_invertible_selfadjoint(worked_a, 1j, seed=seed, double_first=True)
    return EmbeddedExtension.from_chain(chain)


def test_embedded_extension_validation(worked_a):
    good = operator_from_matrix(np.diag([1.0, 4.0]).astype(complex))
    assert EmbeddedExtension(worked_a, good).exit_dim == 0
    with pytest.raises(ValueError, match="total on"):
        # on fewer coordinates than the base
        EmbeddedExtension(worked_a, operator_from_matrix(np.array([[1.0]], dtype=complex)))
    with pytest.raises(ValueError, match="total on"):
        partial = DomainOperator(Subspace(np.array([[1.0], [0.0]], dtype=complex)),
                                 np.array([[1.0], [0.0]], dtype=complex))
        EmbeddedExtension(worked_a, partial)
    with pytest.raises(ValueError):
        EmbeddedExtension(worked_a, operator_from_matrix(np.array([[1.0, 1.0],
                                                                   [0.0, 2.0]], dtype=complex)))
    with pytest.raises(ValueError):
        # Hermitian but does not extend A
        EmbeddedExtension(worked_a, operator_from_matrix(np.diag([5.0, 1.0]).astype(complex)))


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
    mu, kappa = ext._spectrum
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
    return EmbeddedExtension(a, operator_from_matrix(m + bump))


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
        left = sx.orthonormalize(m @ script_l(ext, lam).frame)
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
    ext = EmbeddedExtension(base, operator_from_matrix(np.diag([2.0, 3.0]).astype(complex)))
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
    ext = EmbeddedExtension(h, h)
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
    t = sx.DomainOperator(sx.Subspace(dom, a.tol), rng @ mat)
    b = construct_extension(a, z, ContractionParameter(z, t))
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
            exts.append(EmbeddedExtension(chain.operator(0), chain.final))
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


def cost_case(doubled=False):
    # doubled, chain seed 1: samples of Frobenius norm above 1, whose norm takes an SVD
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=8, defect=2, seed=5))
    ext = EmbeddedExtension.from_chain(
        build_invertible_selfadjoint(a, 1j, seed=int(doubled), double_first=doubled))
    return a, ext, default_lambda_grid(1j, ext.atilde_matrix())


def test_shtraus_per_lambda_cost(monkeypatch):
    # F sampled from an exit space (a doubled chain, e = 8) keeps its frame stage per
    # branch and runs the rest at every lam: once the base point's record is kept, a
    # lam costs two values-only n x n SVDs (n = 2 here: the sample's norm, and
    # Y = W2^H C, whose bounds certify admissibility), one LU solve (of G^T), no
    # inverse, no d x d SVD and no QR: the solve and the certified margin certify the
    # ResolventSingular gate, and D(T), framed by N_z's own frame, needs no test
    a, ext, grid = cost_case(doubled=True)
    assert ext.exit_dim == 8
    f = ParameterFunction.from_extension(ext, 1j, grid)
    # the sampler filled A's defect data at lam0: the formula needs no frame of
    # D(A)^perp, so even the first call takes no complement
    complements, complement = [], sx.Subspace.complement
    monkeypatch.setattr(sx.Subspace, "complement",
                        lambda self: complements.append(self) or complement(self))
    calls = count_linalg(monkeypatch, ("svd", "qr", "inv", "solve"))
    shtraus_resolvent(a, 1j, f, grid[0])
    assert complements == []
    # the first lam at a base point adds the one full SVD of P^H, (d - n) x d
    assert calls["svd"] == [((2, 2), False), ((6, 8), True), ((2, 2), False)]
    assert calls["qr"] == calls["inv"] == [] and calls["solve"] == [((8, 8), True)]
    monkeypatch.undo()
    shtraus_resolvent(a, 1j, f, np.conj(grid[0]))
    calls = count_linalg(monkeypatch, ("svd", "qr", "inv", "solve"))
    # on the adjoint branch too
    for lam in (grid[1], np.conj(grid[1])):
        for name in calls:
            calls[name].clear()
        shtraus_resolvent(a, 1j, f, lam)
        assert calls["svd"] == [((2, 2), False)] * 2
        assert calls["qr"] == calls["inv"] == [] and calls["solve"] == [((8, 8), True)]
    assert len(f._memo) == 2


def test_shtraus_at_e0_pays_the_parameter_stage_once_per_branch(monkeypatch):
    # with no exit space F is constant, and F keeps the parameter stage per branch:
    # the first lam of a branch pays it (the sample's norm, Y's values, and on the
    # first branch the SVD of P^H), every later lam one LU solve, of G^T, and no
    # inverse, SVD or QR
    a, ext, grid = cost_case()
    assert ext.exit_dim == 0
    f = ParameterFunction.from_extension(ext, 1j, grid)
    calls = count_linalg(monkeypatch, ("svd", "qr", "inv", "solve"))
    for branch in (grid, np.conj(grid)):
        for name in calls:
            calls[name].clear()
        shtraus_resolvent(a, 1j, f, branch[0])
        assert calls["svd"][0] == calls["svd"][-1] == ((2, 2), False)
        for lam in branch[1:]:
            for name in calls:
                calls[name].clear()
            shtraus_resolvent(a, 1j, f, lam)
            assert calls["svd"] == calls["qr"] == calls["inv"] == []
            assert calls["solve"] == [((8, 8), True)]
    assert len(f._memo) == 2


def fresh_parameter(f):
    """A new F with ``f``'s samples, constant matrix and frames, and an empty memo."""
    return ParameterFunction(f.lambda0, f.domain_frame, f.range_frame, dict(f.samples),
                             f.constant_matrix)


def test_kept_parameter_stage_changes_no_bit(worked_a):
    # a resolvent read through F's kept stage has the bits of one from a fresh F,
    # on every grid point and its conjugate: undoubled chains, whose F is constant,
    # and constant parameters of the worked family
    cases = [(ext.base, z, ParameterFunction.from_extension(
        ext, z, default_lambda_grid(z, ext.atilde_matrix()))) for ext, z in e0_cases(worked_a)]
    cases += [(worked_a, 1j, ParameterFunction.constant(worked_a, 1j, np.array([[c]], complex)))
              for c in (0.3 - 0.4j, 1j, -0.5, 0.9)]
    for a, z, f in cases:
        assert f.constant_matrix is not None
        grid = default_lambda_grid(z)
        for lam in grid + tuple(np.conj(grid)):
            kept = shtraus_resolvent(a, z, f, lam)
            assert np.array_equal(kept, shtraus_resolvent(a, z, fresh_parameter(f), lam))
        assert len(f._memo) == 2


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value, error, text", [
    (1.0, NotAdmissible, "fixed vector"),
    (1.0 + 1e-6, ExpandingParameter, "expanding"),
    (np.nan, ResolventSingular, "not finite"),
])
def test_failed_parameter_stage_is_not_kept(worked_a, worked_dd, value, error, text):
    # each call runs the stage anew and raises with its own lam; F's memo stays empty
    f = ParameterFunction.constant(worked_a, 1j, np.array([[value]], dtype=complex))
    witness = is_admissible(worked_a, 1j, worked_parameter(worked_dd, 1.0).t).witness
    for lam in (0.5j, 0.3 + 0.7j, -0.5j, 0.3 - 0.7j):
        with pytest.raises(error, match=text) as raised:
            shtraus_resolvent(worked_a, 1j, f, lam)
        if error is NotAdmissible:
            assert np.array_equal(raised.value.witness, witness)
        if error is ResolventSingular:
            assert str(lam) in str(raised.value)
        assert f._memo == {}


def test_parameter_function_owns_read_only_samples(worked_a):
    # constant and from_samples copy the caller's matrix: editing it moves nothing,
    # and F's own arrays, an exit space's samples too, refuse a write
    m = np.array([[0.3 - 0.4j]], dtype=complex)
    f = ParameterFunction.constant(worked_a, 1j, m)
    g = ParameterFunction.from_samples(worked_a, 1j, {0.5j: m})
    before = [shtraus_resolvent(worked_a, 1j, h, 0.5j) for h in (f, g)]
    assert f.sample_at(0.3j) is not m and g.sample_at(0.5j) is not m
    m[0, 0] = 0.9
    assert [shtraus_resolvent(worked_a, 1j, h, 0.5j).tobytes() for h in (f, g)] == [
        x.tobytes() for x in before]
    ext = doubled_ext(worked_a)
    sampled = ParameterFunction.from_extension(ext, 1j, (0.5j, 0.3 + 0.7j))
    for sample in (f.sample_at(0.3j), g.sample_at(0.5j), sampled.sample_at(0.5j),
                   sampled.sample_at(0.3 + 0.7j)):
        with pytest.raises(ValueError, match="read-only"):
            sample[0, 0] = 0.9


def test_sampled_parameter_keeps_its_frame_stage(monkeypatch):
    # a doubled chain's F depends on lam: it keeps its frame stage alone, built once
    # per branch and A, which it holds weakly; each kept array has the bits of the
    # frame stage of a fresh copy of A, which no lam and no sample enters, and a
    # resolvent read through it has the bits of one from a fresh F
    a, z, _ = random_instance(81, max_dim=6)
    ext = EmbeddedExtension.from_chain(build_invertible_selfadjoint(a, z, seed=2,
                                                                    double_first=True))
    grid = default_lambda_grid(z, ext.atilde_matrix())
    f = ParameterFunction.from_extension(ext, z, grid)
    assert f.constant_matrix is None
    frame_stage, builds = resolvents._frame_stage, []
    monkeypatch.setattr(resolvents, "_frame_stage",
                        lambda *args: builds.append(args[1]) or frame_stage(*args))
    copy = decode_operator(json.loads(json_dump(encode_operator(a))))
    points = grid + tuple(np.conj(grid))
    for op in (a, copy):
        del builds[:]
        kept = [shtraus_resolvent(op, z, f, lam) for lam in points]
        assert builds == [z, np.conj(z)]
        for lam, value in zip(points, kept):
            assert np.array_equal(value, shtraus_resolvent(op, z, fresh_parameter(f), lam))
    held = dict(f._memo)
    assert len(held) == 4
    for (lambda0, up, ref), stage in held.items():
        assert lambda0 == z and ref() in (a, copy)
        dom = f.domain_frame if up else f.range_frame
        fresh = frame_stage(decode_operator(json.loads(json_dump(encode_operator(a)))),
                            z if up else np.conj(z), dom)
        kept_bits, fresh_bits = _bits(stage), _bits(fresh)
        assert len(kept_bits) == len(fresh_bits)
        assert all(np.array_equal(x, y) for x, y in zip(kept_bits, fresh_bits))
    # a further pass builds nothing and keeps the same objects
    del builds[:]
    for lam in points:
        shtraus_resolvent(a, z, f, lam)
    assert builds == [] and all(f._memo[key] is stage for key, stage in held.items())
    gone = weakref.ref(copy)
    del copy, op, held, kept
    gc.collect()
    assert gone() is None
    # F's frames are not A's defect spaces for 2A: the frame stage raises at every
    # lam and keeps nothing
    other = sx.scale_op(a, 2.0)
    before = dict(f._memo)
    for lam in points[:2]:
        with pytest.raises(sx.ParameterShapeViolation, match="domain is not inside"):
            shtraus_resolvent(other, z, f, lam)
    assert len(builds) == 2 and f._memo == before


def test_check_inversion_per_lambda_cost(monkeypatch):
    # with no exit space: F at lam and at 1/lam, each one LU solve (no Cholesky, no
    # lstsq); B_lam and B_{1/lam}, each one LU inverse of P_H|L = I, whose
    # injectivity the Weyl bound certifies with no SVD; the rest are the
    # values-only SVDs of the three errors
    from symext.checks import check_inversion
    a, ext, grid = cost_case()
    check_inversion(ext, grid[:1], 1j)
    calls = count_linalg(monkeypatch, ("svd", "lstsq", "solve", "inv", "cholesky"))
    assert all(r.passed for r in check_inversion(ext, grid[1:2], 1j))
    assert calls["lstsq"] == calls["cholesky"] == []
    assert calls["solve"] == calls["inv"] == [((8, 8), True)] * 2
    assert calls["svd"] == [((8, 8), False), ((16, 8), False),
                            ((2, 2), False), ((2, 2), False), ((2, 2), False)]


def test_check_inversion_per_lambda_cost_with_an_exit_space(monkeypatch):
    # a doubled chain (e = 8) at a certified lam: L_lam and L_{1/lam} are each one
    # complete QR of the 8 x 16 constraint's adjoint, and B_lam and B_{1/lam} one
    # LU inverse each, so the inversion stages take no full SVD and no SVD with
    # vectors: every SVD is a values-only one of the three errors
    from symext.checks import check_inversion
    a, ext, grid = cost_case(doubled=True)
    assert ext.exit_dim == 8
    check_inversion(ext, grid[:1], 1j)
    calls = count_linalg(monkeypatch, ("svd", "qr", "lstsq", "solve", "inv", "cholesky"))
    assert all(r.passed for r in check_inversion(ext, grid[1:2], 1j))
    assert calls["lstsq"] == calls["cholesky"] == []
    assert calls["solve"] == calls["inv"] == [((8, 8), True)] * 2
    # script_l, the QR of Atilde F_L, script_l at 1/lam, the frames of the two graphs
    assert calls["qr"] == [((16, 8), True)] * 5
    assert calls["svd"] == [((16, 8), False), ((16, 8), False),
                            ((2, 2), False), ((2, 2), False), ((2, 2), False)]


def test_check_inversion_at_e0_takes_one_lambda(monkeypatch):
    # with no exit space L_lam is C^d and B_lam is Atilde at every lam: the whole
    # grid takes the factorizations of one lam: those pinned above, the QR of
    # Atilde F_L and the QRs that frame graph(B_lam) and graph(B_{1/lam}); script_l
    # factors nothing
    from symext.checks import check_inversion
    a, ext, grid = cost_case()
    assert ext.exit_dim == 0 and len(grid) == 24
    check_inversion(ext, grid[:1], 1j)
    calls = count_linalg(monkeypatch, ("svd", "qr", "lstsq", "solve", "inv", "cholesky"))
    assert all(r.passed for r in check_inversion(ext, grid, 1j))
    assert calls["lstsq"] == calls["cholesky"] == []
    assert calls["qr"] == [((8, 8), True)] + [((16, 8), True)] * 2
    assert calls["solve"] == calls["inv"] == [((8, 8), True)] * 2
    assert calls["svd"] == [((8, 8), False), ((16, 8), False),
                            ((2, 2), False), ((2, 2), False), ((2, 2), False)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ProjectionDegenerate as exc:
        return str(exc)


@pytest.mark.parametrize("diagonal, column, refusal", [
    ((0.7, -0.4 + 1j, 1.3), 0, None),  # Im(B - lam0) = diag(-1, 0, -1): still a sample
    ((0.7, 2j, 1.3), 1, "quotient is expanding"),  # Im(B - lam0) = diag(-1, 1, -1)
    ((0.7, 1j, 1.3), 0, "outside the range"),  # B - lam0 singular: an exact zero pivot
    ((0.7, 1j + 1e-17, 1.3), 1, "quotient is expanding"),  # numerically singular
    ((0.7, 1e17, 1.3), 0, None),  # |B| = 1e17 leaves the diagonal solve exact
], ids=["no-margin", "expanding", "singular", "numerically-singular", "large-norm"])
def test_total_b_takes_one_lu_solve(monkeypatch, diagonal, column, refusal):
    # a hand-built total B: F(lam) is one LU solve of B - lam0, with no lstsq and no
    # Cholesky; it gives the sample (b - lam0bar)/(b - lam0) on the defect column, or
    # the guards of _checked_sample refuse it
    bop = operator_from_matrix(np.diag(diagonal).astype(complex))
    eye = np.eye(3, dtype=complex)
    frames, lam = (eye[:, [column]], eye), 0.2 + 0.5j
    calls = count_linalg(monkeypatch, ("lstsq", "solve", "cholesky"))
    got = outcome(resolvents._frak_f_from, bop, lam, 1j, frames)
    assert calls == {"lstsq": [], "solve": [((3, 3), True)], "cholesky": []}
    if refusal:
        assert refusal in got
    else:
        b = diagonal[column]
        expected = eye[:, [column]] * (b + 1j) / (b - 1j)
        assert np.allclose(got, expected, rtol=0, atol=4 * np.finfo(float).eps)


def test_spectral_sampler_per_lambda_cost(monkeypatch):
    # with an exit space, the sampler takes one LU of Atilde_HH - lam0, d x d, per call
    # and one LU of the e x e Schur complement per lam: no eigh and no d x d
    # factorization per lam; a certified lam takes no QR and no SVD but the n x n
    # norm of its sample. A doubled chain (e = d = 8) and a block extension (e = 3)
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=8, defect=2, seed=5))
    doubled = EmbeddedExtension.from_chain(
        build_invertible_selfadjoint(a, 1j, seed=1, double_first=True))
    defect_data(a, 1j)  # A keeps its record at lam0 from here on
    for ext in (doubled, block_extension(a, 3, 5)):
        grid = default_lambda_grid(1j, ext.atilde_matrix())
        e = ext.exit_dim
        calls = count_linalg(monkeypatch, ("svd", "qr", "eigh", "eigvalsh", "solve", "inv"))
        ParameterFunction.from_extension(ext, 1j, grid)
        assert calls["qr"] == calls["eigh"] == calls["eigvalsh"] == calls["inv"] == []
        assert calls["solve"] == [((8, 8), True)] + [((e, e), True)] * len(grid)
        if ext is doubled:  # samples of Frobenius norm above 1, whose norm takes an SVD
            assert calls["svd"] == [((2, 2), False)] * len(grid)
        monkeypatch.undo()


def test_sampler_at_e0_takes_one_lambda(monkeypatch):
    # with no exit space F is one sample taken from Atilde: the whole grid takes
    # one LU of Atilde - lam0 and the n x n norm of the one sample; no d x d SVD,
    # no eigh, no QR, no lstsq and no Cholesky
    a, ext, grid = cost_case()
    assert ext.exit_dim == 0 and len(grid) == 24
    calls = count_linalg(monkeypatch, ("svd", "qr", "eigh", "solve", "lstsq", "cholesky"))
    ParameterFunction.from_extension(ext, 1j, grid)
    assert calls["svd"] == [((2, 2), False)]
    assert calls["solve"] == [((8, 8), True)]
    assert calls["qr"] == calls["eigh"] == calls["lstsq"] == calls["cholesky"] == []


def counted_rank_split(monkeypatch, certify=True):
    """Shapes of the rank_split calls of ``resolvents`` and ``cayley``; with ``certify``
    False every clears_cut certificate of ``resolvents`` is refused, so each gate
    takes the exact path."""
    cut = []
    if not certify:
        monkeypatch.setattr(resolvents, "clears_cut", lambda *args, **kwargs: False)
    for module in (resolvents, sys.modules["symext.cayley"]):  # not the function cayley
        monkeypatch.setattr(module, "rank_split",
                            lambda m, *args, **kwargs: cut.append(m.shape) or rank_split(
                                m, *args, **kwargs))
    return cut


def test_uncertified_lambda_takes_the_exact_path(monkeypatch):
    # eigenvalues up to 1e8: at lam = nu + 2e-8 i, nu an eigenvalue of the exit
    # block's Hermitian part, |Im lam| is below half the skew that the extension's
    # gate admitted (2.5e-8 here), so Weyl's bound leaves the sampler no bound on
    # ||X||, and one e x e solve and rank_split decide that gate, as they decide every
    # gate when the certificates are refused; samples and resolvents have the bits of
    # a run with no certificate. A doubled chain, as with no exit space L_lam is C^d
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=6, defect=1, spectrum_window=(0.5, 1e8),
                                         seed=1))
    ext = EmbeddedExtension.from_chain(
        build_invertible_selfadjoint(a, 1j, seed=1, double_first=True))
    assert ext.exit_dim == 6 and 2e-8 < ext._skew / 2 < 1e-7
    block = ext.atilde_matrix()[6:, 6:]
    nu = np.linalg.eigvalsh((block + block.conj().T) / 2)
    defect_data(a, 1j)  # the chain ran on A (+) (-A): A's own record is kept from here on
    lams = (0.3 + 2e-7j, 0.2 + 0.4j, nu[np.argmin(np.abs(nu))] + 2e-8j)
    runs = []
    for certify in (True, False):
        cut = counted_rank_split(monkeypatch, certify)
        f = ParameterFunction.from_extension(ext, 1j, lams)
        assert cut == [(6, 6)] * (1 if certify else len(lams))
        del cut[:]
        values = [f.sample_at(lam) for lam in lams]
        values += [shtraus_resolvent(a, 1j, f, lam) for lam in lams]
        # the record's SVD of P^H, (d - n) x d, which A keeps from the first run on,
        # then per lam the values of Y, n x n; the admissibility gate, and M's gate,
        # are certified by the bounds and the inverse here, unless the certificates
        # are refused and is_admissible and rank_split cut V - Q and M, d x d
        record, exact = ([(5, 6)], []) if certify else ([], [(6, 6)] * 2)
        assert cut == record + ([(1, 1)] + exact) * len(lams)
        runs.append([m.tobytes() for m in values])
        monkeypatch.undo()
    assert runs[0] == runs[1]


def certificate_cases():
    """(A, z, F) with F a constant parameter in the defect frames at z: random_instance
    seeds 0-19, undoubled and doubled, with a strict and a norm-1 random contraction
    and (1 - eps) X_z(A) at eps = 1e-3, 1e-7, 0; X is unitary on N_z, and where T
    agrees with X, U_z (+) T has a fixed vector."""
    for seed in range(20):
        base, z, _ = random_instance(seed)
        for a in (base, double(base)):
            rng = np.random.default_rng(seed)
            dd = defect_data(a, z)
            actions = [random_contraction(rng, dd, strict).t.action for strict in (True, False)]
            x = forbidden_operator(a, z).action
            for action in actions + [(1 - eps) * x for eps in (1e-3, 1e-7, 0)]:
                yield a, z, dd.n_zbar.frame.conj().T @ action


def branch_parameters(a, z, coords):
    """(base point, T) of the constant F = ``coords`` on shtraus_resolvent's two branches."""
    dd = defect_data(a, z)
    for base, dom, rng, m in ((z, dd.n_z.frame, dd.n_zbar.frame, coords),
                              (np.conj(z), dd.n_zbar.frame, dd.n_z.frame, coords.conj().T)):
        yield base, DomainOperator(Subspace(dom, a.tol), rng @ m)


def outcome_bits(fn, *args):
    """The bits of ``fn``'s value, or the type, text and witness bits of its error."""
    try:
        return fn(*args).tobytes()
    except (NotAdmissible, ResolventSingular) as exc:
        witness = getattr(exc, "witness", None)
        return type(exc), str(exc), None if witness is None else witness.tobytes()


def test_admissibility_certificate_implies_the_exact_verdict():
    # where the n x n bounds clear the cut, is_admissible admits T and
    # lower <= s_min(V - Q) <= upper; elsewhere is_admissible decides
    tally = {True: 0, False: 0}
    for a, z, coords in certificate_cases():
        for base, t in branch_parameters(a, z, coords):
            bounds = _admissibility_bounds(a, base, defect_data(a, base), t)
            exact = is_admissible(a, base, t)
            lower, upper = bounds
            slack = TOL.cut_rounding * upper
            assert lower <= exact.margin + slack and exact.margin <= upper + slack
            certified = clears_cut(lower, upper, a.tol)
            assert exact.admissible or not certified
            tally[certified] += 1
    # both paths ran: the certificate fails near X
    assert tally[True] > 0 and tally[False] > 0


def test_refused_admissibility_certificate_changes_no_output(monkeypatch):
    # with every certificate refused, each resolvent, and each error with its
    # witness, has the bits of the certified run, on both branches
    runs = []
    for certify in (True, False):
        if not certify:
            counted_rank_split(monkeypatch, certify=False)
        run = []
        for a, z, coords in certificate_cases():
            f = ParameterFunction.constant(a, z, coords)
            lam = complex(z.real + 0.3, 0.6 * z.imag)
            run += [outcome_bits(shtraus_resolvent, a, z, f, point)
                    for point in (lam, np.conj(lam))]
        runs.append(run)
        monkeypatch.undo()
    assert runs[0] == runs[1]
    assert any(isinstance(x, tuple) and x[0] is NotAdmissible for x in runs[0])


def test_admissibility_fallthrough_keeps_the_exact_errors(worked_a, worked_dd):
    # c = 1 fixes e2, so Y = 0: the exact test raises, with its witness
    t = worked_parameter(worked_dd, 1.0).t
    assert not clears_cut(*_admissibility_bounds(worked_a, 1j, worked_dd, t),
                          worked_a.tol)
    f = ParameterFunction.constant(worked_a, 1j, np.array([[1.0]], dtype=complex))
    for lam in (0.5j, -0.5j):
        with pytest.raises(NotAdmissible) as raised:
            shtraus_resolvent(worked_a, 1j, f, lam)
        assert np.array_equal(raised.value.witness, is_admissible(worked_a, 1j, t).witness)
    # D(T) a proper subspace of N_z: the trivial bounds; the exact test admits T and the
    # formula, which needs a total extension, refuses it
    a, z, _ = random_instance(0)
    dd = defect_data(a, z)
    assert dd.n_z.dim == 2
    t = DomainOperator(Subspace(dd.n_z.frame[:, :1], a.tol), np.zeros((a.ambient_dim, 1), complex))
    assert _admissibility_bounds(a, z, dd, t) == (0.0, np.inf)
    assert is_admissible(a, z, t, dd=dd).admissible
    with pytest.raises(ResolventSingular, match="not total"):
        resolvents._parameter_stage(a, z, t.domain.frame, dd.n_zbar.frame,
                                    np.zeros((2, 1), complex), 0.3 + 0.5 * z.imag * 1j)
    # a record with no U_z: the trivial bounds, and is_admissible's error
    e = np.eye(3, dtype=complex)
    a = DomainOperator(Subspace(e[:, :2], tol=1e-2), np.column_stack([1e3 * e[:, 0], e[:, 1]]))
    dd = defect_data(a, 0.5j)
    assert dd.u is None
    t = DomainOperator(Subspace(dd.n_z.frame, tol=1e-2), np.zeros((3, 2), complex))
    assert _admissibility_bounds(a, 0.5j, dd, t) == (0.0, np.inf)
    f = ParameterFunction.constant(a, 0.5j, np.zeros((2, 2), complex))
    with pytest.raises(ValueError, match="linearly dependent"):
        shtraus_resolvent(a, 0.5j, f, 0.2j)


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


def test_default_lambda_grid_reads_the_hermitian_part(monkeypatch):
    # a skew part of the exit block within the self-adjoint gate moves the eigenvalues
    # of the lower triangle, which is all of a matrix eigvalsh reads, past
    # TOL.grid_clearance; the grid reads those of the Hermitian part, as the
    # SpectrumHit gate does, which the skew part moves by rounding alone
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=6, defect=1, spectrum_window=(0.5, 2e3),
                                         seed=1))
    m = build_invertible_selfadjoint(a, 1j, seed=1, double_first=True).final.to_matrix()
    k = np.random.default_rng(0).standard_normal((6, 6, 2)) @ [1, 1j]
    skew = np.zeros_like(m)
    skew[6:, 6:] = k - k.conj().T
    skew *= 0.4 * TOL.structure_gate * opnorm(m) / opnorm(skew)
    tilted = EmbeddedExtension(a, operator_from_matrix(m + skew)).atilde_matrix()
    herm = (m + m.conj().T) / 2
    exact = np.linalg.eigvalsh(herm)
    assert np.max(np.abs(np.linalg.eigvalsh(tilted) - exact)) > TOL.grid_clearance
    read, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: read.append(eigvalsh(x)) or read[-1])
    assert default_lambda_grid(1j, tilted) == default_lambda_grid(1j, herm)
    assert np.max(np.abs(read[0] - exact)) <= 1e-12 * opnorm(m)


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


def test_f_sampled_at_another_lambda0_is_refused():
    # F's frames are the defect spaces at its own lam0: read at another lam0, the
    # boundary test would judge F in the wrong frames and the Shtraus formula build
    # from them; both refuse, naming the two points
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=6, defect=2, seed=3))
    ext = EmbeddedExtension.from_chain(
        build_invertible_selfadjoint(a, 1j, seed=0, double_first=True))
    sector = SectorSpec.default_for(1j)
    points = [lam for pts in sector.sample_points().values() for lam in pts]
    f = ParameterFunction.from_extension(ext, 2j, points)
    with pytest.raises(ValueError, match="sampled at lam0 = 2j, not at 1j"):
        i_admissibility_test(a, 1j, f, sector)
    with pytest.raises(ValueError, match="sampled at lam0 = 2j, not at 1j"):
        shtraus_resolvent(a, 1j, f, points[0])
    assert i_admissibility_test(a, 1j, ParameterFunction.from_extension(ext, 1j, points),
                                sector).admissible


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
    bad = EmbeddedExtension(worked_a, singular)
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
    assert len(f.samples) == len(points)
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


def block_extension(a, exit_dim, seed):
    """A Hermitian Atilde on C^{d+e} that extends A, for any e: in an orthonormal basis
    [F, G] of C^{d+e}, F the lifted frame of D(A), it has the blocks M = F^H A F,
    B = (A F)^H G and K = B^H M^{-1} B + K1, with K1 random Hermitian and regular."""
    d, k = a.ambient_dim, a.domain_dim
    lifted = np.zeros((d + exit_dim, k), complex)
    lifted[:d] = a.domain.frame
    g = np.linalg.svd(lifted, full_matrices=True)[0][:, k:]  # the complement of F
    images = np.zeros_like(lifted)
    images[:d] = a.action
    m = lifted.conj().T @ images
    b = images.conj().T @ g
    rng = np.random.default_rng(seed)
    k1 = rng.standard_normal((g.shape[1],) * 2) + 1j * rng.standard_normal((g.shape[1],) * 2)
    k_block = b.conj().T @ np.linalg.solve(m, b) + (k1 + k1.conj().T) / 2
    q = np.hstack([lifted, g])
    blocks = np.block([[m, b], [b.conj().T, k_block]])
    return EmbeddedExtension(a, operator_from_matrix(q @ blocks @ q.conj().T))


@pytest.mark.parametrize("exit_dim", [1, 2, 3])
def test_exit_dimensions_other_than_d(exit_dim):
    # d x e blocks that are not square: the sampler's samples are frak_f's, and the
    # Schur form of compressed_resolvent is the direct solve on C^{d+e}
    d = 8
    for seed, z in enumerate((1j, 0.5 - 0.7j, -1.2 + 0.4j, 2j)):
        a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=d, defect=2, seed=seed))
        ext = block_extension(a, exit_dim, seed)
        assert ext.exit_dim == exit_dim
        assert engine_vs_oracle(ext, z) <= 1e-12
        m = ext.atilde_matrix()
        for lam in grid_and_sector(z, ext):
            direct = np.linalg.solve(m - lam * np.eye(d + exit_dim), np.eye(d + exit_dim, d))[:d]
            gap = np.linalg.norm(compressed_resolvent(ext, lam) - direct, 2)
            assert gap <= 1e-13 * np.linalg.norm(direct, 2)


def sampler_cases():
    """(extension, lam0) with an exit space: doubled chains at d = 8, 12 and 16, and
    block extensions at e = 1, 2 and 3."""
    for d in (8, 12, 16):
        a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=d, defect=d // 4, seed=d))
        yield EmbeddedExtension.from_chain(
            build_invertible_selfadjoint(a, 1j, seed=d, double_first=True)), 1j
    for exit_dim, z in ((1, 1j), (2, 0.5 - 0.7j), (3, -1.2 + 0.4j)):
        a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=8, defect=2, seed=exit_dim))
        yield block_extension(a, exit_dim, exit_dim), z


def one_lambda_at_a_time(ext, lambda0, lams):
    """The samples at ``lams`` taken one lam at a time: at each, the P_H gate from Weyl's
    bound or the exact cut, then the bordered solve by block elimination, and
    ``_checked_sample``'s guards on the bordered system and its solution."""
    dd = defect_data(ext.base, lambda0)
    n_frame, nbar_frame = dd.n_z.frame, dd.n_zbar.frame
    m, d, e = ext.atilde_matrix(), ext.base.ambient_dim, ext.exit_dim
    n = n_frame.shape[1]
    kn, khe = np.hsplit(np.linalg.solve(m[:d, :d] - dd.z * np.eye(d),
                                        np.hstack([n_frame, m[:d, d:]])), [n])
    samples = []
    for lam in lams:
        gap = abs(lam.imag) - ext._skew / 2
        lower = gap / np.hypot(gap, np.linalg.norm(m[d:, :d])) if gap > 0 else 0.0
        x_block = np.linalg.solve(m[d:, d:] - lam * np.eye(e), m[d:, :d])
        tol = resolvents.TOL.projection
        if not clears_cut(lower, 1.0, tol) and rank_split(np.linalg.qr(
                np.vstack([np.eye(d), -x_block]))[0][:d], tol)[0] < d:
            raise ProjectionDegenerate(
                f"projection onto H is not injective on the constrained space at {lam}")
        shifted = m[d:, d:] - m[d:, :d] @ khe
        shifted[np.diag_indices(e)] -= lam
        minus_y = np.linalg.solve(shifted, m[d:, :d] @ kn)
        c = kn + khe @ minus_y
        bordered = m - np.diag(np.r_[np.full(d, dd.z), np.full(e, lam)])
        sample = resolvents._checked_sample(
            bordered, np.vstack([c, -minus_y]), np.vstack([n_frame, np.zeros((e, n))]),
            n_frame + (dd.z - np.conj(dd.z)) * c, nbar_frame, lam)
        samples.append(sample)
    return samples


def test_grid_wide_sampler_keeps_the_bits_of_one_lambda_at_a_time():
    for ext, z in sampler_cases():
        assert ext.exit_dim
        points = grid_and_sector(z, ext)
        f = ParameterFunction.from_extension(ext, z, points)
        want = one_lambda_at_a_time(ext, z, points)
        assert [f.sample_at(lam).tobytes() for lam in points] == [x.tobytes() for x in want]


def test_grid_wide_sampler_refuses_the_first_failing_lambda(monkeypatch):
    # with tightened gates, lams fail different gates (P_H's and, behind it, each of
    # the sample's): after every lam that passes, two that fail different gates, then
    # the rest, in either order the sampler raises at the earlier one, with the
    # message it gets alone
    ext, z = next(sampler_cases())
    points = grid_and_sector(z, ext)
    norms = [opnorm(x) for x in one_lambda_at_a_time(ext, z, points)]
    m, d = ext.atilde_matrix(), ext.base.ambient_dim
    x_norms = [np.linalg.norm(np.linalg.solve(m[d:, d:] - lam * np.eye(ext.exit_dim),
                                              m[d:, :d]), 2) for lam in points]
    s_min = 1.0 / np.sqrt(1.0 + np.square(x_norms))  # of P_H on L_lam
    for tightened in ({"projection": float(np.median(s_min)),
                       "sample_expansion": float(np.median(norms)) - 1.0},
                      {"projection": float(np.median(s_min)), "sample_backward": 1e-18},
                      {"projection": float(np.median(s_min)), "sample_residual": 2e-16}):
        monkeypatch.setattr(resolvents, "TOL", dataclasses.replace(TOL, **tightened))
        alone = {lam: outcome(one_lambda_at_a_time, ext, z, [lam]) for lam in points}
        passing = [lam for lam in points if not isinstance(alone[lam], str)]
        kinds = {}  # the first lam refused by each gate
        for lam in points:
            if lam not in passing:
                kinds.setdefault(alone[lam].split(" at ")[0], lam)
        assert len(kinds) == 2, kinds
        for first, second in itertools.permutations(kinds.values()):
            rest = [lam for lam in points if lam not in passing + [first, second]]
            with pytest.raises(ProjectionDegenerate) as got:
                ParameterFunction.from_extension(ext, z, passing + [first, second] + rest)
            assert str(got.value) == alone[first]


def longdouble_solve(a, b):
    """x with a x = b by Gaussian elimination with partial pivoting in np.clongdouble, the
    float64 entries of a and b taken as exact."""
    a, x = np.array(a, np.clongdouble), np.array(b, np.clongdouble)
    for k in range(len(a)):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]], x[[k, p]] = a[[p, k]], x[[p, k]]
        rows = a[k + 1:, k:k + 1] / a[k, k]
        a[k + 1:] -= rows * a[k]
        x[k + 1:] -= rows * x[k]
    for k in range(len(a) - 1, -1, -1):
        x[k] = (x[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def longdouble_sample(ext, lambda0, frames, lam):
    """F(lam) = Nbar^H (N + (lam0 - lam0bar)c), with c from the bordered system
    M(lam) [c; y] = [N; 0] solved in long double."""
    n_frame, nbar_frame = frames
    m, d, e = ext.atilde_matrix(), ext.base.ambient_dim, ext.exit_dim
    bordered = np.array(m, np.clongdouble)
    bordered[np.diag_indices(d + e)] -= np.r_[np.full(d, lambda0), np.full(e, lam)]
    c = longdouble_solve(bordered, np.vstack([n_frame, np.zeros((e, n_frame.shape[1]))]))[:d]
    lam0 = np.clongdouble(lambda0)
    return nbar_frame.conj().T.astype(np.clongdouble) @ (n_frame + (lam0 - np.conj(lam0)) * c)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="np.longdouble is no wider than float64 here: no reference")
def test_sampler_is_as_accurate_as_frak_f_near_exit_eigenvalues():
    # doubled chains whose exit blocks have eigenvalues nu up to 2e7 (and, well scaled,
    # up to 2), and lam = nu + 2e-8 i and nu + 1e-4 i for each nu: 120 points. Against
    # the bordered solve in long double, the sampler's worst entrywise error on each
    # extension is at most 10 times frak_f's; the eigh sampler that block elimination
    # replaced was 75 times worse at window (0.5, 2e7), seed 1
    points = 0
    for window in ((0.5, 2e7), (0.5, 2)):
        for seed in range(1, 6):
            a = sx.gen_symmetric(sx.InstanceSpec(6, 1, spectrum_window=window, seed=seed))
            ext = EmbeddedExtension.from_chain(
                build_invertible_selfadjoint(a, 1j, seed=seed, double_first=True))
            block = ext.atilde_matrix()[6:, 6:]
            nu = np.linalg.eigvalsh((block + block.conj().T) / 2)
            lams = [complex(v + step) for v in nu for step in (2e-8j, 1e-4j)]
            f = ParameterFunction.from_extension(ext, 1j, lams)
            frames = (f.domain_frame, f.range_frame)
            errors = []
            for lam in lams:
                exact = longdouble_sample(ext, 1j, frames, lam)
                errors.append([float(np.max(np.abs(x - exact))) for x in (
                    f.sample_at(lam), frak_f(ext, lam, 1j, frames))])
            sampler, oracle = np.max(errors, axis=0)
            assert sampler <= 10 * oracle, (window, seed, sampler, oracle)
            points += len(lams)
    assert points == 120


@pytest.mark.parametrize("scale", [1.0, 1e8])
@pytest.mark.parametrize("factor, refused", [(0.3, False), (3.0, True)])
def test_sample_backward_error_cut(scale, factor, refused):
    # a solve whose normwise backward error lies within a decade of
    # TOL.sample_backward, on either side: c misses the exact solution e3 by a step
    # along e1. The gate reads the error relative to ||down||_F ||c|| + ||N||, so at
    # scale 1e8 it passes a residual of 7e-5, far above the absolute 1e-8 it replaced
    down = np.diag([scale, 2 * scale, 1.0]).astype(complex)
    eye = np.eye(3, dtype=complex)
    rhs = eye[:, [2]]
    step = factor * TOL.sample_backward * (np.linalg.norm(down) + 1.0) / scale
    c = rhs + step * eye[:, [0]]
    residual = np.linalg.norm(down @ c - rhs)
    backward = residual / (np.linalg.norm(down) * np.linalg.norm(c) + 1.0)
    assert TOL.sample_backward / 10 < backward < TOL.sample_backward * 10
    assert (backward > TOL.sample_backward) == refused
    got = outcome(resolvents._checked_sample, down, c, rhs, 0.5 * rhs, eye, 0.2 + 0.5j)
    if refused:
        assert "outside the range" in got
    else:
        assert np.array_equal(got, 0.5 * rhs)
        assert scale == 1.0 or residual > 1e-5


def test_from_extension_matches_frak_f_canonical_family(worked_a):
    for b in (3.0, -1.0, 0.5):
        ext = canonical_diag(worked_a, b)
        assert engine_vs_oracle(ext, 1j) <= 1e-12
        f = ParameterFunction.from_extension(ext, 1j, (0.2 + 0.7j,))
        assert abs(f.sample_at(0.2 + 0.7j)[0, 0] - (b + 1j) / (b - 1j)) < 1e-10


def test_from_extension_defect_zero_empty():
    h = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=3, defect=0, seed=4))
    ext = EmbeddedExtension(h, h)
    assert ext.exit_dim == 0
    f = ParameterFunction.from_extension(ext, 1j, (0.4 + 0.6j, -0.3 + 0.2j))
    assert len(f.samples) == 2
    assert all(f.sample_at(lam).shape == (0, 0) for lam in f.samples)


def test_from_extension_halfplane_guard(worked_a):
    # with or without an exit space (at e = 0 F is computed at the first lam only),
    # a lam in the other half-plane or on the real axis is refused, first or later
    for ext in (doubled_ext(worked_a), canonical_diag(worked_a, 3.0)):
        for bad in (0.5 - 0.5j, 0.5 + 0j):
            for lams in ((0.3 + 0.5j, bad), (bad, 0.3 + 0.5j)):
                with pytest.raises(ValueError, match="half-plane"):
                    ParameterFunction.from_extension(ext, 1j, lams)


def e0_cases(worked_a):
    """(extension, lam0) with no exit space: undoubled chains and the canonical family."""
    for seed in range(4):
        a, z, _ = random_instance(seed + 40, max_dim=7)
        yield EmbeddedExtension.from_chain(build_invertible_selfadjoint(a, z, seed=seed)), z
    for b in (3.0, -1.0, 0.5):
        yield canonical_diag(worked_a, b), 1j


def test_from_extension_at_e0_calls_no_oracle(worked_a, monkeypatch):
    # L_lam = C^d and B_lam = Atilde at every lam: over grid and sector F is one
    # read-only array, taken without frak_f or its stages; engine_vs_oracle checks
    # its closeness to frak_f
    for name in ("script_l", "frak_b", "frak_f", "_frak_b_from", "_frak_f_from"):
        monkeypatch.setattr(resolvents, name, lambda *args, _name=name: pytest.fail(_name))
    for ext, z in e0_cases(worked_a):
        assert ext.exit_dim == 0
        points = grid_and_sector(z, ext)
        f = ParameterFunction.from_extension(ext, z, points)
        assert len({id(f.sample_at(lam)) for lam in points}) == 1
        assert f.constant_matrix is f.sample_at(points[0])
        assert not f.constant_matrix.flags.writeable


def test_from_extension_non_hermitian_within_gate():
    # a skew perturbation of the exit block, orthogonal to the lifted domain,
    # that the EmbeddedExtension gate still admits; samples taken from the
    # Hermitian part alone would miss frak_f by 6e-9
    a, z, _ = random_instance(77, max_dim=6)
    chain = build_invertible_selfadjoint(a, z, seed=1, double_first=True)
    m = chain.final.to_matrix()
    d = a.ambient_dim
    rng = np.random.default_rng(5)
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    bump = np.zeros_like(m)
    bump[d:, d:] = 4e-9 * np.linalg.norm(m, 2) * k / np.linalg.norm(k, 2)
    ext = EmbeddedExtension(a, operator_from_matrix(m + bump))
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
    if isinstance(fact, DomainOperator):
        return [fact.domain.frame, fact.action]
    if isinstance(fact, Subspace):
        return [fact.frame]
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
    # the Shtraus formula reads these on both branches, and nothing else: at each
    # base point the record, and the SVD of P^H = (U_z M - M)^H for its certificate
    def p_block(fresh, base):
        u = defect_data(fresh, base).u
        return rank_split((u.action - u.domain.frame).conj().T, fresh.tol, floor=0.0,
                          part="null")[1:]
    held = _memo_matches_scratch(copy, a, {
        "symmetric": is_symmetric,
        ("defect_data", z): lambda fresh: defect_data(fresh, z),
        ("defect_data", np.conj(z)): lambda fresh: defect_data(fresh, np.conj(z)),
        ("admissibility_block", z): lambda fresh: p_block(fresh, z),
        ("admissibility_block", np.conj(z)): lambda fresh: p_block(fresh, np.conj(z))})
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
            "injectivity": injectivity,
            ("defect_data", z): lambda fresh: defect_data(fresh, z),
            ("forbidden_of_inverse", z): lambda fresh: forbidden_of_inverse(
                fresh, defect_data(fresh, z))})


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
            ("extension", copy, dd): lambda fresh: construct_extension(
                fresh_a(), z, ContractionParameter(z, fresh))})
        _memo_matches_scratch(report.b, report.b, {
            "symmetric": is_symmetric,
            "injectivity": injectivity,
            ("extends", copy): lambda fresh: graph_contains(fresh, fresh_a()),
            ("shifted", z): lambda fresh: rank_split(
                fresh.action - z * fresh.domain.frame, fresh.tol, floor=0.0, part="svd")})
        _memo_matches_scratch(copy, a, {
            "symmetric": is_symmetric,
            "injectivity": injectivity,
            ("defect_data", z): lambda fresh: defect_data(fresh, z),
            ("forbidden_of_inverse", z): lambda fresh: forbidden_of_inverse(
                fresh, defect_data(fresh, z))})
        assert len(held) == 1
        del parameter, report
        gc.collect()
        assert held[0]() is None, seed


def test_uncertified_inversion_stages_match_the_certified_ones(monkeypatch):
    # where clears_cut refuses, the SVDs decide and build: check_inversion gives the
    # same verdicts, and L_lam and B_lam, of the extension at lam and of its inverse
    # pair at 1/lam, are the certified ones to 1e-13; block extensions with e = 1, 2
    # and 3, and a doubled chain, each of whose lam the certificates pass
    from symext.checks import check_inversion
    cases = [case for case in sampler_cases() if case[0].exit_dim not in (12, 16)]
    assert sorted(ext.exit_dim for ext, _ in cases) == [1, 2, 3, 8]
    for ext, z in cases:
        grid = default_lambda_grid(z, ext.atilde_matrix())
        points = [(ext, lam) for lam in grid] + [(ext.inverse_pair(), 1.0 / lam) for lam in grid]
        verdicts, stages = [], []
        for refuse in (False, True):
            certified = []

            def certify(*args):
                certified.append(not refuse and clears_cut(*args))
                return certified[-1]
            with monkeypatch.context() as m:
                m.setattr(resolvents, "clears_cut", certify)
                verdicts.append([(r.name, r.passed, r.skipped)
                                 for r in check_inversion(ext, grid, z)])
                stages.append([(script_l(e, lam), frak_b(e, lam)) for e, lam in points])
            assert certified and all(certified) != refuse, (ext.exit_dim, refuse)
        assert verdicts[0] == verdicts[1] and all(passed for _, passed, _ in verdicts[0])
        for (l_space, b), (l_ref, b_ref) in zip(*stages):
            assert l_space.distance(l_ref) <= 1e-13
            assert graph_distance(b, b_ref) <= 1e-13


@pytest.mark.parametrize("tol, smallest, error, text", [
    (1e-10, 0.7e-10, ProjectionDegenerate,
     "projection onto H is not injective on the constrained space at {lam}"),
    (1e-6, 1e-8, ValueError, "generators are linearly dependent; the map is ill-defined"),
])
def test_uncertified_frame_keeps_the_errors_of_both_cuts(monkeypatch, tol, smallest, error,
                                                         text):
    # a hand-made frame G whose P_H block has singular values from 0.5 down to
    # `smallest`, between the two cuts at the base tol: TOL.projection at floor 1
    # (1e-10) and tol at floor 0 (0.5 tol). With clears_cut refused, the values
    # decide, and each cut raises its own type and message
    d = 8
    rng = np.random.default_rng(7)

    def unitary():
        return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    h = rng.standard_normal((d, d))
    h = h + h.T
    base = operator_from_matrix(h, tol=tol)
    ext = EmbeddedExtension(base, operator_from_matrix(np.kron(np.eye(2), h), tol=tol))
    sigma = np.geomspace(0.5, smallest, d)
    u, v, w = unitary(), unitary(), unitary()
    frame = np.vstack([(u * sigma) @ v, (w * np.sqrt(1 - sigma ** 2)) @ v])
    assert np.isclose(np.linalg.svd(frame[:d], compute_uv=False)[-1], smallest, rtol=1e-3)
    monkeypatch.setattr(resolvents, "clears_cut", lambda *args: False)
    lam = 0.3 + 0.8j
    with pytest.raises(error) as raised:
        resolvents._frak_b_from(ext, lam, Subspace(frame, tol))
    assert type(raised.value) is error and str(raised.value) == text.format(lam=lam)
