"""Metamorphic properties: every rank verdict is invariant under the symmetries
the theory promises.

For a unitary Q, the operator QAQ^H has domain Q D(A) and action Q A; its
defect spaces, Cayley transform and forbidden operator are the Q-images of
those of A, and the parameter QTQ^H of QAQ^H corresponds to T. For c > 0,
cA at cz has the defect spaces and Cayley transform of A at z, so the same T
is a parameter of it and extends it to cB. In both cases defect numbers,
admissibility, the three invertibility tests and dim D(X_z) must not change.
Swapping z and zbar gives two identities of extensions: an isometric T at z
and T^{-1} at zbar give the same B, and a strict contraction T* at zbar gives
the formal adjoint of B(A, z, T). Moving the spectrum window of A towards 0
must not change a verdict either, unless a typed error is raised. A verdict
whose margin lies in the CLI borderline band may differ. Moving a rank-one T
a distance delta off the forbidden operator moves every margin like delta, and
the three invertibility tests may part only inside that band.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symext as sx
from symext import cli, resolvents, serialize
from symext.checks import (INVERSION_CHECKS, _sample_z_values, check_cayley_inverse_scaling,
                           check_inversion, check_range_defect_inverse)
from symext.operators import DomainOperator
from symext.resolvents import EmbeddedExtension, ParameterFunction
from symext.subspaces import DEFAULT_TOL, TOL, SectorSpec, Subspace, clears_cut, rank_split

from conftest import small_eigenvalue_base


def conjugate(q, a: DomainOperator) -> DomainOperator:
    return DomainOperator(Subspace(q @ a.domain.frame, a.tol), q @ a.action)


def borderline(*margins) -> bool:
    """Some margin lies in the CLI borderline band at the default --tol."""
    factor = TOL.borderline_factor
    return any(DEFAULT_TOL / factor < m < DEFAULT_TOL * factor for m in margins)


@st.composite
def instances(draw):
    """(A, z, T matrix, Q) with d <= 8, T a generic contraction of norm 0.5-0.9."""
    d = draw(st.integers(2, 8))
    n = draw(st.integers(1, d - 1))
    t_dim = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**31 - 1))
    window = draw(st.sampled_from([(0.5, 2.0), (-2.0, -0.5)]))
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=d, defect=n, spectrum_window=window,
                                         seed=seed))
    half_plane = draw(st.sampled_from([-1, 1]))
    z = complex(draw(st.floats(-1.5, 1.5)), draw(st.floats(0.3, 1.5)) * half_plane)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, t_dim)) + 1j * rng.standard_normal((n, t_dim))
    norm = draw(st.floats(0.5, 0.9))
    matrix = raw * (norm / np.linalg.norm(raw, 2))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return a, z, matrix, q


def on_forbidden_operator(a, z, dd):
    """Rank-one matrix sending f1 to (zbar/z) X_{1/z}(A^{-1}) f1: B then has a kernel."""
    x = sx.forbidden_operator(sx.inverse_op(a), 1 / z)
    image = (np.conj(z) / z) * x.apply(dd.n_z.frame[:, 0])
    return (dd.n_zbar.frame.conj().T @ image).reshape(-1, 1)


def assert_same_verdicts(a, z, b, w, q, generic):
    """(A, z) and (B, w) give equal verdicts off the borderline band.

    The parameter of A built from ``generic`` (and the rank-one one on the
    forbidden operator) is read for B through Q, as domain Q D(T) and action
    Q T; a kernel witness of A maps to one of B by Q.
    """
    dd_a, dd_b = sx.defect_data(a, z), sx.defect_data(b, w)
    assert dd_a.defect_numbers == dd_b.defect_numbers
    assert sx.forbidden_operator(a, z).domain.dim == sx.forbidden_operator(b, w).domain.dim

    # a generic contraction, and one on the forbidden operator whose B has a kernel
    for matrix in (generic, on_forbidden_operator(a, z, dd_a)):
        t_a = sx.ContractionParameter.from_matrix(dd_a, matrix).t
        t_b = conjugate(q, t_a)
        adm_a = sx.is_admissible(a, z, t_a, dd=dd_a)
        adm_b = sx.is_admissible(b, w, t_b, dd=dd_b)
        if not borderline(adm_a.margin, adm_b.margin):
            assert adm_a.admissible == adm_b.admissible

        v_a = sx.check_invertibility(a, z, sx.ContractionParameter(z, t_a))
        v_b = sx.check_invertibility(b, w, sx.ContractionParameter(w, t_b))
        for name in ("direct", "via_admissibility", "via_forbidden"):
            if not borderline(v_a.margins[name], v_b.margins[name]):
                assert getattr(v_a, name) == getattr(v_b, name), name
        if v_a.witness is not None and v_b.witness is not None:
            # a one-dimensional kernel: the witnesses agree up to a phase
            assert abs(abs(np.vdot(q @ v_a.witness, v_b.witness)) - 1.0) < 1e-8


@settings(derandomize=True, deadline=None, max_examples=40)
@given(instances())
def test_verdicts_invariant_under_unitary_conjugation(case):
    a, z, generic, q = case
    assert_same_verdicts(a, z, conjugate(q, a), z, q, generic)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(instances(), st.floats(0.5, 2.0))
def test_verdicts_invariant_under_positive_scaling(case, c):
    a, z, generic, _ = case
    scaled = DomainOperator(a.domain, c * a.action)
    assert_same_verdicts(a, z, scaled, c * z, np.eye(a.ambient_dim), generic)


# both identities are exact; at d <= 8 they held to 1e-14 on every drawn instance
SWAP_TOL = 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(instances())
def test_isometric_parameter_inverse_at_zbar_gives_same_extension(case):
    # B((T - E)psi) = zT psi - zbar psi is also B((T^{-1} - E)phi) = zbar T^{-1} phi - z phi
    a, z, generic, _ = case
    zbar = np.conj(z)
    dd = sx.defect_data(a, z)
    isometry, _ = np.linalg.qr(generic)
    t = sx.ContractionParameter.from_matrix(dd, isometry).t
    t_inv = sx.inverse_op(t)
    adm = sx.is_admissible(a, z, t, dd=dd)
    adm_bar = sx.is_admissible(a, zbar, t_inv)
    if borderline(adm.margin, adm_bar.margin):
        return
    assert adm.admissible == adm_bar.admissible
    if adm.admissible:
        b = sx.extend(a, z, sx.ContractionParameter(z, t), dd=dd).b
        b_bar = sx.extend(a, zbar, sx.ContractionParameter(zbar, t_inv)).b
        assert sx.graph_distance(b, b_bar) <= SWAP_TOL


@settings(derandomize=True, deadline=None, max_examples=40)
@given(instances())
def test_contraction_adjoint_at_zbar_is_formal_adjoint(case):
    # <Bf, g> = <f, B'g> on D(B) x D(B') for B = B(A, z, T), B' = B(A, zbar, T*)
    a, z, generic, _ = case
    zbar = np.conj(z)
    dd = sx.defect_data(a, z)
    t = sx.ContractionParameter.from_matrix(dd, generic).t
    t_star = DomainOperator(dd.n_zbar, t.domain.frame @ generic.conj().T)
    adm = sx.is_admissible(a, z, t, dd=dd)
    adm_bar = sx.is_admissible(a, zbar, t_star)
    if borderline(adm.margin, adm_bar.margin):
        return
    # a strict contraction has no fixed vector at either point
    assert adm.admissible and adm_bar.admissible
    b = sx.extend(a, z, sx.ContractionParameter(z, t), dd=dd).b
    b_adj = sx.extend(a, zbar, sx.ContractionParameter(zbar, t_star)).b
    gap = b_adj.domain.frame.conj().T @ b.action - b_adj.action.conj().T @ b.domain.frame
    scale = max(1.0, np.linalg.norm(b.action, 2), np.linalg.norm(b_adj.action, 2))
    assert np.linalg.norm(gap, 2) <= SWAP_TOL * scale


def near_zero_verdicts(seed, d, eps):
    """(verdict, margins) of each decision on gen_symmetric with window (eps, 2), z = i.

    A decision that raises a SymextError gives the error's type instead.
    """
    z = 1j
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=d, defect=d // 4,
                                         spectrum_window=(eps, 2.0), seed=seed))
    dd = sx.defect_data(a, z)
    n = dd.defect_numbers[0]
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    unitary, _ = np.linalg.qr(raw)
    forbidden = on_forbidden_operator(a, z, dd)
    sector = SectorSpec.default_for(z)
    points = [lam for pts in sector.sample_points().values() for lam in pts]

    def invertibility(matrix):
        v = sx.check_invertibility(a, z, sx.ContractionParameter.from_matrix(dd, matrix))
        return (v.direct, v.via_admissibility, v.via_forbidden), tuple(v.margins.values())

    def extension_invertible():
        # a unitary parameter: B is a self-adjoint extension inside C^d
        b = sx.extend(a, z, sx.ContractionParameter.from_matrix(dd, unitary), dd=dd).b
        ext = EmbeddedExtension(a, b)
        s = np.linalg.svd(ext.atilde_matrix(), compute_uv=False)
        return ext.is_invertible(), (s[-1] / s[0],)

    def admissibility(f):
        verdict = sx.i_admissibility_test(a, z, f, sector)
        return verdict.admissible, (verdict.kernel_margin,)

    def from_chain():
        ext = EmbeddedExtension.from_chain(sx.build_invertible_selfadjoint(a, z, seed=seed))
        return ParameterFunction.from_extension(ext, z, points)

    # F(0+) equal to the scaled forbidden operator on f1, and 0 off it
    constant = np.hstack([forbidden, np.zeros((n, n - 1), dtype=complex)])
    decisions = {
        "check_invertibility generic": lambda: invertibility(0.7 * unitary),
        "check_invertibility forbidden": lambda: invertibility(forbidden),
        "is_invertible unitary": extension_invertible,
        "i_admissibility chain": lambda: admissibility(from_chain()),
        "i_admissibility forbidden": lambda: admissibility(
            ParameterFunction.constant(a, z, constant)),
    }
    out = {}
    for name, decide in decisions.items():
        try:
            out[name] = decide()
        except sx.SymextError as exc:
            out[name] = type(exc)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_verdicts_keep_as_spectrum_window_nears_zero(seed):
    # window (eps, 2) for eps from 1e-2 down to 1e-10: each verdict stays as at
    # 1e-2, or a typed error is raised, or a margin lies in the borderline band
    for d in (6, 8):
        reference = near_zero_verdicts(seed, d, 1e-2)
        assert {name: r[0] for name, r in reference.items()} == {
            "check_invertibility generic": (True, True, True),
            "check_invertibility forbidden": (False, False, False),
            "is_invertible unitary": True,
            "i_admissibility chain": True,
            "i_admissibility forbidden": False,
        }
        for eps in (1e-4, 1e-6, 1e-8, 1e-9, 1e-10):
            for name, got in near_zero_verdicts(seed, d, eps).items():
                if isinstance(got, type):
                    continue
                verdict, margins = got
                assert verdict == reference[name][0] or borderline(*margins), (name, d, eps)


def off_forbidden(seed, delta):
    """(A, z, T) with T rank one and unit, sending f1 a distance delta from the
    forbidden image (zbar/z) X_{1/z}(A^{-1}) f1, along a unit direction of
    N_zbar orthogonal to it. d runs through 3..8 with the seed, defect 2."""
    d = 3 + seed % 6
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=d, defect=2, seed=seed))
    z = complex(0.5 * (seed % 3 - 1), 0.6 + 0.1 * (seed % 5)) * (1 if seed % 2 else -1)
    dd = sx.defect_data(a, z)
    image = on_forbidden_operator(a, z, dd)[:, 0]
    away = np.array([-np.conj(image[1]), np.conj(image[0])]) / np.linalg.norm(image)
    # |target - image| = delta on the unit sphere, since |image| = 1
    target = (1 - delta**2 / 2) * image + delta * np.sqrt(1 - delta**2 / 4) * away
    return a, z, sx.ContractionParameter.from_matrix(dd, target.reshape(-1, 1))


def test_distance_family_margins_scale_and_disagreements_stay_in_band(tmp_path):
    for seed in range(12):
        for k in range(3, 13):
            delta = 10.0 ** -k
            a, z, parameter = off_forbidden(seed, delta)
            v = sx.check_invertibility(a, z, parameter)
            verdicts = (v.direct, v.via_admissibility, v.via_forbidden)
            finite = [m for m in v.margins.values() if np.isfinite(m)]
            assert finite and all(0.1 * delta <= m <= 10 * delta for m in finite), (
                seed, delta, v.margins)
            assert v.agree or borderline(*finite), (seed, delta)
            if delta >= 1e-8:
                assert verdicts == (True, True, True), (seed, delta)
            if delta <= 1e-12:
                assert verdicts == (False, False, False), (seed, delta)
            if k == 10:
                # next to the cut the CLI must not report a disagreement
                op, par = tmp_path / f"op{seed}.json", tmp_path / f"p{seed}.json"
                op.write_text(serialize.json_dump(serialize.operator_file(a)))
                par.write_text(serialize.json_dump(serialize.parameter_file(parameter)))
                code = cli.main(["check-invert", str(op), "--param", str(par),
                                 "-o", str(tmp_path / f"v{seed}.json")])
                assert code != cli.EXIT_DISAGREEMENT, seed


def contraction_on(dd, rng):
    """A random full-domain parameter of norm 1/1.3."""
    n = dd.defect_numbers[0]
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return sx.ContractionParameter.from_matrix(dd, raw / (1.3 * np.linalg.norm(raw, 2)))


SMALL_EIGENVALUES = (1e-5, 1e-6, 1e-7, 3e-8, 1e-8, 3e-9, 1e-9, 3e-10, 1e-10, 1e-11, 1e-12)


@pytest.mark.parametrize("eps", SMALL_EIGENVALUES)
def test_near_singular_base_gets_a_verdict(eps):
    # cond(A) = 1/eps amplifies the rounding of A^{-1}; the inverse side is read
    # from A's data at z, so each case agrees, parts only inside the borderline
    # band, or has a kernel at the rank cut
    for d in (4, 6, 8):
        for n in range(1, min(3, d - 2) + 1):
            for z in (1j, -1j, 0.3 + 0.8j, -0.5 - 1.1j):
                for seed in range(2):
                    a, rng = small_eigenvalue_base(eps, d, n, seed)
                    parameter = contraction_on(sx.defect_data(a, z), rng)
                    try:
                        v = sx.check_invertibility(a, z, parameter)
                    except sx.NotInvertibleBase:
                        continue
                    assert v.agree or borderline(*v.margins.values()), (d, n, z, seed)


@pytest.mark.parametrize("eps", (1e-7, 3e-8, 1e-9, 3e-10))
def test_near_singular_base_boundary_test_answers(eps):
    # F from a doubled chain belongs to a self-adjoint invertible extension
    for d in (4, 6):
        for n in (1, 2):
            for z in (1j, -1j):
                a, _ = small_eigenvalue_base(eps, d, n, seed=d + n)
                try:
                    chain = sx.build_invertible_selfadjoint(a, z, double_first=True)
                except sx.NotAnExtension:
                    # s_min of the final operator is at most eps: next to the cut at 3e-10
                    assert eps < 1e-9, (d, n, z)
                    continue
                sector = SectorSpec.default_for(z)
                points = [lam for pts in sector.sample_points().values() for lam in pts]
                f = ParameterFunction.from_extension(EmbeddedExtension.from_chain(chain), z,
                                                     points)
                assert sx.i_admissibility_test(a, z, f, sector).admissible, (d, n, z)


def test_inverse_checks_derive_a_inverse_from_scratch():
    # cond(A) = 1e7 shows in the rounding of an inverted operator, which turns
    # range_defect_inverse red; the relation graph(A) with its halves swapped
    # carries none of it. The check must report exactly the error of that
    # relation decomposed on its own: A's data relabelled by of_inverse(), if
    # it were kept in the relation's memo, would compare A's spaces with themselves
    a, _ = small_eigenvalue_base(1e-7, 6, 1, seed=1)
    zs = _sample_z_values()

    def error(inverse_side):
        worst = 0.0
        for z in zs:
            dd, dd_inv = sx.defect_data(a, z), inverse_side(z)
            worst = max(worst, dd.m_z.distance(dd_inv.m_z), dd.n_z.distance(dd_inv.n_z),
                        dd.m_zbar.distance(dd_inv.m_zbar), dd.n_zbar.distance(dd_inv.n_zbar))
        return worst

    a_inv = sx.inverse_op(a)
    assert error(lambda z: sx.defect_data(a_inv, 1.0 / z)) >= TOL.check_cayley
    by_hand = error(lambda z: sx.defect_data(a.graph.inverse(), 1.0 / z))
    rel = a.graph.inverse()
    got = check_range_defect_inverse(a, rel)
    assert got.passed and got.max_error == by_hand > 0.0
    assert {c.name: c for c in sx.run_suite(a)}["range_defect_inverse"] == got

    def objects(dd):
        spaces = (dd.m_z, dd.n_z, dd.m_zbar, dd.n_zbar)
        return {id(x) for x in (dd, dd.u, *spaces, *(sp.frame for sp in spaces))}

    for z in zs:  # the records the check kept in the relation's memo
        assert not objects(sx.defect_data(rel, 1.0 / z)) & objects(sx.defect_data(a, z))


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
def test_inverse_checks_green_on_near_singular_bases(eps):
    # A^{-1} is read off graph(A) with its halves swapped, a frame of [AF; F]
    # whose singular values are all at least 1, so cond(A) never enters
    for d in (4, 6, 8):
        for n in (1, 2):
            for seed in range(4):
                a, _ = small_eigenvalue_base(eps, d, n, seed)
                rel = a.graph.inverse()
                for check in (check_range_defect_inverse, check_cayley_inverse_scaling):
                    result = check(a, rel)
                    assert result.passed, (d, n, seed, result)


def test_inverse_pair_gate_failure_is_a_spectrum_hit():
    # s_min(A) = 1e-9: Atilde passes the rank cut, but the rounding of
    # Atilde^{-1} and A^{-1} fails a structure gate of the inverse pair. The
    # failure is typed, chained from the gate's ValueError, and the three
    # inversion checks stay red with it as their note
    for d in (4, 6, 8):
        for n in (1, 2):
            for seed in (0, 1):
                for z in (1j, -1j):
                    a, _ = small_eigenvalue_base(1e-9, d, n, seed)
                    chain = sx.build_invertible_selfadjoint(a, z, double_first=True, seed=0)
                    ext = EmbeddedExtension.from_chain(chain)
                    with pytest.raises(sx.SpectrumHit) as hit:
                        ext.inverse_pair()
                    assert type(hit.value.__cause__) is ValueError, (d, n, seed, z)
                    results = check_inversion(ext, sx.default_lambda_grid(z, ext.atilde_matrix()),
                                              z)
                    assert [r.name for r in results] == list(INVERSION_CHECKS)
                    assert all(not r.passed and r.note.startswith("SpectrumHit: ")
                               for r in results), (d, n, seed, z)


def test_a_failing_inverse_pair_is_built_once(monkeypatch):
    # a build that raises is not kept, so the inversion checks try it once
    # between them and all three turn red with its note
    a, _ = small_eigenvalue_base(1e-9, 6, 2, 0)
    ext = EmbeddedExtension.from_chain(
        sx.build_invertible_selfadjoint(a, 1j, double_first=True, seed=0))
    with pytest.raises(sx.SpectrumHit) as hit:
        ext.inverse_pair()
    calls = []

    def counted(op, _fn=resolvents.inverse_op):
        calls.append(op)
        return _fn(op)

    monkeypatch.setattr(resolvents, "inverse_op", counted)
    results = check_inversion(ext, sx.default_lambda_grid(1j, ext.atilde_matrix()), 1j)
    assert len(calls) == 1
    assert [r.note for r in results] == [f"SpectrumHit: {hit.value}"] * 3


def test_build_sa_on_a_near_singular_base_exits_not_an_extension(tmp_path, capsys):
    # s_min(A) = 3e-10: the valid base loads, and the doubled chain's final
    # operator falls at the injectivity cut. That is not a file problem
    a, _ = small_eigenvalue_base(3e-10, 6, 2, seed=8)
    op = tmp_path / "op.json"
    op.write_text(serialize.json_dump(serialize.operator_file(a)))
    code = cli.main(["build-sa", str(op), "--z", "0,-1", "--double", "--seed", "0",
                     "-o", str(tmp_path / "ext.json")])
    assert code == cli.EXIT_NOT_EXTENSION
    assert "not an extension: chain lost injectivity" in capsys.readouterr().err
    assert not (tmp_path / "ext.json").exists()


def test_cli_answers_on_a_near_singular_base(tmp_path):
    a, rng = small_eigenvalue_base(1e-9, 6, 2, seed=0)
    op, par, ext = (tmp_path / name for name in ("op.json", "p.json", "ext.json"))
    op.write_text(serialize.json_dump(serialize.operator_file(a)))
    parameter = contraction_on(sx.defect_data(a, 1j), rng)
    par.write_text(serialize.json_dump(serialize.parameter_file(parameter)))
    assert cli.main(["check-invert", str(op), "--param", str(par),
                     "-o", str(tmp_path / "inv.json")]) == cli.EXIT_OK
    assert cli.main(["build-sa", str(op), "--z", "0,1", "--double", "-o", str(ext)]) == 0
    ver = tmp_path / "ver.json"
    assert cli.main(["verify", str(op), str(ext), "-o", str(ver)]) == 0
    checks = {c["name"]: c for c in json.loads(ver.read_text(encoding="utf-8"))["checks"]}
    assert checks["i_admissibility"]["passed"], checks["i_admissibility"]


def gate_bounds(monkeypatch, a, z):
    """``(lower, upper, s)`` for each per-lam full-rank gate of the resolvents on a
    doubled chain of A at z: the bounds handed to clears_cut, which is then
    refused, and the singular values rank_split finds for the same gate. The gates
    are the sampler's, the Shtraus formula's and, in ``check_inversion``, the
    oracles' (C's full row rank in ``script_l``, P_H injective on L_lam in
    ``_frak_b_from``), at lam and, for the inverse pair, at 1/lam."""
    try:
        chain = sx.build_invertible_selfadjoint(a, z, double_first=True)
    except (sx.NotAnExtension, sx.ChoiceExhausted):
        return []
    gates, bounds = [], []

    def refused(lower, upper, tol, floor=1.0):
        assert floor == 1.0
        bounds.append((lower, upper))
        return False

    def cut(m, *args, **kwargs):
        result = rank_split(m, *args, **kwargs)
        if bounds:
            gates.append((*bounds.pop(), result[1]))
        return result

    monkeypatch.setattr(resolvents, "clears_cut", refused)
    monkeypatch.setattr(resolvents, "rank_split", cut)
    ext = EmbeddedExtension.from_chain(chain)
    grid = sx.default_lambda_grid(z, ext.atilde_matrix())
    sector = [lam for pts in SectorSpec.default_for(z).sample_points().values() for lam in pts]
    try:
        f = ParameterFunction.from_extension(ext, z, grid + tuple(sector))
        for lam in grid:
            sx.shtraus_resolvent(a, z, f, lam)
    except sx.SymextError:
        pass
    del bounds[:]
    check_inversion(ext, grid, z)
    monkeypatch.undo()
    return gates


@settings(derandomize=True, deadline=None, max_examples=15)
@given(instances(), st.floats(0.5, 2.0))
def test_certificate_never_passes_a_failing_cut(case, c):
    # over the conjugated and scaled members of a family, and a near-singular
    # base, the certificate holds only where rank_split passes, at every cut
    # swept across each gate's own s_min/s0 and across its bounds
    a, z, _, q = case
    gates = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        for b, w in ((a, z), (conjugate(q, a), z), (sx.scale_op(a, c), c * z),
                     (small_eigenvalue_base(c * 1e-9, a.ambient_dim, 1, a.ambient_dim)[0], z)):
            gates += gate_bounds(monkeypatch, b, w)
    assert gates
    failing = 0
    for lower, upper, s in gates:
        ratio = s[-1] / max(1.0, s[0])
        for tol in np.concatenate([ratio * np.geomspace(0.25, 4.0, 9),
                                   lower / max(1.0, upper) * np.geomspace(0.5, 2.0, 5)]):
            passes = s[-1] > tol * max(1.0, s[0])
            failing += not passes
            assert passes or not clears_cut(lower, upper, tol), (lower, upper, s[[0, -1]], tol)
    assert failing
