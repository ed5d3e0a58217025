"""Acceptance runs, one criterion per test, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines)
or directly with ``python tests/test_acceptance.py``.
"""

import functools
import sys

import numpy as np

from symext.cayley import defect_data
from symext.checks import check_cayley_inverse_scaling, check_range_defect_inverse
from symext.errors import NotAdmissible, SymextError
from symext.instances import InstanceSpec, gen_symmetric
from symext.invertibility import build_invertible_selfadjoint, check_invertibility, double
from symext.neumann import extend, recover_parameter
from symext.operators import (DomainOperator, graph_contains, graph_distance,
                              inverse_op, is_injective, operator_from_generators,
                              operator_from_matrix)
from symext.resolvents import (EmbeddedExtension, ParameterFunction,
                               compressed_resolvent, default_lambda_grid, frak_b,
                               frak_f, i_admissibility_test, script_l,
                               shtraus_resolvent)
from symext.subspaces import DEFAULT_TOL, TOL, SectorSpec, Subspace, orthonormalize

from conftest import random_contraction, random_instance, worked_parameter


def _report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({label}): {detail}"


def _worked():
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    return operator_from_generators(e1, e1)


@functools.lru_cache(maxsize=1)
def chain_built_extensions():
    """25 invertible self-adjoint exit-space extensions over random instances."""
    out = []
    seed = 0
    while len(out) < 25:
        a, z, _ = random_instance(seed, max_dim=6)
        chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=seed % 2 == 0)
        out.append((a, z, EmbeddedExtension.from_chain(chain)))
        seed += 1
    return tuple(out)


def test_criterion_1_neumann_roundtrip():
    worst_param, worst_op = 0.0, 0.0
    done, seed = 0, 0
    while done < 200:
        a, z, n = random_instance(seed, max_dim=10)
        seed += 1
        rng = np.random.default_rng(seed + 10_000)
        dd = defect_data(a, z)
        parameter = random_contraction(rng, dd, strict=True)
        try:
            report = extend(a, z, parameter, dd=dd)
        except NotAdmissible:
            continue
        recovered = recover_parameter(a, report.b, z)
        worst_param = max(worst_param, graph_distance(parameter.t, recovered.t))
        again = extend(a, z, recovered, dd=dd)
        worst_op = max(worst_op, graph_distance(report.b, again.b))
        done += 1
    ok = worst_param < 1e-9 and worst_op < 1e-9
    _report(1, "neumann round trip", ok,
            f"200 instances, parameter dist {worst_param:.2e}, operator dist {worst_op:.2e}")


def test_criterion_2_invertibility_equivalence():
    # margins up to the top of check-invert's borderline band may disagree
    borderline = DEFAULT_TOL * TOL.borderline_factor
    kept, agreed, skipped, seed = 0, 0, 0, 0
    while kept < 500:
        a, z, _ = random_instance(seed, max_dim=8)
        rng = np.random.default_rng(seed + 50_000)
        dd = defect_data(a, z)
        parameter = random_contraction(rng, dd, strict=rng.uniform() < 0.7)
        seed += 1
        try:
            verdict = check_invertibility(a, z, parameter)
        except NotAdmissible:
            continue
        finite = [v for v in verdict.margins.values() if np.isfinite(v)]
        if finite and min(finite) <= borderline:
            skipped += 1
            continue
        kept += 1
        agreed += verdict.agree

    a = _worked()
    dd = defect_data(a, 1j)
    family_ok = True
    cs = [np.exp(1j * t) for t in np.linspace(0.2, 2 * np.pi - 0.2, 15)]
    cs += [-1.0, 0.0, 0.5j, -0.99, 0.3 - 0.2j]
    for c in cs:
        verdict = check_invertibility(a, 1j, worked_parameter(dd, c))
        expect = bool(abs(c + 1.0) > 1e-12)
        family_ok &= (verdict.direct == verdict.via_admissibility
                      == verdict.via_forbidden == expect)
    ok = agreed == 500 and family_ok
    _report(2, "three-way invertibility equivalence", ok,
            f"{agreed}/500 agree above margin {borderline:.0e} ({skipped} borderline "
            f"skipped), worked family exact: {family_ok}")


def test_criterion_3_cayley_identities():
    worst_spaces, worst_scaling = 0.0, 0.0
    for i in range(100):
        a, _, _ = random_instance(i + 300, max_dim=8)
        # each check draws its own 5 off-axis z values
        r1 = check_range_defect_inverse(a)
        r2 = check_cayley_inverse_scaling(a)
        worst_spaces = max(worst_spaces, r1.max_error)
        worst_scaling = max(worst_scaling, r2.max_error)
    ok = worst_spaces < 1e-10 and worst_scaling < 1e-10
    _report(3, "cayley inverse identities", ok,
            f"100 instances x 5 z, space dist {worst_spaces:.2e}, "
            f"operator dev {worst_scaling:.2e}")


def test_criterion_4_selfadjoint_chain_builder():
    ok = True
    detail = ""
    worst_eig = np.inf
    for seed in range(100):
        a, z, _ = random_instance(seed + 900, max_dim=8)
        for doubled in (False, True):
            start = double(a) if doubled else a
            initial = defect_data(start, z).defect_numbers[0]
            chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=doubled)
            steps_ok = len(chain.steps) == initial
            inj_ok = all(is_injective(chain.operator(k)) for k in range(len(chain.steps)))
            m = chain.final.to_matrix()
            herm_ok = np.linalg.norm(m - m.conj().T, 2) < 1e-10
            eig_min = float(np.min(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2))))
            worst_eig = min(worst_eig, eig_min)
            big = chain.final.ambient_dim
            lift = np.eye(big, a.ambient_dim, dtype=complex)
            base = start if doubled else a
            lifted = DomainOperator(
                Subspace(np.eye(big, base.ambient_dim, dtype=complex) @ base.domain.frame),
                np.eye(big, base.ambient_dim, dtype=complex) @ base.action)
            contains_ok = graph_contains(chain.final, lifted)
            if not (steps_ok and inj_ok and herm_ok and eig_min > 1e-8 and contains_ok):
                ok = False
                detail = (f"seed {seed} doubled={doubled}: steps {steps_ok}, "
                          f"injective {inj_ok}, hermitian {herm_ok}, "
                          f"min eig {eig_min:.2e}, contains {contains_ok}")
                break
        if not ok:
            break
    if ok:
        detail = f"100 seeds x both modes, min |eigenvalue| {worst_eig:.2e}"
    _report(4, "invertible self-adjoint chain builder", ok, detail)


def test_criterion_5_shtraus_correspondence():
    worst = 0.0
    for a, z, ext in chain_built_extensions():
        grid = default_lambda_grid(z, ext.atilde_matrix())
        f = ParameterFunction.from_extension(ext, z, grid)
        for lam in grid:
            dev = np.linalg.norm(compressed_resolvent(ext, lam)
                                 - shtraus_resolvent(a, z, f, lam), 2)
            worst = max(worst, float(dev))
    worked = _worked()
    worst_canonical = 0.0
    for b in (3.0, -1.0, 0.5, 7.0, -2.5, 1.0):
        ext = EmbeddedExtension(
            worked, operator_from_matrix(np.diag([1.0, b]).astype(complex)))
        grid = default_lambda_grid(1j, ext.atilde_matrix())
        f = ParameterFunction.from_extension(ext, 1j, grid)
        for lam in grid:
            dev = np.linalg.norm(compressed_resolvent(ext, lam)
                                 - shtraus_resolvent(worked, 1j, f, lam), 2)
            worst_canonical = max(worst_canonical, float(dev))
    ok = worst < 1e-8 and worst_canonical < 1e-8
    _report(5, "generalized resolvent formula", ok,
            f"25 exit-space extensions max dev {worst:.2e}, "
            f"canonical family max dev {worst_canonical:.2e}")


def test_criterion_6_constrained_space_identities():
    worst_space, worst_graph, worst_matrix = 0.0, 0.0, 0.0
    degenerate = 0
    for a, z, ext in chain_built_extensions():
        ext_inv = ext.inverse_pair()
        m = ext.atilde_matrix()
        dd = defect_data(a, z)
        frames = (dd.n_z.frame, dd.n_zbar.frame)
        for lam in default_lambda_grid(z, m):
            try:
                left = orthonormalize(m @ script_l(ext, lam).frame)
                worst_space = max(worst_space, left.distance(script_l(ext_inv, 1.0 / lam)))
                worst_graph = max(worst_graph, graph_distance(
                    inverse_op(frak_b(ext, lam)), frak_b(ext_inv, 1.0 / lam)))
                dev = frak_f(ext_inv, 1.0 / lam, 1.0 / z, frames) \
                    - (z / np.conj(z)) * frak_f(ext, lam, z, frames)
                worst_matrix = max(worst_matrix, float(np.linalg.norm(dev, 2)))
            except SymextError:
                degenerate += 1
    ok = worst_space < 1e-8 and worst_graph < 1e-8 and worst_matrix < 1e-8
    _report(6, "constrained-space inverse identities", ok,
            f"space {worst_space:.2e}, graph {worst_graph:.2e}, "
            f"matrix {worst_matrix:.2e}, degenerate points skipped: {degenerate}")


def test_criterion_7_i_admissibility_discrimination():
    worked = _worked()
    f_bad = ParameterFunction.constant(worked, 1j, np.array([[-1.0]], dtype=complex))
    verdict = i_admissibility_test(worked, 1j, f_bad)
    witness_ok = (not verdict.admissible
                  and np.allclose(np.abs(verdict.witness), [0.0, 1.0], atol=1e-8)
                  and verdict.witness_limit_residual < 1e-8
                  and verdict.witness_rate_proxy < verdict.tolerances["rate_bound"])

    accepted = 0
    for a, z, ext in chain_built_extensions():
        sector = SectorSpec.default_for(z)
        points = [lam for pts in sector.sample_points().values() for lam in pts]
        f = ParameterFunction.from_extension(ext, z, points)
        accepted += i_admissibility_test(a, z, f, sector).admissible

    dense_ok = True
    for seed in range(5):
        h = gen_symmetric(InstanceSpec(ambient_dim=3 + seed % 3, defect=0, seed=seed))
        f = ParameterFunction.constant(h, 1j, np.zeros((0, 0), dtype=complex))
        dense_ok &= i_admissibility_test(h, 1j, f).admissible

    ok = witness_ok and accepted == 25 and dense_ok
    _report(7, "boundary-condition discrimination", ok,
            f"worked rejection with witness: {witness_ok}, invertible accepted "
            f"{accepted}/25, dense-range accepts: {dense_ok}")


def test_criterion_8_resolvent_symmetry():
    worst = 0.0
    for _, z, ext in chain_built_extensions():
        for lam in default_lambda_grid(z, ext.atilde_matrix()):
            dev = np.linalg.norm(compressed_resolvent(ext, lam).conj().T
                                 - compressed_resolvent(ext, np.conj(lam)), 2)
            worst = max(worst, float(dev))
    ok = worst < 1e-10
    _report(8, "resolvent adjoint symmetry", ok, f"max deviation {worst:.2e}")


def test_criterion_9_distinct_parameters_distinct_resolvents():
    worked = _worked()
    grid = default_lambda_grid(1j)
    f1 = ParameterFunction.constant(worked, 1j, np.array([[1j]], dtype=complex))
    f2 = ParameterFunction.constant(worked, 1j, np.array([[-1j]], dtype=complex))
    gap = 0.0
    for lam in grid:
        dev = np.linalg.norm(shtraus_resolvent(worked, 1j, f1, lam)
                             - shtraus_resolvent(worked, 1j, f2, lam), 2)
        gap = max(gap, float(dev))
    ok = gap > 1e-3
    _report(9, "distinct parameters separate", ok, f"max grid gap {gap:.2e}")


CRITERIA = (
    test_criterion_1_neumann_roundtrip,
    test_criterion_2_invertibility_equivalence,
    test_criterion_3_cayley_identities,
    test_criterion_4_selfadjoint_chain_builder,
    test_criterion_5_shtraus_correspondence,
    test_criterion_6_constrained_space_identities,
    test_criterion_7_i_admissibility_discrimination,
    test_criterion_8_resolvent_symmetry,
    test_criterion_9_distinct_parameters_distinct_resolvents,
)


if __name__ == "__main__":
    failures = 0
    for criterion in CRITERIA:
        try:
            criterion()
        except AssertionError as exc:
            failures += 1
            print(f"  detail: {exc}")
    sys.exit(1 if failures else 0)
