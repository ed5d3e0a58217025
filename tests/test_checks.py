"""The named verification suite: green on healthy inputs, red on corrupted ones."""

import numpy as np
import pytest

from symext import checks, resolvents
from symext.cayley import defect_data
from symext.checks import (INVERSION_CHECKS, CheckResult, check_cayley_roundtrip,
                           check_i_admissibility, check_inversion, check_neumann_roundtrip,
                           check_range_defect_inverse, run_suite)
from symext.errors import ProjectionDegenerate
from symext.instances import InstanceSpec, gen_symmetric
from symext.invertibility import build_invertible_selfadjoint
from symext.operators import DomainOperator, graph_distance, inverse_op, operator_from_matrix
from symext.resolvents import (EmbeddedExtension, default_lambda_grid, frak_b,
                               frak_f, script_l)
from symext.subspaces import TOL, Subspace, orthonormalize

from conftest import lstsq_sample, random_instance

SUITE_NAMES = ("range_defect_inverse", "cayley_inverse_scaling", "cayley_roundtrip",
               "neumann_roundtrip", "constrained_space_inverse", "frak_b_inverse",
               "frak_f_inverse", "resolvent_symmetry", "i_admissibility")


def full_ext(a, z, seed=0, doubled=True):
    chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=doubled)
    return EmbeddedExtension.from_chain(chain)


def test_suite_green_on_worked(worked_a):
    results = run_suite(worked_a, full_ext(worked_a, 1j), lambda0=1j)
    assert tuple(r.name for r in results) == SUITE_NAMES
    assert all(r.passed for r in results)
    assert not any(r.skipped for r in results)


def test_suite_green_on_random_instances():
    for seed in (0, 7, 21):
        a, z, _ = random_instance(seed, max_dim=6)
        results = run_suite(a, full_ext(a, z, seed=seed), lambda0=z, seed=seed)
        bad = [r for r in results if not r.passed]
        assert not bad, [f"{r.name}: {r.max_error} {r.note}" for r in bad]


def test_suite_takes_no_svd_of_the_embedding(monkeypatch):
    # H is the first d coordinates of the doubled space: P_H and the complement
    # of H are slices, so no SVD of np.eye(D, d) runs, for Atilde or its inverse
    a, z, _ = random_instance(7, max_dim=6)
    ext = full_ext(a, z, seed=7)
    total, d = ext.atilde.ambient_dim, a.ambient_dim
    assert total == 2 * d
    seen = []

    def counted(m, *args, _fn=np.linalg.svd, **kwargs):
        seen.append(np.array(m, copy=True))
        return _fn(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    results = run_suite(a, ext, lambda0=z, seed=7)
    assert all(r.passed for r in results) and not any(r.skipped for r in results)
    assert any(m.shape == (total, d) for m in seen)
    assert not any(m.shape == (total, d) and np.array_equal(m, np.eye(total, d)) for m in seen)


def test_suite_skips_without_extension(worked_a):
    results = run_suite(worked_a)
    by_name = {r.name: r for r in results}
    for name in SUITE_NAMES[:4]:
        assert not by_name[name].skipped
    for name in SUITE_NAMES[4:]:
        assert by_name[name].skipped and by_name[name].passed
        assert by_name[name].note == "no extension supplied"


def test_suite_defect_zero_short_circuits():
    h = gen_symmetric(InstanceSpec(ambient_dim=4, defect=0, seed=2))
    ext = EmbeddedExtension(h, h)
    results = run_suite(h, ext)
    by_name = {r.name: r for r in results}
    assert by_name["neumann_roundtrip"].skipped
    assert by_name["frak_f_inverse"].skipped
    assert all(r.passed for r in results)


def test_guard_turns_crash_into_red(worked_a):
    ext = full_ext(worked_a, 1j)
    # corrupting the embedded total operator breaks the Cayley/defect algebra
    # downstream; the suite must report red results, never raise
    noise = np.zeros((4, 4), dtype=complex)
    noise[0, 3] = 0.05
    noise[3, 0] = -0.03j
    broken_matrix = ext.atilde_matrix() + noise
    broken = object.__new__(EmbeddedExtension)
    object.__setattr__(broken, "base", ext.base)
    object.__setattr__(broken, "atilde", operator_from_matrix(broken_matrix))
    results = run_suite(worked_a, broken)
    by_name = {r.name: r for r in results}
    # base-only checks still pass; at least one extension identity goes red
    assert by_name["range_defect_inverse"].passed
    failed = [r for r in results if not r.passed]
    assert failed
    assert any(r.name in ("frak_f_inverse", "i_admissibility", "resolvent_symmetry",
                          "frak_b_inverse", "constrained_space_inverse") for r in failed)


def test_inverse_checks_run_on_a_multivalued_inverse():
    # A e1 = 0, A e2 = e2 on D(A) = span(e1, e2) in C^4: A^{-1} is a relation with
    # the vertical pair (0, e1), and both identities hold for relations
    eye = np.eye(4, dtype=complex)
    a = DomainOperator(Subspace(eye[:, :2]), eye[:, :2] * [0.0, 1.0])
    assert a.graph.inverse().multivalued_part().dim == 1
    got = {r.name: r for r in run_suite(a)}
    for name in ("range_defect_inverse", "cayley_inverse_scaling"):
        assert got[name].passed and got[name].max_error < 1e-14, got[name]


def test_i_admissibility_skips_singular_extension(worked_a):
    singular = operator_from_matrix(np.diag([1.0, 0.0]).astype(complex))
    ext = EmbeddedExtension(worked_a, singular)
    res = check_i_admissibility(ext, 1j)
    assert res.skipped and res.passed and "not invertible" in res.note


def test_individual_checks_report_errors(worked_a):
    res = check_range_defect_inverse(worked_a)
    assert isinstance(res, CheckResult) and res.passed and res.max_error < 1e-10
    res = check_cayley_roundtrip(worked_a)
    assert res.passed and res.max_error < 1e-9
    res = check_neumann_roundtrip(worked_a, 1j, seed=3)
    assert res.passed and res.max_error < 1e-9


def test_neumann_roundtrip_skips_defect_zero():
    h = gen_symmetric(InstanceSpec(ambient_dim=3, defect=0, seed=1))
    res = check_neumann_roundtrip(h, 1j)
    assert res.skipped and res.passed


def oracle_inversion_errors(ext, lambda0):
    """The three inversion errors of the suite, from the public oracles one call at a time."""
    ext_inv = ext.inverse_pair()
    m = ext.atilde_matrix()
    dd = defect_data(ext.base, lambda0)
    frames = (dd.n_z.frame, dd.n_zbar.frame)
    worst = dict.fromkeys(INVERSION_CHECKS, 0.0)
    for lam in default_lambda_grid(lambda0, m):
        left = orthonormalize(m @ script_l(ext, lam).frame)
        errors = (left.distance(script_l(ext_inv, 1.0 / lam)),
                  graph_distance(inverse_op(frak_b(ext, lam)), frak_b(ext_inv, 1.0 / lam)),
                  float(np.linalg.norm(
                      frak_f(ext_inv, 1.0 / lam, 1.0 / lambda0, frames)
                      - (lambda0 / np.conj(lambda0)) * frak_f(ext, lam, lambda0, frames), 2)))
        for name, error in zip(INVERSION_CHECKS, errors):
            worst[name] = max(worst[name], error)
    return worst


def inversion_cases(worked_a):
    """``(A, z, seed, doubled)``: doubled chains (e = d) and undoubled ones (e = 0)."""
    for doubled in (True, False):
        yield worked_a, 1j, 0, doubled
        for seed in (0, 7, 21):
            a, z, _ = random_instance(seed, max_dim=6)
            yield a, z, seed, doubled


def test_inversion_pass_equals_public_oracles(worked_a):
    # the one pass over the grid computes what the definitions give: F exactly;
    # the constrained spaces and B within rounding, since the pass orthonormalizes
    # by QR and swaps the halves of graph(B_lam) where the oracle inverts B_lam.
    # At e = 0 the pass builds the first lam only; the oracles run at every lam
    for a, z, seed, doubled in inversion_cases(worked_a):
        ext = full_ext(a, z, seed, doubled)
        assert ext.exit_dim == (a.ambient_dim if doubled else 0)
        by_name = {r.name: r for r in run_suite(a, ext, lambda0=z, seed=seed)}
        # a second, separately built extension: nothing is shared with the suite's
        expected = oracle_inversion_errors(full_ext(a, z, seed, doubled), z)
        for name in ("constrained_space_inverse", "frak_b_inverse"):
            assert abs(by_name[name].max_error - expected[name]) <= 1e-14, name
        assert by_name["frak_f_inverse"].max_error == expected["frak_f_inverse"]


def test_certified_f_samples_equal_the_lstsq_samples(worked_a, monkeypatch):
    # every sample is one LU solve; the Shtraus bound s_min(B_lam - lam0) >= |Im lam0|
    # makes its solution the lstsq one, to rounding
    solves, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    for a, z, seed, doubled in inversion_cases(worked_a):
        ext = full_ext(a, z, seed, doubled)
        dd = defect_data(a, z)
        frames = (dd.n_z.frame, dd.n_zbar.frame)
        for lam in default_lambda_grid(z, ext.atilde_matrix()):
            for e, at, at0 in ((ext, lam, z), (ext.inverse_pair(), 1.0 / lam, 1.0 / z)):
                bop, at0 = frak_b(e, at), resolvents._contractive_point(at, at0)
                del solves[:]
                certified = resolvents._frak_f_from(bop, at, at0, frames)
                assert solves == [1]
                exact = lstsq_sample(bop, at, at0, frames)
                assert np.linalg.norm(certified - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("stage, red", [
    ("_frak_f_from", {"frak_f_inverse"}),
    ("_frak_b_from", {"frak_b_inverse", "frak_f_inverse"}),
    ("script_l", set(INVERSION_CHECKS)),
])
def test_failed_stage_turns_only_its_checks_red(worked_a, monkeypatch, stage, red):
    # a stage raising at one lam of the grid, on the extension's side only
    ext = full_ext(worked_a, 1j)
    clean = run_suite(worked_a, ext)
    target = default_lambda_grid(1j, ext.atilde_matrix())[3]
    real = getattr(checks, stage)
    calls = []

    def failing(*args):
        lam = args[1]
        calls.append(lam)
        if lam == target:
            raise ProjectionDegenerate(f"injected at {lam}")
        return real(*args)

    monkeypatch.setattr(checks, stage, failing)
    results = run_suite(worked_a, ext)
    assert target in calls
    assert [r.name for r in results] == [r.name for r in clean]
    for before, after in zip(clean, results):
        if after.name in red:
            assert not after.passed and after.max_error == float("inf")
            assert after.note == f"ProjectionDegenerate: injected at {target}"
        else:
            assert after == before


def test_frak_b_with_a_kernel_turns_frak_b_inverse_red(worked_a, monkeypatch):
    # the check swaps the halves of graph(B_lam) instead of inverting B_lam; a
    # kernel of B_lam then shows as a vertical pair, far from graph(B_{1/lam})
    ext = full_ext(worked_a, 1j)
    clean = {r.name: r for r in run_suite(worked_a, ext)}
    target = default_lambda_grid(1j, ext.atilde_matrix())[3]
    real = checks._frak_b_from

    def with_kernel(e, lam, l_space):
        b = real(e, lam, l_space)
        if e is not ext or lam != target:
            return b
        action = np.array(b.action)
        action[:, 0] = 0.0
        return DomainOperator(b.domain, action)

    monkeypatch.setattr(checks, "_frak_b_from", with_kernel)
    by_name = {r.name: r for r in run_suite(worked_a, ext)}
    assert clean["frak_b_inverse"].passed
    assert not by_name["frak_b_inverse"].passed
    assert by_name["frak_b_inverse"].max_error > 1e3 * TOL.check_resolvent
    assert by_name["constrained_space_inverse"] == clean["constrained_space_inverse"]


def per_lambda_inversion(monkeypatch, ext, lams, lambda0):
    """``check_inversion`` with every lam taking the full pass, as it does for e > 0."""
    with monkeypatch.context() as m:
        m.setattr(EmbeddedExtension, "exit_dim", property(lambda self: 1))
        return check_inversion(ext, lams, lambda0)


def undoubled_cases(worked_a):
    for a, z, seed, doubled in inversion_cases(worked_a):
        if not doubled:
            ext = full_ext(a, z, seed, doubled=False)
            yield ext, z, default_lambda_grid(z, ext.atilde_matrix())


def test_e0_inversion_equals_the_per_lambda_pass(worked_a, monkeypatch):
    # at e = 0 the first lam decides every error: the results are the full pass's bits
    for ext, z, grid in undoubled_cases(worked_a):
        assert ext.exit_dim == 0 and len(grid) == 24
        results = check_inversion(ext, grid, z)
        assert results == per_lambda_inversion(monkeypatch, ext, grid, z)
        assert all(r.passed and not r.skipped for r in results)


def test_e0_lambda_outside_the_half_plane_turns_frak_f_red(worked_a, monkeypatch):
    # a lam of the other half-plane after the first: only its guards run, and they
    # turn frak_f_inverse red with the note the full pass gives; the others stay green
    for ext, z, grid in undoubled_cases(worked_a):
        for at in (1, 5, len(grid)):
            lams = grid[:at] + (np.conj(grid[at - 1]),) + grid[at:]
            results = check_inversion(ext, lams, z)
            assert results == per_lambda_inversion(monkeypatch, ext, lams, z)
            by_name = {r.name: r for r in results}
            red = by_name["frak_f_inverse"]
            assert not red.passed and red.max_error == float("inf")
            assert red.note.startswith("ValueError: frak_f is contractive only in the half-plane")
            assert red.note.endswith(f"got {1.0 / np.conj(grid[at - 1])}")
            assert by_name["constrained_space_inverse"].passed
            assert by_name["frak_b_inverse"].passed


def test_check_inversion_on_an_empty_grid_passes(worked_a):
    for doubled in (True, False):
        results = check_inversion(full_ext(worked_a, 1j, doubled=doubled), (), 1j)
        assert [r.name for r in results] == list(INVERSION_CHECKS)
        assert all(r.passed and r.max_error == 0.0 and not r.skipped for r in results)
