"""The named verification suite: green on healthy inputs, red on corrupted ones."""

import numpy as np
import pytest

from symext import checks
from symext.cayley import defect_data
from symext.checks import (INVERSION_CHECKS, CheckResult, check_cayley_roundtrip,
                           check_i_admissibility, check_neumann_roundtrip,
                           check_range_defect_inverse, run_suite)
from symext.errors import ProjectionDegenerate
from symext.instances import InstanceSpec, gen_symmetric
from symext.invertibility import build_invertible_selfadjoint
from symext.operators import DomainOperator, graph_distance, inverse_op, operator_from_matrix
from symext.resolvents import (EmbeddedExtension, default_lambda_grid, frak_b,
                               frak_f, script_l)
from symext.subspaces import TOL, Subspace, orthonormalize

from conftest import random_instance

SUITE_NAMES = ("range_defect_inverse", "cayley_inverse_scaling", "cayley_roundtrip",
               "neumann_roundtrip", "constrained_space_inverse", "frak_b_inverse",
               "frak_f_inverse", "resolvent_symmetry", "i_admissibility")


def full_ext(a, z, seed=0):
    chain = build_invertible_selfadjoint(a, z, seed=seed, double_first=True)
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
    ext = EmbeddedExtension.canonical(h, h)
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
    object.__setattr__(broken, "embed", ext.embed)
    object.__setattr__(broken, "exit_dim", ext.exit_dim)
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
    a = DomainOperator(4, Subspace(4, eye[:, :2]), eye[:, :2] * [0.0, 1.0])
    assert a.graph.inverse().multivalued_part().dim == 1
    got = {r.name: r for r in run_suite(a)}
    for name in ("range_defect_inverse", "cayley_inverse_scaling"):
        assert got[name].passed and got[name].max_error < 1e-14, got[name]


def test_i_admissibility_skips_singular_extension(worked_a):
    singular = operator_from_matrix(np.diag([1.0, 0.0]).astype(complex))
    ext = EmbeddedExtension.canonical(worked_a, singular)
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
        left = orthonormalize(m @ script_l(ext, lam).frame, ambient_dim=m.shape[0])
        errors = (left.distance(script_l(ext_inv, 1.0 / lam)),
                  graph_distance(inverse_op(frak_b(ext, lam)), frak_b(ext_inv, 1.0 / lam)),
                  float(np.linalg.norm(
                      frak_f(ext_inv, 1.0 / lam, 1.0 / lambda0, frames)
                      - (lambda0 / np.conj(lambda0)) * frak_f(ext, lam, lambda0, frames), 2)))
        for name, error in zip(INVERSION_CHECKS, errors):
            worst[name] = max(worst[name], error)
    return worst


def inversion_cases(worked_a):
    yield worked_a, 1j, 0
    for seed in (0, 7, 21):
        a, z, _ = random_instance(seed, max_dim=6)
        yield a, z, seed


def test_inversion_pass_equals_public_oracles(worked_a):
    # the one pass over the grid computes what the definitions give: F exactly;
    # the constrained spaces and B within rounding, since the pass orthonormalizes
    # by QR and swaps the halves of graph(B_lam) where the oracle inverts B_lam
    for a, z, seed in inversion_cases(worked_a):
        by_name = {r.name: r for r in run_suite(a, full_ext(a, z, seed), lambda0=z, seed=seed)}
        # a second, separately built extension: nothing is shared with the suite's
        expected = oracle_inversion_errors(full_ext(a, z, seed), z)
        for name in ("constrained_space_inverse", "frak_b_inverse"):
            assert abs(by_name[name].max_error - expected[name]) <= 1e-14, name
        assert by_name["frak_f_inverse"].max_error == expected["frak_f_inverse"]


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
        return DomainOperator(b.ambient_dim, b.domain, action)

    monkeypatch.setattr(checks, "_frak_b_from", with_kernel)
    by_name = {r.name: r for r in run_suite(worked_a, ext)}
    assert clean["frak_b_inverse"].passed
    assert not by_name["frak_b_inverse"].passed
    assert by_name["frak_b_inverse"].max_error > 1e3 * TOL.check_resolvent
    assert by_name["constrained_space_inverse"] == clean["constrained_space_inverse"]
