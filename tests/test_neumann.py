"""Generalized Neumann formulas: extend, classify_operator, recover_parameter."""

import numpy as np
import pytest

import symext as sx
from symext.cayley import defect_data
from symext.errors import NotAdmissible, NotAnExtension, ParameterShapeViolation
from symext.neumann import (ACCUMULATIVE, DISSIPATIVE, ISOMETRIC, MIXED,
                            SELF_ADJOINT, STRICTLY_CONTRACTIVE, SYMMETRIC,
                            ContractionParameter, classify_operator, extend,
                            recover_parameter)
from symext.operators import (graph_contains, graph_distance, is_symmetric,
                              make_operator, operator_from_matrix)
from symext.subspaces import TOL, Subspace, opnorm

from conftest import random_contraction, random_instance, worked_parameter


def worked_b(c):
    return np.diag([1.0, 1j * (c + 1) / (c - 1)])


def test_extend_selfadjoint_unit_circle(worked_a, worked_dd):
    # |c| = 1, c != 1 gives B = diag(1, i(c+1)/(c-1)) with a real second entry
    for c in (1j, -1j, -1.0, np.exp(0.3j), np.exp(-2.1j)):
        report = extend(worked_a, 1j, worked_parameter(worked_dd, c))
        expect = worked_b(c)
        assert abs(expect[1, 1].imag) < 1e-12
        assert np.allclose(report.b.to_matrix(), expect, atol=1e-10)
        assert report.classification == SELF_ADJOINT
        assert report.parameter.kind == ISOMETRIC


def test_extend_worked_c_eq_i(worked_a, worked_dd):
    report = extend(worked_a, 1j, worked_parameter(worked_dd, 1j))
    assert np.allclose(report.b.to_matrix(), np.diag([1.0, 1.0]), atol=1e-12)
    assert report.invertible
    assert report.defect_numbers_of_b == (0, 0)


def test_extend_worked_c_eq_minus_one(worked_a, worked_dd):
    report = extend(worked_a, 1j, worked_parameter(worked_dd, -1.0))
    assert np.allclose(report.b.to_matrix(), np.diag([1.0, 0.0]), atol=1e-12)
    assert report.classification == SELF_ADJOINT
    assert not report.invertible
    assert np.allclose(report.witnesses["kernel"], [0.0, 1.0], atol=1e-10)


def test_extend_not_admissible_witness(worked_a, worked_dd):
    with pytest.raises(NotAdmissible) as exc:
        extend(worked_a, 1j, worked_parameter(worked_dd, 1.0))
    assert np.allclose(exc.value.witness, [0.0, 1.0], atol=1e-10)


def test_extend_empty_parameter_is_identity(worked_a):
    empty = ContractionParameter.empty(1j, 2)
    report = extend(worked_a, 1j, empty)
    assert graph_distance(report.b, worked_a) < 1e-12
    assert report.classification == SYMMETRIC


def test_extend_contractive_halfplane_classification(worked_a, worked_dd):
    # strict contraction, z in the upper half-plane: accumulative; lower: dissipative
    up = extend(worked_a, 1j, worked_parameter(worked_dd, 0.5))
    assert np.allclose(up.b.to_matrix(), np.diag([1.0, -3j]), atol=1e-12)
    assert up.classification == ACCUMULATIVE
    assert up.parameter.kind == STRICTLY_CONTRACTIVE
    dd_low = defect_data(worked_a, -1j)
    low = extend(worked_a, -1j,
                 ContractionParameter.from_matrix(dd_low, np.array([[0.5]], dtype=complex)))
    assert np.allclose(low.b.to_matrix(), np.diag([1.0, 3j]), atol=1e-12)
    assert low.classification == DISSIPATIVE


@pytest.mark.parametrize("gap, kind", [(1e-5, STRICTLY_CONTRACTIVE), (1e-11, ISOMETRIC)])
def test_parameter_kind_isometric_means_within_the_record(worked_dd, gap, kind):
    # ||T||^2 = 1 - gap: only a gap inside TOL.isometric_kind makes T isometric
    assert worked_parameter(worked_dd, np.sqrt(1.0 - gap)).kind == kind


def test_dissipative_quadratic_form_sign(worked_a):
    # z in the lower half-plane, |c| < 1: Im(Bv, v) >= 0 on D(B)
    rng = np.random.default_rng(21)
    dd_low = defect_data(worked_a, -1j)
    for _ in range(5):
        c = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        report = extend(worked_a, -1j,
                        ContractionParameter.from_matrix(dd_low, np.array([[c]])))
        for _ in range(10):
            v = report.b.domain.frame @ (rng.standard_normal(report.b.domain_dim)
                                         + 1j * rng.standard_normal(report.b.domain_dim))
            assert np.vdot(v, report.b.apply(v)).imag >= -1e-10


def test_extend_shape_violation(worked_a):
    t = make_operator(Subspace(2, np.array([[1.0], [0.0]], dtype=complex)),
                      np.array([[0.0], [0.5]], dtype=complex))
    with pytest.raises(ParameterShapeViolation):
        extend(worked_a, 1j, ContractionParameter(1j, t, MIXED))


def test_parameter_nonexpanding_enforced(worked_a, worked_dd):
    with pytest.raises(ValueError):
        worked_parameter(worked_dd, 1.5)


def test_extension_dimension_count():
    # dim D(B) = dim D(A) + dim D(T), and the direct sum is genuine
    rng = np.random.default_rng(22)
    for seed in range(10):
        a, z, n = random_instance(seed + 600)
        dd = defect_data(a, z)
        parameter = random_contraction(rng, dd)
        report = extend(a, z, parameter, dd=dd)
        assert report.b.domain_dim == a.domain_dim + parameter.t.domain_dim
        assert graph_contains(report.b, a)
        meet = a.domain.intersect(report.b.domain)
        assert meet.distance(a.domain) < 1e-8


def test_isometric_full_domain_gives_selfadjoint():
    rng = np.random.default_rng(23)
    done = 0
    for seed in range(20):
        a, z, n = random_instance(seed + 700)
        dd = defect_data(a, z)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(raw)
        parameter = ContractionParameter.from_matrix(dd, q)
        try:
            report = extend(a, z, parameter, dd=dd)
        except NotAdmissible:
            continue
        assert report.defect_numbers_of_b == (0, 0)
        assert report.classification == SELF_ADJOINT
        assert is_symmetric(report.b) and report.b.is_total()
        done += 1
    assert done >= 10


def test_partial_isometric_stays_symmetric():
    # isometric T on a strict subspace of N_z leaves positive defect: symmetric, not self-adjoint
    rng = np.random.default_rng(24)
    done = 0
    for seed in range(20):
        a, z, n = random_instance(seed + 800, max_dim=8, max_defect=3)
        if n < 2:
            continue
        dd = defect_data(a, z)
        f1 = dd.n_z.frame[:, :1]
        h = dd.n_zbar.frame @ (lambda v: v / np.linalg.norm(v))(
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        t = make_operator(Subspace(a.ambient_dim, f1), h.reshape(-1, 1))
        try:
            report = extend(a, z, ContractionParameter.from_operator(z, t))
        except NotAdmissible:
            continue
        assert report.classification == SYMMETRIC
        assert report.defect_numbers_of_b == (n - 1, n - 1)
        done += 1
    assert done >= 5


def test_classify_total_hermitian():
    report_like = extend(
        sx.operator_from_generators(np.array([[1.0], [0.0]], dtype=complex),
                                    np.array([[1.0], [0.0]], dtype=complex)),
        1j,
        worked_parameter(defect_data(
            sx.operator_from_generators(np.array([[1.0], [0.0]], dtype=complex),
                                        np.array([[1.0], [0.0]], dtype=complex)), 1j), 1j))
    assert classify_operator(report_like.b) == SELF_ADJOINT


@pytest.mark.parametrize("spread", [0.0, 30.0])
@pytest.mark.parametrize("side, factor, kind", [
    (1, 1 - 1e-6, ACCUMULATIVE), (1, 1 + 1e-6, None),
    (-1, 1 - 1e-6, DISSIPATIVE), (-1, 1 + 1e-6, None)])
def test_classify_sign_at_the_slack(monkeypatch, spread, side, factor, kind):
    # Im K = diag(-side, side * slack * factor) with slack = TOL.dissipative_slack
    # * ||K||_2: the class flips where the slack says. opnorm(K) is taken once,
    # except where the eigenvalue clears the slack by more than ||K||_F - ||K||_2
    # (spread 0, failing sign tests): then ||K||_F settles it with no SVD
    top = 1000.0 - side * 1j
    slack = TOL.dissipative_slack * abs(top)
    b = operator_from_matrix(np.diag([top, spread + side * slack * factor * 1j]))
    assert opnorm(b.compression()) == abs(top)
    svds = []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, _fn=np.linalg.svd, **kwargs:
                        svds.append(args) or _fn(*args, **kwargs))
    if kind is None:
        with pytest.raises(ValueError):
            classify_operator(b)
    else:
        assert classify_operator(b) == kind
    assert len(svds) == (spread > 0 or kind is not None)


def test_recover_parameter_worked_diagonal(worked_a):
    # B = diag(1, b) corresponds to c = (b+i)/(b-i)
    for b in (1.0, -1.0, 5.0, 0.0, -2.5):
        big = operator_from_matrix(np.diag([1.0, b]).astype(complex))
        rec = recover_parameter(worked_a, big, 1j)
        assert rec.t.domain_dim == 1
        c = (rec.t.compression())[0, 0]
        assert abs(c - (b + 1j) / (b - 1j)) < 1e-10


def test_recover_parameter_of_base_is_empty(worked_a):
    rec = recover_parameter(worked_a, worked_a, 1j)
    assert rec.t.domain_dim == 0


def test_recover_parameter_not_an_extension(worked_a):
    stranger = operator_from_matrix(np.diag([2.0, 3.0]).astype(complex))
    with pytest.raises(NotAnExtension):
        recover_parameter(worked_a, stranger, 1j)


def test_roundtrip_extend_recover():
    rng = np.random.default_rng(25)
    done = 0
    for seed in range(30):
        a, z, _ = random_instance(seed + 900)
        dd = defect_data(a, z)
        parameter = random_contraction(rng, dd)
        try:
            report = extend(a, z, parameter, dd=dd)
        except NotAdmissible:
            continue
        recovered = recover_parameter(a, report.b, z)
        assert graph_distance(recovered.t, parameter.t) < 1e-9
        again = extend(a, z, recovered, dd=dd)
        assert graph_distance(again.b, report.b) < 1e-9
        done += 1
    assert done >= 20
