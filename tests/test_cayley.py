"""Defect data, Cayley transforms, the forbidden operator, and admissibility."""

import numpy as np
import pytest

import symext as sx
from symext.cayley import (cayley, defect_data, forbidden_of_inverse, forbidden_operator,
                           inverse_cayley, is_admissible, require_offaxis)
from symext.errors import NotInvertible, ParameterShapeViolation, RealPoint
from symext.invertibility import double
from symext.operators import (DomainOperator, LinearRelation, graph_distance, inverse_op,
                              is_isometric, operator_from_generators, operator_from_matrix,
                              scale_op)
from symext.subspaces import Subspace, orthonormalize, rank_split

from conftest import random_instance, small_eigenvalue_base, worked_parameter


def test_require_offaxis():
    with pytest.raises(RealPoint):
        require_offaxis(1.0)
    with pytest.raises(RealPoint):
        require_offaxis(2.0 + 1e-12j)
    assert require_offaxis(1j) == 1j


def test_defect_data_worked_family(worked_a):
    dd = defect_data(worked_a, 1j)
    assert dd.defect_numbers == (1, 1)
    assert abs(abs(dd.m_z.frame[0, 0]) - 1.0) < 1e-12
    assert abs(abs(dd.n_z.frame[1, 0]) - 1.0) < 1e-12
    assert abs(abs(dd.n_zbar.frame[1, 0]) - 1.0) < 1e-12


def test_defect_data_selfadjoint_total():
    h = operator_from_matrix(np.array([[2.0, 1j], [-1j, 3.0]]))
    dd = defect_data(h, 0.7 + 0.3j)
    assert dd.defect_numbers == (0, 0)
    assert dd.n_z.dim == 0 and dd.m_z.dim == 2


def test_defect_data_orthogonality_and_counts():
    # M_z perp N_z, dims add to ambient, both numbers equal d - dim D(A)
    for seed in range(12):
        a, z, n = random_instance(seed)
        dd = defect_data(a, z)
        assert dd.defect_numbers == (n, n)
        assert dd.m_z.dim + dd.n_z.dim == a.ambient_dim
        if dd.m_z.dim and dd.n_z.dim:
            cross = dd.m_z.frame.conj().T @ dd.n_z.frame
            assert np.linalg.norm(cross) < 1e-10


def test_defect_data_real_point_rejected(worked_a):
    with pytest.raises(RealPoint):
        defect_data(worked_a, 0.5)


def test_defect_data_requires_symmetric():
    skew = operator_from_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex) * 1j
                                + np.array([[0, 2.0], [0, 0]]))
    with pytest.raises(ValueError):
        defect_data(skew, 1j)


def test_defect_matches_inverse_at_reciprocal_point():
    # the from-scratch record of A^{-1} at 1/z against A's, and against A's relabelled
    for seed in range(8):
        a, z, _ = random_instance(seed)
        dd = defect_data(a, z)
        dd_inv = defect_data(inverse_op(a), 1.0 / z)
        for got in (dd, dd.of_inverse()):
            assert got.m_z.distance(dd_inv.m_z) < 1e-10
            assert got.n_z.distance(dd_inv.n_z) < 1e-10
            assert got.m_zbar.distance(dd_inv.m_zbar) < 1e-10
            assert got.n_zbar.distance(dd_inv.n_zbar) < 1e-10
        assert dd.of_inverse().z == dd_inv.z
        assert dd.of_inverse().defect_numbers == dd_inv.defect_numbers


def test_cayley_worked_family(worked_a):
    u = cayley(worked_a, 1j)
    # U_i((A-i)e1) = (A+i)e1, i.e. multiplication by (1+i)/(1-i) = i on span{e1}
    got = u.apply(np.array([1.0, 0.0], dtype=complex))
    assert np.allclose(got, [1j, 0.0])
    assert is_isometric(u)


def test_cayley_unitary_for_selfadjoint():
    h = operator_from_matrix(np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex))
    u = cayley(h, 0.3 + 1.1j)
    assert u.domain_dim == 2 and is_isometric(u)


def test_cayley_isometric_random():
    for seed in range(10):
        a, z, _ = random_instance(seed + 100)
        assert is_isometric(cayley(a, z))


def test_cayley_inverse_scaling_identity():
    # U_z(A) = (zbar/z) U_{1/z}(A^{-1}) on M_z, with U_{1/z}(A^{-1}) from scratch
    # and as check_invertibility takes it, (z/zbar) U_z(A)
    for seed in range(8):
        a, z, _ = random_instance(seed + 200)
        u = cayley(a, z)
        u_inv = cayley(inverse_op(a), 1.0 / z)
        scaled = scale_op(u, z / np.conj(z))
        assert scaled.domain.distance(u_inv.domain) < 1e-10
        for j in range(u.domain_dim):
            v = u.domain.frame[:, j]
            for got in (u_inv, scaled):
                assert np.allclose(u.apply(v), (np.conj(z) / z) * got.apply(v), atol=1e-10)
            assert np.allclose(scaled.apply(v), u_inv.apply(v), atol=1e-10)


def test_cayley_in_defect_data_matches_generators_oracle():
    # U_z from the SVD that gives M_z, bit for bit the map operator_from_generators
    # builds from scratch on (A F - zF, A F - zbar F), at z and at zbar
    for seed in range(50):
        a, z, _ = random_instance(seed)
        for w in (z, np.conj(z)):
            dd = defect_data(a, w)
            f = a.domain.frame
            oracle = operator_from_generators(a.action - w * f, a.action - np.conj(w) * f,
                                              tol=a.tol)
            assert cayley(a, w) is dd.u and dd.u.domain is dd.m_z
            assert np.array_equal(dd.u.domain.frame, oracle.domain.frame), (seed, w)
            assert np.array_equal(dd.u.action, oracle.action), (seed, w)


def test_of_inverse_relabels_cayley():
    # U_{1/z}(A^{-1}) = (z/zbar) U_z(A), bitwise the scaled record of A
    for seed in range(8):
        a, z, _ = random_instance(seed + 300)
        dd = defect_data(a, z)
        got, want = dd.of_inverse().u, scale_op(dd.u, z / np.conj(z))
        assert got.domain is dd.m_z
        assert np.array_equal(got.action, want.action)


def test_rank_cut_dropping_a_generator_leaves_no_cayley():
    # at tol 1e-2 the cut drops (A - z)e2 against (A - z)e1 ~ 1e3 e1: the
    # spaces keep the cut rank, and U_z, which needs every generator, is absent
    e = np.eye(3, dtype=complex)
    a = DomainOperator(Subspace(e[:, :2], tol=1e-2), np.column_stack([1e3 * e[:, 0], e[:, 1]]))
    dd = defect_data(a, 0.5j)
    assert dd.m_z.dim == 1 and dd.defect_numbers == (2, 2) and dd.u is None
    with pytest.raises(ValueError, match="linearly dependent"):
        cayley(a, 0.5j)
    t = DomainOperator(Subspace(dd.n_z.frame[:, :0], tol=1e-2), np.zeros((3, 0)))
    with pytest.raises(ValueError, match="linearly dependent"):
        is_admissible(a, 0.5j, t)
    assert dd.of_inverse().u is None


def test_inverse_cayley_roundtrip():
    for seed in range(10):
        a, z, _ = random_instance(seed + 300)
        rel = inverse_cayley(cayley(a, z), z)
        assert rel.is_operator()
        assert graph_distance(rel.to_operator(), a) < 1e-9


def test_inverse_cayley_fixed_vector_gives_relation():
    w = operator_from_matrix(np.diag([1.0, 1j]))  # fixes e1
    rel = inverse_cayley(w, 1j)
    assert not rel.is_operator()
    assert rel.multivalued_part().dim == 1


def test_inverse_cayley_worked_block(worked_a):
    # W = U_i(A) on span{e1} plus (-1) on span{e2}: B = diag(1, 0)
    w = operator_from_matrix(np.diag([1j, -1.0]))
    rel = inverse_cayley(w, 1j)
    assert rel.is_operator()
    b = rel.to_operator()
    assert graph_distance(b, operator_from_matrix(np.diag([1.0, 0.0]))) < 1e-12


def test_inverse_cayley_requires_isometry():
    with pytest.raises(ValueError):
        inverse_cayley(operator_from_matrix(np.diag([2.0, 1.0])), 1j)


def test_forbidden_operator_worked_family(worked_a):
    for z in (1j, -1j):
        x = forbidden_operator(worked_a, z)
        assert x.domain is defect_data(worked_a, z).n_z
        assert x.domain.dim == 1
        got = x.apply(np.array([0.0, 1.0], dtype=complex))
        assert np.allclose(got, [0.0, 1.0])


def test_forbidden_operator_single_valued_full_domain():
    # for symmetric A with defect n >= 1: X_z is an operator on all of N_z
    for seed in range(12):
        a, z, _ = random_instance(seed + 400)
        dd = defect_data(a, z)
        x = forbidden_operator(a, z)
        assert x.domain is dd.n_z and x.domain.dim == dd.defect_numbers[0]


def test_forbidden_operator_dense_range_empty_domain():
    # defect 0 at 1/z for the inverse of a total Hermitian: D(X) = {0}
    h = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=4, defect=0, seed=5))
    x = forbidden_operator(inverse_op(h), 1.0 / (0.4 + 0.9j))
    assert x.domain.dim == 0


def _relation_route(dd, frame, tol):
    """X read as a relation from the null space of its defining system, then converted."""
    z, n, nb = dd.z, dd.n_z.dim, dd.n_zbar.dim
    system = np.hstack([dd.n_z.frame, -dd.n_zbar.frame, -(z - np.conj(z)) * frame])
    _, _, null = rank_split(system, tol, floor=0.0, part="null")
    return LinearRelation.from_pairs(dd.n_z.frame @ null[:n], dd.n_zbar.frame @ null[n:n + nb],
                                     tol=tol).to_operator()


def _off(m, frame) -> float:
    """Spectral norm of the part of m's columns outside span ``frame``."""
    return float(np.linalg.norm(m - frame @ (frame.conj().T @ m), 2)) if m.size else 0.0


def test_forbidden_operator_satisfies_its_definition():
    # X_z(A) and X_{1/z}(A^{-1}) are operators on all of N_z with images in N_zbar,
    # f - Xf lies in D(A) (in R(A) = D(A^{-1}) for the inverse), and X is the
    # operator of the relation its null space pairs
    cases = []
    for seed in range(20):
        a, z, _ = random_instance(seed)
        cases += [(a, z), (double(a), z)]
    cases += [(small_eigenvalue_base(1e-8, d, n, seed)[0], z)
              for d in (4, 6, 8) for n in (1, 2) for seed in (0, 1) for z in (1j, -1j)]
    for a, z in cases:
        dd = defect_data(a, z)
        range_frame = orthonormalize(a.action, tol=a.tol).frame
        for x, frame, record in ((forbidden_operator(a, z), a.domain.frame, dd),
                                 (forbidden_of_inverse(a, dd), range_frame, dd.of_inverse())):
            assert x.domain is dd.n_z
            assert _off(x.action, dd.n_zbar.frame) < 1e-12
            assert _off(x.domain.frame - x.action, frame) < 1e-12
            assert graph_distance(x, _relation_route(record, frame, a.tol)) < 1e-12


def test_forbidden_operator_of_a_mismatched_input_is_not_invertible():
    a, z, _ = random_instance(3)
    # a record of an operator on a smaller domain pairs more vectors than dim N_z
    smaller = DomainOperator(Subspace(a.domain.frame[:, :1], a.tol), a.action[:, :1])
    with pytest.raises(NotInvertible):
        forbidden_of_inverse(a, defect_data(smaller, z))
    # a kernel leaves no A^{-1}
    e1 = np.array([[1.0], [0.0]], dtype=complex)
    singular = operator_from_generators(e1, np.zeros_like(e1))
    with pytest.raises(NotInvertible):
        forbidden_of_inverse(singular, defect_data(singular, 1j))


def test_is_admissible_worked_values(worked_a, worked_dd):
    bad = is_admissible(worked_a, 1j, worked_parameter(worked_dd, 1.0).t)
    assert not bad.admissible
    assert np.allclose(bad.witness, [0.0, 1.0], atol=1e-10)
    good = is_admissible(worked_a, 1j, worked_parameter(worked_dd, -1.0).t)
    assert good.admissible and good.witness is None
    assert good.margin > 1.0


def test_is_admissible_empty_parameter(worked_a):
    empty = DomainOperator(Subspace(np.zeros((2, 0), dtype=complex)),
                           np.zeros((2, 0), dtype=complex))
    assert is_admissible(worked_a, 1j, empty).admissible


def test_is_admissible_shape_violation(worked_a):
    # domain outside N_i: D(T) = span{e1} = D(A)
    t = DomainOperator(Subspace(np.array([[1.0], [0.0]], dtype=complex)),
                       np.array([[0.0], [1.0]], dtype=complex))
    with pytest.raises(ParameterShapeViolation):
        is_admissible(worked_a, 1j, t)


def test_admissibility_matches_forbidden_formulation():
    # admissible <=> no nonzero f in D(T) with Tf = X_z f (X single-valued, full domain)
    rng = np.random.default_rng(42)
    hits = 0
    for seed in range(30):
        a, z, _ = random_instance(seed + 500)
        dd = defect_data(a, z)
        x = forbidden_operator(a, z)
        n = dd.defect_numbers[0]
        if rng.uniform() < 0.5:
            # agree with X on a random defect direction: must be inadmissible
            f = dd.n_z.frame @ (lambda v: v / np.linalg.norm(v))(
                rng.standard_normal(n) + 1j * rng.standard_normal(n))
            t = DomainOperator(Subspace(f.reshape(-1, 1)), x.apply(f).reshape(-1, 1))
            verdict = is_admissible(a, z, t)
            assert not verdict.admissible
            hits += 1
        else:
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s = np.linalg.svd(raw, compute_uv=False)
            t_mat = raw / (s[0] * 1.7)
            t = DomainOperator(dd.n_z, dd.n_zbar.frame @ t_mat)
            verdict = is_admissible(a, z, t)
            xmat = np.column_stack([x.apply(dd.n_z.frame[:, j]) for j in range(n)])
            diff = dd.n_zbar.frame @ t_mat - xmat
            smin = np.linalg.svd(diff, compute_uv=False)[-1]
            assert verdict.admissible == (smin > 1e-9)
    assert hits > 5


def test_forbidden_operator_precomputed_defect_data():
    # X_{1/z}(A^{-1}) from A's record at z, relabelled, is the X of A^{-1} built
    # from scratch; it is built once per (A, z), and X_z(A) reads A's memoized record
    for seed in range(6):
        a, z, _ = random_instance(seed + 30)
        dd = defect_data(a, z)
        assert forbidden_operator(a, z).domain is dd.n_z
        given = forbidden_of_inverse(a, dd)
        assert given.domain is dd.n_z and forbidden_of_inverse(a, dd) is given
        plain = forbidden_operator(inverse_op(a), 1.0 / z)
        assert graph_distance(plain, given) < 1e-12
