"""Operators with explicit domains: predicates, inversion, graphs, relations."""

import ast
from pathlib import Path

import numpy as np
import pytest

import symext as sx
from symext.errors import DomainViolation, ExpandingParameter, NotInvertible
from symext.neumann import require_nonexpanding
from symext.operators import (LinearRelation, direct_sum_op, graph_contains,
                              graph_distance, identity_operator, inverse_op,
                              is_injective, is_isometric, is_symmetric,
                              kernel_witness, make_operator, negate,
                              operator_from_generators, operator_from_matrix,
                              scale_op)
from symext.subspaces import Subspace, opnorm, orthonormalize


def span_e1(d=2):
    frame = np.zeros((d, 1), dtype=complex)
    frame[0, 0] = 1.0
    return Subspace(d, frame)


def test_make_operator_worked_family():
    a = make_operator(span_e1(), np.array([[1.0], [0.0]], dtype=complex))
    assert a.ambient_dim == 2 and a.domain_dim == 1
    assert np.allclose(a.apply(np.array([2.0, 0.0])), [2.0, 0.0])


def test_make_operator_identity_and_trivial():
    e = identity_operator(2)
    v = np.array([1.0 + 1j, -2.0])
    assert np.allclose(e.apply(v), v)
    zero_dom = Subspace(2, np.zeros((2, 0), dtype=complex))
    o = make_operator(zero_dom, np.zeros((2, 0), dtype=complex))
    assert o.domain_dim == 0 and is_symmetric(o) and is_injective(o)


def test_apply_domain_violation_and_zero():
    a = make_operator(span_e1(), np.array([[1.0], [0.0]], dtype=complex))
    with pytest.raises(DomainViolation):
        a.apply(np.array([0.0, 1.0]))
    assert np.allclose(a.apply(np.zeros(2)), 0.0)


def test_is_symmetric_hand_values():
    col = np.array([[1.0], [0.0]], dtype=complex)
    assert is_symmetric(make_operator(span_e1(), col))
    assert not is_symmetric(make_operator(span_e1(), 1j * col))
    h = np.array([[2.0, 1 - 1j], [1 + 1j, -3.0]])
    assert is_symmetric(operator_from_matrix(h))


def test_is_injective_hand_values():
    assert not is_injective(operator_from_matrix(np.diag([1.0, 0.0])))
    assert is_injective(operator_from_matrix(np.diag([1.0, -0.3])))
    zero_dom = Subspace(2, np.zeros((2, 0), dtype=complex))
    assert is_injective(make_operator(zero_dom, np.zeros((2, 0), dtype=complex)))


def test_kernel_witness_diag():
    w = kernel_witness(operator_from_matrix(np.diag([1.0, 0.0])))
    assert np.allclose(w, [0.0, 1.0], atol=1e-12)
    # an injective operator, or an empty domain, has no kernel direction
    with pytest.raises(NotInvertible):
        kernel_witness(operator_from_matrix(np.diag([1.0, -0.3])))
    with pytest.raises(NotInvertible):
        kernel_witness(make_operator(Subspace(2, np.zeros((2, 0))), np.zeros((2, 0))))


def test_inverse_op_hand_values():
    a = make_operator(span_e1(), np.array([[1.0], [0.0]], dtype=complex))
    assert graph_distance(inverse_op(a), a) < 1e-12
    d = operator_from_matrix(np.diag([2.0, 3.0]))
    assert np.allclose(inverse_op(d).to_matrix(), np.diag([0.5, 1.0 / 3.0]))
    with pytest.raises(NotInvertible):
        inverse_op(operator_from_matrix(np.diag([1.0, 0.0])))


def test_inverse_op_involution_random():
    rng = np.random.default_rng(10)
    for _ in range(15):
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, d + 1))
        gen = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        img = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        a = operator_from_generators(gen, img)
        if not is_injective(a):
            continue
        assert graph_distance(inverse_op(inverse_op(a)), a) < 1e-9
        # A^{-1}(A f) = f on the domain frame
        for j in range(a.domain_dim):
            f = a.domain.frame[:, j]
            assert np.allclose(inverse_op(a).apply(a.apply(f)), f, atol=1e-9)


def test_isometric_and_nonexpanding():
    dom = Subspace(2, np.array([[0.0], [1.0]], dtype=complex))
    flip = make_operator(dom, np.array([[0.0], [-1.0]], dtype=complex))
    half = make_operator(dom, np.array([[0.0], [0.5]], dtype=complex))
    big = make_operator(dom, np.array([[0.0], [2.0]], dtype=complex))
    assert is_isometric(flip) and not is_isometric(half) and not is_isometric(big)
    require_nonexpanding(flip.action)
    require_nonexpanding(half.action)
    with pytest.raises(ExpandingParameter):
        require_nonexpanding(big.action)
    # a non-finite entry fails the gate: its SVD gives NaN, which no bound admits
    for bad in (np.inf, complex(1.0, np.inf)):
        with pytest.raises(ExpandingParameter):
            require_nonexpanding(np.array([[0.0], [bad]], dtype=complex))


def test_direct_sum_negate_scale():
    a = make_operator(span_e1(), np.array([[1.0], [0.0]], dtype=complex))
    s = direct_sum_op(a, negate(a))
    v = np.array([3.0, 0.0, 3.0, 0.0], dtype=complex)
    assert np.allclose(s.apply(v), [3.0, 0.0, -3.0, 0.0])
    assert s.domain_dim == 2 * a.domain_dim
    assert np.allclose(scale_op(a, 2j).apply(np.array([1.0, 0.0])), [2j, 0.0])


def test_graph_and_relation_roundtrip():
    a = make_operator(span_e1(), np.array([[1.0], [0.0]], dtype=complex))
    rel = LinearRelation.from_operator(a)
    assert rel.graph.dim == a.domain_dim
    assert rel.is_operator()
    back = rel.to_operator()
    assert graph_distance(back, a) < 1e-12


@pytest.mark.parametrize("k, norm", [(0, 1.0), (5, 1.0), (3, 1.0), (3, 1e6)])
def test_qr_graph_spans_the_svd_graph(k, norm):
    rng = np.random.default_rng(k)
    d = 5
    domain = orthonormalize(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)),
                            ambient_dim=d)
    action = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    if k:
        action *= norm / opnorm(action)
    a = make_operator(domain, action)
    graph = LinearRelation.from_operator(a).graph
    svd_graph = orthonormalize(np.vstack([domain.frame, action]), ambient_dim=2 * d)
    assert graph.dim == svd_graph.dim == k
    assert graph.distance(svd_graph) <= 1e-14


def test_graph_of_identity_on_c1():
    rel = LinearRelation.from_operator(identity_operator(1))
    expect = np.array([[1.0], [1.0]]) / np.sqrt(2)
    assert rel.graph.distance(Subspace(2, expect.astype(complex))) < 1e-12


def test_vertical_relation_not_operator():
    pairs_dom = np.zeros((2, 1), dtype=complex)
    pairs_img = np.array([[1.0], [0.0]], dtype=complex)
    rel = LinearRelation.from_pairs(pairs_dom, pairs_img, 2)
    assert not rel.is_operator()
    assert rel.multivalued_part().dim == 1


def test_graph_sum_dimension():
    rng = np.random.default_rng(12)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        k1, k2 = int(rng.integers(0, d + 1)), int(rng.integers(0, d + 1))
        a = make_operator(orthonormalize(rng.standard_normal((d, k1))
                                         + 1j * rng.standard_normal((d, k1)), ambient_dim=d),
                          rng.standard_normal((d, k1)))
        b = make_operator(orthonormalize(rng.standard_normal((d, k2))
                                         + 1j * rng.standard_normal((d, k2)), ambient_dim=d),
                          rng.standard_normal((d, k2)))
        s = direct_sum_op(a, b)
        assert LinearRelation.from_operator(s).graph.dim == a.domain_dim + b.domain_dim


def test_shifted_injectivity_for_symmetric():
    # (A - z) is injective on D(A) for non-real z: basis of the defect computation
    rng = np.random.default_rng(13)
    for seed in range(10):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(1, d))
        a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=d, defect=n, seed=seed))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2) * rng.choice([-1, 1]))
        shifted = a.action - z * a.domain.frame
        s = np.linalg.svd(shifted, compute_uv=False)
        assert s[-1] > 1e-10


def test_graph_contains_and_distance_symmetry():
    a = make_operator(span_e1(), np.array([[1.0], [0.0]], dtype=complex))
    b = operator_from_matrix(np.diag([1.0, 7.0]))
    assert graph_contains(b, a)
    assert not graph_contains(a, b)
    assert graph_distance(a, b) == pytest.approx(graph_distance(b, a))


def random_operator(rng, d, k):
    domain = orthonormalize(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)),
                            ambient_dim=d)
    return make_operator(domain, rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))


def test_operator_carries_one_graph(monkeypatch):
    a = random_operator(np.random.default_rng(31), 5, 3)
    graph = a.graph
    assert a.graph is graph
    assert graph.graph.distance(LinearRelation.from_operator(a).graph) <= 1e-15
    # graph_contains and graph_distance read the carried graphs and build none
    b = operator_from_matrix(np.eye(5))
    assert b.graph.dim == 5

    def no_build(cls, op):
        raise AssertionError("graph rebuilt")

    monkeypatch.setattr(LinearRelation, "from_operator", classmethod(no_build))
    assert graph_contains(a, a) and not graph_contains(b, a)
    assert graph_distance(a, b) == 1.0 and graph_distance(a, graph) <= 1e-15


def test_inverse_relation_swaps_the_halves():
    rng = np.random.default_rng(32)
    for d, k in ((1, 1), (4, 2), (6, 6), (3, 0)):
        a = random_operator(rng, d, k)
        swapped = a.graph.inverse()
        assert np.array_equal(swapped.inverse().graph.frame, a.graph.graph.frame)
        if k:
            assert graph_distance(swapped, inverse_op(a)) <= 1e-12
    # a kernel of A is a vertical pair of the inverse relation
    singular = operator_from_matrix(np.diag([1.0, 0.0]))
    assert singular.graph.inverse().multivalued_part().dim == 1


def _stray_graph_builds(tree):
    """Calls ``LinearRelation.from_operator(...)`` outside ``DomainOperator.graph``."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "DomainOperator":
            allowed |= {id(n) for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name == "graph"
                        for n in ast.walk(item)}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "LinearRelation.from_operator"
            and id(node) not in allowed]


def test_graphs_are_built_only_by_the_operator():
    # every graph of an operator in the package is the one the operator carries
    found = []
    for path in sorted(Path(sx.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in _stray_graph_builds(tree)]
    assert found == []
    probe = ast.parse("class DomainOperator:\n"
                      "    def graph(self):\n"
                      "        return LinearRelation.from_operator(self)\n"
                      "    def other(self):\n"
                      "        return LinearRelation.from_operator(self)\n"
                      "g = LinearRelation.from_operator(a)\n")
    assert sorted(node.lineno for node in _stray_graph_builds(probe)) == [5, 6]
