"""Linear operators with explicit, possibly non-dense domains, and linear relations.

An operator is a pair (domain frame, action matrix): the j-th action column is
the image of the j-th frame column. Everything an operator does is expressed in
these domain coordinates, so non-dense domains need no special casing.
Relations share with operators their graph halves (``halves()``) and memo.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainViolation, NotInvertible
from .subspaces import (DEFAULT_TOL, TOL, Subspace, fix_phase, opnorm_le, orthonormalize,
                        rank_split)


@dataclass(frozen=True, eq=False)
class DomainOperator:
    """Operator A: D(A) -> C^d with D(A) an explicit subspace of C^d.

    ``action`` is d x dim D(A); column j is A applied to domain frame column j.
    """

    domain: Subspace
    action: np.ndarray

    def __post_init__(self):
        action = np.array(self.action, dtype=complex)
        if action.shape != (self.ambient_dim, self.domain.dim):
            raise ValueError("action must be d x dim(domain) for a domain in C^d")
        action.setflags(write=False)
        object.__setattr__(self, "action", action)

    @cached_property
    def graph(self) -> "LinearRelation":
        """graph(A), built on first use and kept: the operator and its arrays are read-only."""
        return LinearRelation.from_operator(self)

    @cached_property
    def _memo(self) -> dict:
        """Facts computed from this operator, by key; read and written only by ``derived``."""
        return {}

    @property
    def ambient_dim(self) -> int:
        return self.domain.ambient_dim

    @property
    def domain_dim(self) -> int:
        return self.domain.dim

    @property
    def tol(self) -> float:
        return self.domain.tol

    def is_total(self) -> bool:
        return self.domain.dim == self.ambient_dim

    def halves(self) -> tuple:
        """``(F, AF)``: graph(A) is the column span of ``[F; AF]``."""
        return self.domain.frame, self.action

    def compression(self) -> np.ndarray:
        """F^H (action): the operator seen in domain coordinates (k x k)."""
        return self.domain.frame.conj().T @ self.action

    def to_matrix(self) -> np.ndarray:
        """Standard-basis matrix; defined for total operators only."""
        if not self.is_total():
            raise DomainViolation("operator is not defined on all of C^d")
        return self.action @ self.domain.frame.conj().T

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex).reshape(-1)
        if not self.domain.contains(v):
            raise DomainViolation("vector is not in the domain")
        return self.action @ (self.domain.frame.conj().T @ v)


def operator_from_matrix(m: np.ndarray, tol=DEFAULT_TOL) -> DomainOperator:
    """Total operator from a square matrix."""
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    return DomainOperator(Subspace(np.eye(d, dtype=complex), tol), m)


def operator_from_generators(generators, images, tol=DEFAULT_TOL) -> DomainOperator:
    """Operator sending generator column j to image column j.

    The generators must be linearly independent (checked by singular values);
    the domain is their orthonormalized span. One thin SVD gen = U S Vh gives
    both: the domain frame U, and the coefficients V S^{-1} that write U in
    the generators.
    """
    gen = np.asarray(generators, dtype=complex)
    img = np.asarray(images, dtype=complex)
    if gen.shape != img.shape:
        raise ValueError("generators and images must have matching shapes")
    rank, s, (u, vh) = rank_split(gen, tol, floor=0.0, part="svd")
    if rank != img.shape[1]:
        raise ValueError("generators are linearly dependent; the map is ill-defined")
    return DomainOperator(Subspace(u, tol), img @ (vh.conj().T / s))


def derived(a, key, build):
    """``build()``, run once per key on ``a``, and kept there: ``a`` is an operator, a
    relation or a ``resolvents.ParameterFunction``, whose ``_memo`` it reads.

    The rule: ``build`` computes its value from ``a`` and what ``key`` names
    alone, never from another object's data, so a kept value has the bits
    a recomputation would give. A build that raises keeps nothing. ``a`` and
    its arrays are read-only, and the memo goes with it.
    """
    memo = a._memo
    if key not in memo:
        memo[key] = build()
    return memo[key]


def is_symmetric(a) -> bool:
    """G1^H G2 is Hermitian for the graph halves: (F, AF) of an operator, whose
    compression it is, or a relation's frame halves; decided once."""
    def gate():
        g1, g2 = a.halves()
        k = g1.conj().T @ g2
        return opnorm_le(k - k.conj().T, TOL.symmetry_factor * a.tol, relative_to=g2)
    return derived(a, "symmetric", gate)


def injectivity(a: DomainOperator) -> tuple:
    """``(injective, kernel witness or None, margin)`` from one cut of A's action, once
    per A. The witness is the unit, phase-fixed smallest right singular vector, from a
    full SVD only where the cut fails; the margin is the smallest singular value the cut
    saw, inf when D(A) = {0}."""
    def cut():
        rank, s, _ = rank_split(a.action, a.tol)
        margin = float(s[-1]) if s.size else float("inf")
        if rank == a.domain_dim:
            return True, None, margin
        _, _, null = rank_split(a.action, a.tol, part="null")
        if null.shape[1] == 0:  # the full SVD's values cleared the cut after all
            raise NotInvertible("operator is injective; there is no kernel direction")
        witness = fix_phase(a.domain.frame @ null[:, -1])
        witness.setflags(write=False)  # every caller shares the kept witness
        return False, witness, margin
    return derived(a, "injectivity", cut)


def is_injective(a: DomainOperator) -> bool:
    """ker A = {0} at the rank cut of A's action: the first element of ``injectivity``."""
    return injectivity(a)[0]


def inverse_op(a: DomainOperator) -> DomainOperator:
    """Inverse with domain R(A); requires ker A = {0}."""
    if not is_injective(a):
        raise NotInvertible("operator has a nontrivial kernel")
    return operator_from_generators(a.action, a.domain.frame, tol=a.tol)


def is_isometric(a: DomainOperator) -> bool:
    gram = a.action.conj().T @ a.action
    return opnorm_le(gram - np.eye(a.domain_dim), TOL.isometry_factor * a.tol)


def negate(a: DomainOperator) -> DomainOperator:
    return DomainOperator(a.domain, -a.action)


def scale_op(a: DomainOperator, alpha: complex) -> DomainOperator:
    return DomainOperator(a.domain, alpha * a.action)


def direct_sum_op(a: DomainOperator, b: DomainOperator) -> DomainOperator:
    """Block-diagonal operator on C^{d_a + d_b}."""
    da, db = a.ambient_dim, b.ambient_dim
    ka, kb = a.domain_dim, b.domain_dim
    frame = np.zeros((da + db, ka + kb), dtype=complex)
    frame[:da, :ka] = a.domain.frame
    frame[da:, ka:] = b.domain.frame
    action = np.zeros((da + db, ka + kb), dtype=complex)
    action[:da, :ka] = a.action
    action[da:, ka:] = b.action
    return DomainOperator(Subspace(frame, a.tol), action)


@dataclass(frozen=True, eq=False)
class LinearRelation:
    """Subspace of C^d x C^d, the graph-level generalization of an operator."""

    graph: Subspace

    def __post_init__(self):
        if self.graph.ambient_dim % 2:
            raise ValueError("graph must live in C^{2d}: it needs an even number of rows")

    @classmethod
    def from_operator(cls, a: DomainOperator) -> "LinearRelation":
        """Graph of A from a reduced QR of ``[frame; action]``.

        The frame is orthonormal, so the stacked matrix has every singular
        value at least 1: its rank is full and there is no rank to decide.
        """
        q, _ = np.linalg.qr(np.vstack([a.domain.frame, a.action]))
        return cls(Subspace(q, a.tol))

    @classmethod
    def from_pairs(cls, domain_vectors, image_vectors, tol=DEFAULT_TOL) -> "LinearRelation":
        """The span of the pairs (column j of ``domain_vectors``, column j of ``image_vectors``)."""
        return cls(orthonormalize(np.vstack([domain_vectors, image_vectors]), tol=tol))

    @cached_property
    def _memo(self) -> dict:
        """Facts computed from this relation, by key; read and written only by ``derived``."""
        return {}

    @property
    def ambient_dim(self) -> int:
        return self.graph.ambient_dim // 2

    @property
    def dim(self) -> int:
        return self.graph.dim

    @property
    def tol(self) -> float:
        return self.graph.tol

    def inverse(self) -> "LinearRelation":
        """The inverse relation {(y, x) : (x, y) in the graph}: the halves swapped.

        Swapping is a row permutation, so the frame stays orthonormal.
        """
        d = self.ambient_dim
        frame = np.vstack([self.graph.frame[d:], self.graph.frame[:d]])
        return LinearRelation(Subspace(frame, self.tol))

    def halves(self) -> tuple:
        """``(G1, G2)``: the top and bottom halves of the orthonormal graph frame."""
        d = self.ambient_dim
        return self.graph.frame[:d, :], self.graph.frame[d:, :]

    def multivalued_part(self) -> Subspace:
        """Images paired with 0: the vertical component of the graph."""
        top, bot = self.halves()
        _, _, null = rank_split(top, self.tol, part="null")
        return orthonormalize(bot @ null, tol=self.tol)

    def is_operator(self) -> bool:
        return self.multivalued_part().dim == 0

    def to_operator(self) -> DomainOperator:
        """Convert to a DomainOperator; requires a trivial multivalued part."""
        if not self.is_operator():
            raise NotInvertible("relation is multivalued")
        top, bot = self.halves()
        return operator_from_generators(top, bot, tol=self.tol)


def _relation(x) -> LinearRelation:
    return x if isinstance(x, LinearRelation) else x.graph


def graph_distance(a, b) -> float:
    """Projector gap between graphs; accepts operators or relations."""
    return _relation(a).graph.distance(_relation(b).graph)


def graph_contains(big, small) -> bool:
    """Whether graph(small) sits inside graph(big) within ``TOL.graph_inclusion``."""
    gb, gs = _relation(big), _relation(small)
    resid = gs.graph.frame - gb.graph.frame @ (gb.graph.frame.conj().T @ gs.graph.frame)
    return opnorm_le(resid, TOL.graph_inclusion)
