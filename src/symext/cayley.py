"""Defect subspaces, Cayley transforms, the forbidden operator, and admissibility.

For a symmetric operator A and non-real z, write M_z = (A - z)D(A) and
N_z = C^d ominus M_z. The Cayley transform U_z maps (A - z)f to (A - zbar)f
isometrically from M_z onto M_zbar. A parameter T with domain in N_z and range
in N_zbar is admissible when U_z (+) T, acting on M_z (+) D(T), has no fixed
vector; this is exactly when the extension formula produces an operator whose
domain splits as a direct sum.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotInvertible, ParameterShapeViolation, RealPoint
from .operators import (DomainOperator, LinearRelation, derived, inverse_op, is_isometric,
                        is_symmetric, scale_op)
from .subspaces import TOL, Subspace, fix_phase, opnorm_le, orthonormalize, rank_split


def require_offaxis(z: complex) -> complex:
    z = complex(z)
    if abs(z.imag) < TOL.real_axis:
        raise RealPoint(f"spectral parameter {z} is within {TOL.real_axis} of the real axis")
    return z


@dataclass(frozen=True, eq=False)
class DefectData:
    """Range and defect subspaces of a symmetric operator at z and zbar, and U_z.

    Both points are computed from scratch: their symmetry is a theorem, not an
    assumption. ``u`` is None when the rank cut drops a generator of M_z.
    """

    z: complex
    m_z: Subspace
    n_z: Subspace
    m_zbar: Subspace
    n_zbar: Subspace
    u: Optional[DomainOperator]

    @property
    def defect_numbers(self) -> tuple:
        return (self.n_z.dim, self.n_zbar.dim)

    def of_inverse(self) -> "DefectData":
        """A^{-1} at 1/z: A's spaces, as (A^{-1} - 1/z)Af = -(A - z)f/z, and (z/zbar) U_z."""
        u = None if self.u is None else scale_op(self.u, self.z / np.conj(self.z))
        return DefectData(1.0 / self.z, self.m_z, self.n_z, self.m_zbar, self.n_zbar, u)


def defect_data(a, z: complex) -> DefectData:
    """M and N spaces of A at z and zbar, and U_z, once per operator or relation and z:
    for graph halves (G1, G2) (``halves()``), one thin SVD G2 - zG1 = U S Vh gives
    M_z = span U, and U_z sends U to (G2 - zbar G1) V S^{-1}."""
    z = require_offaxis(z)

    def build():
        if not is_symmetric(a):
            raise ValueError("operator must be symmetric")
        d, (g1, g2) = a.ambient_dim, a.halves()
        gen, img = g2 - z * g1, g2 - np.conj(z) * g1
        rank, s, (frame, vh) = rank_split(gen, a.tol, floor=0.0, part="svd")
        m_z = Subspace(d, frame, a.tol)
        u = DomainOperator(d, m_z, img @ (vh.conj().T / s)) if rank == gen.shape[1] else None
        m_zbar = orthonormalize(img, ambient_dim=d, tol=a.tol)
        return DefectData(z, m_z, m_z.complement(), m_zbar, m_zbar.complement(), u)
    return derived(a, ("defect_data", z), build)


def _cayley_of(dd: DefectData) -> DomainOperator:
    if dd.u is None:
        raise ValueError("generators are linearly dependent; the map is ill-defined")
    return dd.u


def cayley(a, z: complex) -> DomainOperator:
    """U_z with domain M_z: sends (A - z)f to (A - zbar)f; read from ``defect_data``."""
    return _cayley_of(defect_data(a, z))


def inverse_cayley(w: DomainOperator, z: complex) -> LinearRelation:
    """The relation (zW - zbar E)(W - E)^{-1} for an isometric W.

    Returned as a relation; it is an operator exactly when ker(W - E) = {0},
    and then ``.to_operator()`` yields the extension B with
    B((W - E)w) = (zW - zbar)w.
    """
    z = require_offaxis(z)
    if not is_isometric(w):
        raise ValueError("operator must be isometric")
    dom_vecs = w.action - w.domain.frame
    img_vecs = z * w.action - np.conj(z) * w.domain.frame
    return LinearRelation.from_pairs(dom_vecs, img_vecs, w.ambient_dim, tol=w.tol)


@dataclass(frozen=True, eq=False)
class ForbiddenOperator:
    """The relation pairing f in N_z with psi in N_zbar whenever f - psi in D(A).

    A parameter T that agrees with this relation somewhere on its domain is the
    one choice the extension machinery must avoid, hence the name. At finite
    dimension the relation is single-valued, but ``single_valued`` is checked,
    not assumed.
    """

    z: complex
    relation: LinearRelation
    single_valued: bool
    operator: Optional[DomainOperator]

    @property
    def domain(self) -> Subspace:
        if self.operator is not None:
            return self.operator.domain
        return self.relation.domain_space()

    def apply(self, v):
        if self.operator is None:
            raise NotInvertible("forbidden relation is multivalued")
        return self.operator.apply(v)


def forbidden_operator(a: DomainOperator, z: complex,
                       dd: Optional[DefectData] = None) -> ForbiddenOperator:
    """Solve f - (z - zbar)h = psi over f in N_z, psi in N_zbar, h in D(A).

    ``dd`` replaces ``defect_data(a, z)``: for A^{-1} callers pass A's data
    relabelled by ``DefectData.of_inverse()``, which no memo of A^{-1} keeps.
    """
    z = require_offaxis(z)
    if dd is None:
        dd = defect_data(a, z)
    d = a.ambient_dim
    n, nb = dd.n_z.dim, dd.n_zbar.dim
    system = np.hstack([
        dd.n_z.frame,
        -dd.n_zbar.frame,
        -(z - np.conj(z)) * a.domain.frame,
    ])
    _, _, null = rank_split(system, a.tol, floor=0.0, part="null")
    f_part = dd.n_z.frame @ null[:n, :]
    psi_part = dd.n_zbar.frame @ null[n:n + nb, :]
    relation = LinearRelation.from_pairs(f_part, psi_part, d, tol=a.tol)
    try:
        op = relation.to_operator()
    except NotInvertible:
        op = None
    return ForbiddenOperator(z, relation, op is not None, op)


def forbidden_of_inverse(a: DomainOperator, dd: DefectData) -> ForbiddenOperator:
    """X_{1/z}(A^{-1}) for ``dd = defect_data(a, z)``, on ``dd.of_inverse()``: built
    once per A and z and kept in A's memo; A^{-1} is formed only to build it."""
    def build():
        dd_inv = dd.of_inverse()
        return forbidden_operator(inverse_op(a), dd_inv.z, dd=dd_inv)
    return derived(a, ("forbidden_of_inverse", dd.z), build)


@dataclass(frozen=True, eq=False)
class AdmissibilityResult:
    admissible: bool
    witness: Optional[np.ndarray]
    margin: float


def _check_parameter_shapes(dd: DefectData, t: DomainOperator):
    # D(T) framed by N_z's own frame, as the Shtraus formula builds T, needs no SVD
    if not (np.array_equal(t.domain.frame, dd.n_z.frame)
            or dd.n_z.contains_subspace(t.domain, tol=TOL.shape)):
        raise ParameterShapeViolation("parameter domain is not inside the defect space at z")
    resid = t.action - dd.n_zbar.frame @ (dd.n_zbar.frame.conj().T @ t.action)
    if not opnorm_le(resid, TOL.shape, relative_to=t.action):
        raise ParameterShapeViolation("parameter range is not inside the defect space at zbar")


def is_admissible(a: DomainOperator, z: complex, t: DomainOperator,
                  dd: Optional[DefectData] = None) -> AdmissibilityResult:
    """Fixed-point test for U_z (+) T on M_z (+) D(T).

    Admissible means (z/zbar)-scaled fixed vectors are absent, i.e.
    ker(W - E) = {0} for W = U_z (+) T; on failure the witness is a unit
    kernel vector of W - E, phase-fixed for determinism. U_z is ``dd.u``;
    ``dd`` replaces ``defect_data(a, z)``, and then only ``a.tol`` is read of
    ``a``: for A^{-1}, whose tolerance is A's, callers pass A and A's record
    relabelled by ``DefectData.of_inverse()``, which no memo of A^{-1} keeps.

    The verdict and the margin come from the singular values alone; the
    vectors are computed only for a witness.
    """
    z = require_offaxis(z)
    if dd is None:
        dd = defect_data(a, z)
    _check_parameter_shapes(dd, t)
    u = _cayley_of(dd)
    w_frame = np.hstack([u.domain.frame, t.domain.frame])
    shifted = np.hstack([u.action, t.action]) - w_frame
    rank, s, _ = rank_split(shifted, a.tol)
    margin = float(s[-1]) if s.size else float("inf")
    if rank == shifted.shape[1]:
        return AdmissibilityResult(True, None, margin)
    # at an infinite cut every right singular vector is a kernel vector, the
    # smallest last, so a witness exists whatever this SVD's rounding decides
    _, _, vecs = rank_split(shifted, np.inf, part="null")
    return AdmissibilityResult(False, fix_phase(w_frame @ vecs[:, -1]), margin)
