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
from .operators import (DomainOperator, LinearRelation, is_isometric,
                        is_symmetric, operator_from_generators)
from .subspaces import TOL, Subspace, fix_phase, opnorm, orthonormalize, rank_split


def require_offaxis(z: complex) -> complex:
    z = complex(z)
    if abs(z.imag) < TOL.real_axis:
        raise RealPoint(f"spectral parameter {z} is within {TOL.real_axis} of the real axis")
    return z


def _require_symmetric(a: DomainOperator):
    if not is_symmetric(a):
        raise ValueError("operator must be symmetric")


@dataclass(frozen=True, eq=False)
class DefectData:
    """Range and defect subspaces of a symmetric operator at z and zbar.

    Both points are computed from scratch; their symmetry is a theorem, not an
    assumption of this record.
    """

    z: complex
    m_z: Subspace
    n_z: Subspace
    m_zbar: Subspace
    n_zbar: Subspace
    defect_numbers: tuple

    def of_inverse(self) -> "DefectData":
        """A^{-1} at 1/z: (A^{-1} - 1/z)Af = -(A - z)f/z, so these spaces relabelled."""
        return DefectData(1.0 / self.z, self.m_z, self.n_z, self.m_zbar, self.n_zbar,
                          self.defect_numbers)


def defect_data(a: DomainOperator, z: complex) -> DefectData:
    z = require_offaxis(z)
    _require_symmetric(a)
    f = a.domain.frame
    m_z = orthonormalize(a.action - z * f, ambient_dim=a.ambient_dim, tol=a.tol)
    m_zbar = orthonormalize(a.action - np.conj(z) * f, ambient_dim=a.ambient_dim, tol=a.tol)
    n_z = m_z.complement()
    n_zbar = m_zbar.complement()
    return DefectData(z, m_z, n_z, m_zbar, n_zbar, (n_z.dim, n_zbar.dim))


def cayley(a: DomainOperator, z: complex) -> DomainOperator:
    """U_z with domain M_z: sends (A - z)f to (A - zbar)f."""
    z = require_offaxis(z)
    _require_symmetric(a)
    f = a.domain.frame
    return operator_from_generators(a.action - z * f, a.action - np.conj(z) * f, tol=a.tol)


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

    ``dd`` is the defect data of A at z when the caller already holds it.
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


@dataclass(frozen=True, eq=False)
class AdmissibilityResult:
    admissible: bool
    witness: Optional[np.ndarray]
    margin: float


def _check_parameter_shapes(dd: DefectData, t: DomainOperator):
    if not dd.n_z.contains_subspace(t.domain, tol=TOL.shape):
        raise ParameterShapeViolation("parameter domain is not inside the defect space at z")
    if t.domain_dim:
        resid = t.action - dd.n_zbar.frame @ (dd.n_zbar.frame.conj().T @ t.action)
        if opnorm(resid) > TOL.shape * max(1.0, opnorm(t.action)):
            raise ParameterShapeViolation("parameter range is not inside the defect space at zbar")


def is_admissible(a: DomainOperator, z: complex, t: DomainOperator,
                  dd: Optional[DefectData] = None,
                  u: Optional[DomainOperator] = None) -> AdmissibilityResult:
    """Fixed-point test for U_z (+) T on M_z (+) D(T).

    Admissible means (z/zbar)-scaled fixed vectors are absent, i.e.
    ker(W - E) = {0} for W = U_z (+) T; on failure the witness is a unit
    kernel vector of W - E, phase-fixed for determinism. ``dd`` and ``u`` are
    the defect data and the Cayley transform of A at z when the caller
    already holds them.

    The verdict and the margin come from the singular values alone; the
    vectors are computed only for a witness.
    """
    z = require_offaxis(z)
    if dd is None:
        dd = defect_data(a, z)
    _check_parameter_shapes(dd, t)
    if u is None:
        u = cayley(a, z)
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
