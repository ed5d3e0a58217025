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
from .operators import (DomainOperator, LinearRelation, derived, is_injective, is_isometric,
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
        m_z = Subspace(frame, a.tol)
        u = DomainOperator(m_z, img @ (vh.conj().T / s)) if rank == gen.shape[1] else None
        m_zbar = orthonormalize(img, tol=a.tol)
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
    return LinearRelation.from_pairs(dom_vecs, img_vecs, tol=w.tol)


def _forbidden_on(dd: DefectData, frame: np.ndarray, tol: float) -> DomainOperator:
    """X on N_z: f in N_z to the psi in N_zbar with f - psi = (z - zbar)h, h in span ``frame``.

    The null space [a; b; c] of [N_z, -N_zbar, -(z - zbar) frame] pairs N_z a with
    N_zbar b, so X N_z = N_zbar b a^{-1}, read off one SVD a = U S Vh. X is an
    operator on all of N_z exactly when that null space has dimension n = dim N_z
    and a has rank n; otherwise ``NotInvertible``.
    """
    z, n, nb = dd.z, dd.n_z.dim, dd.n_zbar.dim
    system = np.hstack([dd.n_z.frame, -dd.n_zbar.frame, -(z - np.conj(z)) * frame])
    _, _, null = rank_split(system, tol, floor=0.0, part="null")
    if null.shape[1] != n:
        raise NotInvertible(f"forbidden relation pairs {null.shape[1]} vectors on N_z of dim {n}")
    rank, s, (u, vh) = rank_split(null[:n], tol, part="svd")
    if rank != n:
        raise NotInvertible("forbidden relation is multivalued")
    action = dd.n_zbar.frame @ null[n:n + nb] @ (vh.conj().T / s) @ u.conj().T
    return DomainOperator(dd.n_z, action)


def forbidden_operator(a: DomainOperator, z: complex) -> DomainOperator:
    """X_z(A): f in N_z to the psi in N_zbar with f - psi in D(A), on D(X) = N_z.

    A parameter T that agrees with X somewhere on its domain is the one choice
    the extension machinery must avoid, hence the name. For symmetric A, X is
    single-valued on all of N_z: x in N_zbar ∩ D(A) has ((A - zbar)x, x) = 0,
    so Im z |x|^2 = 0, and dim N_zbar + dim D(A) = d.
    """
    z = require_offaxis(z)
    return _forbidden_on(defect_data(a, z), a.domain.frame, a.tol)


def forbidden_of_inverse(a: DomainOperator, dd: DefectData) -> DomainOperator:
    """X_{1/z}(A^{-1}) for ``dd = defect_data(a, z)``, on ``dd.of_inverse()`` and a
    frame of R(A) = D(A^{-1}); built once per A and z and kept in A's memo.
    A^{-1} is never formed."""
    def build():
        if not is_injective(a):
            raise NotInvertible("operator has a nontrivial kernel")
        _, _, range_frame = rank_split(a.action, a.tol, floor=0.0, part="range")
        return _forbidden_on(dd.of_inverse(), range_frame, a.tol)
    return derived(a, ("forbidden_of_inverse", dd.z), build)


@dataclass(frozen=True, eq=False)
class AdmissibilityResult:
    admissible: bool
    witness: Optional[np.ndarray]
    margin: float


def _check_parameter_shapes(dd: DefectData, t: DomainOperator):
    _check_domain_shape(dd, t.domain)
    _check_range_shape(dd, t.action)


def _check_domain_shape(dd: DefectData, domain: Subspace):
    # D(T) framed by N_z's own frame, as the Shtraus formula builds T, needs no SVD
    if not (np.array_equal(domain.frame, dd.n_z.frame)
            or dd.n_z.contains_subspace(domain, tol=TOL.shape)):
        raise ParameterShapeViolation("parameter domain is not inside the defect space at z")


def _check_range_shape(dd: DefectData, action: np.ndarray):
    resid = action - dd.n_zbar.frame @ (dd.n_zbar.frame.conj().T @ action)
    if not opnorm_le(resid, TOL.shape, relative_to=action):
        raise ParameterShapeViolation("parameter range is not inside the defect space at zbar")


def _admissibility_bounds(a: DomainOperator, z: complex, dd: DefectData, t: DomainOperator):
    """``(lower, upper)``: lower <= s_min(V - Q) and s0(V - Q) <= upper, from an n x n block,
    once T's shapes pass their gates (``_shaped_bounds``)."""
    _check_parameter_shapes(dd, t)
    return _shaped_bounds(a, z, dd, t)


def _shaped_bounds(a: DomainOperator, z: complex, dd: DefectData, t: DomainOperator):
    """``_admissibility_bounds`` of a T whose shapes have passed their gates.

    V - Q = [P, C], P = U_z M - M fixed per A and z (one SVD, kept in A's memo) and
    C = T N - N. P is injective, as (U_z - E)(A - z)f = (z - zbar)f. With W2 a frame of
    R(P)^perp, V - Q is block upper-triangular in [W1, W2] with diagonal blocks W1^H P and
    Y = W2^H C, so s_min >= s_P s_Y / (s_P + s_Y + |C|_F) and s0 <= |P|_2 + |C|_F. The
    computed W2^H P is about eps d |P|, 1.4e-14 |P| at d = 64, inside the 1e-12 * upper
    ``clears_cut`` allows. (0, inf) where U_z is missing, D(T) is not N_z, n = 0 or d.
    """
    def build():
        u = defect_data(a, z).u
        return rank_split((u.action - u.domain.frame).conj().T, a.tol, floor=0.0,
                          part="null")[1:]
    c = t.action - t.domain.frame
    if dd.u is None or not 0 < t.domain_dim == dd.n_z.dim < a.ambient_dim:
        return 0.0, np.inf
    s_p, w2 = derived(a, ("admissibility_block", complex(z)), build)
    if w2.shape[1] != c.shape[1]:  # P is cut short
        return 0.0, np.inf
    s_y, norm_c = rank_split(w2.conj().T @ c, a.tol)[1], float(np.linalg.norm(c))
    return float(s_p[-1] * s_y[-1] / (s_p[-1] + s_y[-1] + norm_c)), float(s_p[0]) + norm_c


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
