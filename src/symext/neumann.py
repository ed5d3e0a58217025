"""Extension construction from contraction parameters, and parameter recovery.

Given symmetric A, non-real z, and an admissible non-expanding T from N_z to
N_zbar, the extension is

    D(B) = D(A) (+) (T - E) D(T),    B(f + T psi - psi) = A f + z T psi - zbar psi.

Isometric parameters give symmetric extensions; general non-expanding ones give
dissipative extensions for z in the lower half-plane and accumulative ones for
z in the upper half-plane. The inverse direction recovers T from B via
D(T) = N_z ∩ R(B - z) and T subset (B - zbar)(B - z)^{-1}. T's memo keeps the one B
that (A, z, T) defines, so B lives as long as T; B's memo keeps its injectivity cut,
graph(A) ⊂ graph(B) and the SVD of (B - z)F_B that ``extend`` and ``recover_parameter`` share.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import DefectData, defect_data, is_admissible, require_offaxis
from .errors import ExpandingParameter, NotAdmissible, NotAnExtension
from .operators import (DomainOperator, derived, graph_contains, is_symmetric,
                        kernel_witness, operator_from_generators)
from .subspaces import TOL, Subspace, near_identity, opnorm, opnorm_le, rank_split

SYMMETRIC = "symmetric"
SELF_ADJOINT = "self-adjoint"
DISSIPATIVE = "dissipative"
ACCUMULATIVE = "accumulative"

ISOMETRIC = "isometric"
STRICTLY_CONTRACTIVE = "strictly-contractive"
MIXED = "mixed"


@dataclass(frozen=True, eq=False)
class ContractionParameter:
    """Non-expanding map from a subspace of N_z into N_zbar, with base point z."""

    z: complex
    t: DomainOperator
    kind: str

    def __post_init__(self):
        require_offaxis(self.z)
        require_nonexpanding(self.t.action)

    @classmethod
    def from_operator(cls, z: complex, t: DomainOperator) -> "ContractionParameter":
        return cls(z, t, _parameter_kind(t))

    @classmethod
    def from_matrix(cls, dd: DefectData, matrix) -> "ContractionParameter":
        """Parameter from a matrix written in the defect frames at z and zbar.

        ``matrix`` has shape (dim N_zbar, t) over a domain spanned by the first
        t defect-frame columns, or (dim N_zbar, dim N_z) for a full domain.
        """
        matrix = np.asarray(matrix, dtype=complex)
        t_dim = matrix.shape[1]
        dom = Subspace(dd.n_z.ambient_dim, dd.n_z.frame[:, :t_dim], dd.n_z.tol)
        action = dd.n_zbar.frame @ matrix
        return cls.from_operator(dd.z, DomainOperator(dd.n_z.ambient_dim, dom, action))

    @classmethod
    def empty(cls, z: complex, ambient_dim: int) -> "ContractionParameter":
        dom = Subspace(ambient_dim, np.zeros((ambient_dim, 0), complex))
        return cls(z, DomainOperator(ambient_dim, dom, np.zeros((ambient_dim, 0), complex)),
                   ISOMETRIC)


def require_nonexpanding(matrix):
    """Raise ExpandingParameter when the spectral norm exceeds 1 + ``TOL.expanding``."""
    if not opnorm_le(matrix, 1.0 + TOL.expanding):
        raise ExpandingParameter(
            f"parameter is expanding: top singular value 1 + {opnorm(matrix) - 1.0:.3e}")


def _parameter_kind(t: DomainOperator) -> str:
    if t.domain_dim == 0:
        return ISOMETRIC
    gram = t.action.conj().T @ t.action
    if near_identity(gram, TOL.isometric_kind):
        return ISOMETRIC
    # a norm below a float is a norm at most the float before it
    if opnorm_le(t.action, np.nextafter(1.0 - TOL.contractive_kind, 0.0)):
        return STRICTLY_CONTRACTIVE
    return MIXED


def classify_operator(b: DomainOperator) -> str:
    """Definition-level class of B from the spectrum of Im of its compression."""
    if is_symmetric(b):
        return SELF_ADJOINT if b.is_total() else SYMMETRIC
    k = b.compression()
    imag = (k - k.conj().T) / 2j
    eigs = np.linalg.eigvalsh(imag)

    def within_slack(e):  # e <= TOL.dissipative_slack * max(1, opnorm(k)), SVD only if needed
        return e <= 0 or opnorm_le(np.array([[e]]), TOL.dissipative_slack, relative_to=k)
    if eigs.size == 0 or within_slack(-eigs[0]):
        return DISSIPATIVE
    if within_slack(eigs[-1]):
        return ACCUMULATIVE
    raise ValueError("operator is neither dissipative nor accumulative")


@dataclass(frozen=True, eq=False)
class ExtensionReport:
    """Result of one extension step."""

    b: DomainOperator
    parameter: ContractionParameter
    classification: str
    invertible: bool
    defect_numbers_of_b: tuple
    witnesses: dict
    # smallest singular value of B's action, inf when D(B) = {0}
    injectivity_margin: float


def construct_extension(a: DomainOperator, z: complex, parameter: ContractionParameter,
                        dd: Optional[DefectData] = None) -> DomainOperator:
    """The operator B determined by the parameter at base point z, unreported.

    ``dd`` is A's defect data at z, when the caller holds it; B is kept in T's memo
    under A and ``dd``. Raises NotAdmissible (with the kernel witness), on every
    call, when the parameter admits a fixed vector: the formula defines no operator.
    """
    z = require_offaxis(z)
    if parameter.z != z:
        raise ValueError("parameter base point does not match z")
    if dd is None:
        dd = defect_data(a, z)
    t = parameter.t

    def build():
        adm = is_admissible(a, z, t, dd=dd)
        if not adm.admissible:
            raise NotAdmissible("parameter admits a fixed vector", witness=adm.witness)
        p, q = t.domain.frame, t.action
        generators = np.hstack([a.domain.frame, q - p])
        images = np.hstack([a.action, z * q - np.conj(z) * p])
        b = operator_from_generators(generators, images, tol=a.tol)
        if not _extends(b, a):
            raise NotAnExtension("constructed operator does not extend the base")
        return b
    return derived(t, ("extension", a, dd), build)


def _extends(b: DomainOperator, a: DomainOperator) -> bool:
    """graph(A) inside graph(B), decided once per B and A."""
    return derived(b, ("extends", a), lambda: graph_contains(b, a))


def _shifted_svd(b: DomainOperator, z: complex) -> tuple:
    """``rank_split`` of (B - z)F_B as a thin SVD at floor 0, once per B and z."""
    return derived(b, ("shifted", z), lambda: rank_split(
        b.action - z * b.domain.frame, b.tol, floor=0.0, part="svd"))


def extend(a: DomainOperator, z: complex, parameter: ContractionParameter,
           dd: Optional[DefectData] = None) -> ExtensionReport:
    """Build the extension B determined by the parameter at base point z.

    ``construct_extension`` builds B, from ``dd`` when given; the report
    adds its class, injectivity (with a kernel witness when it fails, and the
    smallest singular value it was decided on) and defect numbers.
    """
    b = construct_extension(a, z, parameter, dd)
    invertible, witness, margin = injectivity(b)
    witnesses = {} if witness is None else {"kernel": witness}
    # B need not be symmetric, so count codimensions of the shifted ranges directly
    defects = (b.ambient_dim - _shifted_svd(b, z)[0], b.ambient_dim - rank_split(
        b.action - np.conj(z) * b.domain.frame, b.tol, floor=0.0)[0])
    return ExtensionReport(b, parameter, classify_operator(b), invertible,
                           defects, witnesses, margin)


def injectivity(b: DomainOperator) -> tuple:
    """``(injective, kernel witness or None, margin)`` from one cut of B's action, once
    per B; the margin is the smallest singular value the cut saw, inf when D(B) = {0}."""
    def cut():
        rank, s, _ = rank_split(b.action, b.tol)
        witness = None if rank == b.domain_dim else kernel_witness(b)
        if witness is not None:
            witness.setflags(write=False)  # every caller shares the kept witness
        return witness is None, witness, float(s[-1]) if s.size else float("inf")
    return derived(b, "injectivity", cut)


def recover_parameter(a: DomainOperator, b: DomainOperator, z: complex) -> ContractionParameter:
    """Parameter whose extension of A at z is B.

    D(T) = N_z ∩ R(B - z); T psi solves backwards through (B - z) and applies
    (B - zbar). Requires graph(A) inside graph(B).
    """
    z = require_offaxis(z)
    if not _extends(b, a):
        raise NotAnExtension("operator does not extend the base")
    dd = defect_data(a, z)
    shifted = b.action - z * b.domain.frame
    rank, s, (u, vh) = _shifted_svd(b, z)
    t_domain = dd.n_z.intersect(Subspace(b.ambient_dim, u, b.tol))
    if t_domain.dim == 0:
        return ContractionParameter.empty(z, a.ambient_dim)
    coeffs = vh.conj().T @ ((u.conj().T @ t_domain.frame) / s[:rank, None])
    if not opnorm_le(shifted @ coeffs - t_domain.frame, TOL.recover_reach):
        raise NotAnExtension("defect directions are not reached by (B - z)")
    images = (b.action - np.conj(z) * b.domain.frame) @ coeffs
    out = images - dd.n_zbar.frame @ (dd.n_zbar.frame.conj().T @ images)
    if not opnorm_le(out, TOL.recover_leak, relative_to=images):
        raise NotAnExtension("recovered images leave the defect space at zbar")
    t = DomainOperator(a.ambient_dim, t_domain, images)
    return ContractionParameter.from_operator(z, t)
