"""Subspaces of C^d held as orthonormal frames, plus the sector geometry.

Every rank decision in the toolkit, whether a span, a kernel, injectivity or
invertibility, is made by ``rank_split``: one SVD, cut at singular values
above ``tol * max(floor, s[0])``. Floor 0 makes the cut relative to the
largest singular value (spans of frames, whose scale means nothing); floor 1
makes it absolute for matrices of norm below 1 (actions and shifted matrices,
where a small operator must not count as full rank). Every spectral-norm
gate, a norm compared with a bound, is decided by ``opnorm_le``, which
takes the SVD only where the Frobenius norm leaves it open. ``DEFAULT_TOL`` is the
tolerance operators and subspaces carry unless given another; every fixed
threshold of the toolkit is a field of ``TOL``.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """The fixed thresholds, one per decision; unlike DEFAULT_TOL, no object carries them."""

    real_axis: float = 1e-8           # a spectral parameter this close to the real axis is rejected
    phase_cutoff: float = 1e-8        # fix_phase: first coordinate above this share of the norm
    frame_floor: float = 1e-12        # frame gate: checked at frame_factor * max(tol, this)
    frame_factor: float = 10.0        # frame gate: Gram within this * max(tol, frame_floor) of I
    frame_diagonal: float = 1e-5      # frame gate: extra slack on the diagonal of the Gram matrix
    membership_factor: float = 10.0   # Subspace.contains and its kin: residual up to this * tol
    symmetry_factor: float = 10.0     # is_symmetric: ||K - K^H|| up to this * tol * max(1, ||A||)
    isometry_factor: float = 100.0    # is_isometric: slack of this * tol
    shape: float = 1e-8               # parameter shape: domain inside N_z, range inside N_zbar
    graph_inclusion: float = 1e-8     # graph(A) inside graph(B), for an extension of A
    expanding: float = 1e-8           # a parameter of norm above 1 + this is rejected
    isometric_kind: float = 1e-10     # parameter kind "isometric": T^H T = I within this
    contractive_kind: float = 1e-10   # parameter kind "strictly-contractive": norm below 1 - this
    dissipative_slack: float = 1e-10  # classify_operator: sign of the eigenvalues of Im B, relative
    recover_reach: float = 1e-8       # recover_parameter: D(T) is reached through B - z
    recover_leak: float = 1e-8        # recover_parameter: recovered images stay in N_zbar, relative
    min_separation: float = 1e-6      # chain: a direction this close to a forbidden image collides
    retries_per_dim: int = 10         # chain: retry budget per ambient dimension
    tiny_norm_sq: float = 1e-30       # chain: floor of c^H c when projecting off a forbidden image
    candidate_floor: float = 1e-8     # chain: shorter projected candidates are dropped
    candidate_tie: float = 1e-12      # chain: a candidate must beat the best so far by more
    structure_gate: float = 1e-8      # EmbeddedExtension: floor of the self-adjoint/extends gates
    structure_factor: float = 10.0    # EmbeddedExtension: those gates loosen as this * tol above it
    embedding_isometry: float = 1e-10  # EmbeddedExtension: floor of the embedding isometry gate
    embedding_diagonal: float = 1e-5  # EmbeddedExtension: extra slack on the embedding Gram diagonal
    spectrum_hit: float = 1e-10       # compressed_resolvent: lam on the spectrum (SpectrumHit)
    resolvent_singular: float = 1e-12  # shtraus_resolvent: M = (B - lam)P is singular
    cut_rounding: float = 1e-12       # clears_cut, opnorm_le: rounding may move a value by this * s0
    projection: float = 1e-10         # P_H injective on L_lam (frak_b and the sampler), relative
    sample_residual: float = 1e-8     # sample of F (frak_f and the sampler): residual, leakage
    sample_expansion: float = 1e-7    # sample of F (frak_f and the sampler): norm excess over 1
    sample_match: float = 1e-9        # a stored sample of F answers every lam this close to it
    grid_clearance: float = 1e-6      # default grid drops lam this close to R, 0 or an eigenvalue
    rate_bound: float = 1e3           # i-admissibility: bound on the norm-loss rate proxy
    limit: float = 1e-8               # i-admissibility: limit residual of a witness
    kernel: float = 1e-8              # i-admissibility: kernel cut of F(0+) - (lam0bar/lam0) X
    radius_match: float = 1e-12       # i-admissibility: relative slack picking the smallest radii
    check_cayley: float = 1e-10       # verify: Cayley, defect-space and symmetry identities
    check_cayley_roundtrip: float = 1e-9  # verify: inverse Cayley transform recovers A
    check_resolvent: float = 1e-8     # verify: the three inversion identities
    check_roundtrip: float = 1e-9     # verify: extend then recover_parameter
    resolvent_agreement: float = 1e-8  # resolvent command: compressed vs Shtraus deviation
    base_point_match: float = 1e-12   # extend, check-invert: --z equals the parameter's base point
    borderline_factor: float = 10.0   # check-invert: margins in (tol/this, tol*this) are borderline


TOL = Tolerances()


def _as_complex_matrix(vectors, ambient_dim=None):
    """Coerce a matrix, a sequence of vectors, or an empty list to a d x k array."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        m = np.array(vectors, dtype=complex)
    else:
        cols = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        if cols:
            m = np.column_stack(cols)
        else:
            if ambient_dim is None:
                raise ValueError("ambient_dim required for an empty vector list")
            m = np.zeros((ambient_dim, 0), dtype=complex)
    if ambient_dim is not None and m.shape[0] != ambient_dim:
        raise ValueError(f"expected ambient dimension {ambient_dim}, got {m.shape[0]}")
    return m


def near_identity(gram: np.ndarray, atol: float, diagonal: float = 0.0) -> bool:
    """Whether ``|G - I| <= atol + diagonal * I`` entrywise; NaN and inf fail.

    This is ``np.allclose(G, I, rtol=diagonal, atol=atol)`` written out, so the
    slack on the diagonal is named by the caller and none is hidden.
    """
    eye = np.eye(gram.shape[0])
    return bool((np.abs(gram - eye) <= atol + diagonal * eye).all())


def opnorm(m: np.ndarray) -> float:
    """Spectral norm from one SVD, the value ``np.linalg.norm(m, 2)`` gives; 0.0 when empty."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


# A Frobenius norm above this lost nothing that matters to squares that underflowed
_FRO_FLOOR = np.finfo(float).tiny ** 0.25


def _opnorm_le(m: np.ndarray, bound: float) -> bool:
    fro = float(np.linalg.norm(m))
    if _FRO_FLOOR < fro < np.inf:
        if fro * (1 + TOL.cut_rounding) <= bound:
            return True
        if fro / np.sqrt(min(m.shape)) * (1 - TOL.cut_rounding) > bound:
            return False
    return opnorm(m) <= bound


def opnorm_le(m: np.ndarray, bound: float, relative_to=None) -> bool:
    """``opnorm(m) <= bound``, or ``<= bound * max(1, opnorm(relative_to))`` when given.

    ||m||_F / sqrt(min(m.shape)) <= ||m||_2 <= ||m||_F decides every bound
    outside that band, each side moved by ``TOL.cut_rounding`` for rounding,
    without an SVD: a single row or column leaves only the rounding band.
    Inside it, and when ||m||_F is not finite or so small that squares may
    have underflowed in it, ``opnorm`` decides, so NaN and inf entries act
    as in ``opnorm(m) <= bound``. ``opnorm(relative_to)`` is taken only when
    ``bound`` itself does not pass: the scale is at least 1.
    """
    passed = _opnorm_le(m, bound)
    if passed or relative_to is None:
        return passed
    scaled = bound * max(1.0, opnorm(relative_to))
    return scaled != bound and _opnorm_le(m, scaled)  # an unchanged bound has failed


def fix_phase(v):
    """Rotate a vector so its first non-negligible coordinate is real positive."""
    v = np.asarray(v, dtype=complex)
    nv = np.linalg.norm(v)
    if nv == 0:
        return v
    idx = int(np.argmax(np.abs(v) > TOL.phase_cutoff * nv))
    ph = v[idx] / abs(v[idx])
    return v * np.conj(ph)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^d, stored as a d x k matrix with orthonormal columns."""

    ambient_dim: int
    frame: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        frame = np.array(self.frame, dtype=complex)
        if frame.ndim != 2 or frame.shape[0] != self.ambient_dim:
            raise ValueError("frame must be ambient_dim x k")
        if not near_identity(frame.conj().T @ frame,
                             TOL.frame_factor * max(self.tol, TOL.frame_floor),
                             TOL.frame_diagonal):
            raise ValueError("frame columns are not orthonormal")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def projector(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex).reshape(-1)
        return self.frame @ (self.frame.conj().T @ v)

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=complex).reshape(-1)
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        resid = np.linalg.norm(v - self.project(v))
        return resid <= TOL.membership_factor * self.tol * max(1.0, nv)

    def contains_subspace(self, other: "Subspace", tol=None) -> bool:
        tol = self.tol if tol is None else tol
        resid = other.frame - self.frame @ (self.frame.conj().T @ other.frame)
        return opnorm_le(resid, TOL.membership_factor * tol)

    def complement(self) -> "Subspace":
        """Orthogonal complement in the same ambient space."""
        if self.dim == 0:
            return Subspace(self.ambient_dim, np.eye(self.ambient_dim, dtype=complex), self.tol)
        u, _, _ = np.linalg.svd(self.frame, full_matrices=True)
        return Subspace(self.ambient_dim, u[:, self.dim:], self.tol)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The directions of ``self`` that ``other.contains``: the kernel of
        ``(I - P_other) F``, F the frame of ``self``, at the membership cut."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        resid = self.frame - other.frame @ (other.frame.conj().T @ self.frame)
        _, _, null = rank_split(resid, TOL.membership_factor * self.tol, part="null")
        return Subspace(self.ambient_dim, self.frame @ null, self.tol)

    def distance(self, other: "Subspace") -> float:
        """Operator-norm gap ``||P_U - P_V||`` between the orthogonal projectors.

        It is 1 when the dimensions differ. For equal dimensions it equals
        ``||(I - P_U) V||`` on the thin frames, which needs no d x d projector.
        """
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        if self.dim != other.dim:
            return 1.0
        return opnorm(other.frame - self.frame @ (self.frame.conj().T @ other.frame))


def rank_split(m: np.ndarray, tol: float, floor: float = 1.0, part=None):
    """Numerical rank of ``m`` from one SVD: singular values above tol * max(floor, s[0]).

    ``part`` picks the factorization and the frame returned with the rank:

    - ``None``: singular values only; the frame is None;
    - ``"range"``: thin SVD; the frame is an orthonormal basis of the range,
      rows x rank;
    - ``"null"``: full SVD; the frame is an orthonormal basis of the kernel,
      cols x (cols - rank), with the smallest right singular vector last;
    - ``"svd"``: thin SVD; the frame is the pair ``(U, Vh)`` cut to the rank,
      rows x rank and rank x cols, so that ``U @ diag(s[:rank]) @ Vh`` is the
      rank-cut matrix.

    Returns ``(rank, s, frame)`` with ``s`` descending. A matrix with no rows
    or no columns has rank 0 and empty ``s`` and takes no SVD.
    """
    if part not in (None, "range", "null", "svd"):
        raise ValueError(f"part must be None, 'range', 'null' or 'svd', got {part!r}")
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        # an empty range, and every column direction in the kernel
        s, u, vh = np.zeros(0), np.zeros((rows, 0), complex), np.eye(cols, dtype=complex)
    elif part is None:
        s = np.linalg.svd(m, compute_uv=False)
    elif part == "null":
        _, s, vh = np.linalg.svd(m, full_matrices=True)
    else:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > tol * max(floor, s[0]))) if s.size else 0
    if part is None:
        return rank, s, None
    if part == "range":
        return rank, s, u[:, :rank]
    if part == "svd":
        return rank, s, (u[:, :rank], vh[:rank])
    return rank, s, vh[rank:].conj().T


def clears_cut(lower: float, upper: float, tol: float, floor: float = 1.0) -> bool:
    """True proves ``rank_split(m, tol, floor)`` full for every m with s_min >= ``lower``
    and s0 <= ``upper``, each moved by rounding up to ``TOL.cut_rounding * upper``.
    False decides nothing: the caller runs ``rank_split``, which alone finds a deficit."""
    slack = TOL.cut_rounding * upper
    return bool(lower - slack > tol * max(floor, upper + slack))


def orthonormalize(vectors, ambient_dim=None, tol=DEFAULT_TOL) -> Subspace:
    """Orthonormal frame for the span of the given vectors.

    Rank is decided by singular values exceeding ``tol`` times the largest
    singular value. Dependent and zero vectors are dropped silently.
    """
    m = _as_complex_matrix(vectors, ambient_dim)
    _, _, frame = rank_split(m, tol, floor=0.0, part="range")
    return Subspace(m.shape[0], frame, tol)


@dataclass(frozen=True)
class SectorSpec:
    """Nontangential approach region to 0 inside one open half-plane.

    Rays are sampled at angles theta with eps < |theta| < pi - eps and
    sign(sin theta) matching ``half_plane_sign``; radii decrease toward 0.
    """

    half_plane_sign: int
    epsilon: float = np.pi / 6
    ray_angles: tuple = ()
    radii: tuple = ()

    def __post_init__(self):
        if self.half_plane_sign not in (-1, 1):
            raise ValueError("half_plane_sign must be +1 or -1")
        if not 0 < self.epsilon < np.pi / 2:
            raise ValueError("epsilon must lie in (0, pi/2)")
        for th in self.ray_angles:
            if not (self.epsilon < abs(th) < np.pi - self.epsilon):
                raise ValueError(f"ray angle {th} outside the sector")
            if np.sign(np.sin(th)) != self.half_plane_sign:
                raise ValueError(f"ray angle {th} is in the wrong half-plane")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        if list(self.radii) != sorted(self.radii, reverse=True):
            raise ValueError("radii must strictly decrease")

    @classmethod
    def default_for(cls, lambda0):
        """Three rays spread across the sector, eight radii shrinking by 4 toward 0."""
        sign = 1 if lambda0.imag > 0 else -1
        angles = tuple(sign * th for th in (np.pi / 4, np.pi / 2, 3 * np.pi / 4))
        r0 = 0.25 * abs(lambda0)
        return cls(sign, ray_angles=angles, radii=tuple(r0 * 0.25 ** k for k in range(8)))

    def sample_points(self):
        """All lambda = r e^{i theta} on the sector grid, grouped by ray."""
        return {th: tuple(r * np.exp(1j * th) for r in self.radii) for th in self.ray_angles}
