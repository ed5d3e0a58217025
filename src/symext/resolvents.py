"""Compressed resolvents of exit-space extensions and their boundary conditions.

An exit-space extension embeds the original space H = C^d isometrically into
C^{d+e} where a self-adjoint total Atilde extends the base operator. Its
compressed resolvent is R_lam = P_H (Atilde - lam)^{-1} |_H. The same data can
be read through a lam-dependent contraction F(lam) from N_{lam0} to
N_{lam0 bar}: the chain

    L_lam = {h : (Atilde - lam) h in H}
    B_lam = P_H Atilde (P_H|_{L_lam})^{-1}
    F(lam) = (B_lam - lam0bar)(B_lam - lam0)^{-1} restricted to N_{lam0}

recovers R_lam as (A_{F(lam)} - lam)^{-1} in the half-plane of lam0, and as
(A_{F(lam bar)^*} - lam)^{-1} in the other. The boundary condition tested by
``i_admissibility_test`` singles out the parameter families arising from
invertible extensions: F is rejected when some nonzero psi reaches the scaled
forbidden-operator limit at 0 with a bounded norm-loss rate.

``script_l``, ``frak_b`` and ``frak_f`` are the definitions, kept as written
and used by the checks as references; the checks call the stages they
compose (``_frak_b_from``, ``_frak_f_from``) so that one L_lam serves every
check at lam. ``ParameterFunction.from_extension``
samples F from one Hermitian eigendecomposition of Atilde instead, through
B_lam = lam + R_lam^{-1}, under the same guards.

``shtraus_resolvent`` writes B - lam = M P^H, P = [F_A, C] unitary (F_A the
domain frame of A, C a frame of D(A)^perp), and pays per lam one values-only
SVD (admissibility) and one LU, M^{-1}. The defect data of A at the base point,
U_z among it, and C are kept in A's memo (``operators.derived``); D(T), framed
by that record's own N_z frame, needs no shape test. ``construct_extension``
stays the general path and the tests' reference. Each per-lam full-rank gate is passed by ``clears_cut`` from
bounds that data in hand proves, and by ``rank_split`` only where they fall short.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cayley import defect_data, forbidden_of_inverse, is_admissible, require_offaxis
from .errors import (InsufficientSamples, NotAdmissible, ProjectionDegenerate,
                     ResolventSingular, SpectrumHit)
from .neumann import require_nonexpanding
from .operators import (DomainOperator, derived, inverse_op, operator_from_generators,
                        operator_from_matrix)
from .subspaces import (DEFAULT_TOL, TOL, SectorSpec, Subspace, clears_cut, fix_phase,
                        near_identity, opnorm, opnorm_le, rank_split)


def _half_plane(lam: complex, lambda0: complex) -> bool:
    return np.sign(lam.imag) == np.sign(lambda0.imag)


@dataclass(frozen=True, eq=False)
class EmbeddedExtension:
    """Self-adjoint total extension on C^{d+e} with the embedding of H = C^d."""

    base: DomainOperator
    atilde: DomainOperator
    embed: np.ndarray
    exit_dim: int

    def __post_init__(self):
        embed = np.array(self.embed, dtype=complex)
        d = self.base.ambient_dim
        # loosening atilde.tol loosens the structural gates in step
        gate = max(TOL.structure_gate, TOL.structure_factor * self.atilde.tol)
        if embed.shape != (d + self.exit_dim, d):
            raise ValueError("embedding has the wrong shape")
        if not near_identity(embed.conj().T @ embed, max(TOL.embedding_isometry, self.atilde.tol),
                             TOL.embedding_diagonal):
            raise ValueError("embedding is not isometric")
        if not self.atilde.is_total() or self.atilde.ambient_dim != d + self.exit_dim:
            raise ValueError("extension must be total on C^{d+e}")
        m = self.atilde_matrix()
        # the scale is at least 1, so a skew within the gate passes without ||M||
        if self._skew > gate and self._skew > gate * max(1.0, opnorm(m)):
            raise ValueError("extension is not self-adjoint")
        lifted_domain = embed @ self.base.domain.frame
        if lifted_domain.shape[1] and not opnorm_le(
                m @ lifted_domain - embed @ self.base.action, gate, relative_to=self.base.action):
            raise ValueError("extension does not extend the embedded base operator")
        embed.setflags(write=False)
        object.__setattr__(self, "embed", embed)

    # The values below do not depend on lam. Each is computed on first use and
    # kept for the life of the extension; a failed computation is not kept and
    # raises again on the next use.

    @cached_property
    def _matrix(self) -> np.ndarray:
        m = self.atilde.to_matrix()
        m.setflags(write=False)
        return m

    @cached_property
    def _skew(self) -> float:  # ||M - M^H||: the self-adjoint gate and kappa read it
        return opnorm(self._matrix - self._matrix.conj().T)

    @cached_property
    def _spectrum(self) -> tuple:
        """``(mu, v, kappa)``: eigh of the Hermitian part H = (M + M^H)/2, and a slack.

        kappa is ||M - M^H||/2, the skew the self-adjoint gate admitted, plus
        the rounding of eigh. By Weyl's inequality every singular value of
        M - lam lies within kappa of the matching one of H - lam, and those
        are the |mu - lam|.
        """
        m = self._matrix
        mu, v = np.linalg.eigh((m + m.conj().T) / 2)
        rounding = m.shape[0] * np.finfo(float).eps * float(np.max(np.abs(mu), initial=0.0))
        mu.setflags(write=False)
        v.setflags(write=False)
        return mu, v, self._skew / 2 + rounding

    @cached_property
    def _invertible(self) -> bool:
        m = self._matrix
        return rank_split(m, DEFAULT_TOL, floor=0.0)[0] == m.shape[0]

    @cached_property
    def _inverse_pair(self) -> "EmbeddedExtension":
        if not self._invertible:
            raise SpectrumHit("extension is not invertible")
        base_inv = inverse_op(self.base)
        atilde_inv = operator_from_matrix(np.linalg.inv(self._matrix), tol=self.atilde.tol)
        try:
            return EmbeddedExtension(base_inv, atilde_inv, self.embed, self.exit_dim)
        except ValueError as exc:
            raise SpectrumHit(f"inverse pair fails its structure gates: {exc}") from exc

    @cached_property
    def _h_complement(self) -> np.ndarray:
        """Frame of the orthogonal complement of embedded H, which L_lam is cut out by."""
        total = self._matrix.shape[0]
        return Subspace(total, self.embed, self.atilde.tol).complement().frame

    @classmethod
    def canonical(cls, base: DomainOperator, atilde: DomainOperator) -> "EmbeddedExtension":
        return cls(base, atilde, np.eye(base.ambient_dim, dtype=complex), 0)

    @classmethod
    def from_chain(cls, chain) -> "EmbeddedExtension":
        d = chain.base.ambient_dim
        total = chain.final.ambient_dim
        embed = np.zeros((total, d), dtype=complex)
        embed[:d, :] = np.eye(d)
        return cls(chain.base, chain.final, embed, chain.exit_dim)

    def atilde_matrix(self) -> np.ndarray:
        """Standard-basis matrix of Atilde (read-only)."""
        return self._matrix

    def is_invertible(self) -> bool:
        """Atilde has full rank at DEFAULT_TOL, relative to its largest singular value."""
        return self._invertible

    def inverse_pair(self) -> "EmbeddedExtension":
        """The same picture for A^{-1} inside Atilde^{-1}."""
        return self._inverse_pair


def compressed_resolvent(ext: EmbeddedExtension, lam: complex) -> np.ndarray:
    """P_H (Atilde - lam)^{-1} restricted to H, as a d x d matrix.

    SpectrumHit is decided on the eigenvalues mu of the Hermitian part, which
    the extension computes once. With g and G the least and the largest
    |mu - lam|, the singular values of Atilde - lam lie in [g - kappa,
    G + kappa], so passing g - kappa > tol * max(1, G + kappa) implies passing
    the rank cut ``rank_split(Atilde - lam, tol)``. The gate is stricter than
    that cut only in a band of width kappa around it.
    """
    mu, _, kappa = ext._spectrum
    gaps = np.abs(mu - lam)
    if gaps.min() - kappa <= TOL.spectrum_hit * max(1.0, gaps.max() + kappa):
        raise SpectrumHit(f"{lam} is numerically an eigenvalue of the extension")
    m = ext.atilde_matrix()
    return ext.embed.conj().T @ np.linalg.solve(m - lam * np.eye(m.shape[0]), ext.embed)


def script_l(ext: EmbeddedExtension, lam: complex) -> Subspace:
    """L_lam = {h in C^{d+e} : (Atilde - lam) h in embedded H}."""
    m = ext.atilde_matrix()
    total = m.shape[0]
    constraint = ext._h_complement.conj().T @ (m - lam * np.eye(total))
    _, _, null = rank_split(constraint, ext.atilde.tol, floor=0.0, part="null")
    return Subspace(total, null, ext.atilde.tol)


def frak_b(ext: EmbeddedExtension, lam: complex) -> DomainOperator:
    """B_lam = P_H Atilde (P_H|_{L_lam})^{-1}, an operator on C^d."""
    return _frak_b_from(ext, lam, script_l(ext, lam))


def _frak_b_from(ext: EmbeddedExtension, lam: complex, l_space: Subspace) -> DomainOperator:
    """B_lam from L_lam = ``script_l(ext, lam)``: the second stage of ``frak_b``."""
    g = l_space.frame
    proj = ext.embed.conj().T @ g
    # injective only if every column direction survives: full column rank
    if rank_split(proj, TOL.projection)[0] < proj.shape[1]:
        raise ProjectionDegenerate(
            f"projection onto H is not injective on the constrained space at {lam}")
    images = ext.embed.conj().T @ (ext.atilde_matrix() @ g)
    return operator_from_generators(proj, images, tol=ext.base.tol)


def frak_f(ext: EmbeddedExtension, lam: complex, lambda0: complex,
           frames: Optional[tuple] = None) -> np.ndarray:
    """Matrix of (B_lam - lam0bar)(B_lam - lam0)^{-1} on N_{lam0}.

    Written in the defect frames of the base operator at lam0 (or the frames
    supplied by the caller); verified non-expanding.
    """
    lambda0 = _contractive_point(lam, lambda0)
    if frames is None:
        dd = defect_data(ext.base, lambda0)
        frames = (dd.n_z.frame, dd.n_zbar.frame)
    return _frak_f_from(frak_b(ext, lam), lam, lambda0, frames)


def _contractive_point(lam: complex, lambda0: complex) -> complex:
    """``require_offaxis(lambda0)``, once lam is known to lie in its half-plane."""
    lambda0 = require_offaxis(lambda0)
    if not _half_plane(complex(lam), lambda0):
        raise ValueError(
            f"frak_f is contractive only in the half-plane of {lambda0}; got {lam}")
    return lambda0


def _frak_f_from(bop: DomainOperator, lam: complex, lambda0: complex,
                 frames: tuple) -> np.ndarray:
    """F(lam) from B_lam = ``frak_b(ext, lam)``: the last stage of ``frak_f``.

    ``lambda0`` is the value ``_contractive_point`` returned for lam.
    """
    n_frame, nbar_frame = frames
    fb, act = bop.domain.frame, bop.action
    down = act - lambda0 * fb
    up = act - np.conj(lambda0) * fb
    c = np.linalg.lstsq(down, n_frame, rcond=None)[0]
    return _checked_sample(down @ c - n_frame, up @ c, nbar_frame, lam)


def _checked_sample(residual, img, nbar_frame, lam) -> np.ndarray:
    """Coordinates of ``img`` in ``nbar_frame``, after the guards on a sample of F.

    Columns j of ``residual`` (the solve through B_lam - lam0) and of ``img``
    belong to defect column j and are guarded alone; the sample must not expand.
    """
    if not np.all(np.linalg.norm(residual, axis=0) <= TOL.sample_residual):
        raise ProjectionDegenerate(
            f"defect vector falls outside the range of (B_lam - lam0) at {lam}")
    coords = nbar_frame.conj().T @ img
    leak = np.linalg.norm(img - nbar_frame @ coords, axis=0)
    if np.any(leak > TOL.sample_residual * np.maximum(1.0, np.linalg.norm(img, axis=0))):
        raise ProjectionDegenerate("quotient image leaves the defect space at lam0 bar")
    if not opnorm_le(coords, 1.0 + TOL.sample_expansion):
        raise ProjectionDegenerate(f"quotient is expanding (norm {opnorm(coords):.6f}) at {lam}")
    return coords


def _spectral_samples(ext: EmbeddedExtension, lambda0: complex, frames: tuple,
                      lams) -> dict:
    """F(lam) at every lam, as frak_f gives it, from one eigendecomposition.

    Atilde = V (Lambda + Delta') V^H with V, Lambda the eigh of its Hermitian
    part, which the extension keeps; Delta' is the anti-Hermitian residue the
    EmbeddedExtension gate admits, and one correction step
    (Lambda - lam + Delta')^{-1} ~ D - D Delta' D with D = (Lambda - lam)^{-1}
    keeps R_lam as accurate as a direct solve.
    From B_lam = lam + R_lam^{-1},

        F(lam) = (I + (lam - lam0bar) R_lam)(I + (lam - lam0) R_lam)^{-1},

    two rational functions of R_lam, which therefore commute. The guards are
    frak_f's: P_H injective on L_lam, then ``_checked_sample``; the first is
    certified in O(D) per lam by the bound in the loop, with no QR or SVD.
    """
    m = ext.atilde_matrix()
    m_h = (m + m.conj().T) / 2
    mu, v, kappa = ext._spectrum
    y = v.conj().T @ ext.embed
    delta = v.conj().T @ (m - m_h) @ v
    n_frame, nbar_frame = frames
    eye = np.eye(y.shape[1])
    eta = np.linalg.norm(y.conj().T @ y - eye)  # ||y u||^2 = (1 +- eta) ||u||^2
    samples = {}
    for lam in lams:
        lam = complex(lam)
        _contractive_point(lam, lambda0)
        d_lam = (1.0 / (mu - lam))[:, None]
        dy = d_lam * y
        x = dy - d_lam * (delta @ dy)
        # V x spans L_lam; P_H must be injective on it, tested as in frak_b. On the
        # numerical range, with g, G the least and largest |mu - lam|, s_min(y^H Q) >=
        # (|Im lam| (1 - eta)/G^2 - (1 + eta) kappa/g^2)/((1 + eta)(1/g + kappa/g^2))
        gaps = np.abs(mu - lam)
        g, big = gaps.min(), gaps.max()
        lower = (abs(lam.imag) * (1 - eta) * (g / big) ** 2 - (1 + eta) * kappa) / (
            (1 + eta) * (g + kappa))
        if not clears_cut(lower, 1 + eta, TOL.projection) and (
                rank_split(y.conj().T @ np.linalg.qr(x)[0], TOL.projection)[0] < x.shape[1]):
            raise ProjectionDegenerate(
                f"projection onto H is not injective on the constrained space at {lam}")
        r = y.conj().T @ x
        down = eye + (lam - lambda0) * r
        try:
            w = np.linalg.solve(down, n_frame)
        except np.linalg.LinAlgError:  # exactly singular: no defect vector is reached
            w = np.full(n_frame.shape, np.nan, dtype=complex)
        img = w + (lam - np.conj(lambda0)) * (r @ w)
        samples[lam] = _checked_sample(down @ w - n_frame, img, nbar_frame, lam)
    return samples


@dataclass(frozen=True, eq=False)
class ParameterFunction:
    """lam-sampled family of contractions from N_{lam0} into N_{lam0 bar}.

    Matrices are written in the defect frames carried here, so samples taken
    from an extension and samples fed back into the Shtraus formula agree on
    their meaning.
    """

    lambda0: complex
    domain_frame: np.ndarray
    range_frame: np.ndarray
    samples: dict
    provenance: str = "user"
    constant_matrix: Optional[np.ndarray] = None

    def sample_at(self, lam: complex) -> np.ndarray:
        if self.constant_matrix is not None:
            return self.constant_matrix
        for key, value in self.samples.items():
            if abs(key - lam) <= TOL.sample_match:
                return value
        raise KeyError(f"no sample stored at {lam}")

    def sampled_points(self):
        return tuple(self.samples.keys())

    @classmethod
    def constant(cls, a: DomainOperator, lambda0: complex, matrix) -> "ParameterFunction":
        dd = defect_data(a, lambda0)
        matrix = np.asarray(matrix, dtype=complex)
        return cls(lambda0, dd.n_z.frame, dd.n_zbar.frame, {}, "constant", matrix)

    @classmethod
    def from_extension(cls, ext: EmbeddedExtension, lambda0: complex, lams) -> "ParameterFunction":
        """F sampled at ``lams``: the values of frak_f, from one eigendecomposition."""
        dd = defect_data(ext.base, lambda0)
        frames = (dd.n_z.frame, dd.n_zbar.frame)
        samples = _spectral_samples(ext, dd.z, frames, lams)
        return cls(lambda0, *frames, samples, "from-extension")

    @classmethod
    def from_samples(cls, a: DomainOperator, lambda0: complex, samples: dict) -> "ParameterFunction":
        dd = defect_data(a, lambda0)
        clean = {complex(k): np.asarray(v, dtype=complex) for k, v in samples.items()}
        return cls(lambda0, dd.n_z.frame, dd.n_zbar.frame, clean, "user")


def _extension_resolvent(a: DomainOperator, base_point: complex, dom_frame, rng_frame,
                         matrix, lam: complex) -> np.ndarray:
    """(B - lam)^{-1}, B the extension of A at the base point from a frame-coded parameter.

    With N = ``dom_frame``, T = ``rng_frame @ matrix``, X = T - N and
    Y = z T - zbar N, B sends F_A to A F_A and X to Y. Writing X = F_A W + C Z
    (W = F_A^H X, Z = C^H X) gives B C = (Y - A F_A W) Z^{-1}, so
    B - lam = M P^H with M = [A F_A - lam F_A, B C - lam C]: the singular
    values of M are those of B - lam, and (B - lam)^{-1} = P M^{-1}.
    """
    # C, like the defect data (U_z with it) that admissibility reads, is
    # computed once per operator and kept in its memo
    c = derived(a, "domain_complement", lambda: a.domain.complement().frame)
    fa, afa = a.domain.frame, a.action
    t_action = rng_frame @ matrix
    x = t_action - dom_frame
    z_block = c.conj().T @ x
    if not np.all(np.isfinite(z_block)):
        raise ResolventSingular(f"parameter sample at {lam} is not finite")
    # the gate ContractionParameter applies, on the coordinates of the sample
    require_nonexpanding(matrix)
    t = DomainOperator(a.ambient_dim, Subspace(a.ambient_dim, dom_frame, a.tol), t_action)
    adm = is_admissible(a, base_point, t)
    if not adm.admissible:
        raise NotAdmissible("parameter admits a fixed vector", witness=adm.witness)
    if z_block.shape[0] != z_block.shape[1]:
        raise ResolventSingular("extension is not total; resolvent formula needs a full domain")
    y = base_point * t_action - np.conj(base_point) * dom_frame
    try:
        # (Y - A F_A W) Z^{-1}, as the solve Z^T V = (Y - A F_A W)^T
        bc = np.linalg.solve(z_block.T, (y - afa @ (fa.conj().T @ x)).T).T
    except np.linalg.LinAlgError:  # Z exactly singular: B is not total
        bc = None
    if bc is None or not np.all(np.isfinite(bc)):
        raise ResolventSingular("extension is not total; Z = C^H X is singular")
    m = np.hstack([afa - lam * fa, bc - lam * c])
    # the inverse certifies the gate: s_min(M) >= 1/||M^{-1}||_F, s0(M) <= ||M||_F
    try:
        m_inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:  # an exact zero pivot: M is singular
        raise ResolventSingular(f"extension minus {lam} is singular") from None
    if not clears_cut(1.0 / np.linalg.norm(m_inv), np.linalg.norm(m), TOL.resolvent_singular) and (
            rank_split(m, TOL.resolvent_singular)[0] < a.ambient_dim):
        raise ResolventSingular(f"extension minus {lam} is singular")
    return np.hstack([fa, c]) @ m_inv


def shtraus_resolvent(a: DomainOperator, lambda0: complex, f: ParameterFunction,
                      lam: complex) -> np.ndarray:
    """(A_{F(lam)} - lam)^{-1} in the half-plane of lam0, adjoint branch opposite.

    For lam bar in the half-plane of lam0 the extension is built at base point
    lam0 bar from the frame-adjoint of F(lam bar).
    """
    lambda0 = require_offaxis(lambda0)
    lam = require_offaxis(complex(lam))
    if _half_plane(lam, lambda0):
        return _extension_resolvent(a, lambda0, f.domain_frame, f.range_frame,
                                    f.sample_at(lam), lam)
    # conj(lam) sits in the half-plane of lam0: adjoint branch
    return _extension_resolvent(a, np.conj(lambda0), f.range_frame, f.domain_frame,
                                f.sample_at(np.conj(lam)).conj().T, lam)


def default_lambda_grid(lambda0: complex, atilde_matrix: Optional[np.ndarray] = None):
    """Twelve points on each of two circles around lam0, at radii 0.3 and 0.9 of
    |Im lam0|, inside its half-plane, less those within ``TOL.grid_clearance`` of
    the real axis, of 0 or of an eigenvalue of the extension."""
    lambda0 = require_offaxis(lambda0)
    eigs = np.array([])
    if atilde_matrix is not None:
        eigs = np.linalg.eigvalsh(atilde_matrix)
    grid = []
    for factor in (0.3, 0.9):
        r = factor * abs(lambda0.imag)
        for j in range(12):
            lam = lambda0 + r * np.exp(2j * np.pi * (j + 0.5) / 12)
            if (abs(lam.imag) < TOL.grid_clearance or not _half_plane(lam, lambda0)
                    or abs(lam) < TOL.grid_clearance
                    or eigs.size and np.min(np.abs(eigs - lam)) < TOL.grid_clearance):
                continue
            grid.append(lam)
    return tuple(grid)


@dataclass(frozen=True, eq=False)
class IAdmissibilityVerdict:
    """Outcome of the boundary-condition test at 0.

    ``admissible`` is False only with a concrete unit witness psi in N_{lam0}
    whose limit residual and rate proxy are both inside the reported bounds.
    """

    admissible: bool
    witness: Optional[np.ndarray]
    limit_estimate: Optional[np.ndarray]
    rate_estimates: dict
    ray_disagreement: float
    kernel_margin: float
    witness_limit_residual: Optional[float]
    witness_rate_proxy: Optional[float]
    tolerances: dict


def _neville_to_zero(radii, matrices):
    """Polynomial extrapolation of matrix samples to radius 0 (last four radii)."""
    rs = list(radii)[-4:]
    vals = [np.asarray(m, dtype=complex) for m in list(matrices)[-4:]]
    n = len(rs)
    tableau = list(vals)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            ri, rk = rs[i], rs[i + level]
            nxt.append((ri * tableau[i + 1] - rk * tableau[i]) / (ri - rk))
        tableau = nxt
    return tableau[0]


def i_admissibility_test(a: DomainOperator, lambda0: complex, f: ParameterFunction,
                         sector: Optional[SectorSpec] = None) -> IAdmissibilityVerdict:
    """Test whether F satisfies the invertible-extension boundary condition.

    Along each sector ray, F is extrapolated to 0; a nonzero psi rejects F when
    (F(0+) - (lam0bar/lam0) X) psi = 0 within ``TOL.limit`` (X the forbidden
    operator of A^{-1} at 1/lam0) and the discrete rate proxy
    (1/|lam|)(||psi|| - ||F(lam) psi||) stays below ``TOL.rate_bound`` at the
    two smallest radii. When D(X) = {0} every parameter passes immediately.
    """
    lambda0 = require_offaxis(lambda0)
    if sector is None:
        sector = SectorSpec.default_for(lambda0)
    tolerances = {"rate_bound": TOL.rate_bound, "limit_tol": TOL.limit, "kernel_tol": TOL.kernel}
    if len(sector.radii) < 4:
        raise InsufficientSamples("need at least four radii for the limit estimate")
    x = forbidden_of_inverse(a, defect_data(a, lambda0))
    if x.domain.dim == 0:
        return IAdmissibilityVerdict(True, None, None, {}, 0.0, float("inf"),
                                     None, None, tolerances)
    if not x.single_valued:
        raise ProjectionDegenerate("forbidden operator of the inverse is multivalued")

    n_frame, nbar_frame = f.domain_frame, f.range_frame
    rays = {}
    per_ray_samples = {}
    for theta, points in sector.sample_points().items():
        mats = [f.sample_at(lam) for lam in points]
        per_ray_samples[theta] = (points, mats)
        rays[theta] = _neville_to_zero(sector.radii, mats)
    estimates = list(rays.values())
    disagreement = 0.0
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            disagreement = max(disagreement, opnorm(estimates[i] - estimates[j]))
    f0 = sum(estimates) / len(estimates)

    # scaled forbidden operator in the same frames, restricted to D(X)
    scale = np.conj(lambda0) / lambda0
    dom_coords = n_frame.conj().T @ x.domain.frame
    x_imgs = np.column_stack([x.apply(x.domain.frame[:, j]) for j in range(x.domain.dim)])
    img_coords = nbar_frame.conj().T @ x_imgs
    k_mat = f0 @ dom_coords - scale * img_coords

    _, s, kernel_dirs = rank_split(k_mat, TOL.kernel, part="null")
    kernel_margin = float(s[-1]) if s.size else float("inf")

    two_smallest = sector.radii[-2:]
    witness = witness_resid = witness_proxy = None
    rate_estimates = {}
    for direction in kernel_dirs.T:
        psi = fix_phase(x.domain.frame @ direction)
        psi = psi / np.linalg.norm(psi)
        psi_coords = n_frame.conj().T @ psi
        limit_resid = max(
            float(np.linalg.norm(est @ psi_coords - scale * (nbar_frame.conj().T @ x.apply(psi))))
            for est in estimates)
        proxies = {}
        min_proxy = float("inf")
        for theta, (points, mats) in per_ray_samples.items():
            ray_proxies = []
            for lam, mat in zip(points, mats):
                p = (1.0 - float(np.linalg.norm(mat @ psi_coords))) / abs(lam)
                ray_proxies.append(p)
                if abs(lam) <= max(two_smallest) * (1 + TOL.radius_match):
                    min_proxy = min(min_proxy, p)
            proxies[theta] = tuple(ray_proxies)
        if limit_resid <= TOL.limit and min_proxy < TOL.rate_bound:
            witness = psi
            witness_resid = limit_resid
            witness_proxy = min_proxy
            rate_estimates = proxies
            break
    return IAdmissibilityVerdict(witness is None, witness, f0, rate_estimates,
                                 disagreement, kernel_margin, witness_resid,
                                 witness_proxy, tolerances)
