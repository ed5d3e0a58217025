"""Compressed resolvents of exit-space extensions and their boundary conditions.

An exit-space extension is a self-adjoint total Atilde on C^{d+e} that extends
the base operator, with H = C^d the first d coordinates, so P_H is a row slice.
Its compressed resolvent is R_lam = P_H (Atilde - lam)^{-1} |_H. The same data
can be read through a lam-dependent contraction F(lam) from N_{lam0} to
N_{lam0 bar}: the chain

    L_lam = {h : (Atilde - lam) h in H}
    B_lam = P_H Atilde (P_H|_{L_lam})^{-1}
    F(lam) = (B_lam - lam0bar)(B_lam - lam0)^{-1} restricted to N_{lam0}

recovers R_lam as (A_{F(lam)} - lam)^{-1} in the half-plane of lam0, and as
(A_{F(lam bar)^*} - lam)^{-1} in the other. The boundary condition tested by
``i_admissibility_test`` singles out the parameter families arising from
invertible extensions: F is rejected when some nonzero psi reaches the scaled
forbidden-operator limit at 0 with a bounded norm-loss rate.

``script_l``, ``frak_b`` and ``frak_f`` are the definitions, kept as written as the checks'
references; the checks call the stages they compose (``_frak_b_from``, ``_frak_f_from``)
so that one L_lam serves every check at lam. One SVD of P_H|L_lam gates and builds B_lam;
F(lam) is an LU solve where the Shtraus bound s_min(B_lam - lam0) >= |Im lam0| is certified,
lstsq elsewhere.

With E the last e coordinates, lam enters only through the e x e exit block:
R_lam^{-1} is the Schur complement of Atilde_EE - lam in Atilde - lam, so

    B_lam = lam + R_lam^{-1} = Atilde_HH - Atilde_HE (Atilde_EE - lam)^{-1} Atilde_EH.

Atilde_EE's skew part is a compression of Atilde's, so by Weyl's inequality
s_min(Atilde_EE - lam) >= |Im lam| - kappa, kappa the slack of the SpectrumHit gate.
``compressed_resolvent`` inverts the d x d Schur complement wherever |Im lam| > kappa,
and ``ParameterFunction.from_extension`` samples F from one Hermitian eigendecomposition
of the exit block, under frak_f's guards. With no exit space (e = 0) B_lam is Atilde at
every lam, so F is constant: it is frak_f at the first lam, F's ``constant_matrix``,
which answers ``sample_at`` at every lam.

``shtraus_resolvent`` reads B through its Cayley transform W = U_z (+) F(lam):
with Q = [M_z frame, N_z frame] and V = WQ, V - Q is the matrix admissibility
factors, and B - lam = G (V - Q)^{-1} with G = (z - lam)V - (zbar - lam)Q.
``_parameter_stage`` depends on A, the base point and the sample alone: the
sample's gates, one values-only n x n SVD, whose bounds certify admissibility, and
Q, V and V - Q; U_z and N_z come from A's memoized defect data, so D(T) needs no
shape test. ``_lambda_stage`` pays one inverse, G^{-1}. A constant F keeps its
parameter stage (``shtraus_resolvent``), so on each branch every lam after the
first pays the lam stage alone. ``construct_extension`` stays the general path
and the tests' reference. Each per-lam full-rank gate, admissibility's too, is
passed by ``clears_cut`` from proven bounds, and by the exact SVD only where they
fall short.
"""

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .cayley import (_admissibility_bounds, defect_data, forbidden_of_inverse, is_admissible,
                     require_offaxis)
from .errors import (InsufficientSamples, NotAdmissible, ProjectionDegenerate,
                     ResolventSingular, SpectrumHit)
from .neumann import require_nonexpanding
from .operators import (DomainOperator, _from_generator_svd, derived, inverse_op,
                        operator_from_matrix)
from .subspaces import (DEFAULT_TOL, TOL, SectorSpec, Subspace, clears_cut, fix_phase, opnorm,
                        opnorm_le, rank_split)


def _half_plane(lam: complex, lambda0: complex) -> bool:
    return np.sign(lam.imag) == np.sign(lambda0.imag)


def _eigh_rounding(eigenvalues: np.ndarray) -> float:
    """A bound on how far eigh moves the eigenvalues of a Hermitian matrix by rounding."""
    return len(eigenvalues) * np.finfo(float).eps * float(np.max(np.abs(eigenvalues), initial=0.0))


@dataclass(frozen=True, eq=False)
class EmbeddedExtension:
    """Self-adjoint total extension Atilde on C^{d+e}, with H = C^d its first d coordinates.

    P_H is the slice ``[:d]``: a product with the 0/1 matrix ``np.eye(d + e, d)`` equals it
    bit for bit up to the sign of an exact zero, and that matrix's SVD complement is [0; I].
    """

    base: DomainOperator
    atilde: DomainOperator

    def __post_init__(self):
        d = self.base.ambient_dim
        # loosening atilde.tol loosens the structural gates in step
        gate = max(TOL.structure_gate, TOL.structure_factor * self.atilde.tol)
        if not self.atilde.is_total() or self.atilde.ambient_dim < d:
            raise ValueError("extension must be total on C^{d+e}")
        m = self.atilde_matrix()
        # the scale is at least 1, so a skew within the gate passes without ||M||
        if self._skew > gate and self._skew > gate * max(1.0, opnorm(m)):
            raise ValueError("extension is not self-adjoint")
        if self.base.domain_dim:
            lifted = m[:, :d] @ self.base.domain.frame  # Atilde F, against [A F; 0]
            lifted[:d] -= self.base.action
            if not opnorm_le(lifted, gate, relative_to=self.base.action):
                raise ValueError("extension does not extend the embedded base operator")

    @property
    def exit_dim(self) -> int:
        return self.atilde.ambient_dim - self.base.ambient_dim

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
        """``(mu, kappa)``: the eigenvalues of the Hermitian part H = (M + M^H)/2, and a slack.

        kappa is ||M - M^H||/2, the skew the self-adjoint gate admitted, plus
        the rounding of eigvalsh. By Weyl's inequality every singular value of
        M - lam lies within kappa of the matching one of H - lam, and those
        are the |mu - lam|.
        """
        m = self._matrix
        mu = np.linalg.eigvalsh((m + m.conj().T) / 2)
        mu.setflags(write=False)
        return mu, self._skew / 2 + _eigh_rounding(mu)

    @cached_property
    def _exit_block(self) -> tuple:
        """``(nu, w, delta, a, b, kappa_e)`` of the exit block M_EE, the last e coordinates.

        nu, w is the eigh of M_EE's Hermitian part H_E, delta = w^H (M_EE - H_E) w
        its anti-Hermitian residue, a = M_HE w and b = w^H M_EH. kappa_e is
        ||M_EE - M_EE^H||_F / 2 plus the rounding of eigh, so that by Weyl's
        inequality s_min(M_EE - lam) >= min |nu - lam| - kappa_e.
        """
        m, d = self._matrix, self.base.ambient_dim
        block = m[d:, d:]
        herm = (block + block.conj().T) / 2
        nu, w = np.linalg.eigh(herm)
        parts = (nu, w, w.conj().T @ (block - herm) @ w, m[:d, d:] @ w, w.conj().T @ m[d:, :d])
        for part in parts:
            part.setflags(write=False)
        return parts + (np.linalg.norm(block - herm) + _eigh_rounding(nu),)

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
            return EmbeddedExtension(base_inv, atilde_inv)
        except ValueError as exc:
            raise SpectrumHit(f"inverse pair fails its structure gates: {exc}") from exc

    @classmethod
    def from_chain(cls, chain) -> "EmbeddedExtension":
        return cls(chain.base, chain.final)

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

    With an exit space and |Im lam| > kappa the value is the inverse of the
    Schur complement Atilde_HH - lam - Atilde_HE (Atilde_EE - lam)^{-1} Atilde_EH:
    Atilde_EE's skew part is a compression of Atilde's, so by Weyl's inequality
    s_min(Atilde_EE - lam) >= |Im lam| - kappa > 0. Elsewhere, and with no exit
    space, one solve on C^{d+e} gives it.
    """
    mu, kappa = ext._spectrum
    gaps = np.abs(mu - lam)
    if gaps.min() - kappa <= TOL.spectrum_hit * max(1.0, gaps.max() + kappa):
        raise SpectrumHit(f"{lam} is numerically an eigenvalue of the extension")
    m, d = ext.atilde_matrix(), ext.base.ambient_dim
    if ext.exit_dim and abs(complex(lam).imag) > kappa:
        exit_part = np.linalg.solve(m[d:, d:] - lam * np.eye(ext.exit_dim), m[d:, :d])
        return np.linalg.inv(m[:d, :d] - lam * np.eye(d) - m[:d, d:] @ exit_part)
    return np.linalg.solve(m - lam * np.eye(len(m)), np.eye(len(m), d))[:d]


def script_l(ext: EmbeddedExtension, lam: complex) -> Subspace:
    """L_lam = {h in C^{d+e} : (Atilde - lam) h in H}: its last e coordinates vanish."""
    m = ext.atilde_matrix()
    total = m.shape[0]
    constraint = (m - lam * np.eye(total))[ext.base.ambient_dim:]
    _, _, null = rank_split(constraint, ext.atilde.tol, floor=0.0, part="null")
    return Subspace(null, ext.atilde.tol)


def frak_b(ext: EmbeddedExtension, lam: complex) -> DomainOperator:
    """B_lam = P_H Atilde (P_H|_{L_lam})^{-1}, an operator on C^d."""
    return _frak_b_from(ext, lam, script_l(ext, lam))


def _frak_b_from(ext: EmbeddedExtension, lam: complex, l_space: Subspace) -> DomainOperator:
    """B_lam from L_lam = ``script_l(ext, lam)``: the second stage of ``frak_b``."""
    g = l_space.frame
    proj = g[:ext.base.ambient_dim]
    # injective only if every column direction survives; the same SVD builds B_lam
    split = rank_split(proj, TOL.projection, part="svd")
    if split[0] < proj.shape[1]:
        raise ProjectionDegenerate(
            f"projection onto H is not injective on the constrained space at {lam}")
    images = (ext.atilde_matrix() @ g)[:ext.base.ambient_dim]
    return _from_generator_svd(split, images, ext.base.tol)


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

    ``lambda0`` is the value ``_contractive_point`` returned for lam, in lam's half-plane.
    For f = P_H h, (Atilde - lam)h in H: Im (B_lam f, f) = -Im lam |(I - P_H)h|^2, so
    s_min(B_lam - lam0) >= |Im lam0|. For a total B_lam, a Cholesky factor of -sign(Im lam0)
    Im K - m |Im lam0| (K = F_B^H (B_lam - lam0)F_B, m = ``TOL.f_certificate``) proves
    s_min >= m |Im lam0|, above lstsq's cut eps d s0, and LU solves; else lstsq runs.
    """
    n_frame, nbar_frame = frames
    fb, act = bop.domain.frame, bop.action
    down = act - lambda0 * fb
    bound = TOL.f_certificate * abs(lambda0.imag)
    certified = bop.is_total() and np.finfo(float).eps * len(fb) * np.linalg.norm(down) < bound
    if certified:
        k = np.sign(lambda0.imag) * (fb.conj().T @ down)
        try:
            np.linalg.cholesky((k.conj().T - k) / 2j - bound * np.eye(len(k)))
        except np.linalg.LinAlgError:
            certified = False
    c = (np.linalg.solve(down, n_frame) if certified
         else np.linalg.lstsq(down, n_frame, rcond=None)[0])
    return _checked_sample(down @ c - n_frame, (act - np.conj(lambda0) * fb) @ c, nbar_frame, lam)


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
    """F(lam) at every lam, as frak_f gives it, from one eigendecomposition of the exit block.

    M_EE = w (nu + delta) w^H with nu, w the eigh of its Hermitian part, which
    the extension keeps; delta is the anti-Hermitian residue the EmbeddedExtension
    gate admits, and one correction step (nu - lam + delta)^{-1} ~ D - D delta D
    with D = (nu - lam)^{-1} gives X = (M_EE - lam)^{-1} M_EH. Then

        B_lam = M_HH - M_HE X,    F(lam) = (B_lam - lam0bar)(B_lam - lam0)^{-1} on N_{lam0},

    by one LU per lam. The guards are frak_f's: P_H injective on L_lam, then
    ``_checked_sample``. L_lam is the graph of -X over H, so s_min(P_H|L_lam) =
    1/sqrt(1 + ||X||^2), and ||X|| <= ||M_EH||_F / (min |nu - lam| - kappa_e) by
    Weyl's inequality certifies the first with no QR or SVD; where that bound
    falls short, rank_split cuts P_H of an orthonormal frame of [I; -X].

    With no exit space (e = 0) L_lam is C^d and B_lam is Atilde, bit for bit, at
    every lam, so F does not depend on lam: it is frak_f at the first lam, one
    read-only array stored at every lam once lam passes the half-plane guard.
    """
    lams = [complex(lam) for lam in lams]
    if not ext.exit_dim and lams:
        value = frak_f(ext, lams[0], lambda0, frames)
        value.setflags(write=False)
        for lam in lams[1:]:
            _contractive_point(lam, lambda0)
        return dict.fromkeys(lams, value)
    m, d = ext.atilde_matrix(), ext.base.ambient_dim
    nu, w, delta, a, b, kappa_e = ext._exit_block
    coupling = np.linalg.norm(m[d:, :d])  # ||M_EH||_F
    n_frame, nbar_frame = frames
    eye = np.eye(d)
    samples = {}
    for lam in lams:
        _contractive_point(lam, lambda0)
        d_lam = (1.0 / (nu - lam))[:, None]
        db = d_lam * b
        y = db - d_lam * (delta @ db)  # w^H X
        gap = np.abs(nu - lam).min() - kappa_e  # <= s_min(M_EE - lam)
        lower = gap / np.hypot(gap, coupling) if gap > 0 else 0.0
        if not clears_cut(lower, 1.0, TOL.projection) and rank_split(
                np.linalg.qr(np.vstack([eye, -(w @ y)]))[0][:d], TOL.projection)[0] < d:
            raise ProjectionDegenerate(
                f"projection onto H is not injective on the constrained space at {lam}")
        down = m[:d, :d] - a @ y - lambda0 * eye
        try:
            c = np.linalg.solve(down, n_frame)
        except np.linalg.LinAlgError:  # exactly singular: no defect vector is reached
            c = np.full(n_frame.shape, np.nan, dtype=complex)
        reached = down @ c
        img = reached + (lambda0 - np.conj(lambda0)) * c  # (B_lam - lam0bar) c
        samples[lam] = _checked_sample(reached - n_frame, img, nbar_frame, lam)
        samples[lam].setflags(write=False)
    return samples


@dataclass(frozen=True, eq=False)
class ParameterFunction:
    """lam-sampled family of contractions from N_{lam0} into N_{lam0 bar}.

    Matrices are written in the defect frames carried here, so samples taken
    from an extension and samples fed back into the Shtraus formula agree on
    their meaning. A constant F (``constant_matrix`` set) answers ``sample_at``
    at every lam, and ``samples`` lists the points it was asked for, if any.
    Every matrix is a read-only array of F's own, so a stage that
    ``shtraus_resolvent`` keeps in F's memo stays what F defines.
    """

    lambda0: complex
    domain_frame: np.ndarray
    range_frame: np.ndarray
    samples: dict
    constant_matrix: Optional[np.ndarray] = None

    @cached_property
    def _memo(self) -> dict:
        """The Shtraus formula's parameter stages of a constant F, per branch and base
        operator; read and written only by ``operators.derived``."""
        return {}

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
        return cls(lambda0, dd.n_z.frame, dd.n_zbar.frame, {}, _frozen_copy(matrix))

    @classmethod
    def from_extension(cls, ext: EmbeddedExtension, lambda0: complex, lams) -> "ParameterFunction":
        """F sampled at ``lams``: the values of frak_f, from one eigendecomposition of
        the exit block.

        With no exit space (e = 0) F is constant: frak_f's value at the first lam,
        taken with no eigendecomposition, is ``constant_matrix``, and ``samples``
        lists it at every lam that passed the half-plane guard.
        """
        dd = defect_data(ext.base, lambda0)
        frames = (dd.n_z.frame, dd.n_zbar.frame)
        samples = _spectral_samples(ext, dd.z, frames, lams)
        constant = next(iter(samples.values())) if samples and not ext.exit_dim else None
        return cls(lambda0, *frames, samples, constant)

    @classmethod
    def from_samples(cls, a: DomainOperator, lambda0: complex, samples: dict) -> "ParameterFunction":
        dd = defect_data(a, lambda0)
        clean = {complex(k): _frozen_copy(v) for k, v in samples.items()}
        return cls(lambda0, dd.n_z.frame, dd.n_zbar.frame, clean)


def _frozen_copy(matrix) -> np.ndarray:
    """A read-only complex copy of ``matrix``, which the caller may go on editing."""
    m = np.array(matrix, dtype=complex)
    m.setflags(write=False)
    return m


def _parameter_stage(a: DomainOperator, base_point: complex, dom_frame, rng_frame,
                     matrix, lam: complex) -> tuple:
    """``(Q, V, V - Q, margin)`` for the extension B of A at the base point z from a
    frame-coded parameter: the part of (B - lam)^{-1} that lam does not enter, and
    lam names the call in its errors only.

    With N = ``dom_frame`` and T N = ``rng_frame @ matrix``, Q = [M_z frame, N] and
    V = [U_z M_z, T N], and B sends (V - Q)c to (zV - zbar Q)c. The sample must be
    finite and non-expanding; margin <= s_min(V - Q) is the admissibility certificate's
    bound, and where the bounds on V - Q do not clear the cut, ``is_admissible``
    decides, with its witness, and gives the margin.
    """
    t_action = rng_frame @ matrix
    if not np.all(np.isfinite(t_action)):
        raise ResolventSingular(f"parameter sample at {lam} is not finite")
    # the gate ContractionParameter applies, on the coordinates of the sample
    require_nonexpanding(matrix)
    dd = defect_data(a, base_point)
    t = DomainOperator(Subspace(dom_frame, a.tol), t_action)
    margin, upper = _admissibility_bounds(a, base_point, dd, t)
    if not clears_cut(margin, upper, a.tol):
        adm = is_admissible(a, base_point, t, dd=dd)  # its margin is s_min(V - Q)
        if not adm.admissible:
            raise NotAdmissible("parameter admits a fixed vector", witness=adm.witness)
        margin = adm.margin
    q = np.hstack([dd.u.domain.frame, t.domain.frame])
    v = np.hstack([dd.u.action, t.action])
    if q.shape[0] != q.shape[1]:
        raise ResolventSingular("extension is not total; resolvent formula needs a full domain")
    return q, v, v - q, margin


def _lambda_stage(base_point: complex, stage: tuple, lam: complex) -> np.ndarray:
    """(B - lam)^{-1} from ``stage = _parameter_stage(...)``: B - lam = G (V - Q)^{-1}
    with G = (z - lam)V - (zbar - lam)Q, so (B - lam)^{-1} = (V - Q) G^{-1}."""
    q, v, v_q, margin = stage
    g = (base_point - lam) * v - (np.conj(base_point) - lam) * q
    try:
        resolvent = v_q @ np.linalg.inv(g)
        # s_min(B - lam) >= 1/||R||_F and s0(B - lam) <= ||G||_F / margin certify the
        # gate; where they fall short, or the margin is 0, B - lam itself is cut
        certified = 0 < margin < np.inf and clears_cut(
            1.0 / np.linalg.norm(resolvent), float(np.linalg.norm(g)) / margin,
            TOL.resolvent_singular)
        if certified or rank_split(g @ np.linalg.inv(v_q),
                                   TOL.resolvent_singular)[0] == len(q):
            return resolvent
    except np.linalg.LinAlgError:  # an exact zero pivot: G or V - Q is singular
        pass
    raise ResolventSingular(f"extension minus {lam} is singular")


def shtraus_resolvent(a: DomainOperator, lambda0: complex, f: ParameterFunction,
                      lam: complex) -> np.ndarray:
    """(A_{F(lam)} - lam)^{-1} in the half-plane of lam0, adjoint branch opposite.

    For lam bar in the half-plane of lam0 the extension is built at base point
    lam0 bar from the frame-adjoint of F(lam bar). Where F is constant its
    ``_parameter_stage`` is kept in F's memo, per branch and A, which F holds
    weakly, so a lam after the first on a branch pays ``_lambda_stage`` alone; a
    sampled F (e > 0, or ``from_samples``) runs both stages at every lam and
    keeps nothing, and a stage that raises keeps nothing either.
    """
    lambda0 = require_offaxis(lambda0)
    lam = require_offaxis(complex(lam))
    up = _half_plane(lam, lambda0)
    base_point = lambda0 if up else np.conj(lambda0)

    def stage():
        if up:
            return _parameter_stage(a, base_point, f.domain_frame, f.range_frame,
                                    f.sample_at(lam), lam)
        # conj(lam) sits in the half-plane of lam0: adjoint branch
        return _parameter_stage(a, base_point, f.range_frame, f.domain_frame,
                                f.sample_at(np.conj(lam)).conj().T, lam)
    if f.constant_matrix is None:
        return _lambda_stage(base_point, stage(), lam)
    return _lambda_stage(base_point, derived(f, (lambda0, up, weakref.ref(a)), stage), lam)


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
        return IAdmissibilityVerdict(True, None, {}, 0.0, float("inf"),
                                     None, None, tolerances)

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
    img_coords = nbar_frame.conj().T @ x.action
    k_mat = f0 @ dom_coords - scale * img_coords

    _, s, kernel_dirs = rank_split(k_mat, TOL.kernel, part="null")
    kernel_margin = float(s[-1]) if s.size else float("inf")

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
            min_proxy = min(min_proxy, *ray_proxies[-2:])  # radii decrease: the two smallest
            proxies[theta] = tuple(ray_proxies)
        if limit_resid <= TOL.limit and min_proxy < TOL.rate_bound:
            witness = psi
            witness_resid = limit_resid
            witness_proxy = min_proxy
            rate_estimates = proxies
            break
    return IAdmissibilityVerdict(witness is None, witness, rate_estimates,
                                 disagreement, kernel_margin, witness_resid,
                                 witness_proxy, tolerances)
