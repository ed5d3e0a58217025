"""Invertibility of extensions: three equivalent tests and a constructive chain.

The extension B built from (A, z, T) is invertible exactly when

  (i)   ker B = {0}                                   (direct),
  (ii)  (z/zbar) T is 1/z-admissible for A^{-1}       (via_admissibility),
  (iii) T - (zbar/z) X_{1/z}(A^{-1}) is injective on
        D(T) ∩ D(X), with an unconditional pass when
        that intersection is trivial                  (via_forbidden),

where X is the forbidden operator. Test (i) cuts B; B stays in T's memo and the cut in
B's, where ``extend`` and ``recover_parameter`` find them. Tests (ii) and (iii) take
A^{-1} at 1/z from A at z: (A^{-1} - 1/z)Af = -(A - z)f/z gives A's defect spaces and
U_{1/z}(A^{-1}) = (z/zbar) U_z(A), and A^{-1}, whose rounding grows like cond(A), is
never gated for symmetry. X_{1/z}(A^{-1}) depends on A and z alone, so it is kept in A's
memo (``forbidden_of_inverse``), and A^{-1} is formed only for that build. The chain
builder applies rank-one isometric parameters that dodge both forbidden images, dropping
the defect by one per step while preserving symmetry, injectivity, and invertibility,
until a self-adjoint invertible operator remains.

A rank-one step changes each object of the chain by one vector, so the builder
carries N_z, N_zbar, D(B), B and a frame of R(B) from step to step and updates
them in closed form. Only the base (symmetric, injective) and the final
operator (symmetric, injective, extending the start) are checked from scratch;
``extend``, ``forbidden_operator`` and ``defect_data`` stay the independent
constructions a step is checked against.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import defect_data, forbidden_of_inverse, is_admissible, require_offaxis
from .errors import ChoiceExhausted, NotAnExtension, NotInvertibleBase
from .neumann import ContractionParameter, construct_extension, injectivity
from .operators import (DomainOperator, direct_sum_op, graph_contains, is_injective,
                        is_symmetric, make_operator, negate, scale_op)
from .subspaces import TOL, Subspace, orthonormalize, rank_split


@dataclass(frozen=True, eq=False)
class InvertibilityVerdict:
    direct: bool
    via_admissibility: bool
    via_forbidden: bool
    agree: bool
    witness: Optional[np.ndarray]
    margins: dict


def check_invertibility(a: DomainOperator, z: complex,
                        parameter: ContractionParameter) -> InvertibilityVerdict:
    """Run all three invertibility tests and report their agreement.

    The direct test is ``injectivity`` of B, the cut that ``extend`` reports, read
    from the memos of T and B. ``margins`` holds the smallest singular value each
    test decided on; the borderline filter for equivalence sweeps lives with the caller.
    """
    z = require_offaxis(z)
    if not is_injective(a):
        raise NotInvertibleBase("base operator has a nontrivial kernel")
    dd = defect_data(a, z)
    direct, witness, margin_direct = injectivity(construct_extension(a, z, parameter, dd))

    dd_inv = dd.of_inverse()
    scaled_t = scale_op(parameter.t, z / np.conj(z))
    adm = is_admissible(a, dd_inv.z, scaled_t, dd=dd_inv)

    x = forbidden_of_inverse(a, dd)
    meet = parameter.t.domain.intersect(x.domain)
    if meet.dim == 0:
        via_forbidden = True
        margin_forbidden = float("inf")
    else:
        t_imgs = np.column_stack([parameter.t.apply(meet.frame[:, j]) for j in range(meet.dim)])
        x_imgs = np.column_stack([x.apply(meet.frame[:, j]) for j in range(meet.dim)])
        diff = t_imgs - (np.conj(z) / z) * x_imgs
        rank, s, _ = rank_split(diff, a.tol)
        margin_forbidden = float(s[-1])
        via_forbidden = rank == meet.dim

    agree = direct == adm.admissible == via_forbidden
    return InvertibilityVerdict(direct, adm.admissible, via_forbidden, agree, witness,
                                {"direct": margin_direct,
                                 "via_admissibility": adm.margin,
                                 "via_forbidden": margin_forbidden})


def double(a: DomainOperator) -> DomainOperator:
    """A (+) (-A) on C^{2d}; its defect numbers are the sums over both points."""
    return direct_sum_op(a, negate(a))


@dataclass(frozen=True, eq=False)
class ChainStep:
    parameter: ContractionParameter
    defect_numbers: tuple


def _leading(op: DomainOperator, k: int) -> DomainOperator:
    """op on the span of its first k domain frame columns."""
    return make_operator(Subspace(op.ambient_dim, op.domain.frame[:, :k], op.tol),
                         op.action[:, :k])


@dataclass(frozen=True, eq=False)
class ExtensionChain:
    """Audit trail of the constructive self-adjoint invertible extension.

    A step appends one domain column, so B_k, the operator after step k, is the
    leading dim D(B_k) columns of ``final`` (``operator(k)``).
    """

    base: DomainOperator
    z: complex
    seed: int
    doubled: bool
    steps: tuple
    final: DomainOperator
    exit_dim: int

    def operator(self, k: int) -> DomainOperator:
        """B_k, the operator after step k (0-based), from ``final``."""
        if not 0 <= k < len(self.steps):
            raise IndexError(f"chain has {len(self.steps)} steps, no step {k}")
        return _leading(self.final, self.final.domain_dim - len(self.steps) + 1 + k)


def _candidate_coords(n_zbar: Subspace, forbidden_images, rng, batch: int) -> np.ndarray:
    """Deterministic candidate unit vectors in N_zbar, most promising first.

    Row k holds the coordinates of candidate k in the frame of N_zbar.
    """
    n = n_zbar.dim
    eye = np.eye(n, dtype=complex)
    # each frame column as col, -col, 1j col
    rows = [np.stack([eye, -eye, 1j * eye], axis=1).reshape(3 * n, n)]
    # directions orthogonal (within N_zbar) to each forbidden image
    for img in forbidden_images:
        c = n_zbar.frame.conj().T @ img
        proj = eye - c * c.conj()[:, None] / max(np.vdot(c, c).real, TOL.tiny_norm_sq)
        rows += _unit_rows(proj, TOL.candidate_floor)
    raw = rng.standard_normal((batch, 2, n))
    rows += _unit_rows(raw[:, 0] + 1j * raw[:, 1], 0.0)
    return np.vstack(rows)


def _unit_rows(rows, floor) -> list:
    """The rows whose norm exceeds ``floor``, scaled to unit norm.

    Each row's norm is taken alone: a norm along an axis of the whole block
    sums in another order, and its last bits would move the chain.
    """
    return [r / nr for r in rows if (nr := np.linalg.norm(r)) > floor]


def _pick_direction(n_zbar: Subspace, forbidden_images, rng) -> np.ndarray:
    """Unit h in N_zbar maximizing the min distance to the forbidden images.

    Candidates are scanned in order; one replaces the best so far only if it
    beats it by more than ``TOL.candidate_tie``.
    """
    coords = _candidate_coords(n_zbar, forbidden_images, rng, batch=16)
    if forbidden_images:
        cands = coords @ n_zbar.frame.T
        images = np.vstack(forbidden_images)
        scores = np.linalg.norm(cands[:, None, :] - images[None, :, :], axis=2).min(axis=1)
    else:
        scores = np.full(coords.shape[0], np.inf)
    best, best_score = None, -1.0
    for k, score in enumerate(scores.tolist()):
        if score > best_score + TOL.candidate_tie:
            best, best_score = k, score
    if best is None or best_score <= TOL.min_separation:
        return None
    # keep the winning phase: rotating h changes which vectors T pins down
    return n_zbar.frame @ coords[best]


def _forbidden_images(f1, n_zbar: Subspace, c: DomainOperator, range_frame, z: complex):
    """(zbar/z) X_{1/z}(C^{-1}) f1 and X_z(C) f1, each from one least-squares solve.

    Each image is the psi in N_zbar(C) with f1 - psi in R(C) = span ``range_frame``,
    respectively D(C). An image is left out when the residual fails the
    ``Subspace.contains`` cut: f1 is then outside that operator's domain.
    """
    images = []
    for frame, scale in ((range_frame, np.conj(z) / z), (c.domain.frame, 1.0)):
        system = np.hstack([n_zbar.frame, frame])
        coef = np.linalg.lstsq(system, f1, rcond=None)[0]
        resid = np.linalg.norm(system @ coef - f1)
        if resid <= TOL.membership_factor * c.tol * max(1.0, np.linalg.norm(f1)):
            images.append(scale * (n_zbar.frame @ coef[:n_zbar.dim]))
    return images


def _new_column(frame, v, tol):
    """Twice Gram-Schmidt of v against an orthonormal frame.

    Returns ``(u, c, norm)`` with v = frame c + norm u and u a unit vector
    orthogonal to the frame, or None when ``rank_split`` (floor max(1, |v|))
    puts v inside span(frame).
    """
    c = frame.conj().T @ v
    r = v - frame @ c
    c2 = frame.conj().T @ r
    r = r - frame @ c2
    rank, s, _ = rank_split(r.reshape(-1, 1), tol, floor=max(1.0, np.linalg.norm(v)))
    if rank == 0:
        return None
    return r / s[0], c + c2, s[0]


def _extend_by(op: DomainOperator, column, image) -> DomainOperator:
    """op on D(op) (+) span(v) with v = frame c + norm u sent to ``image``."""
    u, c, norm = column
    frame = np.hstack([op.domain.frame, u.reshape(-1, 1)])
    action = np.hstack([op.action, ((image - op.action @ c) / norm).reshape(-1, 1)])
    return DomainOperator(op.ambient_dim, Subspace(op.ambient_dim, frame, op.tol), action)


def _drop(space: Subspace, v: np.ndarray) -> Subspace:
    """space minus the unit vector v in it, by a QR in frame coordinates."""
    q, _ = np.linalg.qr((space.frame.conj().T @ v).reshape(-1, 1), mode="complete")
    return Subspace(space.ambient_dim, space.frame @ q[:, 1:], space.tol)


def build_invertible_selfadjoint(a: DomainOperator, z: complex, seed: int = 0,
                                 double_first: bool = False) -> ExtensionChain:
    """Iterate rank-one isometric extensions down to a self-adjoint invertible one.

    Each step sends a defect-frame vector f1 of N_z(C) to a unit h in
    N_zbar(C) chosen away from both forbidden images: (zbar/z) X_{1/z}(C^{-1}) f1
    (would kill invertibility) and X_z(C) f1 (would kill admissibility).
    Each image is one least-squares solve at f1 for psi in N_zbar(C):
    f1 = psi + (z - zbar) g with g in D(C) for X_z(C), and
    f1 = psi + (1/z - 1/zbar) g with g in R(C) for X_{1/z}(C^{-1}), since
    N_{1/z}(C^{-1}) = N_z(C) and N_{1/zbar}(C^{-1}) = N_zbar(C). The step B
    is then updated in closed form, not rebuilt:

    - N_z(B) = N_z(C) minus the column f1, N_zbar(B) = N_zbar(C) minus h;
    - D(B) = D(C) (+) span(h - f1) with B(h - f1) = zh - zbar f1, and
      R(B) = R(C) (+) span(zh - zbar f1); each gains one twice-Gram-Schmidt
      column.

    A candidate whose h - f1 falls in D(C) (inadmissible) or whose
    zh - zbar f1 falls in R(C) (B has a kernel) costs one unit of a
    deterministic retry budget. Symmetry and injectivity are checked on the
    base before the chain and, with graph(A) inside graph(B), on the final
    operator after it; a failure there raises NotAnExtension. With
    ``double_first`` the chain starts from A (+) (-A), the exit-space form;
    the reported exit_dim is the dimension added beyond the original space.
    """
    z = require_offaxis(z)
    zbar = np.conj(z)
    if not is_symmetric(a):
        raise ValueError("operator must be symmetric")
    if not is_injective(a):
        raise NotInvertibleBase("base operator has a nontrivial kernel")
    start = double(a) if double_first else a
    current, ran = start, orthonormalize(start.action, tol=start.tol).frame  # R(start)
    dd = defect_data(start, z)
    n_z, n_zbar = dd.n_z, dd.n_zbar
    tol = start.tol
    rng = np.random.default_rng(seed)
    steps = []
    budget = TOL.retries_per_dim * start.ambient_dim
    while n_z.dim > 0:
        placed = False
        for attempt in range(n_z.dim):
            f1 = n_z.frame[:, attempt]
            images = _forbidden_images(f1, n_zbar, current, ran, z)
            h = _pick_direction(n_zbar, images, rng)
            if h is None:
                budget -= 1
                if budget <= 0:
                    raise ChoiceExhausted("no direction clears the forbidden images")
                continue
            v, w = h - f1, z * h - zbar * f1
            dom_col = _new_column(current.domain.frame, v, tol)
            ran_col = None if dom_col is None else _new_column(ran, w, tol)
            if ran_col is None:
                budget -= 1
                if budget <= 0:
                    raise ChoiceExhausted(
                        "candidate directions kept producing kernels or fixed vectors")
                continue
            dom = Subspace(start.ambient_dim, f1.reshape(-1, 1), tol)
            t = DomainOperator(start.ambient_dim, dom, h.reshape(-1, 1))
            current = _extend_by(current, dom_col, w)
            ran = np.hstack([ran, ran_col[0].reshape(-1, 1)])
            n_z = Subspace(start.ambient_dim, np.delete(n_z.frame, attempt, axis=1), tol)
            n_zbar = _drop(n_zbar, h)
            steps.append(ChainStep(ContractionParameter.from_operator(z, t),
                                   (n_z.dim, n_zbar.dim)))
            placed = True
            break
        if not placed:
            raise ChoiceExhausted("no defect direction could be extended")
    if not is_symmetric(current):
        raise NotAnExtension("chain lost symmetry")
    if not is_injective(current):
        raise NotAnExtension("chain lost injectivity")
    if not graph_contains(current, start):
        raise NotAnExtension("chain lost the base operator")
    exit_dim = a.ambient_dim if double_first else 0
    return ExtensionChain(a, z, seed, double_first, tuple(steps), current, exit_dim)
