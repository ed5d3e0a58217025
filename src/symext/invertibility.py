"""Invertibility of extensions: three equivalent tests and a constructive chain.

The extension B built from (A, z, T) is invertible exactly when

  (i)   ker B = {0}                                   (direct),
  (ii)  (z/zbar) T is 1/z-admissible for A^{-1}       (via_admissibility),
  (iii) T - (zbar/z) X_{1/z}(A^{-1}) is injective on
        D(T) ∩ D(X), with an unconditional pass when
        that intersection is trivial                  (via_forbidden),

where X is the forbidden operator. The chain builder applies rank-one
isometric parameters that dodge both forbidden images, dropping the defect by
one per step while preserving symmetry, injectivity, and invertibility, until
a self-adjoint invertible operator remains.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import (defect_data, forbidden_operator, is_admissible,
                     require_offaxis)
from .errors import ChoiceExhausted, NotInvertibleBase
from .neumann import ContractionParameter, extend
from .operators import (DomainOperator, direct_sum_op, graph_contains,
                        inverse_op, is_injective, is_symmetric, negate,
                        scale_op)
from .subspaces import Subspace, rank_split

# Margin below which a candidate direction is considered to collide with a
# forbidden image during the constructive chain.
MIN_SEPARATION = 1e-6

RETRIES_PER_DIM = 10


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

    ``margins`` holds the smallest singular value each test decided on; the
    borderline filter for equivalence sweeps lives with the caller.
    """
    z = require_offaxis(z)
    if not is_injective(a):
        raise NotInvertibleBase("base operator has a nontrivial kernel")
    report = extend(a, z, parameter)
    direct = report.invertible

    a_inv = inverse_op(a)
    z_inv = 1.0 / z
    scaled_t = scale_op(parameter.t, z / np.conj(z))
    adm = is_admissible(a_inv, z_inv, scaled_t)
    via_admissibility = adm.admissible
    margin_adm = adm.margin

    x = forbidden_operator(a_inv, z_inv)
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

    agree = direct == via_admissibility == via_forbidden
    return InvertibilityVerdict(direct, via_admissibility, via_forbidden, agree,
                                report.witnesses.get("kernel"),
                                {"direct": report.injectivity_margin,
                                 "via_admissibility": margin_adm,
                                 "via_forbidden": margin_forbidden})


def double(a: DomainOperator) -> DomainOperator:
    """A (+) (-A) on C^{2d}; its defect numbers are the sums over both points."""
    return direct_sum_op(a, negate(a))


@dataclass(frozen=True, eq=False)
class ChainStep:
    parameter: ContractionParameter
    operator: DomainOperator
    defect_numbers: tuple


@dataclass(frozen=True, eq=False)
class ExtensionChain:
    """Audit trail of the constructive self-adjoint invertible extension."""

    base: DomainOperator
    z: complex
    seed: int
    doubled: bool
    steps: tuple
    final: DomainOperator
    exit_dim: int


def _candidate_units(n_zbar: Subspace, forbidden_images, rng, batch: int):
    """Deterministic candidate unit vectors in N_zbar, most promising first."""
    cands = []
    frame = n_zbar.frame
    for j in range(n_zbar.dim):
        col = frame[:, j]
        cands.extend([col, -col, 1j * col])
    # directions orthogonal (within N_zbar) to each forbidden image
    for img in forbidden_images:
        coords = frame.conj().T @ img
        for j in range(n_zbar.dim):
            e = np.zeros(n_zbar.dim, complex)
            e[j] = 1.0
            v = e - coords * np.vdot(coords, e) / max(np.vdot(coords, coords).real, 1e-30)
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                cands.append(frame @ (v / nv))
    for _ in range(batch):
        raw = rng.standard_normal(n_zbar.dim) + 1j * rng.standard_normal(n_zbar.dim)
        nv = np.linalg.norm(raw)
        if nv > 0:
            cands.append(frame @ (raw / nv))
    return cands


def _pick_direction(n_zbar: Subspace, forbidden_images, rng) -> np.ndarray:
    """Unit h in N_zbar maximizing the min distance to the forbidden images."""
    best, best_score = None, -1.0
    for cand in _candidate_units(n_zbar, forbidden_images, rng, batch=16):
        score = min((np.linalg.norm(cand - img) for img in forbidden_images),
                    default=float("inf"))
        if score > best_score + 1e-12:
            best, best_score = cand, score
    if best is None or best_score <= MIN_SEPARATION:
        return None
    # keep the winning phase: rotating h changes which vectors T pins down
    return best


def build_invertible_selfadjoint(a: DomainOperator, z: complex, seed: int = 0,
                                 double_first: bool = False) -> ExtensionChain:
    """Iterate rank-one isometric extensions down to a self-adjoint invertible one.

    Each step sends the first defect-frame vector f1 to a unit h in N_zbar
    chosen away from both forbidden images: (zbar/z) X_{1/z}(C^{-1}) f1
    (would kill invertibility) and X_z(C) f1 (would kill admissibility).
    With ``double_first`` the chain starts from A (+) (-A), the exit-space
    form; the reported exit_dim is the dimension added beyond the original
    space.
    """
    z = require_offaxis(z)
    if not is_symmetric(a):
        raise ValueError("operator must be symmetric")
    if not is_injective(a):
        raise NotInvertibleBase("base operator has a nontrivial kernel")
    start = double(a) if double_first else a
    current = start
    rng = np.random.default_rng(seed)
    steps = []
    dd = defect_data(current, z)
    budget = RETRIES_PER_DIM * current.ambient_dim
    while dd.defect_numbers[0] > 0:
        c_inv = inverse_op(current)
        x_inv = forbidden_operator(c_inv, 1.0 / z)
        x_here = forbidden_operator(current, z, dd=dd)
        placed = False
        for attempt in range(dd.n_z.dim):
            f1 = dd.n_z.frame[:, attempt]
            images = []
            if x_inv.single_valued and x_inv.domain.contains(f1):
                images.append((np.conj(z) / z) * x_inv.apply(f1))
            if x_here.single_valued and x_here.domain.contains(f1):
                images.append(x_here.apply(f1))
            h = _pick_direction(dd.n_zbar, images, rng)
            if h is None:
                budget -= 1
                if budget <= 0:
                    raise ChoiceExhausted("no direction clears the forbidden images")
                continue
            dom = Subspace(current.ambient_dim, f1.reshape(-1, 1), current.tol)
            t = DomainOperator(current.ambient_dim, dom, h.reshape(-1, 1))
            parameter = ContractionParameter.from_operator(z, t)
            report = extend(current, z, parameter, dd=dd)
            if not report.invertible:
                budget -= 1
                if budget <= 0:
                    raise ChoiceExhausted("candidate directions kept producing kernels")
                continue
            steps.append(ChainStep(parameter, report.b, report.defect_numbers_of_b))
            current = report.b
            placed = True
            break
        if not placed:
            raise ChoiceExhausted("no defect direction could be extended")
        dd = defect_data(current, z)
    if not graph_contains(current, start):
        raise AssertionError("chain lost the base operator")
    exit_dim = a.ambient_dim if double_first else 0
    return ExtensionChain(a, z, seed, double_first, tuple(steps), current, exit_dim)
