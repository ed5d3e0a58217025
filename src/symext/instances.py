"""Seeded generators for symmetric operators with prescribed defect numbers.

``gen_symmetric`` compresses a random Hermitian matrix with controlled
spectrum onto a random (d - n)-dimensional domain. At finite dimension an
injective symmetric operator has full range exactly when its defect is zero,
so the ``dense_range`` request is a feasibility constraint, not a knob:
requesting a dense range together with positive defect raises SpecInfeasible.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import inverse_cayley
from .errors import SpecInfeasible
from .operators import DomainOperator
from .subspaces import DEFAULT_TOL, Subspace


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one seeded instance."""

    ambient_dim: int
    defect: int
    dense_range: Optional[bool] = None
    spectrum_window: tuple = (0.5, 2.0)
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.defect <= self.ambient_dim:
            raise SpecInfeasible("defect must lie between 0 and the ambient dimension")
        lo, hi = self.spectrum_window
        if not lo < hi or lo * hi <= 0:
            raise SpecInfeasible("spectrum window must be an interval excluding 0")
        resolved = self.dense_range
        if resolved is None:
            resolved = self.defect == 0
        if resolved and self.defect > 0:
            raise SpecInfeasible(
                "dense range forces defect 0 at finite dimension (range dim = domain dim)")
        if not resolved and self.defect == 0:
            raise SpecInfeasible("defect 0 makes the range all of C^d")
        object.__setattr__(self, "dense_range", resolved)


def _random_unitary(rng, d: int) -> np.ndarray:
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(raw)
    # fix column phases so the draw is a canonical function of the seed
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def gen_symmetric(spec: InstanceSpec, tol: float = DEFAULT_TOL) -> DomainOperator:
    """Symmetric injective operator with the requested defect numbers.

    The compression of a Hermitian matrix whose eigenvalues sit in the
    one-signed spectrum window keeps its eigenvalue magnitudes inside the
    window, so injectivity comes with a margin of at least |window| end.
    """
    rng = np.random.default_rng(spec.seed)
    d, n = spec.ambient_dim, spec.defect
    lo, hi = spec.spectrum_window
    eigs = rng.uniform(lo, hi, size=d)
    q = _random_unitary(rng, d)
    hermitian = (q * eigs) @ q.conj().T
    hermitian = (hermitian + hermitian.conj().T) / 2
    basis = _random_unitary(rng, d)
    frame = basis[:, :d - n]
    domain = Subspace(frame, tol)
    return DomainOperator(domain, hermitian @ frame)


def truncated_shift(n: int, tol: float = DEFAULT_TOL) -> DomainOperator:
    """Finite section of the unilateral-shift model operator, on C^{n+1}.

    The shift V maps e_k to e_{k+1} for k < n; the returned operator is
    i (V + E)(V - E)^{-1}, symmetric and injective with defect (1, 1). This is
    a finite section: the genuine (0, 1)-defect shift needs infinite dimension,
    where V - E has dense, non-closed range.
    """
    if n < 1:
        raise SpecInfeasible("need at least a 2-dimensional space")
    d = n + 1
    frame = np.eye(d, dtype=complex)[:, :n]
    action = np.zeros((d, n), dtype=complex)
    action[1:, :] = np.eye(n)
    shift = DomainOperator(Subspace(frame, tol), action)
    return inverse_cayley(shift, 1j).to_operator()
