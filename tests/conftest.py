"""Shared fixtures: the worked 2x2 family, seeded random instances, a reference F sample."""

import numpy as np
import pytest

import symext as sx
from symext.resolvents import _checked_sample


@pytest.fixture
def worked_a():
    """A: e1 -> e1 on span{e1} in C^2; defect (1,1) at every non-real z."""
    col = np.array([[1.0], [0.0]], dtype=complex)
    return sx.operator_from_generators(col, col)


@pytest.fixture
def worked_dd(worked_a):
    return sx.defect_data(worked_a, 1j)


def worked_parameter(dd, c):
    """T: e2 -> c*e2 in the defect frames of the worked family."""
    return sx.ContractionParameter.from_matrix(dd, np.array([[c]], dtype=complex))


def random_instance(seed, max_dim=8, max_defect=3):
    """Seeded (A, z) draw with 1 <= defect <= min(d-1, max_defect)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, max_dim + 1))
    n = int(rng.integers(1, min(d - 1, max_defect) + 1))
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=d, defect=n, seed=seed))
    z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.5) * rng.choice([-1, 1]))
    return a, z, n


def random_contraction(rng, dd, strict=True):
    """Random parameter matrix in the defect frames, top singular value < 1."""
    n, nb = dd.defect_numbers
    raw = rng.standard_normal((nb, n)) + 1j * rng.standard_normal((nb, n))
    s = np.linalg.svd(raw, compute_uv=False)
    denom = s[0] * rng.uniform(1.05, 2.5) if strict else max(s[0], 1e-12)
    return sx.ContractionParameter.from_matrix(dd, raw / denom)


def lstsq_sample(bop, lam, lambda0, frames):
    """F(lam) from B_lam by the least-squares solve: the reference of ``_frak_f_from``'s LU."""
    n_frame, nbar_frame = frames
    down = bop.action - lambda0 * bop.domain.frame
    c = np.linalg.lstsq(down, n_frame, rcond=None)[0]
    up = bop.action - np.conj(lambda0) * bop.domain.frame
    return _checked_sample(down, c, n_frame, up @ c, nbar_frame, lam)


def small_eigenvalue_base(eps, d, n, seed):
    """(A, rng) with s_min(A) = eps exactly: the Hermitian H has the eigenvalue eps,
    its eigenvector lies in D(A), and the other d - n - 1 directions of D(A) are
    random. The rest of the spectrum of H lies in (0.5, 2)."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    eigs = rng.uniform(0.5, 2.0, d)
    eigs[0] = eps
    h = (q * eigs) @ q.conj().T
    rest = rng.standard_normal((d, d - n - 1)) + 1j * rng.standard_normal((d, d - n - 1))
    frame, _ = np.linalg.qr(np.hstack([q[:, :1], rest]))
    return sx.DomainOperator(sx.Subspace(frame), (h + h.conj().T) / 2 @ frame), rng
