"""Named identity checks bundled into a verification suite.

Each check returns a CheckResult with the worst deviation it saw; the suite is
what the ``verify`` CLI subcommand runs against an operator/extension pair.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cayley import cayley, defect_data, inverse_cayley
from .errors import SymextError
from .neumann import ContractionParameter, extend, recover_parameter
from .operators import graph_distance, inverse_op
from .resolvents import (EmbeddedExtension, ParameterFunction,
                         compressed_resolvent, default_lambda_grid, frak_b,
                         frak_f, i_admissibility_test, script_l)
from .subspaces import SectorSpec, orthonormalize

CAYLEY_TOL = 1e-10
RESOLVENT_TOL = 1e-8
ROUNDTRIP_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    note: str = ""
    skipped: bool = False


def _sample_z_values(seed=0, count=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        re = rng.uniform(-1.5, 1.5)
        im = rng.uniform(0.3, 1.5) * (1 if rng.uniform() < 0.5 else -1)
        out.append(complex(re, im))
    return out


def check_range_defect_inverse(a, zs=None) -> CheckResult:
    """M and N spaces of A at z match those of A^{-1} at 1/z."""
    zs = zs or _sample_z_values()
    a_inv = inverse_op(a)
    worst = 0.0
    for z in zs:
        dd = defect_data(a, z)
        dd_inv = defect_data(a_inv, 1.0 / z)
        worst = max(worst, dd.m_z.distance(dd_inv.m_z), dd.n_z.distance(dd_inv.n_z),
                    dd.m_zbar.distance(dd_inv.m_zbar), dd.n_zbar.distance(dd_inv.n_zbar))
    return CheckResult("range_defect_inverse", worst < CAYLEY_TOL, worst)


def check_cayley_inverse_scaling(a, zs=None) -> CheckResult:
    """U_z(A) = (zbar/z) U_{1/z}(A^{-1}) as maps on M_z."""
    zs = zs or _sample_z_values()
    a_inv = inverse_op(a)
    worst = 0.0
    for z in zs:
        u = cayley(a, z)
        u_inv = cayley(a_inv, 1.0 / z)
        if u.domain_dim == 0:
            continue
        cols = np.column_stack([
            (np.conj(z) / z) * u_inv.apply(u.domain.frame[:, j]) - u.apply(u.domain.frame[:, j])
            for j in range(u.domain_dim)])
        worst = max(worst, float(np.linalg.norm(cols, 2)))
    return CheckResult("cayley_inverse_scaling", worst < CAYLEY_TOL, worst)


def check_cayley_roundtrip(a, zs=None) -> CheckResult:
    """Inverse Cayley of U_z(A) at z recovers A."""
    zs = zs or _sample_z_values()
    worst = 0.0
    for z in zs:
        rel = inverse_cayley(cayley(a, z), z)
        worst = max(worst, graph_distance(rel, a))
    return CheckResult("cayley_roundtrip", worst < CAYLEY_TOL * 10, worst)


def check_neumann_roundtrip(a, z, seed=0, draws=5) -> CheckResult:
    """extend then recover_parameter is the identity on sampled parameters."""
    rng = np.random.default_rng(seed)
    dd = defect_data(a, z)
    n, nb = dd.defect_numbers
    if n == 0:
        return CheckResult("neumann_roundtrip", True, 0.0,
                           note="defect is zero; nothing to extend", skipped=True)
    worst = 0.0
    done = 0
    attempts = 0
    while done < draws and attempts < draws * 20:
        attempts += 1
        raw = rng.standard_normal((nb, n)) + 1j * rng.standard_normal((nb, n))
        s = np.linalg.svd(raw, compute_uv=False)
        mat = raw / (s[0] * rng.uniform(1.05, 2.0))
        parameter = ContractionParameter.from_matrix(dd, mat)
        try:
            report = extend(a, z, parameter, dd=dd)
        except SymextError:
            continue
        recovered = recover_parameter(a, report.b, z)
        worst = max(worst, graph_distance(parameter.t, recovered.t))
        done += 1
    if done == 0:
        return CheckResult("neumann_roundtrip", False, float("inf"),
                           note="no admissible draw found")
    return CheckResult("neumann_roundtrip", worst < ROUNDTRIP_TOL, worst)


def check_constrained_space_inverse(ext, lams) -> CheckResult:
    """Atilde maps the constrained space at lam onto the one of the inverses at 1/lam."""
    ext_inv = ext.inverse_pair()
    m = ext.atilde_matrix()
    worst = 0.0
    for lam in lams:
        left = orthonormalize(m @ script_l(ext, lam).frame, ambient_dim=m.shape[0])
        right = script_l(ext_inv, 1.0 / lam)
        worst = max(worst, left.distance(right))
    return CheckResult("constrained_space_inverse", worst < RESOLVENT_TOL, worst)


def check_frak_b_inverse(ext, lams) -> CheckResult:
    """B_lam(A, Atilde)^{-1} = B_{1/lam}(A^{-1}, Atilde^{-1}) as graphs."""
    ext_inv = ext.inverse_pair()
    worst = 0.0
    for lam in lams:
        left = inverse_op(frak_b(ext, lam))
        right = frak_b(ext_inv, 1.0 / lam)
        worst = max(worst, graph_distance(left, right))
    return CheckResult("frak_b_inverse", worst < RESOLVENT_TOL, worst)


def check_frak_f_inverse(ext, lams, lambda0) -> CheckResult:
    """F(1/lam; 1/lam0) of the inverse pair = (lam0/lam0bar) F(lam; lam0)."""
    dd = defect_data(ext.base, lambda0)
    if dd.defect_numbers[0] == 0:
        return CheckResult("frak_f_inverse", True, 0.0,
                           note="defect is zero; both sides are empty", skipped=True)
    frames = (dd.n_z.frame, dd.n_zbar.frame)
    ext_inv = ext.inverse_pair()
    worst = 0.0
    for lam in lams:
        left = frak_f(ext_inv, 1.0 / lam, 1.0 / lambda0, frames)
        right = (lambda0 / np.conj(lambda0)) * frak_f(ext, lam, lambda0, frames)
        worst = max(worst, float(np.linalg.norm(left - right, 2)))
    return CheckResult("frak_f_inverse", worst < RESOLVENT_TOL, worst)


def check_resolvent_symmetry(ext, lams) -> CheckResult:
    """R_lam^H = R_{lam bar}."""
    worst = 0.0
    for lam in lams:
        left = compressed_resolvent(ext, lam).conj().T
        right = compressed_resolvent(ext, np.conj(lam))
        worst = max(worst, float(np.linalg.norm(left - right, 2)))
    return CheckResult("resolvent_symmetry", worst < CAYLEY_TOL, worst)


def check_i_admissibility(ext, lambda0) -> CheckResult:
    """F taken from an invertible extension passes the boundary condition."""
    if not ext.is_invertible():
        return CheckResult("i_admissibility", True, 0.0,
                           note="extension not invertible; condition not expected", skipped=True)
    sector = SectorSpec.default_for(lambda0)
    points = [lam for pts in sector.sample_points().values() for lam in pts]
    f = ParameterFunction.from_extension(ext, lambda0, points)
    verdict = i_admissibility_test(ext.base, lambda0, f, sector)
    margin = verdict.kernel_margin
    return CheckResult("i_admissibility", verdict.admissible,
                       0.0 if verdict.admissible else 1.0,
                       note=f"kernel margin {margin:.3e}")


def _guarded(name, fn, *args, **kwargs) -> CheckResult:
    """A check that blows up counts as failed, not as a crashed suite."""
    try:
        return fn(*args, **kwargs)
    except (SymextError, ValueError, np.linalg.LinAlgError) as exc:
        return CheckResult(name, False, float("inf"), note=f"{type(exc).__name__}: {exc}")


def run_suite(a, ext: Optional[EmbeddedExtension] = None, lambda0: complex = 1j,
              seed: int = 0) -> list:
    """All named checks; extension-dependent ones are skipped without an extension."""
    results = [
        _guarded("range_defect_inverse", check_range_defect_inverse, a),
        _guarded("cayley_inverse_scaling", check_cayley_inverse_scaling, a),
        _guarded("cayley_roundtrip", check_cayley_roundtrip, a),
        _guarded("neumann_roundtrip", check_neumann_roundtrip, a, lambda0, seed=seed),
    ]
    if ext is None:
        for name in ("constrained_space_inverse", "frak_b_inverse", "frak_f_inverse",
                     "resolvent_symmetry", "i_admissibility"):
            results.append(CheckResult(name, True, 0.0, note="no extension supplied",
                                       skipped=True))
        return results
    lams = default_lambda_grid(lambda0, ext.atilde_matrix())
    results.extend([
        _guarded("constrained_space_inverse", check_constrained_space_inverse, ext, lams),
        _guarded("frak_b_inverse", check_frak_b_inverse, ext, lams),
        _guarded("frak_f_inverse", check_frak_f_inverse, ext, lams, lambda0),
        _guarded("resolvent_symmetry", check_resolvent_symmetry, ext, lams),
        _guarded("i_admissibility", check_i_admissibility, ext, lambda0),
    ])
    return results
