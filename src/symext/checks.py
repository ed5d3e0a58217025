"""Named identity checks bundled into a verification suite.

Each check returns a CheckResult with the worst deviation it saw; the suite is
what the ``verify`` CLI subcommand runs against an operator/extension pair.

The suite computes each oracle object once. The three inversion checks walk
the lam grid together (``check_inversion``): at each lam, L_lam and B_lam of
the extension and L_{1/lam} and B_{1/lam} of its inverse pair are built once,
by the stages that ``script_l``, ``frak_b`` and ``frak_f`` compose, and read
by every check that needs them; they are dropped before the next lam. At e = 0
they and the errors are the same at every lam: only the first lam builds them.
The checks on the base operator read A's defect data, U_z among it, from A's
memo (``operators.derived``). The two A^{-1} checks share one relation,
``a.graph.inverse()``, whose records are built once, in its own memo, from
its swapped graph halves, never relabelled from A's. The oracles stay the definitions,
never the spectral engine. Every check keeps its own guard, so one that raises
turns red and the others run on.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .cayley import cayley, defect_data, inverse_cayley
from .errors import SymextError
from .neumann import ContractionParameter, extend, recover_parameter
from .operators import graph_distance
from .resolvents import (EmbeddedExtension, ParameterFunction, _contractive_point,
                         _frak_b_from, _frak_f_from, compressed_resolvent,
                         default_lambda_grid, i_admissibility_test, script_l)
from .subspaces import TOL, SectorSpec, Subspace, opnorm


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    note: str = ""
    skipped: bool = False


def _sample_z_values():
    """Five seeded off-axis points in both half-planes."""
    rng = np.random.default_rng(0)
    return [complex(rng.uniform(-1.5, 1.5),
                    rng.uniform(0.3, 1.5) * (1 if rng.uniform() < 0.5 else -1)) for _ in range(5)]


def check_range_defect_inverse(a, a_inv=None) -> CheckResult:
    """M and N spaces of A at z match those of A^{-1} (``a.graph.inverse()``) at 1/z."""
    a_inv = a.graph.inverse() if a_inv is None else a_inv
    worst = 0.0
    for z in _sample_z_values():
        dd = defect_data(a, z)
        dd_inv = defect_data(a_inv, 1.0 / z)
        worst = max(worst, dd.m_z.distance(dd_inv.m_z), dd.n_z.distance(dd_inv.n_z),
                    dd.m_zbar.distance(dd_inv.m_zbar), dd.n_zbar.distance(dd_inv.n_zbar))
    return CheckResult("range_defect_inverse", worst < TOL.check_cayley, worst)


def check_cayley_inverse_scaling(a, a_inv=None) -> CheckResult:
    """U_z(A) = (zbar/z) U_{1/z}(A^{-1}) as maps on M_z, A^{-1} as above."""
    a_inv = a.graph.inverse() if a_inv is None else a_inv
    worst = 0.0
    for z in _sample_z_values():
        u = cayley(a, z)
        u_inv = cayley(a_inv, 1.0 / z)
        if u.domain_dim == 0:
            continue
        cols = np.column_stack([
            (np.conj(z) / z) * u_inv.apply(u.domain.frame[:, j]) - u.apply(u.domain.frame[:, j])
            for j in range(u.domain_dim)])
        worst = max(worst, opnorm(cols))
    return CheckResult("cayley_inverse_scaling", worst < TOL.check_cayley, worst)


def check_cayley_roundtrip(a) -> CheckResult:
    """Inverse Cayley of U_z(A) at z recovers A."""
    worst = 0.0
    for z in _sample_z_values():
        rel = inverse_cayley(cayley(a, z), z)
        worst = max(worst, graph_distance(rel, a))
    return CheckResult("cayley_roundtrip", worst < TOL.check_cayley_roundtrip, worst)


def check_neumann_roundtrip(a, z, seed=0) -> CheckResult:
    """extend then recover_parameter is the identity on five sampled parameters."""
    rng = np.random.default_rng(seed)
    dd = defect_data(a, z)
    n, nb = dd.defect_numbers
    if n == 0:
        return CheckResult("neumann_roundtrip", True, 0.0,
                           note="defect is zero; nothing to extend", skipped=True)
    worst = 0.0
    done = 0
    attempts = 0
    while done < 5 and attempts < 100:
        attempts += 1
        raw = rng.standard_normal((nb, n)) + 1j * rng.standard_normal((nb, n))
        mat = raw / (opnorm(raw) * rng.uniform(1.05, 2.0))
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
    return CheckResult("neumann_roundtrip", worst < TOL.check_roundtrip, worst)


INVERSION_CHECKS = ("constrained_space_inverse", "frak_b_inverse", "frak_f_inverse")


class _GridPoint:
    """L_lam and B_lam of the extension, and L_{1/lam} and B_{1/lam} of its
    inverse pair, each built on first use by the oracles' own stages.

    A point lives for one step of the pass over the grid, so nothing that
    depends on lam outlives that step. A failed stage is not kept: it raises
    again, with the same message, in every check that uses it.
    """

    def __init__(self, ext: EmbeddedExtension, lam: complex):
        self.ext, self.lam = ext, lam

    @cached_property
    def l_space(self):
        return script_l(self.ext, self.lam)

    @cached_property
    def l_space_inv(self):
        return script_l(self.ext.inverse_pair(), 1.0 / self.lam)

    @cached_property
    def b(self):
        return _frak_b_from(self.ext, self.lam, self.l_space)

    @cached_property
    def b_inv(self):
        return _frak_b_from(self.ext.inverse_pair(), 1.0 / self.lam, self.l_space_inv)


def _constrained_space_error(point: _GridPoint) -> float:
    """Atilde maps the constrained space at lam onto the one of the inverses at 1/lam.

    With F orthonormal, s_min(Atilde F)/s_max(Atilde F) is at least
    s_min(Atilde)/s_max(Atilde), which exceeds tol once ``inverse_pair()``
    exists: Atilde F has full column rank, and a QR orthonormalizes it.
    """
    m = point.ext.atilde_matrix()
    left = Subspace(np.linalg.qr(m @ point.l_space.frame)[0])
    return left.distance(point.l_space_inv)


def _frak_b_error(point: _GridPoint) -> float:
    """B_lam(A, Atilde)^{-1} = B_{1/lam}(A^{-1}, Atilde^{-1}) as graphs.

    graph(B_lam^{-1}) is graph(B_lam) with its halves swapped; a kernel of
    B_lam shows there as a vertical pair, far from any operator's graph.
    """
    return graph_distance(point.b.graph.inverse(), point.b_inv)


def _frak_f_error(point: _GridPoint, lambda0, frames: tuple) -> float:
    """F(1/lam; 1/lam0) of the inverse pair = (lam0/lam0bar) F(lam; lam0)."""
    lam = point.lam
    lam0_inv = _contractive_point(1.0 / lam, 1.0 / lambda0)
    left = _frak_f_from(point.b_inv, 1.0 / lam, lam0_inv, frames)
    lam0 = _contractive_point(lam, lambda0)
    right = (lambda0 / np.conj(lambda0)) * _frak_f_from(point.b, lam, lam0, frames)
    return opnorm(left - right)


def check_inversion(ext: EmbeddedExtension, lams, lambda0) -> list:
    """The three inversion identities, in one pass over ``lams``.

    At each lam the pass builds L_lam, B_lam and their inverse-pair
    counterparts at 1/lam once, with the stages that ``script_l``, ``frak_b``
    and ``frak_f`` compose, and every check reads them from there. Where Weyl's
    bound on the exit block certifies both rank decisions, L_lam is one complete
    QR and B_lam one LU inverse, and the stages take no SVD; elsewhere the SVDs of
    ``script_l`` and ``_frak_b_from`` decide. Each check
    keeps its own guard: an exception in its set-up or at some lam turns that
    check red with the exception as its note, and the others finish the grid.
    Results come in the order of ``INVERSION_CHECKS``.

    At e = 0, ``script_l``'s constraint has no rows: L_lam is the identity frame,
    taken with no factorization, B_lam is read off Atilde alone, and lam reaches F
    only through its half-plane guards and error texts. So each later lam, whose
    stages and errors are the first lam's bits, runs only those guards.
    """
    decided = {}
    try:
        dd = defect_data(ext.base, lambda0)
        frames = (dd.n_z.frame, dd.n_zbar.frame)
        if dd.defect_numbers[0] == 0:
            decided["frak_f_inverse"] = CheckResult(
                "frak_f_inverse", True, 0.0, note="defect is zero; both sides are empty",
                skipped=True)
    except _GUARDED as exc:
        frames = None
        decided["frak_f_inverse"] = _red("frak_f_inverse", exc)
    try:
        ext.inverse_pair()
    except _GUARDED as exc:  # a failed build is not kept, so it is tried once here
        for name in INVERSION_CHECKS:
            decided.setdefault(name, _red(name, exc))
    errors = dict(zip(INVERSION_CHECKS, (
        _constrained_space_error, _frak_b_error,
        partial(_frak_f_error, lambda0=lambda0, frames=frames))))
    worst = dict.fromkeys(INVERSION_CHECKS, 0.0)
    lams = tuple(lams)
    full = lams if ext.exit_dim else lams[:1]  # e = 0: the first lam builds every error
    for lam in full:
        point = _GridPoint(ext, lam)
        for name in INVERSION_CHECKS:
            if name in decided:
                continue
            try:
                worst[name] = max(worst[name], errors[name](point))
            except _GUARDED as exc:
                decided[name] = _red(name, exc)
    for lam in lams[len(full):]:
        try:  # the half-plane guards of _frak_f_error, its one step that reads lam
            _contractive_point(1.0 / lam, 1.0 / lambda0)
            _contractive_point(lam, lambda0)
        except _GUARDED as exc:
            decided.setdefault("frak_f_inverse", _red("frak_f_inverse", exc))
    return [decided.get(name) or CheckResult(name, worst[name] < TOL.check_resolvent, worst[name])
            for name in INVERSION_CHECKS]


def check_resolvent_symmetry(ext, lams) -> CheckResult:
    """R_lam^H = R_{lam bar}."""
    worst = 0.0
    for lam in lams:
        left = compressed_resolvent(ext, lam).conj().T
        right = compressed_resolvent(ext, np.conj(lam))
        worst = max(worst, opnorm(left - right))
    return CheckResult("resolvent_symmetry", worst < TOL.check_cayley, worst)


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


_GUARDED = (SymextError, ValueError, np.linalg.LinAlgError)


def _red(name, exc) -> CheckResult:
    """A check that blows up counts as failed, not as a crashed suite."""
    return CheckResult(name, False, float("inf"), note=f"{type(exc).__name__}: {exc}")


def _guarded(name, fn, *args, **kwargs) -> CheckResult:
    try:
        return fn(*args, **kwargs)
    except _GUARDED as exc:
        return _red(name, exc)


def run_suite(a, ext: Optional[EmbeddedExtension] = None, lambda0: complex = 1j,
              seed: int = 0) -> list:
    """All named checks; extension-dependent ones are skipped without an extension."""
    a_inv = a.graph.inverse()
    results = [
        _guarded("range_defect_inverse", check_range_defect_inverse, a, a_inv),
        _guarded("cayley_inverse_scaling", check_cayley_inverse_scaling, a, a_inv),
        _guarded("cayley_roundtrip", check_cayley_roundtrip, a),
        _guarded("neumann_roundtrip", check_neumann_roundtrip, a, lambda0, seed=seed),
    ]
    if ext is None:
        for name in INVERSION_CHECKS + ("resolvent_symmetry", "i_admissibility"):
            results.append(CheckResult(name, True, 0.0, note="no extension supplied",
                                       skipped=True))
        return results
    lams = default_lambda_grid(lambda0, ext.atilde_matrix())
    results.extend(check_inversion(ext, lams, lambda0))
    results.extend([
        _guarded("resolvent_symmetry", check_resolvent_symmetry, ext, lams),
        _guarded("i_admissibility", check_i_admissibility, ext, lambda0),
    ])
    return results
