"""The three benchmark workloads and their correctness gate.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned. Every input is derived from the
workload seed; the program sees only the generated inputs.

A workload exposes ``setup()`` (input generation and prebuilt objects),
``warm_up()``, a list ``units`` of callables and ``trace_units``, the fixed
number of units a traced run executes. A unit is one round of the timed
phase (a pass, or 100 sweep triples) and returns one ``OpRecord`` per
operation it ran. The harness times nothing itself: each record carries the
latency of the program calls alone, and the checks that produce ``problems``
and the verdict ``token`` run outside that latency and outside any span.

Program functions are always called through their module (``cayley.defect_data``),
never through a name imported here, so the traced run's wrappers see the calls.
"""

import contextlib
import functools
import importlib
import json
import string
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
from symext.subspaces import SectorSpec

# The package re-exports a function named ``cayley``, so the modules are
# fetched by their full names.
(cayley, cli, instances, invertibility, neumann, operators, resolvents,
 serialize) = (importlib.import_module(f"symext.{name}") for name in (
     "cayley", "cli", "instances", "invertibility", "neumann", "operators",
     "resolvents", "serialize"))

# Bounds of the repository's identity checks when this benchmark was written.
# They are pinned here so that a change to the program cannot loosen the gate.
RESOLVENT_BOUND = 1e-8
ROUNDTRIP_BOUND = 1e-9
CAYLEY_BOUND = 1e-10
BORDERLINE_BAND = (1e-9, 1e-6)
CHECK_BOUNDS = {
    "range_defect_inverse": CAYLEY_BOUND,
    "cayley_inverse_scaling": CAYLEY_BOUND,
    "cayley_roundtrip": 10 * CAYLEY_BOUND,
    "neumann_roundtrip": ROUNDTRIP_BOUND,
    "constrained_space_inverse": RESOLVENT_BOUND,
    "frak_b_inverse": RESOLVENT_BOUND,
    "frak_f_inverse": RESOLVENT_BOUND,
    "resolvent_symmetry": CAYLEY_BOUND,
}

LAMBDA0 = 1j


@dataclass
class OpRecord:
    index: int             # position of the op's verdict in the reference
    spans: list            # (start, end, share): the program calls the op is charged with
    token: object          # verdict fingerprint, None when the op raised
    problems: list = field(default_factory=list)
    out_bytes: int = 0

    @property
    def latency_s(self) -> float:
        return sum(share * (end - start) for start, end, share in self.spans)


def _call(fn, *args):
    """Run one call; an exception is an outcome, not a harness crash.

    Returns the value, the call's (start, end) on the perf_counter clock and
    the error.
    """
    start = time.perf_counter()
    try:
        value, error = fn(*args), None
    except Exception as exc:  # any exception fails the op and the run goes on
        value, error = None, f"raised {type(exc).__name__}: {exc}"
    return value, (start, time.perf_counter()), error


def _whole(span, share=1.0):
    return [(*span, share)]


class Workload:
    # an untraced run times every op at least this many times, in whole cycles
    # through the units, and runs at least --seconds
    min_cycles = 1

    def __init__(self, seed, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.units = []
        self.trace_units = 1
        # an untraced run tracks the host's speed between program calls
        self.pacer = None if tracer else hostspeed.Pacer()

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def _timed(self, fn, *args):
        """``_call`` of a program call, after a host speed sample if one is due."""
        if self.pacer:
            self.pacer.maybe_sample()
        return _call(fn, *args)


class Pipeline(Workload):
    """The CLI as a user runs it, in-process: gen, build-sa, resolvent, verify.

    One pass walks the dimension ladder; one op is one subcommand call. An
    untraced pass runs each call again, back to back, while its runs so far
    took under ``REPEAT_SECONDS`` (at most ``MAX_RUNS`` runs), so that the
    short calls are timed more than once; a traced pass runs each call once.
    """

    name = "pipeline"
    LADDER = ((16, True), (32, True), (48, True), (64, False))
    TINY_LADDER = ((4, True), (8, False))
    REPEAT_SECONDS = 2.0
    MAX_RUNS = 3

    def __init__(self, seed, tracer=None, ladder=LADDER):
        super().__init__(seed, tracer)
        self.ladder = ladder
        self.rungs = []

    def setup(self):
        self.rungs = [(d, doubled, 1000 * self.seed + i)
                      for i, (d, doubled) in enumerate(self.ladder)]
        self.units = [functools.partial(self._run_ladder, self.rungs)]

    def warm_up(self):
        self._run_ladder([(4, True, 1000 * self.seed + 999)])

    def _run_ladder(self, rungs):
        records = []
        # inside the working directory: the benchmark writes nowhere else
        with tempfile.TemporaryDirectory(dir=".", prefix=".perfbench-") as tmp:
            for i, rung in enumerate(rungs):
                records.extend(self._rung(Path(tmp), 4 * i, *rung))
        return records

    def _op(self, index, argv, outputs, check):
        """Runs of one subcommand call, each checked; see the class docstring."""
        records = [self._run_op(index, argv, outputs, check)]
        while not (self.tracer or records[-1].problems or len(records) >= self.MAX_RUNS
                   or sum(r.latency_s for r in records) >= self.REPEAT_SECONDS):
            records.append(self._run_op(index, argv, outputs, check))
        return records

    def _run_op(self, index, argv, outputs, check):
        """One subcommand call, then its output check outside the timing.

        ``check`` returns the verdict token and a list of problems.
        """
        code, span, error = self._timed(cli.main, [str(a) for a in argv])
        out_bytes = sum(p.stat().st_size for p in outputs if p.exists())
        problems = [error] if error else []
        if code not in (None, cli.EXIT_OK):
            problems.append(f"{argv[0]} exited {code}")
        token = None
        if not problems:
            with self.untraced():
                checked, _, error = _call(check)
            if error:
                problems.append(f"{argv[0]} output check {error}")
            else:
                token, found = checked
                problems.extend(found)
        return OpRecord(index, _whole(span), token, problems, out_bytes)

    def _rung(self, tmp, index, d, doubled, seed):
        tag = f"d{d}{'x2' if doubled else ''}"
        op, ext, chain, grid, res, ver = (tmp / f"{tag}-{name}" for name in (
            "op.json", "ext.json", "chain.json", "grid.csv", "res.json", "verify.json"))
        defects = []

        def check_gen():
            doc = _read_json(op)
            defects[:] = cayley.defect_data(serialize.load_operator(doc), LAMBDA0).defect_numbers
            return f"n={defects[0]},{defects[1]}", []

        def check_chain():
            steps = _count_chain_steps(chain)
            expected = defects[0] * (2 if doubled else 1) if defects else None
            problems = [] if steps == expected else [
                f"{tag}: chain has {steps} steps, start defect is {expected}"]
            return f"steps={steps}", problems

        def check_resolvent():
            doc = _read_json(res)
            skipped = sum("skipped" in p for p in doc["points"])
            problems = [] if doc["agree"] and doc["max_deviation"] < RESOLVENT_BOUND else [
                f"{tag}: resolvent deviation {doc['max_deviation']:.3e}"]
            return f"agree={int(doc['agree'])},skipped={skipped}", problems

        def check_verify():
            checks = _read_json(ver)["checks"]
            token = "checks=" + "".join("s" if c["skipped"] else str(int(c["passed"]))
                                        for c in checks)
            problems = [f"{tag}: check {c['name']} error {c['max_error']:.3e}" for c in checks
                        if not c["passed"]
                        or not c["max_error"] < CHECK_BOUNDS.get(c["name"], float("inf"))]
            return token, problems

        calls = (
            (["gen", "--dim", d, "--defect", d // 4, "--seed", seed, "-o", op], [op], check_gen),
            (["build-sa", op, "--z", "0,1", "--seed", seed, "-o", ext, "--chain", chain]
             + (["--double"] if doubled else []), [ext, chain], check_chain),
            (["resolvent", op, ext, "--lambda0", "0,1", "--csv", grid, "-o", res],
             [grid, res], check_resolvent),
            (["verify", op, ext, "--lambda0", "0,1", "--seed", seed, "-o", ver], [ver],
             check_verify),
        )
        return [r for k, call in enumerate(calls) for r in self._op(index + k, *call)]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _count_chain_steps(path) -> int:
    """Steps in a chain file, counted without building the document in memory.

    Only step records carry ``defect_numbers``; parsing a 40 MB chain file into
    Python objects would inflate the peak RSS the benchmark reports.
    """
    steps = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            steps += line.count('"defect_numbers"')
    return steps


@dataclass
class _Extension:
    base: object
    ext: object
    steps: int
    defects: tuple
    grid: tuple
    sector: tuple


class ResolventGrid(Workload):
    """Resolvents of prebuilt invertible self-adjoint exit-space extensions.

    Set-up builds the extensions; the timed phase runs only the resolvents
    layer. One op is one grid point, plus one op per extension for the
    boundary-condition test at 0, which samples F along the sector.
    """

    name = "resolvent-grid"
    min_cycles = 3
    CASES = ((32, True), (64, False), (64, True))
    TINY_CASES = ((4, True), (8, False))

    def __init__(self, seed, tracer=None, cases=CASES):
        super().__init__(seed, tracer)
        self.cases = cases
        self.extensions = []

    def _build(self, d, doubled, seed):
        base = instances.gen_symmetric(instances.InstanceSpec(d, d // 4, seed=seed))
        chain = invertibility.build_invertible_selfadjoint(base, LAMBDA0, seed=seed,
                                                           double_first=doubled)
        ext = resolvents.EmbeddedExtension.from_chain(chain)
        grid = resolvents.default_lambda_grid(LAMBDA0, ext.atilde_matrix())
        sector = SectorSpec.default_for(LAMBDA0).sample_points()
        defects = cayley.defect_data(base, LAMBDA0).defect_numbers
        return _Extension(base, ext, len(chain.steps), defects, grid,
                          tuple(lam for ray in sector.values() for lam in ray))

    def setup(self):
        self.extensions = [self._build(d, doubled, 1000 * self.seed + i)
                           for i, (d, doubled) in enumerate(self.cases)]
        self.units = [functools.partial(self._run_grid, self.extensions)]

    def warm_up(self):
        self._run_grid([self._build(4, True, 1000 * self.seed + 999)])

    def _run_grid(self, extensions):
        records = []
        for case in extensions:
            records.extend(self._extension_ops(case, len(records)))
        return records

    @staticmethod
    def _resolvent_pair(case, f, lam):
        return (resolvents.compressed_resolvent(case.ext, lam),
                resolvents.shtraus_resolvent(case.base, LAMBDA0, f, lam))

    def _extension_ops(self, case, index):
        points = case.grid + case.sector
        # F is sampled in one call over all points, as a user asks for it; its
        # time is shared evenly among the points it sampled
        f, f_span, error = self._timed(resolvents.ParameterFunction.from_extension,
                                       case.ext, LAMBDA0, points)
        share = _whole(f_span, 1 / len(points))
        records = []
        for i, lam in enumerate(case.grid):
            if error:
                records.append(OpRecord(index + i, share, None, [error]))
                continue
            pair, span, err = self._timed(self._resolvent_pair, case, f, lam)
            if err:
                records.append(OpRecord(index + i, share + _whole(span), None, [err]))
                continue
            with self.untraced():
                deviation = float(np.linalg.norm(pair[0] - pair[1], 2))
            agree = deviation < RESOLVENT_BOUND
            problems = [] if agree else [f"resolvent deviation {deviation:.3e} at {lam}"]
            out = pair[0].nbytes + pair[1].nbytes + f.sample_at(lam).nbytes
            records.append(OpRecord(index + i, share + _whole(span), f"agree={int(agree)}",
                                    problems, out))
        # the boundary test at 0 owns the sector samples it extrapolates from
        index += len(case.grid)
        sector = _whole(f_span, len(case.sector) / len(points))
        if error:
            return records + [OpRecord(index, sector, None, [error])]
        verdict, span, err = self._timed(resolvents.i_admissibility_test, case.base, LAMBDA0, f)
        if err:
            return records + [OpRecord(index, sector + _whole(span), None, [err])]
        n, nb = case.defects
        token = f"n={n},{nb},steps={case.steps},iadm={int(verdict.admissible)}"
        problems = [] if verdict.admissible else [
            "boundary test rejected the parameter function of an invertible extension"]
        out = sum(f.sample_at(lam).nbytes for lam in case.sector)
        records.append(OpRecord(index, sector + _whole(span), token, problems, out))
        return records


# One character per sweep verdict: (n, nb, direct, agree) with n, nb in 0..3.
_SWEEP_ALPHABET = string.digits + string.ascii_letters + "-_"


def sweep_token(n, nb, direct, agree) -> str:
    if not (0 <= n <= 3 and 0 <= nb <= 3):
        return "?"
    return _SWEEP_ALPHABET[((n * 4 + nb) * 2 + int(direct)) * 2 + int(agree)]


class Sweep(Workload):
    """A pool of small seeded triples (A, z, T), as in acceptance criteria 1 and 2.

    One op is one triple: defect data, the three-way invertibility check, and
    the extend -> recover_parameter round trip. Every fourth triple puts T on
    the forbidden operator, so the non-invertible verdict and its kernel
    witness are timed and checked too.
    """

    name = "sweep"
    POOL = 600
    ROUND = 100
    # every fourth triple puts T on the forbidden operator, so B is not invertible
    SINGULAR_EVERY = 4
    TRACE_ROUNDS = 5
    # each triple runs at least three times, a pool (a few seconds) apart, and
    # its latency is the median of those runs
    min_cycles = 3

    def __init__(self, seed, tracer=None, pool=POOL):
        super().__init__(seed, tracer)
        self.pool = pool
        self.triples = []
        self.singular = []  # per triple: T was put on the forbidden operator

    def _triple(self, i):
        # d, the defect and the kind of T cycle through every combination, so
        # a seed changes the matrices, z and T but not the mix of work
        d = 2 + i % 7
        n = 1 + (i // 7) % min(d - 1, 3)
        rng = np.random.default_rng([self.seed, i])
        base = instances.gen_symmetric(instances.InstanceSpec(
            d, n, seed=int(rng.integers(2 ** 31))))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.5) * rng.choice([-1, 1]))
        if i % self.SINGULAR_EVERY == 0:
            return (base, z, self._on_forbidden_operator(base, z)), True
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        top = np.linalg.svd(raw, compute_uv=False)[0]
        # seven in ten strictly contractive, the rest with norm exactly 1
        strict = rng.uniform() < 0.7
        return (base, z, raw / (top * rng.uniform(1.05, 2.5) if strict else top)), False

    @staticmethod
    def _on_forbidden_operator(base, z):
        """Rank-one T that sends the first defect-frame vector f1 of N_z to
        (zbar/z) X_{1/z}(A^{-1}) f1, a unit vector of N_zbar.

        B then has a kernel, as for c = -1 in the worked family of acceptance
        criterion 2, and all three invertibility tests must say so.
        """
        dd = cayley.defect_data(base, z)
        forbidden = cayley.forbidden_operator(operators.inverse_op(base), 1 / z)
        image = (np.conj(z) / z) * forbidden.apply(dd.n_z.frame[:, 0])
        return (dd.n_zbar.frame.conj().T @ image).reshape(-1, 1)

    def setup(self):
        self.triples, self.singular = zip(*(self._triple(i) for i in range(self.pool)))
        size = min(self.ROUND, self.pool)
        self.units = [functools.partial(self._round, range(start, start + size))
                      for start in range(0, self.pool - size + 1, size)]
        self.trace_units = min(self.TRACE_ROUNDS, len(self.units))

    def warm_up(self):
        self._round(range(min(20, self.pool)))

    def _round(self, indices):
        return [self._triple_op(i) for i in indices]

    @staticmethod
    def _work(base, z, matrix):
        dd = cayley.defect_data(base, z)
        parameter = neumann.ContractionParameter.from_matrix(dd, matrix)
        verdict = invertibility.check_invertibility(base, z, parameter)
        report = neumann.extend(base, z, parameter, dd=dd)
        recovered = neumann.recover_parameter(base, report.b, z)
        return dd, parameter, verdict, report, recovered

    def _triple_op(self, i):
        out, span, error = self._timed(self._work, *self.triples[i])
        if error:
            return OpRecord(i, _whole(span), None, [f"triple {i}: {error}"])
        dd, parameter, verdict, report, recovered = out
        problems = []
        with self.untraced():
            distance = operators.graph_distance(parameter.t, recovered.t)
        if not distance < ROUNDTRIP_BOUND:
            problems.append(f"triple {i}: round trip distance {distance:.3e}")
        if self.singular[i] and verdict.direct:
            problems.append(f"triple {i}: T is on the forbidden operator, yet B tested invertible")
        if not verdict.direct:
            residual = float("inf")
            if verdict.witness is not None:
                with self.untraced():
                    residual = float(np.linalg.norm(report.b.apply(verdict.witness)))
                    residual /= max(1.0, float(np.linalg.norm(report.b.action, 2)))
            if not residual < CAYLEY_BOUND:
                problems.append(f"triple {i}: kernel witness missing or off the kernel, "
                                f"relative residual {residual:.3e}")
        if not verdict.agree:
            finite = [m for m in verdict.margins.values() if np.isfinite(m)]
            if not any(BORDERLINE_BAND[0] < m < BORDERLINE_BAND[1] for m in finite):
                problems.append(f"triple {i}: invertibility tests disagree outside the "
                                f"borderline band, margins {verdict.margins}")
        out_bytes = sum(m.nbytes for m in (report.b.action, report.b.domain.frame,
                                           recovered.t.action, recovered.t.domain.frame))
        return OpRecord(i, _whole(span), sweep_token(*dd.defect_numbers, verdict.direct,
                                                     verdict.agree), problems, out_bytes)


WORKLOADS = {cls.name: cls for cls in (Pipeline, ResolventGrid, Sweep)}
TINY = {"pipeline": {"ladder": Pipeline.TINY_LADDER},
        "resolvent-grid": {"cases": ResolventGrid.TINY_CASES},
        "sweep": {"pool": 20}}
