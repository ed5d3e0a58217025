"""symext benchmark: one workload per process, end-to-end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {pipeline,resolvent-grid,sweep} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics, with every time brought to
reference host speed (see ``hostspeed.py``); ``--trace 1`` runs a fixed amount
of work under the per-layer tracer and prints the per-layer metrics. Both
check every op against the correctness gate and, for seeds that have one, the
committed verdict reference. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# BLAS threads are pinned before numpy can be imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

# Set-up runs at least SETUP_REPEATS times per run, and more while the set-ups
# so far took under SETUP_SECONDS (at most SETUP_MAX_REPEATS); setup_s reports
# the median. The import is timed in this process and in IMPORT_REPEATS - 1
# fresh interpreters, and setup_s adds the median of those times. Every one of
# these times is brought to reference host speed.
SETUP_REPEATS = 2
SETUP_SECONDS = 3.0
SETUP_MAX_REPEATS = 15
IMPORT_REPEATS = 5


@dataclass
class Result:
    attempted: int
    failed: int
    correct: bool
    metrics: dict                                # name -> (value, unit)
    records: list = field(default_factory=list)  # every OpRecord, in run order
    lines: list = field(default_factory=list)    # human-readable report


def _import_program():
    """Make ``src`` importable and load the program and the harness modules."""
    if not (SRC / "symext" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import symext.cli  # noqa: F401
    import tracing
    import workloads
    return tracing, workloads


def import_seconds(own_end) -> float:
    """Median import time, at reference host speed, of this process (from
    ``START`` to ``own_end``) and of fresh interpreters doing the same."""
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import run; run._import_program(); print(time.perf_counter() - start)")
    pacer, spans = hostspeed.Pacer(), [(START, own_end, own_end - START)]
    for _ in range(IMPORT_REPEATS - 1):
        pacer.sample()
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True,
                               text=True, check=True, timeout=120)
        spans.append((start, time.perf_counter(), float(child.stdout)))
    pacer.sample()
    return statistics.median(seconds * pacer.scale(start, end) for start, end, seconds in spans)


def _blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or the pinned variable."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def run_benchmark(name, seed, seconds, trace, reference=None, sizes=None,
                  import_s=0.0) -> Result:
    """Set up, run and check one workload in this process.

    Untraced: set up repeatedly (see ``SETUP_REPEATS``), then cycle through
    the units until the ops have been busy for ``seconds`` and every unit ran
    ``min_cycles`` times; only whole cycles run, so each op is timed equally
    often. Traced: one set-up, then the tracer is installed and exactly
    ``trace_units`` rounds run, so the counts repeat from run to run and cover
    the timed ops only.
    """
    tracing, workloads = _import_program()
    tracer = tracing.Tracer() if trace else None
    workload = workloads.WORKLOADS[name](seed, tracer, **(sizes or {}))
    pacer = workload.pacer
    setups, rounds, busy = [], [], 0.0
    while _more_setups(setups, trace):
        if pacer:
            pacer.sample()
        start = time.perf_counter()
        workload.setup()
        workload.warm_up()
        setups.append((start, time.perf_counter()))
    if pacer:
        pacer.sample()
    setup_times = [(end - start) * (pacer.scale(start, end) if pacer else 1.0)
                   for start, end in setups]
    # the inputs and prebuilt objects stay alive for the whole run; frozen,
    # they are not rescanned by every garbage collection the ops trigger
    gc.collect()
    gc.freeze()
    if tracer:
        tracer.install()
    try:
        wall = time.perf_counter()
        while True:
            rounds.append(workload.units[len(rounds) % len(workload.units)]())
            busy += sum(r.latency_s for r in rounds[-1])
            if trace:
                if len(rounds) >= workload.trace_units:
                    break
            elif (len(rounds) % len(workload.units) == 0 and busy >= seconds
                  and len(rounds) >= workload.min_cycles * len(workload.units)):
                break
        wall = time.perf_counter() - wall
        if pacer:
            pacer.sample()
    finally:
        if tracer:
            tracer.restore()
    leftover = tracing.installed_wrappers()

    records = [r for rnd in rounds for r in rnd]
    lines, failed = [], 0
    for r in records:
        expected = None
        if reference is not None and r.index < len(reference):
            expected = reference[r.index]
        mismatch = expected is not None and r.token != expected
        if r.problems or mismatch:
            failed += 1
            if failed <= 5:
                detail = list(r.problems) + (
                    [f"verdict {r.token!r} differs from reference {expected!r}"] if mismatch else [])
                lines.append(f"FAILED op {r.index}: {'; '.join(detail)}")
    if leftover:
        lines.append(f"FAILED: tracing wrappers left installed: {', '.join(leftover)}")
    attempted = len(records)

    # An op's latency is the median over its runs, each brought to reference
    # host speed; the raw wall-clock figures are printed alongside.
    runs = defaultdict(list)
    for r in records:
        scaled = sum(share * (end - start) * (pacer.scale(start, end) if pacer else 1.0)
                     for start, end, share in r.spans)
        runs[r.index].append((scaled * 1e3, r.latency_s * 1e3, r.out_bytes))
    latencies = [statistics.median(run[0] for run in op) for op in runs.values()]
    raw = [statistics.median(run[1] for run in op) for op in runs.values()]
    ops_per_s = 1e3 * len(latencies) / sum(latencies)
    lines.append(f"{name} seed {seed}: {attempted} ops in {len(rounds)} rounds, "
                 f"{busy:.2f} s busy, {wall:.2f} s wall, "
                 f"reference {'checked' if reference is not None else 'absent (bounds only)'}")
    lines.append(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")

    if trace:
        metrics = tracer.metrics()
        lines.append(f"traced ops_per_s = {ops_per_s:.4g} 1/s (tracing overhead: compare with "
                     f"ops_per_s of an untraced run)")
    else:
        lines.append(f"set-ups = {len(setup_times)}, median {statistics.median(setup_times):.4g} s; "
                     f"import = {import_s:.4g} s")
        counts = [len(op) for op in runs.values()]
        lines.append(f"{len(latencies)} distinct ops, each run {min(counts)}-{max(counts)} times; "
                     f"{len(pacer.seconds)} host speed samples, kernel median "
                     f"{statistics.median(pacer.seconds) * 1e3:.4g} ms "
                     f"(reference {hostspeed.REFERENCE_S * 1e3:.4g} ms)")
        lines.append(f"wall clock, not brought to reference speed: ops_per_s = "
                     f"{1e3 * len(raw) / sum(raw):.6g} 1/s, op_p50_ms = {statistics.median(raw):.6g} ms, "
                     f"op_p90_ms = {_p90(raw):.6g} ms")
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_p90_ms": (_p90(latencies), "ms"),
            "pass_ratio": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "output_mb": (statistics.mean(statistics.median(run[2] for run in op)
                                          for op in runs.values()) / 1e6, "MB/op"),
        }
    for metric, (value, unit) in metrics.items():
        lines.append(f"{metric} = {value:.6g} {unit}")
    return Result(attempted, failed, failed == 0 and not leftover, metrics, records, lines)


def _more_setups(setups, trace) -> bool:
    if trace:
        return not setups
    return len(setups) < SETUP_REPEATS or (
        sum(end - start for start, end in setups) < SETUP_SECONDS
        and len(setups) < SETUP_MAX_REPEATS)


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def load_reference(name, seed):
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline", "resolvent-grid", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _import_program()
    import_s = import_seconds(time.perf_counter()) if not args.trace else 0.0
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           reference=load_reference(args.workload, args.seed),
                           import_s=import_s)
    for line in result.lines:
        print(line)
    print(json.dumps({"env": environment(args.workload, args.seed)}))
    print(json.dumps({
        "correct": result.correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
