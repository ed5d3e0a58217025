"""Smoke test of the benchmark harness on tiny inputs.

Run from the root of a checkout (about a minute):

    python3 -m pytest -q perfbench/smoke_test.py

It runs every workload at a tiny size, untraced and traced, and checks that
every metric named in BENCHMARK.json is reported with its unit, that a
corrupted reference verdict is counted as a failed op, and that the tracer
patches every binding of a wrapped function and restores all of them. It also
checks which host speed samples scale a timed span.
"""

import json

import pytest

import run

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
tracing, workloads = run._import_program()


def _tiny(name, trace=False, reference=None):
    return run.run_benchmark(name, seed=1, seconds=0, trace=trace, reference=reference,
                             sizes=workloads.TINY[name])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_printed_with_its_unit(name, trace, kind):
    result = _tiny(name, trace)
    assert result.correct and result.failed == 0, result.lines
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                   for line in result.lines), metric


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_corrupted_reference_verdict_counts_as_failed(name):
    tokens = {r.index: r.token for r in _tiny(name).records}
    reference = [tokens[i] for i in range(len(tokens))]
    assert _tiny(name, reference=reference).failed == 0
    reference[0] = "corrupted"
    result = _tiny(name, reference=reference)
    corrupted = sum(r.index == 0 for r in result.records)
    assert result.failed == corrupted >= 1 and not result.correct
    assert result.metrics["pass_ratio"][0] == pytest.approx(1 - corrupted / result.attempted)
    assert any("differs from reference" in line for line in result.lines)


def test_tracer_patches_every_binding_and_restores_them():
    import sys

    import numpy.linalg
    import symext

    cayley, neumann = sys.modules["symext.cayley"], sys.modules["symext.neumann"]

    def bindings():
        return (cayley.defect_data, neumann.defect_data, symext.defect_data,
                symext.Subspace.complement, numpy.linalg.svd)

    originals = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert neumann.defect_data is cayley.defect_data is symext.defect_data
        assert all(new is not old for new, old in zip(bindings(), originals))
        assert len(tracing.installed_wrappers()) > 40
    finally:
        tracer.restore()
    assert bindings() == originals
    assert tracing.installed_wrappers() == []


def test_host_speed_scale_uses_the_two_samples_on_each_side_of_a_span():
    import hostspeed

    pacer = hostspeed.Pacer()
    for start, seconds in ((0.0, 0.01), (1.0, 0.02), (2.0, 0.04), (5.0, 0.01), (6.0, 0.03),
                           (7.0, 0.5)):
        pacer.starts.append(start)
        pacer.ends.append(start + seconds)
        pacer.seconds.append(seconds)
    # before [3, 4]: 0.02 and 0.04; after it: 0.01 and 0.03; the median is 0.025
    assert pacer.scale(3.0, 4.0) == pytest.approx(hostspeed.REFERENCE_S / 0.025)
    # a span before every sample is scaled by the first two samples
    assert pacer.scale(-2.0, -1.0) == pytest.approx(hostspeed.REFERENCE_S / 0.015)
