"""The seed ranges, token diff and exit codes of ``tools/check_reference.py``; no workload runs."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "check_reference", Path(__file__).resolve().parents[1] / "tools" / "check_reference.py")
check_reference = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_reference)


def test_seed_list_reads_a_range_or_one_seed():
    assert check_reference.seed_list("0-3") == [0, 1, 2, 3]
    assert check_reference.seed_list("7") == [7]
    assert check_reference.seed_list("5-5") == [5]


@pytest.mark.parametrize("text", ["5-3", "1-0"])
def test_an_empty_seed_range_is_a_usage_error(capsys, text):
    # a mistyped range compares nothing, so it must not pass the gate
    with pytest.raises(SystemExit) as exc:
        check_reference.main(["--workload", "pipeline", "--seeds", text])
    assert exc.value.code == 2
    assert f"empty seed range {text!r}" in capsys.readouterr().err


def test_differing_lists_each_moved_token_and_each_missing_op():
    assert list(check_reference.differing("abc", "abc")) == []
    assert list(check_reference.differing("abc", "axc")) == [(1, "b", "x")]
    assert list(check_reference.differing("ab", "abc")) == [(2, None, "c")]
    assert list(check_reference.differing(["n=1", "n=2"], ["n=1"])) == [(1, "n=2", None)]


def test_a_seed_not_in_the_reference_fails(monkeypatch, capsys):
    # the tool pins BLAS threads in the environment and puts perfbench on the path
    # when it loads the reference; both are put back after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert check_reference.main(["--workload", "sweep", "--seeds", "999"]) == 1
    out = capsys.readouterr().out
    assert "sweep seed 999: not in reference.json" in out
    assert out.endswith("0 of 1 token sets equal\n")
