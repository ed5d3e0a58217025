"""The value diff of ``tools/cli_parity.py``, on small in-memory JSON documents."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "cli_parity", Path(__file__).resolve().parents[1] / "tools" / "cli_parity.py")
cli_parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_parity)


def res_doc(deviations, agree=True):
    return {"points": [{"lambda": [0.0, k + 1.0], "deviation": dev}
                       for k, dev in enumerate(deviations)],
            "max_deviation": max(deviations), "agree": agree, "kind": "resolvent_comparison"}


def test_moved_lists_each_changed_value_by_path():
    old = {**res_doc([1e-14, 3e-14]),
           "checks": [{"name": "cayley", "passed": True, "max_error": 2e-15}]}
    new = {**res_doc([1e-14, 2e-14], agree=False),
           "checks": [{"name": "cayley", "passed": True, "max_error": 4e-15}]}
    assert list(cli_parity.moved(old, new)) == [
        ("agree", True, False),
        ("checks[cayley, passed True].max_error", 2e-15, 4e-15),
        ("max_deviation", 3e-14, 2e-14),
        ("points[1].deviation", 3e-14, 2e-14)]
    # with every, the values held alike come too, in the same order
    every = list(cli_parity.moved(old, new, every=True))
    assert ("points[0].deviation", 1e-14, 1e-14) in every and len(every) == 12


def test_moved_compares_values_as_json_text():
    # a flipped sign of zero moved, though -0.0 == 0.0; a NaN that held did not,
    # though nan != nan
    nan = float("nan")
    assert list(cli_parity.moved({"x": -0.0, "y": nan}, {"x": 0.0, "y": nan})) == [
        ("x", -0.0, 0.0)]
    docs = [("s0-d16x2-res.json", {"x": -0.0, "y": nan}, {"x": 0.0, "y": nan})]
    assert list(cli_parity.worst_moved(docs)) == [("res.json", "x")]

def test_worst_moved_takes_each_fields_largest_value_over_every_file():
    docs = [("s0-d16x2-res.json", res_doc([1e-14, 5e-14]), res_doc([1e-14, 4e-14])),
            # unmoved here, yet its 4.5e-14 is the new side's largest deviation
            ("s1-d16x2-res.json", res_doc([4.5e-14]), res_doc([4.5e-14])),
            ("s0-d16x2-verify.json",
             {"checks": [{"name": "cayley", "passed": True, "max_error": 1e-15}]},
             {"checks": [{"name": "cayley", "passed": True, "max_error": 3e-15}]}),
            # a moved verdict is not a number, and a value that held is not reported
            ("s0-d16x2-ext.json", {"ok": True, "dim": 4}, {"ok": False, "dim": 4})]
    assert cli_parity.worst_moved(docs) == {
        ("res.json", "max_deviation"): (5e-14, 4.5e-14),
        ("res.json", "points[].deviation"): (5e-14, 4.5e-14),
        ("verify.json", "checks[cayley, passed True].max_error"): (1e-15, 3e-15)}


def chain_doc(*hs):
    """A chain.json with one rank-one step per h, each sending f1 = e1 to h."""
    return {"kind": "extension_chain", "steps": [
        {"parameter": {"domain_frame": [[[1.0, 0.0]], [[0.0, 0.0]]],
                       "action": [[[0.0, 0.0]], [[h, 0.0]]]},
         "defect_numbers": [len(hs) - k - 1] * 2} for k, h in enumerate(hs)]}


def test_first_moved_step_names_where_two_chains_part():
    base = chain_doc(0.5, 0.25, 0.75)
    # last-bit moves are not a re-chosen step
    assert cli_parity.first_moved_step(base, chain_doc(0.5 + 1e-15, 0.25, 0.75 - 1e-12)) is None
    assert cli_parity.first_moved_step(base, chain_doc(0.5, 0.25 + 1e-9, 0.75)) == 1
    assert cli_parity.first_moved_step(base, chain_doc(0.5, 0.25)) == 2


def test_first_moved_step_counts_a_key_on_one_side_as_layout():
    old = chain_doc(0.5, 0.25)
    for step in old["steps"]:
        step["parameter"]["parameter_kind"] = "isometric"
    assert cli_parity.first_moved_step(old, chain_doc(0.5, 0.25)) is None
    assert cli_parity.first_moved_step(chain_doc(0.5, 0.25), old) is None
    # an array of another length is still a move
    new = chain_doc(0.5, 0.25)
    new["steps"][1]["parameter"]["action"].append([[0.0, 0.0]])
    assert cli_parity.first_moved_step(old, new) == 1


def test_report_prints_the_first_moved_step(tmp_path, capsys):
    for side, hs in (("base", (0.5, 0.25)), ("change", (0.5, 0.3)), ("same", (0.5, 0.25 + 1e-14))):
        (tmp_path / side).mkdir()
        (tmp_path / side / "s0-d16x2-chain.json").write_text(json.dumps(chain_doc(*hs)))
    cli_parity.report(tmp_path / "base", tmp_path / "change", "s0-d16x2-chain.json")
    assert capsys.readouterr().out.splitlines()[-1] == (
        "  first step whose parameter moved by more than 1e-10: 1")
    cli_parity.report(tmp_path / "base", tmp_path / "same", "s0-d16x2-chain.json")
    assert capsys.readouterr().out.splitlines()[-1] == "  steps agree to 1e-10"


def test_report_names_a_layout_only_difference(tmp_path, capsys):
    doc = {**res_doc([1e-14, float("nan")]), "points": [{"lambda": [0.0, -0.0]}]}
    texts = {"base": json.dumps(doc, indent=2), "layout": json.dumps(doc, separators=(",", ":")),
             "moved": json.dumps({**doc, "points": [{"lambda": [0.0, 0.0]}]})}
    for side, text in texts.items():
        (tmp_path / side).mkdir()
        (tmp_path / side / "s0-d16x2-res.json").write_text(text)
    # a NaN holds its value, and a sign of zero that moved is a moved value
    assert cli_parity.report(tmp_path / "base", tmp_path / "layout", "s0-d16x2-res.json")
    assert capsys.readouterr().out.splitlines() == [
        "differs: s0-d16x2-res.json", "  same JSON values"]
    assert not cli_parity.report(tmp_path / "base", tmp_path / "moved", "s0-d16x2-res.json")
    assert "same JSON values" not in capsys.readouterr().out
