"""End-to-end runs of the symext command-line interface."""

import csv
import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symext import cli, invertibility
from symext.cayley import defect_data
from symext.neumann import ContractionParameter, extend
from symext.operators import graph_distance, operator_from_generators
from symext.resolvents import ParameterFunction, compressed_resolvent
from symext.serialize import (decode_complex, decode_embedded_extension,
                              decode_operator, decode_parameter, encode_matrix,
                              encode_operator, json_dump, load_operator, operator_file,
                              parameter_file)
from symext.subspaces import DEFAULT_TOL

from conftest import worked_parameter


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "symext.cli", *argv],
                          capture_output=True, text=True, cwd=cwd)


def write_worked_operator(path):
    a = operator_from_generators(np.array([[1.0], [0.0]], dtype=complex),
                                 np.array([[1.0], [0.0]], dtype=complex))
    path.write_text(json_dump(operator_file(a)))
    return a


def write_parameter(path, a, c):
    dd = defect_data(a, 1j)
    path.write_text(json_dump(parameter_file(worked_parameter(dd, c))))


def test_gen_writes_operator_and_is_deterministic(tmp_path):
    one, two = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--dim", "5", "--defect", "2", "--seed", "11"]
    assert run_cli(*args, "-o", str(one)).returncode == 0
    assert run_cli(*args, "-o", str(two)).returncode == 0
    assert one.read_bytes() == two.read_bytes()
    doc = json.loads(one.read_text())
    assert doc["kind"] == "operator" and doc["schema"] == 1
    assert doc["instance_spec"]["seed"] == 11
    assert doc["tolerances"]["rank_tol"] == 1e-10


def test_gen_infeasible_exit_code(tmp_path):
    res = run_cli("gen", "--dim", "3", "--defect", "2", "--dense-range")
    assert res.returncode == cli.EXIT_INFEASIBLE == 6
    assert "infeasible" in res.stderr
    # argparse's usage errors keep exit 2 to themselves
    assert run_cli("gen", "--dim", "x").returncode == 2


@pytest.mark.parametrize("window", ["1,inf", "-inf,1", "nan,1"])
def test_non_finite_window_is_a_usage_error(tmp_path, capsys, window):
    out = tmp_path / "op.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--dim", "4", "--defect", "1", f"--window={window}", "-o", str(out)])
    assert exc.value.code == 2
    assert f"expected two finite numbers 'lo,hi', got '{window}'" in capsys.readouterr().err
    assert not out.exists()
    # a finite window that is no interval is still an infeasible instance
    assert cli.main(["gen", "--dim", "4", "--defect", "1", "--window=2,1",
                     "-o", str(out)]) == cli.EXIT_INFEASIBLE
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1", "1e300"])
def test_tol_outside_the_unit_interval_is_a_usage_error(tmp_path, capsys, tol):
    # --tol is outside input: only a finite 0 < tol < 1 runs, and nothing is written otherwise
    op, out = tmp_path / "op.json", tmp_path / "out.json"
    write_worked_operator(op)
    for argv in (["gen", "--dim", "4", "--defect", "1"], ["build-sa", str(op), "--z", "0,1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--tol", tol, "-o", str(out)])
        assert exc.value.code == 2
        assert f"expected a finite tolerance in (0, 1), got '{tol}'" in capsys.readouterr().err
        assert not out.exists()
    # the loosened tolerance of the tampered-file demo still loads
    assert cli.main(["build-sa", str(op), "--z", "0,1", "--tol", "1e-3", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["tolerances"] == {"rank_tol": 1e-3}


def test_gen_shift_note(tmp_path):
    out = tmp_path / "shift.json"
    assert run_cli("gen", "--shift", "3", "-o", str(out)).returncode == 0
    doc = json.loads(out.read_text())
    assert doc["construction"] == "truncated-shift"
    assert "finite section" in doc["note"]
    assert doc["ambient_dim"] == 4


def test_extend_reports_classification(tmp_path):
    op_path, par_path, out = tmp_path / "op.json", tmp_path / "p.json", tmp_path / "ext.json"
    a = write_worked_operator(op_path)
    write_parameter(par_path, a, 0.5)
    res = run_cli("extend", str(op_path), "--param", str(par_path), "-o", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "extension_report"
    assert doc["classification"] == "accumulative"
    assert doc["invertible"] is True
    assert doc["defect_numbers_of_b"] == [0, 0]


def test_extend_empty_parameter_returns_base(tmp_path):
    op_path, par_path = tmp_path / "op.json", tmp_path / "p.json"
    a = write_worked_operator(op_path)
    par_path.write_text(json_dump(parameter_file(ContractionParameter.empty(1j, 2))))
    res = run_cli("extend", str(op_path), "--param", str(par_path))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["classification"] == "symmetric"
    assert doc["defect_numbers_of_b"] == [1, 1]
    assert doc["b"]["domain_frame"] == operator_file(a)["domain_frame"]


def test_extend_rejects_inadmissible_with_witness(tmp_path):
    op_path, par_path = tmp_path / "op.json", tmp_path / "p.json"
    a = write_worked_operator(op_path)
    write_parameter(par_path, a, 1.0)
    res = run_cli("extend", str(op_path), "--param", str(par_path))
    assert res.returncode == 3
    err = json.loads(res.stderr)
    assert err["error"] == "not admissible"
    w = np.array([complex(re, im) for re, im in err["witness"]])
    assert abs(abs(w[1]) - 1.0) < 1e-9 and abs(w[0]) < 1e-9


def test_extend_z_mismatch_is_io_error(tmp_path):
    op_path, par_path = tmp_path / "op.json", tmp_path / "p.json"
    a = write_worked_operator(op_path)
    write_parameter(par_path, a, 0.5)
    res = run_cli("extend", str(op_path), "--z", "0,-1", "--param", str(par_path))
    assert res.returncode == 1
    assert "disagrees" in res.stderr


@pytest.mark.parametrize("command", ["extend", "check-invert"])
def test_z_within_base_point_match_runs_at_the_parameter_base_point(tmp_path, capsys, command):
    # the parameter sits at z = i; --z within TOL.base_point_match of it writes
    # the bytes of a run without --z, and one outside it is refused
    op_path, par_path = tmp_path / "op.json", tmp_path / "p.json"
    write_parameter(par_path, write_worked_operator(op_path), 0.5)
    run = [command, str(op_path), "--param", str(par_path), "-o"]
    plain, near = tmp_path / "plain.json", tmp_path / "near.json"
    assert cli.main(run + [str(plain)]) == cli.EXIT_OK
    assert cli.main(run + [str(near), "--z", "0,1.0000000000001"]) == cli.EXIT_OK
    assert near.read_bytes() == plain.read_bytes()
    capsys.readouterr()
    assert cli.main(run + [str(tmp_path / "far.json"), "--z", "0,1.001"]) == cli.EXIT_IO
    assert "--z disagrees with the parameter file base point" in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path):
    res = run_cli("extend", str(tmp_path / "nope.json"), "--param", str(tmp_path / "no.json"))
    assert res.returncode == 1
    assert "error" in res.stderr


def test_check_invert_agreeing_verdict(tmp_path):
    op_path, par_path = tmp_path / "op.json", tmp_path / "p.json"
    a = write_worked_operator(op_path)
    write_parameter(par_path, a, 1j)
    res = run_cli("check-invert", str(op_path), "--param", str(par_path))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["direct"] and doc["via_admissibility"] and doc["via_forbidden"]
    assert doc["agree"] is True and doc["witness"] is None
    assert set(doc["margins"]) == {"direct", "via_admissibility", "via_forbidden"}
    # the band brackets the rank cut: (tol/10, 10*tol) at the default --tol
    assert doc["tolerances"]["borderline_band"] == [DEFAULT_TOL / 10, DEFAULT_TOL * 10]


def test_check_invert_negative_verdict_keeps_agreement(tmp_path):
    op_path, par_path = tmp_path / "op.json", tmp_path / "p.json"
    a = write_worked_operator(op_path)
    write_parameter(par_path, a, -1.0)
    res = run_cli("check-invert", str(op_path), "--param", str(par_path))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert not doc["direct"] and doc["agree"] is True
    w = np.array([complex(re, im) for re, im in doc["witness"]])
    assert abs(abs(w[1]) - 1.0) < 1e-8


def test_check_invert_disagreement_exit_code(tmp_path, monkeypatch):
    # a genuine disagreement needs a bug, so fabricate the verdict at the seam
    # and confirm the borderline band (tol/10, 10*tol) separates exit 4 from exit 0
    op_path, par_path = tmp_path / "op.json", tmp_path / "p.json"
    a = write_worked_operator(op_path)
    write_parameter(par_path, a, 1j)

    class FakeVerdict:
        direct, via_admissibility, via_forbidden = True, False, True
        agree = False
        witness = None
        margins = {"direct": 0.5, "via_admissibility": 0.5, "via_forbidden": 0.5}

    monkeypatch.setattr(cli, "check_invertibility", lambda *a, **k: FakeVerdict())
    code = cli.main(["check-invert", str(op_path), "--param", str(par_path),
                     "-o", str(tmp_path / "v.json")])
    assert code == 4
    # next to the cut at the default --tol 1e-10: borderline
    FakeVerdict.margins = {"direct": 2e-10, "via_admissibility": 2e-10, "via_forbidden": 2e-10}
    code = cli.main(["check-invert", str(op_path), "--param", str(par_path),
                     "-o", str(tmp_path / "v2.json")])
    assert code == 0
    # two decades above the cut: outside the band, so a disagreement there is an error
    FakeVerdict.margins = {"direct": 5e-8, "via_admissibility": 5e-8, "via_forbidden": 5e-8}
    code = cli.main(["check-invert", str(op_path), "--param", str(par_path),
                     "-o", str(tmp_path / "v3.json")])
    assert code == 4
    # the band follows --tol
    code = cli.main(["check-invert", str(op_path), "--param", str(par_path), "--tol", "1e-8",
                     "-o", str(tmp_path / "v4.json")])
    assert code == 0


def test_build_sa_final_oracle_failure_is_not_an_extension(tmp_path, monkeypatch, capsys):
    # a chain whose final operator fails graph(A) inside graph(B) is no file
    # problem: it exits with its own code and a message
    op_path = tmp_path / "op.json"
    write_worked_operator(op_path)
    monkeypatch.setattr(invertibility, "graph_contains", lambda *a, **k: False)
    code = cli.main(["build-sa", str(op_path), "--z", "0,1", "-o", str(tmp_path / "ext.json")])
    assert code == cli.EXIT_NOT_EXTENSION != cli.EXIT_IO
    assert "not an extension: chain lost the base operator" in capsys.readouterr().err
    assert not (tmp_path / "ext.json").exists()


def test_build_sa_choice_exhausted_is_one_error_line(tmp_path, monkeypatch, capsys):
    op, ext = tmp_path / "op.json", tmp_path / "ext.json"
    write_worked_operator(op)
    monkeypatch.setattr(invertibility, "_pick_direction", lambda *args: None)
    capsys.readouterr()
    assert cli.main(["build-sa", str(op), "--z", "0,1", "-o", str(ext)]) == cli.EXIT_IO
    assert capsys.readouterr().err == "error: no defect direction could be extended\n"
    assert not ext.exists()


def test_pipeline_gen_build_resolvent_verify(tmp_path):
    op_path = tmp_path / "op.json"
    ext_path = tmp_path / "ext.json"
    chain_path = tmp_path / "chain.json"
    csv_path = tmp_path / "grid.csv"
    assert run_cli("gen", "--dim", "4", "--defect", "2", "--seed", "5",
                   "-o", str(op_path)).returncode == 0
    res = run_cli("build-sa", str(op_path), "--z", "0,1", "--double",
                  "-o", str(ext_path), "--chain", str(chain_path))
    assert res.returncode == 0
    ext_doc = json.loads(ext_path.read_text())
    assert ext_doc["kind"] == "embedded_extension"
    chain_doc = json.loads(chain_path.read_text())
    assert chain_doc["kind"] == "extension_chain"
    assert len(chain_doc["steps"]) == 4  # doubled: e = d = 4, one step per exit dimension

    res = run_cli("resolvent", str(op_path), str(ext_path), "--lambda0", "0,1",
                  "--csv", str(csv_path))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["agree"] is True and doc["max_deviation"] < 1e-8
    assert all("deviation" in p for p in doc["points"])

    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    d = 4
    expect_header = ["lambda_re", "lambda_im"]
    for i in range(d):
        for j in range(d):
            expect_header.extend([f"R{i}_{j}_re", f"R{i}_{j}_im"])
    assert rows[0] == expect_header
    assert len(rows) - 1 == len(doc["points"])
    ext = decode_embedded_extension(ext_doc, load_operator(json.loads(op_path.read_text())))
    assert ext.exit_dim == 4
    lam = complex(float(rows[1][0]), float(rows[1][1]))
    r = compressed_resolvent(ext, lam)
    got = np.array([float(x) for x in rows[1][2:]]).reshape(d, d, 2)
    assert np.allclose(got[..., 0] + 1j * got[..., 1], r, atol=1e-12)

    res = run_cli("verify", str(op_path), str(ext_path), "--lambda0", "0,1")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["all_passed"] is True
    assert len(report["checks"]) == 9


@pytest.mark.parametrize("doubled", [False, True])
def test_chain_file_operators_are_leading_columns_of_final(tmp_path, doubled):
    # the chain file names ext.json by the SHA-256 of its bytes; B_0 is op.json's operator
    # (its double when doubled), each B_k is the leading columns of ext.json's extension,
    # and each step's parameter replayed from the chain file rebuilds that prefix
    op_path, ext_path, chain_path = (tmp_path / name for name in
                                     ("op.json", "ext.json", "chain.json"))
    assert cli.main(["gen", "--dim", "6", "--defect", "2", "--seed", "4",
                     "-o", str(op_path)]) == cli.EXIT_OK
    assert cli.main(["build-sa", str(op_path), "--z", "0,1", "--seed", "4",
                     "-o", str(ext_path), "--chain", str(chain_path)]
                    + (["--double"] if doubled else [])) == cli.EXIT_OK
    a = load_operator(json.loads(op_path.read_text()))
    chain = invertibility.build_invertible_selfadjoint(a, 1j, seed=4, double_first=doubled)
    doc, ext_bytes = json.loads(chain_path.read_text()), ext_path.read_bytes()
    assert doc["extension_sha256"] == hashlib.sha256(ext_bytes).hexdigest()
    ext_doc = json.loads(ext_bytes)
    final, z = decode_operator(ext_doc["extension"]), decode_complex(doc["z"])
    previous = invertibility.double(a) if doc["doubled"] else a
    assert len(doc["steps"]) == len(chain.steps) == (4 if doubled else 2)
    for k, step_doc in enumerate(doc["steps"]):
        width = previous.domain_dim + 1
        current = chain.operator(k)
        assert np.array_equal(final.domain.frame[:, :width], current.domain.frame)
        assert np.array_equal(final.action[:, :width], current.action)
        replayed = extend(previous, z, decode_parameter(step_doc["parameter"])).b
        assert graph_distance(replayed, current) <= 1e-12
        previous = current
    assert previous.domain_dim == final.domain_dim


def test_chain_file_digest_of_ext_json_on_stdout(tmp_path):
    op, chain = tmp_path / "op.json", tmp_path / "chain.json"
    write_worked_operator(op)
    res = subprocess.run([sys.executable, "-m", "symext.cli", "build-sa", str(op), "--z", "0,1",
                          "--chain", str(chain)], capture_output=True)
    assert res.returncode == 0 and json.loads(res.stdout)["kind"] == "embedded_extension"
    doc = json.loads(chain.read_text())
    assert doc["extension_sha256"] == hashlib.sha256(res.stdout).hexdigest()


def test_written_files_match_stdlib_encoding_and_old_csv_rows(tmp_path):
    """A d=12 doubled rung: JSON files are the stdlib's compact bytes, CSV rows the
    per-cell formula."""
    op, ext, chain, grid, res, ver = (tmp_path / name for name in (
        "op.json", "ext.json", "chain.json", "grid.csv", "res.json", "verify.json"))
    for argv in (["gen", "--dim", 12, "--defect", 3, "--seed", 3, "-o", op],
                 ["build-sa", op, "--z", "0,1", "--seed", 3, "--double", "-o", ext,
                  "--chain", chain],
                 ["resolvent", op, ext, "--lambda0", "0,1", "--csv", grid, "-o", res],
                 ["verify", op, ext, "--lambda0", "0,1", "--seed", 3, "-o", ver]):
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK
    for path in (op, ext, chain, res, ver):
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":")) + "\n", path.name

    d = 12
    with open(grid, newline="") as fh:
        header, *rows = fh.read().split("\r\n")[:-1]
    names = header.split(",")
    assert len(names) == 2 + 2 * d * d == len(set(names))
    assert names[2:4] == ["R0_0_re", "R0_0_im"] and names[-1] == "R11_11_im"
    decoded = decode_embedded_extension(json.loads(ext.read_text()),
                                        load_operator(json.loads(op.read_text())))
    lams = [complex(*p["lambda"]) for p in json.loads(res.read_text())["points"]
            if "skipped" not in p]
    assert len(rows) == len(lams) > 0
    for row, lam in zip(rows, lams):
        matrix = compressed_resolvent(decoded, lam)
        line = [repr(float(lam.real)), repr(float(lam.imag))]
        for i in range(d):
            for j in range(d):
                line.extend([repr(float(matrix[i, j].real)), repr(float(matrix[i, j].imag))])
        assert row == ",".join(line)


@pytest.mark.parametrize("d", [1, 11])
def test_resolvent_csv_bytes_are_csv_writer_bytes(tmp_path, d):
    # the writer joins repr'd cells itself; csv.writer would write the same bytes
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
               1.7976931348623157e308, 0.1, -2.5e-17]
    cells = np.resize(np.array(special), (3, 2 * d * d)).view(complex).reshape(3, d, d)
    lams = (complex(-0.0, 5e-324), complex(float("nan"), float("inf")), 0.3 + 0.9j)
    rows = list(zip(lams, cells))
    path = tmp_path / "grid.csv"
    cli._write_resolvent_csv(path, rows, d)

    expected = tmp_path / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_re", "lambda_im"] + [
            f"R{i}_{j}_{part}" for i in range(d) for j in range(d) for part in ("re", "im")])
        for lam, matrix in rows:
            flat = np.ascontiguousarray(matrix).view(np.float64).ravel().tolist()
            writer.writerow(map(repr, [lam.real, lam.imag, *flat]))
    assert path.read_bytes() == expected.read_bytes()


def test_verify_without_extension_skips(tmp_path):
    op_path = tmp_path / "op.json"
    write_worked_operator(op_path)
    res = run_cli("verify", str(op_path))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    skipped = [c["name"] for c in report["checks"] if c["skipped"]]
    assert skipped == ["constrained_space_inverse", "frak_b_inverse", "frak_f_inverse",
                       "resolvent_symmetry", "i_admissibility"]
    assert report["all_passed"] is True


def test_verify_and_resolvent_refuse_a_schema_1_extension_file(tmp_path, capsys):
    # the old layout stored a copy of the base, the embedding and exit_dim beside Atilde
    op_path, ext_path, out = tmp_path / "op.json", tmp_path / "ext.json", tmp_path / "out.json"
    a = write_worked_operator(op_path)
    assert cli.main(["build-sa", str(op_path), "--z", "0,1", "-o", str(ext_path)]) == 0
    doc = json.loads(ext_path.read_text(encoding="utf-8"))
    ext_path.write_text(json_dump({**doc, "schema": 1, "exit_dim": 0, "base": encode_operator(a),
                                   "embedding": encode_matrix(np.eye(2))}))
    for argv in (["verify", op_path, ext_path],
                 ["resolvent", op_path, ext_path, "--lambda0", "0,1"]):
        capsys.readouterr()
        assert cli.main([str(x) for x in argv] + ["-o", str(out)]) == cli.EXIT_IO == 1
        assert capsys.readouterr().err == "error: unsupported schema version 1\n"
        assert not out.exists()


def test_resolvent_custom_grid_and_spectrum_hit(tmp_path):
    op_path, ext_path = tmp_path / "op.json", tmp_path / "ext.json"
    write_worked_operator(op_path)
    # huge second eigenvalue: lam = 1 + 1e-8j trips the relative spectrum gate
    big = np.diag([1.0, 2e6]).astype(complex)
    ext_doc = {
        "schema": 2, "kind": "embedded_extension", "extension": {
            "ambient_dim": 2,
            "domain_frame": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            "action": [[[float(big[0, 0].real), 0.0], [0.0, 0.0]],
                       [[0.0, 0.0], [float(big[1, 1].real), 0.0]]],
        },
    }
    ext_path.write_text(json_dump(ext_doc))
    res = run_cli("resolvent", str(op_path), str(ext_path), "--lambda0", "0,1",
                  "--grid", "0.3,0.9;1,1e-8;0,0.5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert len(doc["points"]) == 3
    skipped = [p for p in doc["points"] if "skipped" in p]
    assert len(skipped) == 1 and "SpectrumHit" in skipped[0]["skipped"]
    assert doc["agree"] is True


@pytest.mark.parametrize("double", [False, True])
def test_resolvent_grid_point_in_the_other_half_plane(tmp_path, capsys, double):
    # F is sampled at lam bar for a point opposite lam0, and the Shtraus formula's
    # adjoint branch reads it there: both points are compared, with or without an
    # exit space, and R at lam bar is R at lam adjoint
    op, ext, out, grid = (tmp_path / name for name in ("op.json", "ext.json", "res.json",
                                                          "grid.csv"))
    assert cli.main(["gen", "--dim", "6", "--defect", "2", "--seed", "1", "-o", str(op)]) == 0
    assert cli.main(["build-sa", str(op), "--z", "0,1", "-o", str(ext)]
                    + ["--double"] * double) == cli.EXIT_OK
    assert cli.main(["resolvent", str(op), str(ext), "--lambda0", "0,1", "--grid",
                     "0.3,0.5;0.3,-0.5", "--csv", str(grid), "-o", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["agree"] is True and all("deviation" in p for p in doc["points"])
    with open(grid, newline="", encoding="utf-8") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    assert [row[:2] for row in rows] == [[0.3, 0.5], [0.3, -0.5]]
    upper, lower = (np.array(row[2:]).view(complex).reshape(6, 6) for row in rows)
    assert np.allclose(lower, upper.conj().T, rtol=0, atol=1e-12)
    # a point on the real axis is refused, as it always was
    capsys.readouterr()
    assert cli.main(["resolvent", str(op), str(ext), "--lambda0", "0,1", "--grid",
                     "0.3,0.5;0.3,0", "-o", str(tmp_path / "real.json")]) == cli.EXIT_IO
    assert "half-plane" in capsys.readouterr().err
    assert not (tmp_path / "real.json").exists()


def test_resolvent_bad_grid_point_is_a_usage_error(tmp_path, capsys):
    op_path, ext_path, out = tmp_path / "op.json", tmp_path / "ext.json", tmp_path / "out.json"
    write_worked_operator(op_path)
    assert cli.main(["build-sa", str(op_path), "--z", "0,1", "-o", str(ext_path)]) == cli.EXIT_OK
    run = ["resolvent", str(op_path), str(ext_path), "-o", str(out)]
    errors = []
    for option in (["--lambda0", "bad"], ["--lambda0", "0,1", "--grid", "1,2;bad"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(run + option)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err.splitlines()[-1])
    # the same usage error as a bad --lambda0, and nothing written
    assert errors[1] == errors[0].replace("--lambda0", "--grid")
    assert errors[1].endswith("argument --grid: expected two finite numbers 're,im', got 'bad'")
    assert not out.exists()


NON_FINITE = {
    "build-sa --z nan": ["build-sa", "OP", "--z", "nan,1"],
    "verify --lambda0 nan": ["verify", "OP", "EXT", "--lambda0", "nan,1"],
    "extend --z nan,1": ["extend", "OP", "--param", "PAR", "--z", "nan,1"],
    "extend --z 0,nan": ["extend", "OP", "--param", "PAR", "--z", "0,nan"],
    "check-invert --z nan,1": ["check-invert", "OP", "--param", "PAR", "--z", "nan,1"],
    "check-invert --z 0,nan": ["check-invert", "OP", "--param", "PAR", "--z", "0,nan"],
    "resolvent --grid nan": ["resolvent", "OP", "EXT", "--lambda0", "0,1", "--grid", "1,2;nan,1"],
    "verify --lambda0 inf": ["verify", "OP", "EXT", "--lambda0", "0,inf"],
}


@pytest.mark.parametrize("argv", NON_FINITE.values(), ids=NON_FINITE)
def test_non_finite_complex_argument_is_a_usage_error(tmp_path, capsys, argv):
    # a NaN part must not reach numpy: abs(z - nan) > tol is False, so the base-point
    # match of extend and check-invert would pass it
    files = {"OP": tmp_path / "op.json", "EXT": tmp_path / "ext.json", "PAR": tmp_path / "p.json"}
    a = write_worked_operator(files["OP"])
    write_parameter(files["PAR"], a, 0.5)
    assert cli.main(["build-sa", str(files["OP"]), "--z", "0,1", "-o", str(files["EXT"])]) == 0
    out = tmp_path / "out.json"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([str(files.get(x, x)) for x in argv] + ["-o", str(out)])
    assert exc.value.code == 2
    assert "expected two finite numbers 're,im'" in capsys.readouterr().err
    assert not out.exists()
    # a finite --z that is not the parameter's base point is still refused as before
    far = ["extend", files["OP"], "--param", files["PAR"], "--z", "5,1", "-o", out]
    assert cli.main([str(x) for x in far]) == cli.EXIT_IO == 1
    assert not out.exists()


MALFORMED = {
    "ambient_dim null": ("op", lambda doc: {**doc, "ambient_dim": None}),
    "ambient_dim not an int": ("op", lambda doc: {**doc, "ambient_dim": 2.5}),
    "number for a matrix": ("op", lambda doc: {**doc, "action": 5}),
    "numbers for pairs": ("op", lambda doc: {**doc, "action": [[1], [0]]}),
    "strings for a pair": ("op", lambda doc: {**doc, "action": [[["1", "0"]], [[0.0, 0.0]]]}),
    "list for a document": ("op", lambda doc: [doc]),
    "number for an operator": ("ext", lambda doc: {**doc, "extension": 5}),
}


def test_build_sa_refuses_a_boolean_pair(tmp_path, capsys):
    op, out = tmp_path / "op.json", tmp_path / "ext.json"
    write_worked_operator(op)
    doc = json.loads(op.read_text(encoding="utf-8"))
    doc["action"][0][0] = [True, False]
    op.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["build-sa", str(op), "--z", "0,1", "-o", str(out)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "[re, im]" in err
    assert not out.exists()


@pytest.mark.parametrize("which, change", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_file_is_one_error_line(tmp_path, capsys, which, change):
    paths = {"op": tmp_path / "op.json", "ext": tmp_path / "ext.json"}
    out = tmp_path / "out.json"
    write_worked_operator(paths["op"])
    assert cli.main(["build-sa", str(paths["op"]), "--z", "0,1", "--double",
                     "-o", str(paths["ext"])]) == cli.EXIT_OK
    doc = change(json.loads(paths[which].read_text(encoding="utf-8")))
    paths[which].write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["verify", str(paths["op"]), str(paths["ext"]), "-o", str(out)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


MISSING_KEY = {
    "ext.json without extension": ("verify", "ext", "extension", "embedded_extension"),
    "op.json without action": ("build-sa", "op", "action", "operator"),
    "op.json without domain_frame": ("verify", "op", "domain_frame", "operator"),
    "parameter without base_point": ("extend", "param", "base_point", "parameter"),
}


@pytest.mark.parametrize("command, which, key, kind", MISSING_KEY.values(), ids=MISSING_KEY)
def test_missing_key_is_named_in_one_error_line(tmp_path, capsys, command, which, key, kind):
    paths = {name: tmp_path / f"{name}.json" for name in ("op", "ext", "param")}
    out = tmp_path / "out.json"
    a = write_worked_operator(paths["op"])
    write_parameter(paths["param"], a, 0.5)
    assert cli.main(["build-sa", str(paths["op"]), "--z", "0,1", "--double",
                     "-o", str(paths["ext"])]) == cli.EXIT_OK
    doc = json.loads(paths[which].read_text(encoding="utf-8"))
    del doc[key]
    paths[which].write_text(json.dumps(doc), encoding="utf-8")
    argv = {"verify": ["verify", str(paths["op"]), str(paths["ext"])],
            "build-sa": ["build-sa", str(paths["op"]), "--z", "0,1", "--chain",
                         str(tmp_path / "chain.json")],
            "extend": ["extend", str(paths["op"]), "--param", str(paths["param"])]}[command]
    capsys.readouterr()
    assert cli.main([*argv, "-o", str(out)]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err == f"error: {kind} document has no {key!r} key\n"
    assert not out.exists() and not (tmp_path / "chain.json").exists()


NON_FINITE = {
    "NaN in op.json under verify": ("verify", "op", float("nan"), "operator"),
    "NaN in op.json under resolvent": ("resolvent", "op", float("nan"), "operator"),
    "NaN in op.json under build-sa": ("build-sa", "op", float("nan"), "operator"),
    "inf in ext.json under verify": ("verify", "ext", float("inf"), "embedded_extension"),
    "-inf in ext.json under resolvent": ("resolvent", "ext", -float("inf"),
                                         "embedded_extension"),
}


@pytest.mark.parametrize("command, which, value, kind", NON_FINITE.values(), ids=NON_FINITE)
def test_non_finite_matrix_entry_is_one_error_line(tmp_path, capfd, command, which, value,
                                                   kind):
    # json.load reads NaN and Infinity; the loader refuses them before LAPACK, which
    # writes to file descriptor 2 itself, so stderr is read at that level
    op, ext, out = (tmp_path / name for name in ("op.json", "ext.json", "out.json"))
    assert cli.main(["gen", "--dim", "6", "--defect", "2", "--seed", "1", "-o", str(op)]) == 0
    assert cli.main(["build-sa", str(op), "--z", "0,1", "-o", str(ext)]) == cli.EXIT_OK
    path = {"op": op, "ext": ext}[which]
    doc = json.loads(path.read_text(encoding="utf-8"))
    (doc["extension"] if which == "ext" else doc)["action"][0][0][0] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = {"verify": ["verify", op, ext],
            "resolvent": ["resolvent", op, ext, "--lambda0", "0,1"],
            "build-sa": ["build-sa", op, "--z", "0,1", "--chain", tmp_path / "chain.json"]}
    capfd.readouterr()
    assert cli.main([*map(str, argv[command]), "-o", str(out)]) == cli.EXIT_IO
    err = capfd.readouterr().err
    assert err == f"error: {kind} document has a non-finite entry in 'action'\n"
    assert not out.exists() and not (tmp_path / "chain.json").exists()


@pytest.mark.parametrize("command", ["verify", "build-sa"])
def test_an_overflowing_entry_is_one_error_line(tmp_path, capfd, command):
    # 1e308 is finite, so the loader takes it; the first product that overflows
    # raises, and the command exits 1 with one line, not with numpy's warning
    op, ext, out = (tmp_path / name for name in ("op.json", "ext.json", "out.json"))
    assert cli.main(["gen", "--dim", "6", "--defect", "2", "--seed", "1", "-o", str(op)]) == 0
    assert cli.main(["build-sa", str(op), "--z", "0,1", "-o", str(ext)]) == cli.EXIT_OK
    doc = json.loads(op.read_text(encoding="utf-8"))
    doc["action"][0][0][0] = 1e308
    op.write_text(json.dumps(doc), encoding="utf-8")
    argv = {"verify": ["verify", op, ext],
            "build-sa": ["build-sa", op, "--z", "0,1", "--chain", tmp_path / "chain.json"]}
    capfd.readouterr()
    assert cli.main([*map(str, argv[command]), "-o", str(out)]) == cli.EXIT_IO
    err = capfd.readouterr().err
    assert err.startswith("error: overflow encountered") and err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "chain.json").exists()


@pytest.mark.parametrize("command", ["extend", "check-invert"])
def test_non_finite_base_point_is_one_error_line(tmp_path, capfd, command):
    op, param, out = (tmp_path / name for name in ("op.json", "param.json", "out.json"))
    write_parameter(param, write_worked_operator(op), 0.5)
    doc = json.loads(param.read_text(encoding="utf-8"))
    doc["base_point"][0] = float("nan")
    param.write_text(json.dumps(doc), encoding="utf-8")
    capfd.readouterr()
    assert cli.main([command, str(op), "--param", str(param), "-o", str(out)]) == cli.EXIT_IO
    err = capfd.readouterr().err
    assert err == "error: parameter document has a non-finite entry in 'base_point'\n"
    assert not out.exists()


def test_resolvent_skips_an_expanding_sample(tmp_path, monkeypatch):
    # F of norm 1 + 5e-8 passes the sample guard but not the Shtraus formula's
    # expanding gate: each point is skipped with the typed error, exit code 0
    op_path, ext_path, out = (tmp_path / name for name in ("op.json", "ext.json", "res.json"))
    write_worked_operator(op_path)
    assert cli.main(["build-sa", str(op_path), "--z", "0,1", "--double",
                     "-o", str(ext_path)]) == cli.EXIT_OK

    def expanding(cls, ext, lambda0, lams):
        return cls.constant(ext.base, lambda0, np.array([[1.0 + 5e-8]], dtype=complex))
    monkeypatch.setattr(ParameterFunction, "from_extension", classmethod(expanding))
    assert cli.main(["resolvent", str(op_path), str(ext_path), "--lambda0", "0,1",
                     "-o", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["points"] and all("ExpandingParameter" in p["skipped"] for p in doc["points"])
    # no point was compared, so nothing agrees
    assert doc["max_deviation"] == 0.0 and doc["agree"] is False


def test_verify_and_resolvent_refuse_an_operator_that_the_extension_does_not_extend(
        tmp_path, capsys):
    # ext.json is built from the seed-1 operator; b.json, of the same shape, is not it
    op, other, ext, out = (tmp_path / name for name in ("a.json", "b.json", "ext.json", "out.json"))
    for seed, path in ((1, op), (2, other)):
        assert cli.main(["gen", "--dim", "6", "--defect", "2", "--seed", str(seed),
                         "-o", str(path)]) == cli.EXIT_OK
    assert cli.main(["build-sa", str(op), "--z", "0,1", "--double", "-o", str(ext)]) == 0
    for argv in (["verify", other, ext], ["resolvent", other, ext, "--lambda0", "0,1"]):
        capsys.readouterr()
        assert cli.main([str(a) for a in argv] + ["-o", str(out)]) == cli.EXIT_IO
        assert capsys.readouterr().err == (
            "error: extension does not extend the embedded base operator\n")
        assert not out.exists()
    # the operator it was built from passes the gate, and is the extension's base
    for argv in (["verify", op, ext], ["resolvent", op, ext, "--lambda0", "0,1"]):
        assert cli.main([str(a) for a in argv] + ["-o", str(out)]) == cli.EXIT_OK
        assert json.loads(out.read_text()).get("all_passed", True)
    a, extension = cli._load_pair(cli.build_parser().parse_args(["verify", str(op), str(ext)]))
    assert extension.base is a and extension.exit_dim == 6


def test_build_sa_formats_each_matrix_once_into_stdlib_bytes(tmp_path):
    # chain.json holds only what ext.json does not, so no matrix is written twice,
    # and each file, undoubled (e = 0) or doubled, is the stdlib's compact bytes
    op, ext, chain = tmp_path / "op.json", tmp_path / "ext.json", tmp_path / "chain.json"
    assert cli.main(["gen", "--dim", "12", "--defect", "3", "--seed", "3", "-o", str(op)]) == 0
    for doubled in (False, True):
        assert cli.main(["build-sa", str(op), "--z", "0,1", "-o", str(ext), "--chain", str(chain)]
                        + (["--double"] if doubled else [])) == 0
        texts = [p.read_text(encoding="utf-8") for p in (ext, chain)]
        ext_doc, chain_doc = map(json.loads, texts)
        assert texts == [json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
                         for doc in (ext_doc, chain_doc)]
        assert ext_doc["schema"] == 2 and set(ext_doc) == {
            "schema", "kind", "extension", "tolerances"}
        assert ext_doc["extension"]["ambient_dim"] == (24 if doubled else 12)
        assert chain_doc["schema"] == 3 and set(chain_doc) == {
            "schema", "kind", "z", "seed", "doubled", "steps", "tolerances", "extension_sha256"}
        assert len(chain_doc["steps"]) > 0


def test_tampered_extension_rejected_then_red(tmp_path):
    op_path, ext_path = tmp_path / "op.json", tmp_path / "ext.json"
    assert run_cli("gen", "--dim", "3", "--defect", "1", "--seed", "2",
                   "-o", str(op_path)).returncode == 0
    assert run_cli("build-sa", str(op_path), "--z", "0,1",
                   "-o", str(ext_path)).returncode == 0
    doc = json.loads(ext_path.read_text())
    doc["extension"]["action"][0][1][0] += 5e-4
    doc["extension"]["action"][1][0][0] += 5e-4
    ext_path.write_text(json_dump(doc))
    # at the default tolerance the corrupted file no longer loads
    res = run_cli("verify", str(op_path), str(ext_path))
    assert res.returncode == 1
    assert "error" in res.stderr
    # a loosened tolerance lets it load; the identity checks then go red
    res = run_cli("verify", str(op_path), str(ext_path), "--tol", "1e-3")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["all_passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed & {"frak_f_inverse", "i_admissibility", "resolvent_symmetry",
                     "frak_b_inverse", "constrained_space_inverse"}


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SUBCOMMANDS = {"gen", "extend", "check-invert", "build-sa", "resolvent", "verify"}


def assert_help_lists_subcommands(res):
    assert res.returncode == 0, res.stderr
    usage = res.stdout.split("\n\n")[0]
    assert usage.startswith("usage: symext")
    choices = re.search(r"\{([^}]*)\}", usage)
    assert choices is not None, usage
    assert set(choices.group(1).split(",")) == SUBCOMMANDS


def test_console_script_entry_point():
    """The declared `symext` script runs and lists every subcommand.

    The entry point is run the way pip's generated wrapper runs it, so the
    check holds from the source tree; an installed script on PATH is run too.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    entry = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["symext"]
    assert entry == "symext.cli:main"
    module, _, attr = entry.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    res = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                         capture_output=True, text=True)
    assert_help_lists_subcommands(res)

    installed = shutil.which("symext")
    if installed is not None:
        res = subprocess.run([installed, "--help"], capture_output=True, text=True)
        assert_help_lists_subcommands(res)


def test_main_builds_its_parser_once_and_defaults_do_not_leak(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda _fn=cli.build_parser: built.append(1) or _fn())

    def spec(*argv):
        out = tmp_path / "op.json"
        assert cli.main(["gen", *argv, "-o", str(out)]) == cli.EXIT_OK
        doc = json.loads(out.read_text())
        return {**doc["instance_spec"], **doc["tolerances"]}

    cli._parser.cache_clear()
    try:
        first = spec()
        assert spec("--dim", "5", "--defect", "2", "--no-dense-range", "--window", "1,3",
                    "--seed", "7", "--tol", "1e-8") == {
            "ambient_dim": 5, "defect": 2, "dense_range": False,
            "spectrum_window": [1.0, 3.0], "seed": 7, "rank_tol": 1e-8}
        assert spec() == first and (first["ambient_dim"], first["rank_tol"]) == (2, DEFAULT_TOL)
        # a handler rebound after the parser was built is the one that runs
        monkeypatch.setattr(cli, "cmd_gen", lambda args: 99)
        assert cli.main(["gen"]) == 99
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
