"""The fixed thresholds live in one record, ``symext.subspaces.TOL``.

No module writes a threshold as a literal of its own, and every report that
states a threshold reads it from the record, so what a report says is what
was applied.
"""

import ast
import dataclasses
import json
import re
import tokenize
from pathlib import Path

import numpy as np

import symext as sx
from symext import cli, resolvents, serialize
from symext.subspaces import DEFAULT_TOL, TOL

SRC = Path(sx.__file__).parent


def tolerance_block_lines():
    """Lines of ``DEFAULT_TOL`` and of the ``Tolerances`` class in subspaces.py."""
    tree = ast.parse((SRC / "subspaces.py").read_text(encoding="utf-8"))
    lines = set()
    for node in tree.body:
        if (isinstance(node, ast.ClassDef) and node.name == "Tolerances") or (
                isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["DEFAULT_TOL"]):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def test_no_scientific_literal_outside_the_tolerance_block():
    block = tolerance_block_lines()
    assert block
    stray = []
    for path in sorted(SRC.glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type != tokenize.NUMBER or not re.fullmatch(
                        r"[0-9_.]+[eE][+-]?[0-9_]+[jJ]?", tok.string):
                    continue
                if path.name == "subspaces.py" and tok.start[0] in block:
                    continue
                stray.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert stray == []


def _hidden_threshold_calls(tree):
    """Calls to ``np.allclose``/``np.isclose`` and 2-norms ``np.linalg.norm(x, 2)``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        if name in ("np.allclose", "np.isclose", "numpy.allclose", "numpy.isclose"):
            yield node
        elif name in ("np.linalg.norm", "numpy.linalg.norm"):
            order = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
            if any(isinstance(o, ast.Constant) and o.value == 2 for o in order):
                yield node


def test_no_hidden_threshold_or_norm_wrapper():
    # allclose and isclose carry a default rtol that no record names; the
    # spectral norm is subspaces.opnorm, one SVD without numpy's norm wrapper
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in _hidden_threshold_calls(tree)]
    assert found == []
    # the scan sees each form it forbids
    probe = ast.parse("np.allclose(a, b); np.isclose(a, b); np.linalg.norm(m, 2)\n"
                      "np.linalg.norm(m, ord=2); np.linalg.norm(v); np.linalg.norm(m, 'fro')")
    assert len(list(_hidden_threshold_calls(probe))) == 4


# a full SVD decides a rank only through rank_split; opnorm wants the top value
# and Subspace.complement the full left factor, where no rank is decided
SVD_SITES = {"rank_split", "opnorm", "Subspace.complement"}


def _scoped(tree, match):
    """``(enclosing qualified name, node)`` for each node that ``match`` accepts."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                yield ".".join(scope), child
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            yield from walk(child, scope + [child.name] if named else scope)
    yield from walk(tree, [])


def _svd_calls(tree):
    """``(enclosing qualified name, node)`` for each call to ``np.linalg.svd``."""
    return _scoped(tree, lambda node: isinstance(node, ast.Call) and ast.unparse(node.func) in (
        "np.linalg.svd", "numpy.linalg.svd"))


def test_svd_only_in_the_rank_primitive():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}: {scope}" for scope, node in _svd_calls(tree)
                  if path.name != "subspaces.py" or scope not in SVD_SITES]
    assert found == []
    probe = ast.parse("np.linalg.svd(m)\n"
                      "class Subspace:\n"
                      "    def intersect(self): return np.linalg.svd(m)\n"
                      "    def complement(self): return numpy.linalg.svd(m)\n"
                      "def rank_split(m): return np.linalg.svd(m, compute_uv=False)\n"
                      "def opnorm(m): return np.linalg.norm(m)")
    assert [scope for scope, _ in _svd_calls(probe)] == [
        "", "Subspace.intersect", "Subspace.complement", "rank_split"]


def _opnorm_comparisons(tree):
    """``(enclosing qualified name, node)`` for each ``opnorm(...)`` call that is an
    operand of ``<``, ``<=``, ``>`` or ``>=``."""
    def gates(node):
        if not isinstance(node, ast.Compare):
            return []
        operands = [node.left, *node.comparators]
        return [x for i, op in enumerate(node.ops)
                if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                for x in operands[i:i + 2]
                if isinstance(x, ast.Call) and ast.unparse(x.func).split(".")[-1] == "opnorm"]
    return ((scope, call) for scope, node in _scoped(tree, gates) for call in gates(node))


def test_norm_gates_only_through_opnorm_le():
    # a spectral norm compared with a bound is a gate, and subspaces.opnorm_le
    # decides it, from ||m||_F where that settles it; values that are
    # reported (checks, deviations, slacks) call opnorm outside a comparison
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}: {scope}"
                  for scope, node in _opnorm_comparisons(tree)
                  if (path.name, scope) != ("subspaces.py", "_opnorm_le")]
    assert found == []
    probe = ast.parse("opnorm(m) <= b; b > sx.opnorm(m); 0 < opnorm(m) < b\n"
                      "opnorm(m) == b; x = opnorm(m); b <= 2 * opnorm(m); opnorm_le(m, b)\n"
                      "def _opnorm_le(m, b): return opnorm(m) <= b")
    assert [scope for scope, _ in _opnorm_comparisons(probe)] == [
        "", "", "", "", "_opnorm_le"]


def _memo_uses(tree):
    """``(enclosing qualified name, node)`` for each attribute or string named ``_memo``."""
    return _scoped(tree, lambda node: (isinstance(node, ast.Attribute) and node.attr == "_memo")
                   or (isinstance(node, ast.Constant) and node.value == "_memo"))


def test_memo_only_in_derived():
    # an operator's memo is read and written by operators.derived alone, so
    # every kept fact goes through its one rule
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}: {scope}" for scope, node in _memo_uses(tree)
                  if (path.name, scope) != ("operators.py", "derived")]
    assert found == []
    probe = ast.parse("a._memo\n"
                      "class DomainOperator:\n"
                      "    def _memo(self): return {}\n"
                      "def derived(a): return a._memo\n"
                      "def seed(a): vars(a)['_memo']; getattr(a, '_memo')")
    assert [scope for scope, _ in _memo_uses(probe)] == ["", "derived", "seed", "seed"]


# the spectral sampler and the Shtraus formula are checked against the paper-level
# constructions, so they never call them
ENGINE = ("ParameterFunction.from_extension", "_spectral_samples", "_sample_from",
          "compressed_resolvent", "shtraus_resolvent", "_parameter_stage", "_lambda_stage")
ORACLES = {"script_l", "frak_b", "frak_f", "_frak_b_from", "_frak_f_from"}


def _engine_oracle_calls(tree):
    """``(enclosing qualified name, node)`` for each call to an oracle inside ``ENGINE``."""
    return ((scope, node) for scope, node in _scoped(tree, lambda node: isinstance(
        node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ORACLES)
        if any(scope == name or scope.startswith(name + ".") for name in ENGINE))


def test_engine_calls_no_oracle():
    tree = ast.parse((SRC / "resolvents.py").read_text(encoding="utf-8"))
    defined = {scope + "." + node.name if scope else node.name for scope, node in _scoped(
        tree, lambda node: isinstance(node, ast.FunctionDef))}
    assert set(ENGINE) <= defined
    assert [f"{node.lineno}: {scope}" for scope, node in _engine_oracle_calls(tree)] == []
    probe = ast.parse("def shtraus_resolvent():\n"
                      "    def stage(): return frak_f(e)\n"
                      "class ParameterFunction:\n"
                      "    def from_extension(c): return resolvents._frak_f_from(b)\n"
                      "def _spectral_samples_of(e): return script_l(e)\n"
                      "def frak_f(e): return frak_b(e)")
    assert [scope for scope, _ in _engine_oracle_calls(probe)] == [
        "shtraus_resolvent.stage", "ParameterFunction.from_extension"]


def _tol_reads(tree):
    """Names of the ``TOL.<name>`` attributes that a module reads."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "TOL"}


def _readme_tolerance_rows():
    """``(field, value)`` of each row of README's table of the record."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| field | value | what it gates |", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", table, flags=re.MULTILINE)


def test_every_tolerance_is_read_and_documented_once():
    # an orphaned field, or a README row that names no field or states another
    # value, fails here
    fields = [f.name for f in dataclasses.fields(TOL)]
    read = set().union(*(_tol_reads(ast.parse(path.read_text(encoding="utf-8")))
                         for path in SRC.glob("*.py")))
    assert [name for name in fields if name not in read] == []
    rows = _readme_tolerance_rows()
    assert sorted(name for name, _ in rows) == sorted(fields)
    assert [name for name, value in rows if float(value) != getattr(TOL, name)] == []
    assert _tol_reads(ast.parse("TOL.limit; tol.kernel; TOL.kernel(x); a.TOL.shape")) == {
        "limit", "kernel"}


def _ambient_dim_keywords(tree):
    """Calls that pass ``ambient_dim=``, other than to ``InstanceSpec``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] != "InstanceSpec"
                and any(k.arg == "ambient_dim" for k in node.keywords)):
            yield node


def test_ambient_dim_is_read_off_the_frame():
    # d is the row count of a frame: no type stores a copy of it, and no call passes one
    fields = [tuple(f.name for f in dataclasses.fields(cls))
              for cls in (sx.Subspace, sx.DomainOperator, sx.LinearRelation)]
    assert fields == [("frame", "tol"), ("domain", "action"), ("graph",)]
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in _ambient_dim_keywords(tree)]
    assert found == []
    probe = ast.parse("orthonormalize(m, ambient_dim=d); sx.Subspace(frame=f, ambient_dim=d)\n"
                      "InstanceSpec(ambient_dim=d); sx.InstanceSpec(ambient_dim=d, defect=n)\n"
                      "Subspace(f, tol); g(ambient_dim); {'ambient_dim': d}")
    assert len(list(_ambient_dim_keywords(probe))) == 2


def _literal_scaled_tolerances(tree):
    """Products of a number literal and an expression that names a tolerance."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            continue
        for literal, other in ((node.left, node.right), (node.right, node.left)):
            if (isinstance(literal, ast.Constant) and type(literal.value) in (int, float)
                    and "tol" in ast.unparse(other).lower()):
                yield node
                break


def test_no_literal_scales_a_tolerance():
    # a factor applied to a tolerance is itself a threshold, and a record field
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                  for node in _literal_scaled_tolerances(tree)]
    assert found == []
    probe = ast.parse("10 * a.tol * scale; TOL.check_cayley * 10; 10.0 * self.atilde.tol\n"
                      "max(self.tol, TOL.frame_floor) * 10; 100 * tol; TOL.x * a.tol; 2 * r")
    assert len(list(_literal_scaled_tolerances(probe))) == 5


def _pipeline(tmp_path):
    """A small gen -> build-sa run; returns the operator and extension paths."""
    op, ext = tmp_path / "op.json", tmp_path / "ext.json"
    assert cli.main(["gen", "--dim", "4", "--defect", "1", "--seed", "3", "-o", str(op)]) == 0
    assert cli.main(["build-sa", str(op), "--z", "0,1", "--double", "-o", str(ext)]) == 0
    return op, ext


def _report(tmp_path, name, argv):
    out = tmp_path / f"{name}.json"
    code = cli.main([*argv, "-o", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_cli_reports_state_the_record(tmp_path):
    op, ext = _pipeline(tmp_path)
    _, doc = _report(tmp_path, "res", ["resolvent", str(op), str(ext), "--lambda0", "0,1"])
    assert doc["tolerances"] == {"rank_tol": DEFAULT_TOL,
                                 "agreement_tol": TOL.resolvent_agreement}
    _, doc = _report(tmp_path, "ver", ["verify", str(op), str(ext)])
    assert doc["tolerances"] == {"rank_tol": DEFAULT_TOL, "cayley_tol": TOL.check_cayley,
                                 "resolvent_tol": TOL.check_resolvent,
                                 "roundtrip_tol": TOL.check_roundtrip}

    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=4, defect=1, seed=3))
    dd = sx.defect_data(a, 1j)
    par = tmp_path / "p.json"
    par.write_text(serialize.json_dump(serialize.parameter_file(
        sx.ContractionParameter.from_matrix(dd, np.array([[0.5]])))))
    for tol in (DEFAULT_TOL, 1e-8):
        _, doc = _report(tmp_path, "inv", ["check-invert", str(op), "--param", str(par),
                                           "--tol", repr(tol)])
        assert doc["tolerances"]["borderline_band"] == [
            tol / TOL.borderline_factor, tol * TOL.borderline_factor]


def test_resolvent_agreement_reported_is_applied(tmp_path, monkeypatch):
    op, ext = _pipeline(tmp_path)
    _, doc = _report(tmp_path, "res", ["resolvent", str(op), str(ext), "--lambda0", "0,1"])
    assert doc["agree"] and doc["max_deviation"] > 0
    # a record whose agreement bound sits below the deviation flips report and verdict together
    strict = dataclasses.replace(TOL, resolvent_agreement=doc["max_deviation"] / 2)
    monkeypatch.setattr(cli, "TOL", strict)
    _, doc = _report(tmp_path, "res2", ["resolvent", str(op), str(ext), "--lambda0", "0,1"])
    assert doc["tolerances"]["agreement_tol"] == strict.resolvent_agreement
    assert doc["agree"] is False


def test_i_admissibility_verdict_states_the_record():
    a = sx.gen_symmetric(sx.InstanceSpec(ambient_dim=6, defect=1, seed=2))
    ext = resolvents.EmbeddedExtension.from_chain(sx.build_invertible_selfadjoint(a, 1j))
    sector = sx.SectorSpec.default_for(1j)
    points = [lam for pts in sector.sample_points().values() for lam in pts]
    f = sx.ParameterFunction.from_extension(ext, 1j, points)
    verdict = sx.i_admissibility_test(a, 1j, f, sector)
    assert verdict.tolerances == {"rate_bound": TOL.rate_bound, "limit_tol": TOL.limit,
                                  "kernel_tol": TOL.kernel}
