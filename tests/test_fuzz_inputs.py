"""Property: one mutation of a valid input file never ends the CLI in a traceback.

A valid d = 6 ``op.json``, a parameter file over it and a doubled ``ext.json``
are mutated once each example: a key deleted, a leaf replaced by a value of an
awkward class, a list truncated, or ``schema`` or ``kind`` changed. Each
subcommand that reads the file then runs in-process. It must exit with a code
the ``cli`` docstring documents; on exit 1 it writes exactly one line to
stderr, read at file descriptor 2 as LAPACK writes there itself, and no
output file.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from symext import cli
from symext.cayley import defect_data
from symext.neumann import ContractionParameter
from symext.serialize import json_dump, load_operator, parameter_file

DOCUMENTED = {cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_NOT_ADMISSIBLE, cli.EXIT_DISAGREEMENT,
              cli.EXIT_NOT_EXTENSION, cli.EXIT_INFEASIBLE}  # 2 is argparse's, on bad argv
LEAVES = (float("nan"), float("inf"), -float("inf"), 1e308, 0, 1e-300, "x", None, [], {}, True)
HEADERS = (("schema", 0), ("schema", 99), ("kind", "parameter"), ("kind", "operator"),
           ("kind", "embedded_extension"))
READERS = {"op": ("verify", "resolvent", "build-sa", "extend", "check-invert"),
           "param": ("extend", "check-invert"),
           "ext": ("verify", "resolvent")}


@pytest.fixture(scope="module")
def valid_docs(tmp_path_factory):
    """The three valid documents: a d = 6 operator, a strict contraction over it at
    z = i, and the doubled extension ``build-sa`` builds for it."""
    root = tmp_path_factory.mktemp("valid")
    op, ext = root / "op.json", root / "ext.json"
    assert cli.main(["gen", "--dim", "6", "--defect", "2", "--seed", "1", "-o", str(op)]) == 0
    assert cli.main(["build-sa", str(op), "--z", "0,1", "--double", "-o", str(ext)]) == 0
    a = load_operator(json.loads(op.read_text(encoding="utf-8")))
    param = ContractionParameter.from_matrix(defect_data(a, 1j), 0.5 * np.eye(2))
    return {"op": json.loads(op.read_text(encoding="utf-8")),
            "param": json.loads(json_dump(parameter_file(param))),
            "ext": json.loads(ext.read_text(encoding="utf-8"))}


def nodes(doc, path=()):
    """``(path, value)`` of every node below ``doc``, containers first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def parent_of(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutate(doc, data):
    """Apply one drawn mutation to ``doc`` in place."""
    everything = list(nodes(doc))
    kind = data.draw(st.sampled_from(("delete", "replace", "truncate", "header")))
    if kind == "header":
        key, value = data.draw(st.sampled_from(HEADERS))
        doc[key] = value
        return
    if kind == "delete":
        paths = [path for path, _ in everything if isinstance(path[-1], str)]
    elif kind == "replace":
        paths = [path for path, value in everything if not isinstance(value, (dict, list))]
    else:
        paths = [path for path, value in everything if isinstance(value, list) and value]
    path = data.draw(st.sampled_from(paths))
    parent = parent_of(doc, path)
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "replace":
        parent[path[-1]] = data.draw(st.sampled_from(LEAVES))
    else:
        parent[path[-1]].pop()


@settings(max_examples=80, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_input_file_exits_with_a_documented_code(valid_docs, tmp_path, capfd, data):
    which = data.draw(st.sampled_from(sorted(READERS)))
    docs = copy.deepcopy(valid_docs)
    mutate(docs[which], data)
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    out, chain = tmp_path / "out.json", tmp_path / "chain.json"
    for path in (out, chain):
        path.unlink(missing_ok=True)
    op, ext, param = (str(paths[name]) for name in ("op", "ext", "param"))
    command = data.draw(st.sampled_from(READERS[which]))
    argv = {"verify": ["verify", op, ext],
            "resolvent": ["resolvent", op, ext, "--lambda0", "0,1"],
            "build-sa": ["build-sa", op, "--z", "0,1", "--chain", str(chain)],
            "extend": ["extend", op, "--param", param],
            "check-invert": ["check-invert", op, "--param", param]}[command]
    capfd.readouterr()
    code = cli.main([*argv, "-o", str(out)])
    err = capfd.readouterr().err
    event(f"{which} under {command}: exit {code}")  # --hypothesis-show-statistics
    assert code in DOCUMENTED, (command, code, err)
    assert "Traceback" not in err
    if code == cli.EXIT_IO:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert not out.exists() and not chain.exists()
