"""JSON schema round-trips, and json_dump as the stdlib's compact encoding."""

import json

import numpy as np
import pytest

from symext import cli
from symext.instances import InstanceSpec, gen_symmetric
from symext.invertibility import build_invertible_selfadjoint
from symext.neumann import ContractionParameter
from symext.operators import graph_distance, operator_from_matrix
from symext.resolvents import EmbeddedExtension
from symext.serialize import (chain_file, decode_complex, decode_embedded_extension,
                              decode_matrix, decode_operator, decode_parameter,
                              embedded_extension_file, encode_complex, encode_matrix,
                              encode_operator, json_dump, load_operator,
                              operator_file, parameter_file)

from conftest import random_instance, worked_parameter


def test_complex_roundtrip():
    for z in (0, 1.5, -2j, 0.3 - 0.7j):
        assert decode_complex(encode_complex(z)) == complex(z)
    assert decode_complex([1, np.float64(-0.5)]) == 1 - 0.5j


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(decode_matrix(encode_matrix(m)), m)
    empty = decode_matrix(encode_matrix(np.zeros((0, 0))))
    assert empty.shape == (0, 0)


def test_matrix_ragged_rejected():
    with pytest.raises(ValueError):
        decode_matrix([[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]])


@pytest.mark.parametrize("pair", [[True, False], [1.0, True], [1.0, 2.0, 3.0], [1.0], "ab",
                                  ["1", "0"], 5, None])
def test_a_leaf_that_is_not_two_numbers_is_refused(pair):
    # a JSON true is not the number 1, and a pair has exactly two entries
    with pytest.raises(ValueError, match=r"expected a \[re, im\] pair of numbers"):
        decode_complex(pair)
    with pytest.raises(ValueError, match=r"expected a \[re, im\] pair of numbers"):
        decode_matrix([[[1.0, 0.0], pair]])


def test_operator_roundtrip(worked_a):
    back = decode_operator(encode_operator(worked_a))
    assert graph_distance(back, worked_a) < 1e-12
    a, _, _ = random_instance(11)
    back = decode_operator(encode_operator(a))
    assert graph_distance(back, a) < 1e-12
    bad = encode_operator(a)
    bad["ambient_dim"] = a.ambient_dim + 1
    with pytest.raises(ValueError):
        decode_operator(bad)


@pytest.mark.parametrize("key", ["domain_frame", "action"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entry_is_refused_with_its_key(worked_a, key, value):
    doc = operator_file(worked_a)
    doc[key][1][0][1] = value
    with pytest.raises(ValueError, match=f"operator document has a non-finite entry in '{key}'"):
        load_operator(json.loads(json.dumps(doc)))
    atilde = operator_from_matrix(np.diag([1.0, 4.0]).astype(complex))
    ext = embedded_extension_file(EmbeddedExtension(worked_a, atilde))
    ext["extension"][key][1][0][1] = value
    with pytest.raises(ValueError, match="embedded_extension document has a non-finite"):
        decode_embedded_extension(json.loads(json.dumps(ext)), worked_a)


def test_operator_file_kind_and_schema(worked_a):
    doc = operator_file(worked_a, extra={"note": "worked"})
    assert doc["kind"] == "operator" and doc["schema"] == 1 and doc["note"] == "worked"
    assert graph_distance(load_operator(doc), worked_a) < 1e-12
    with pytest.raises(ValueError):
        load_operator({**doc, "kind": "parameter"})
    with pytest.raises(ValueError):
        load_operator({**doc, "schema": 2})


def test_parameter_roundtrip(worked_dd):
    p = worked_parameter(worked_dd, 0.5j)
    doc = parameter_file(p)
    assert "parameter_kind" not in doc
    back = decode_parameter(doc)
    assert back.z == p.z
    assert graph_distance(back.t, p.t) < 1e-12
    # a file written with the old "parameter_kind" label loads as before
    old = decode_parameter({**doc, "parameter_kind": "isometric"})
    assert old.z == p.z and np.array_equal(old.t.domain.frame, back.t.domain.frame)
    assert np.array_equal(old.t.action, back.t.action)
    empty = ContractionParameter.empty(1j, 2)
    back = decode_parameter(parameter_file(empty))
    assert back.t.domain.dim == 0 and back.t.ambient_dim == 2


def test_embedded_extension_roundtrip(worked_a):
    chain = build_invertible_selfadjoint(worked_a, 1j, seed=0, double_first=True)
    ext = EmbeddedExtension.from_chain(chain)
    doc = embedded_extension_file(ext)
    assert doc["schema"] == 2 and set(doc) == {"schema", "kind", "extension"}
    back = decode_embedded_extension(doc, worked_a)
    assert back.base is worked_a and back.exit_dim == ext.exit_dim == 2
    assert np.allclose(back.atilde_matrix(), ext.atilde_matrix(), atol=1e-14)
    with pytest.raises(ValueError):
        decode_embedded_extension(operator_file(worked_a), worked_a)
    with pytest.raises(ValueError, match="unsupported schema version 1"):
        decode_embedded_extension({**doc, "schema": 1}, worked_a)


@pytest.mark.parametrize("doubled", [False, True])
def test_build_sa_file_round_trips_byte_for_byte(tmp_path, doubled):
    op, ext = tmp_path / "op.json", tmp_path / "ext.json"
    assert cli.main(["gen", "--dim", "6", "--defect", "2", "--seed", "1", "-o", str(op)]) == 0
    assert cli.main(["build-sa", str(op), "--z", "0,1", "-o", str(ext)]
                    + (["--double"] if doubled else [])) == 0
    text = ext.read_text(encoding="utf-8")
    doc = json.loads(text)
    back = decode_embedded_extension(doc, load_operator(json.loads(op.read_text())))
    assert back.exit_dim == (6 if doubled else 0)
    assert json_dump(embedded_extension_file(back, {"tolerances": doc["tolerances"]})) == text


def test_chain_file_structure(worked_a):
    for doubled in (False, True):
        chain = build_invertible_selfadjoint(worked_a, 1j, seed=0, double_first=doubled)
        doc = chain_file(chain, "0" * 64)
        assert doc["kind"] == "extension_chain" and doc["schema"] == 3
        assert set(doc) == {"schema", "kind", "z", "seed", "doubled", "steps",
                            "extension_sha256"}
        assert doc["extension_sha256"] == "0" * 64 and doc["doubled"] is doubled
        assert decode_complex(doc["z"]) == chain.z and doc["seed"] == chain.seed
        assert len(doc["steps"]) == len(chain.steps)
        for step_doc, step in zip(doc["steps"], chain.steps):
            assert set(step_doc) == {"parameter", "defect_numbers"}
            assert step_doc["defect_numbers"] == list(step.defect_numbers)
            assert step_doc["parameter"]["kind"] == "parameter"
        # the benchmark counts a chain file's steps by this key in its text
        assert json_dump(doc).count('"defect_numbers"') == len(chain.steps)


def test_json_dump_canonical():
    one = json_dump({"b": 1, "a": [2.0, -0.5]})
    two = json_dump({"a": [2.0, -0.5], "b": 1})
    assert one == two == '{"a":[2.0,-0.5],"b":1}\n'
    assert json.loads(one) == {"a": [2.0, -0.5], "b": 1}


def test_deep_roundtrip_generated():
    spec = InstanceSpec(ambient_dim=6, defect=2, seed=5)
    a = gen_symmetric(spec)
    text = json_dump(operator_file(a))
    back = load_operator(json.loads(text))
    assert graph_distance(back, a) < 1e-12
    assert json_dump(operator_file(back)) == text


def stdlib_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("doc", [
    {"nan": float("nan"), "inf": [float("inf"), float("-inf")], "zero": [-0.0, 0.0]},
    {"m": [[[np.float64(1.5), 2.0]]], "n": [[[1.0, 2.0]]]},
    {"k": {2: [1.0], 1: "é"}, "b": [True, None, 3]},
], ids=["non-finite and signed zero", "np.float64 leaf", "int keys"])
def test_json_dump_is_the_stdlib_compact_encoding(doc):
    assert json_dump(doc) == stdlib_dump(doc)


def test_encode_matrix_matches_elementwise_formula():
    def old_encode_matrix(m):
        m = np.asarray(m, dtype=complex)
        return [[[complex(v).real, complex(v).imag] for v in row] for row in m]

    rng = np.random.default_rng(7)
    full = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    full[0, 0] = complex(-0.0, 0.0)
    cases = [full, full.T, full[::2, 1:], rng.standard_normal((3, 4)),
             rng.integers(-5, 5, (2, 3)), np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((3, 0))]
    for m in cases:
        new, old = encode_matrix(m), old_encode_matrix(m)
        assert new == old and type(new) is list
        assert all(type(row) is list for row in new)
        assert stdlib_dump(new) == stdlib_dump(old)
    assert str(encode_matrix(full)[0][0]) == "[-0.0, 0.0]"
