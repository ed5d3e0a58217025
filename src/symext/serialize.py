"""JSON encoding of the toolkit's value types (schema version 1; extensions 2; chains 3).

Complex scalars are [re, im] pairs; matrices are row-major nested lists with
[re, im] leaves. ``json_dump`` writes the standard library's compact encoding
with sorted keys and a trailing newline, so the same objects always produce
the same bytes; ``python -m json.tool`` lays a file out for reading.
"""

import json

import numpy as np

from .operators import DomainOperator
from .resolvents import EmbeddedExtension
from .subspaces import DEFAULT_TOL, Subspace

SCHEMA_VERSION = 1
EXTENSION_SCHEMA_VERSION = 2  # Atilde alone; its base is the operator file
CHAIN_SCHEMA_VERSION = 3  # steps hold parameters; B_k is a prefix of ext.json's "extension"


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(data) -> complex:
    try:
        re, im = data
        if bool not in (type(re), type(im)):  # JSON true is not the number 1
            return complex(re, im)
    except (TypeError, ValueError):  # not a pair, or not numbers
        pass
    raise ValueError(f"expected a [re, im] pair of numbers, got {data!r:.40}")


def encode_matrix(m) -> list:
    m = np.ascontiguousarray(m, dtype=complex)
    rows, cols = m.shape
    return m.view(np.float64).reshape(rows, cols, 2).tolist()


def decode_matrix(data) -> np.ndarray:
    try:
        rows = [[decode_complex(v) for v in row] for row in data]
    except TypeError as exc:
        raise ValueError("a matrix must be a list of rows of [re, im] pairs") from exc
    if not rows:
        return np.zeros((0, 0), dtype=complex)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    return np.array(rows, dtype=complex).reshape(len(rows), width)


def encode_operator(a: DomainOperator) -> dict:
    return {
        "ambient_dim": a.ambient_dim,
        "domain_frame": encode_matrix(a.domain.frame),
        "action": encode_matrix(a.action),
    }


def decode_operator(data, tol=DEFAULT_TOL, kind=None) -> DomainOperator:
    """The operator ``data`` encodes; errors name ``kind``, by default data's own kind."""
    if not isinstance(data, dict) or type(data.get("ambient_dim")) is not int:
        raise ValueError("an operator must be an object with an integer ambient_dim")
    d, kind = data["ambient_dim"], kind or data.get("kind", "operator")
    frame, action = (_finite_matrix(data, key, kind) for key in ("domain_frame", "action"))
    if frame.shape[0] != d or action.shape[0] != d:
        raise ValueError("matrix rows do not match the ambient dimension")
    return DomainOperator(Subspace(frame, tol), action)


def operator_file(a: DomainOperator, extra: dict | None = None) -> dict:
    return {"schema": SCHEMA_VERSION, "kind": "operator", **encode_operator(a), **(extra or {})}


def parameter_file(parameter) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "parameter",
        "base_point": encode_complex(parameter.z),
        **encode_operator(parameter.t),
    }


def decode_parameter(data, tol=DEFAULT_TOL):
    from .neumann import ContractionParameter
    _expect_kind(data, "parameter")
    t = decode_operator(data, tol)
    z = decode_complex(_field(data, "base_point"))
    if not np.isfinite(z):
        raise ValueError("parameter document has a non-finite entry in 'base_point'")
    return ContractionParameter(z, t)


def embedded_extension_file(ext: EmbeddedExtension, extra: dict | None = None) -> dict:
    return {
        "schema": EXTENSION_SCHEMA_VERSION,
        "kind": "embedded_extension",
        "extension": encode_operator(ext.atilde),
        **(extra or {}),
    }


def decode_embedded_extension(data, base: DomainOperator, tol=DEFAULT_TOL) -> EmbeddedExtension:
    """The stored Atilde over ``base``; EmbeddedExtension's gates decide that it extends it."""
    _expect_kind(data, "embedded_extension", EXTENSION_SCHEMA_VERSION)
    atilde = decode_operator(_field(data, "extension"), tol, kind="embedded_extension")
    return EmbeddedExtension(base, atilde)


def chain_file(chain, extension_sha256: str) -> dict:
    """The chain's steps. B_0 is the operator file's operator, or A (+) (-A) where
    ``doubled``; the final operator is in the ext.json whose bytes have the
    SHA-256 hex digest ``extension_sha256``."""
    return {
        "schema": CHAIN_SCHEMA_VERSION,
        "kind": "extension_chain",
        "z": encode_complex(chain.z),
        "seed": chain.seed,
        "doubled": chain.doubled,
        "extension_sha256": extension_sha256,
        "steps": [{"parameter": parameter_file(step.parameter),
                   "defect_numbers": list(step.defect_numbers)} for step in chain.steps],
    }


def _field(data, key, kind=None):
    """``data[key]``, or a ValueError that names the key and the kind of document lacking it."""
    if key not in data:
        raise ValueError(f"{kind or data.get('kind', 'operator')} document has no {key!r} key")
    return data[key]


def _finite_matrix(data, key, kind) -> np.ndarray:
    """``decode_matrix(data[key])``, refused with the key named if an entry is NaN or infinite
    (``json.load`` reads ``NaN`` and ``Infinity``), before any factorization meets it."""
    m = decode_matrix(_field(data, key, kind))
    if not np.isfinite(m).all():
        raise ValueError(f"{kind} document has a non-finite entry in {key!r}")
    return m


def _expect_kind(data, kind, schema=SCHEMA_VERSION):
    if not isinstance(data, dict):
        raise ValueError(f"expected a {kind} document, found a JSON {type(data).__name__}")
    if data.get("schema") != schema:
        raise ValueError(f"unsupported schema version {data.get('schema')!r}")
    if data.get("kind") != kind:
        raise ValueError(f"expected a {kind} document, found {data.get('kind')!r}")


def load_operator(data, tol=DEFAULT_TOL) -> DomainOperator:
    _expect_kind(data, "operator")
    return decode_operator(data, tol)


def json_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
