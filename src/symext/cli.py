"""Command-line scenario runner.

Exit codes: 0 success, 1 file or schema problems, 2 usage error (argparse;
``--tol`` must be a finite number in (0, 1), ``--window`` and each complex value
two finite numbers), 3 parameter rejected as not admissible (a unit witness is
printed to stderr as JSON), 4 the three invertibility tests disagree and no margin
lies in the borderline band (tol/10, 10*tol) around the rank cut ``--tol``,
5 a built operator fails its final extension gate (NotAnExtension;
near-singular bases), 6 infeasible instance parameters.
"""

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import checks, serialize
from .errors import NotAdmissible, NotAnExtension, SpecInfeasible, SymextError
from .instances import InstanceSpec, gen_symmetric, truncated_shift
from .invertibility import build_invertible_selfadjoint, check_invertibility
from .neumann import extend
from .resolvents import (EmbeddedExtension, ParameterFunction,
                         compressed_resolvent, default_lambda_grid,
                         shtraus_resolvent)
from .subspaces import DEFAULT_TOL, TOL, opnorm

EXIT_OK = 0
EXIT_IO = 1
EXIT_NOT_ADMISSIBLE = 3
EXIT_DISAGREEMENT = 4
EXIT_NOT_EXTENSION = 5
EXIT_INFEASIBLE = 6  # not 2: argparse exits 2 on every usage error


def _finite_pair(text: str, form: str) -> tuple:
    try:
        a, b = (float(p) for p in text.split(","))
        if math.isfinite(a) and math.isfinite(b):
            return a, b
    except ValueError:  # not two numbers
        pass
    raise argparse.ArgumentTypeError(f"expected two finite numbers {form!r}, got {text!r}")


def _parse_complex(text: str) -> complex:
    return complex(*_finite_pair(text, "re,im"))


def _parse_grid(text: str) -> tuple:
    return tuple(_parse_complex(p) for p in text.split(";"))


def _parse_tol(text: str) -> float:
    tol = float(text)
    if not 0 < tol < 1:  # NaN fails too
        raise argparse.ArgumentTypeError(f"expected a finite tolerance in (0, 1), got {text!r}")
    return tol


def _parse_window(text: str):
    return _finite_pair(text, "lo,hi")


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_output(doc, path) -> str:
    """Write ``doc``'s JSON text to ``path``, or to stdout where it is None; return the text."""
    text = serialize.json_dump(doc)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text


def _load_pair(args):
    """The operator, read once, and the extension file's Atilde over it as base (None
    without the file); an Atilde that does not extend it fails its gates (ValueError)."""
    op = serialize.load_operator(_read_json(args.operator), tol=args.tol)
    if not args.extension:
        return op, None
    return op, serialize.decode_embedded_extension(_read_json(args.extension), op, tol=args.tol)


def _encode_vector(v):
    return [serialize.encode_complex(x) for x in np.asarray(v).reshape(-1)]


def cmd_gen(args) -> int:
    if args.shift is not None:
        op = truncated_shift(args.shift, tol=args.tol)
        extra = {
            "construction": "truncated-shift",
            "note": ("finite section of the unilateral-shift model; the genuine "
                     "(0, 1)-defect operator needs infinite dimension"),
            "seed": args.seed,
        }
    else:
        spec = InstanceSpec(args.dim, args.defect, args.dense_range,
                            tuple(args.window), args.seed)
        op = gen_symmetric(spec, tol=args.tol)
        extra = {
            "instance_spec": {
                "ambient_dim": spec.ambient_dim,
                "defect": spec.defect,
                "dense_range": spec.dense_range,
                "spectrum_window": list(spec.spectrum_window),
                "seed": spec.seed,
            }
        }
    extra["tolerances"] = {"rank_tol": args.tol}
    _write_output(serialize.operator_file(op, extra), args.output)
    return EXIT_OK


def _load_parameter(args):
    """The operator, the parameter and its file's base point, which ``--z``, if given, must match."""
    op = serialize.load_operator(_read_json(args.operator), tol=args.tol)
    parameter = serialize.decode_parameter(_read_json(args.param), tol=args.tol)
    if args.z is not None and abs(parameter.z - args.z) > TOL.base_point_match:
        raise ValueError("--z disagrees with the parameter file base point")
    return op, parameter, parameter.z


def cmd_extend(args) -> int:
    op, parameter, z = _load_parameter(args)
    report = extend(op, z, parameter)
    doc = {
        "schema": serialize.SCHEMA_VERSION,
        "kind": "extension_report",
        "z": serialize.encode_complex(z),
        "classification": report.classification,
        "invertible": report.invertible,
        "defect_numbers_of_b": list(report.defect_numbers_of_b),
        "b": serialize.encode_operator(report.b),
        "witnesses": {k: _encode_vector(v) for k, v in report.witnesses.items()},
        "tolerances": {"rank_tol": args.tol},
    }
    _write_output(doc, args.output)
    return EXIT_OK


def cmd_check_invert(args) -> int:
    op, parameter, z = _load_parameter(args)
    verdict = check_invertibility(op, z, parameter)
    # margins strictly inside this band around the rank cut are borderline
    band = (args.tol / TOL.borderline_factor, args.tol * TOL.borderline_factor)
    doc = {
        "schema": serialize.SCHEMA_VERSION,
        "kind": "invertibility_verdict",
        "z": serialize.encode_complex(z),
        "direct": verdict.direct,
        "via_admissibility": verdict.via_admissibility,
        "via_forbidden": verdict.via_forbidden,
        "agree": verdict.agree,
        "margins": {k: (None if np.isinf(v) else v) for k, v in verdict.margins.items()},
        "witness": None if verdict.witness is None else _encode_vector(verdict.witness),
        "tolerances": {"rank_tol": args.tol, "borderline_band": list(band)},
    }
    _write_output(doc, args.output)
    if not verdict.agree:
        finite = [v for v in verdict.margins.values() if not np.isinf(v)]
        if not any(band[0] < m < band[1] for m in finite):
            return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_build_sa(args) -> int:
    op = serialize.load_operator(_read_json(args.operator), tol=args.tol)
    chain = build_invertible_selfadjoint(op, args.z, seed=args.seed,
                                         double_first=args.double)
    extra = {"tolerances": {"rank_tol": args.tol}}
    ext_text = _write_output(
        serialize.embedded_extension_file(EmbeddedExtension.from_chain(chain), extra), args.output)
    if args.chain:  # B_0 is op.json's operator (doubled); the digest names ext.json
        digest = hashlib.sha256(ext_text.encode("utf-8")).hexdigest()
        _write_output({**serialize.chain_file(chain, digest), **extra}, args.chain)
    return EXIT_OK


def cmd_resolvent(args) -> int:
    op, ext = _load_pair(args)
    lambda0 = args.lambda0
    grid = args.grid or default_lambda_grid(lambda0, ext.atilde_matrix())
    # F is sampled in lam0's half-plane: at lam, or at lam bar, which the Shtraus
    # formula's adjoint branch reads; a real lam stays, and the sampler refuses it
    images = (lam if lam.imag * lambda0.imag > 0 else lam.conjugate() for lam in grid)
    f = ParameterFunction.from_extension(ext, lambda0, tuple(dict.fromkeys(images)))
    rows, points, worst = [], [], 0.0
    for lam in grid:
        entry = {"lambda": serialize.encode_complex(lam)}
        try:
            compressed = compressed_resolvent(ext, lam)
            direct = shtraus_resolvent(op, lambda0, f, lam)
            deviation = opnorm(compressed - direct)
            worst = max(worst, deviation)
            entry["deviation"] = deviation
            rows.append((lam, compressed))
        except SymextError as exc:
            entry["skipped"] = f"{type(exc).__name__}: {exc}"
        points.append(entry)
    if args.csv:
        _write_resolvent_csv(args.csv, rows, op.ambient_dim)
    doc = {
        "schema": serialize.SCHEMA_VERSION,
        "kind": "resolvent_comparison",
        "lambda0": serialize.encode_complex(lambda0),
        "points": points,
        "max_deviation": worst,
        "tolerances": {"rank_tol": args.tol, "agreement_tol": TOL.resolvent_agreement},
        "agree": bool(rows) and worst < TOL.resolvent_agreement,  # no point compared: no
    }
    _write_output(doc, args.output)
    return EXIT_OK


def _write_resolvent_csv(path, rows, d):
    header = ["lambda_re", "lambda_im"]
    for i in range(d):
        for j in range(d):
            header.extend([f"R{i}_{j}_re", f"R{i}_{j}_im"])
    # what csv.writer writes: no header name and no repr of a float needs quoting
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lam, matrix in rows:
            cells = np.ascontiguousarray(matrix, dtype=complex).view(np.float64).ravel()
            fh.write(",".join(map(repr, [float(lam.real), float(lam.imag), *cells.tolist()]))
                     + "\r\n")


def cmd_verify(args) -> int:
    op, ext = _load_pair(args)
    results = checks.run_suite(op, ext, lambda0=args.lambda0, seed=args.seed)
    doc = {
        "schema": serialize.SCHEMA_VERSION,
        "kind": "verification_report",
        "suite": "all",
        "checks": [
            {"name": r.name, "passed": r.passed, "max_error": r.max_error,
             "note": r.note, "skipped": r.skipped}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
        "tolerances": {"rank_tol": args.tol, "cayley_tol": TOL.check_cayley,
                       "resolvent_tol": TOL.check_resolvent, "roundtrip_tol": TOL.check_roundtrip},
    }
    _write_output(doc, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symext",
        description="Extensions of symmetric operators with non-dense domains in C^d")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=_parse_tol, default=DEFAULT_TOL,
                       help="relative rank tolerance, the centre of check-invert's borderline "
                            "band (tol/10, 10*tol) (default %(default)g)")
        p.add_argument("-o", "--output", help="write the JSON report here instead of stdout")

    p = sub.add_parser("gen", help="generate a seeded symmetric operator instance")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--defect", type=int, default=1)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--dense-range", dest="dense_range", action="store_true", default=None)
    group.add_argument("--no-dense-range", dest="dense_range", action="store_false")
    p.add_argument("--window", type=_parse_window, default=(0.5, 2.0),
                   help="eigenvalue window 'lo,hi' excluding 0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", type=int, default=None,
                   help="emit the truncated-shift model of this size instead")
    add_common(p)

    p = sub.add_parser("extend", help="build the extension for a parameter file")
    p.add_argument("operator")
    p.add_argument("--z", type=_parse_complex, default=None)
    p.add_argument("--param", required=True)
    add_common(p)

    p = sub.add_parser("check-invert", help="run the three-way invertibility criterion")
    p.add_argument("operator")
    p.add_argument("--z", type=_parse_complex, default=None)
    p.add_argument("--param", required=True)
    add_common(p)

    p = sub.add_parser("build-sa", help="construct an invertible self-adjoint extension chain")
    p.add_argument("operator")
    p.add_argument("--z", type=_parse_complex, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--double", action="store_true",
                   help="start from A (+) (-A) on the doubled space")
    p.add_argument("--chain", default=None, help="write the step-by-step chain JSON here")
    add_common(p)

    p = sub.add_parser("resolvent", help="compare compressed and parameter-formula resolvents")
    p.add_argument("operator")
    p.add_argument("extension")
    p.add_argument("--lambda0", type=_parse_complex, required=True)
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="semicolon-separated 're,im' points")
    p.add_argument("--csv", default=None, help="write the resolvent grid as CSV here")
    add_common(p)

    p = sub.add_parser("verify", help="run the identity-check suite")
    p.add_argument("operator")
    p.add_argument("extension", nargs="?", default=None)
    p.add_argument("--lambda0", type=_parse_complex, default=1j)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: a parse reads it and leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # subcommand "build-sa" runs cmd_build_sa, looked up at each call, so a
    # rebinding of the name after the parser was built is what runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except SpecInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NotAdmissible as exc:
        doc = {"error": "not admissible", "detail": str(exc),
               "witness": None if exc.witness is None else _encode_vector(exc.witness)}
        print(serialize.json_dump(doc), file=sys.stderr, end="")
        return EXIT_NOT_ADMISSIBLE
    except NotAnExtension as exc:
        print(f"not an extension: {exc}", file=sys.stderr)
        return EXIT_NOT_EXTENSION
    except (OSError, json.JSONDecodeError, ValueError, KeyError, SymextError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
