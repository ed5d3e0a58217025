"""Byte parity of the CLI's output files between a base checkout of symext and this one.

Runs gen -> build-sa --chain -> resolvent --csv -> verify over the pipeline
ladder (d = 16, 32 and 48 doubled, and 64; defect d/4; z = lambda0 = i) at
seeds 0-3 in each checkout, which writes 6 files per rung and seed (96 in
all), then lists every file whose bytes differ. Under a differing JSON file it
prints the first few values that moved, each as its path and old -> new; a
check record is named with its verdict, so a moved ``max_error`` in
``verify.json`` shows whether ``passed`` held. After the files it prints, for
each numeric field that moved anywhere, its largest value over every file of
that kind on each side, as in ``res.json max_deviation 4.96e-14 -> 4.84e-14``
(list positions read ``[]``, so ``points[].deviation`` covers every point).
Under a differing ``chain.json`` it names the first step whose parameter moved
by more than 1e-10 in some entry, where the two chains part, or prints
``steps agree to 1e-10`` (a parameter key that only one side writes is not a
move). A JSON file whose bytes differ but whose values
are the base's (a change of layout only) is marked ``same JSON values``, and
the summary line counts such files.
Each checkout runs in its own process, importing ``symext`` from its
``src/``, with BLAS pinned to one thread. Exit status 0 means every file is
byte-identical.

    python tools/cli_parity.py --base ../symext-parent
    python tools/cli_parity.py --base ../symext-parent --keep out/   # keep the files
"""

import argparse
import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

LADDER = ((16, True), (32, True), (48, True), (64, False))
SEEDS = (0, 1, 2, 3)
FILES = ("op.json", "ext.json", "chain.json", "grid.csv", "res.json", "verify.json")
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHOWN, WIDTH = 5, 200  # moved values printed per file, characters per value
STEP_MOVE = 1e-10  # a chain step whose parameter entries move by more is chosen anew


def rung_calls(out: Path, d: int, doubled: bool, seed: int):
    """The four CLI calls of one rung, as argument lists, writing into ``out``."""
    tag = f"s{seed}-d{d}{'x2' if doubled else ''}"
    op, ext, chain, grid, res, ver = (str(out / f"{tag}-{name}") for name in FILES)
    return [
        ["gen", "--dim", str(d), "--defect", str(d // 4), "--seed", str(seed), "-o", op],
        ["build-sa", op, "--z", "0,1", "--seed", str(seed), "-o", ext, "--chain", chain]
        + (["--double"] if doubled else []),
        ["resolvent", op, ext, "--lambda0", "0,1", "--csv", grid, "-o", res],
        ["verify", op, ext, "--lambda0", "0,1", "--seed", str(seed), "-o", ver],
    ]


def run_worker(out: Path) -> int:
    """Run every call in this process; ``symext`` comes from PYTHONPATH."""
    from symext import cli

    for seed in SEEDS:
        for d, doubled in LADDER:
            for argv in rung_calls(out, d, doubled, seed):
                code = cli.main(argv)
                if code != cli.EXIT_OK:
                    print(f"symext {' '.join(argv)} exited {code}", file=sys.stderr)
                    return code
    return 0


def run_checkout(checkout: Path, out: Path) -> None:
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    env.update(dict.fromkeys(THREADS, "1"))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", str(out)],
                   env=env, check=True)


def compare(base: Path, change: Path) -> tuple:
    """``(names, total)``: the files of either directory that the other lacks or
    holds with other bytes, and the number of names seen."""
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in change.iterdir()})
    differ = [name for name in names
              if not ((base / name).is_file() and (change / name).is_file())
              or not filecmp.cmp(base / name, change / name, shallow=False)]
    return differ, len(names)


def moved(old, new, path="", every=False):
    """``(path, old, new)`` for each value that differs between two JSON documents,
    and with ``every`` for each value the two hold alike too.

    List items are labelled by index, or a record with a ``name`` by that name
    and its verdict ``passed`` in the base document. Values are compared as JSON
    text, so a NaN that held has not moved and a zero whose sign flipped has.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved(old.get(key), new.get(key), f"{path}.{key}" if path else key, every)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            named = isinstance(a, dict) and "name" in a
            label = f"{a['name']}, passed {a.get('passed')}" if named else k
            yield from moved(a, b, f"{path}[{label}]", every)
    elif every or _text(old) != _text(new):
        yield path, old, new


def _text(x) -> str:
    return json.dumps(x, sort_keys=True)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def first_moved_step(old, new):
    """The first step of two ``chain.json`` documents whose parameter differs by more
    than ``STEP_MOVE`` in some entry, or that only one of them has; None if there is none.
    A parameter key that one side lacks is layout, not a move."""
    old_steps, new_steps = old.get("steps", []), new.get("steps", [])
    for k, (a, b) in enumerate(zip(old_steps, new_steps)):
        shared = a["parameter"].keys() & b["parameter"].keys()
        if any(not (_number(x) and _number(y)) or abs(x - y) > STEP_MOVE
               for _, x, y in moved({key: a["parameter"][key] for key in shared},
                                    {key: b["parameter"][key] for key in shared})):
            return k
    return None if len(old_steps) == len(new_steps) else min(len(old_steps), len(new_steps))


def worst_moved(docs) -> dict:
    """``{(kind, field): (old, new)}``, the largest old and new value of each numeric
    field that moved in some pair of ``docs``, over every pair of its kind.

    ``docs`` yields ``(name, old document, new document)``; a name's kind is
    what follows its last ``-`` (``s0-d16x2-res.json`` is a ``res.json``), and
    a field is a path with its list positions read ``[]``.
    """
    values, moved_fields = {}, set()
    for name, old_doc, new_doc in docs:
        for path, old, new in moved(old_doc, new_doc, every=True):
            if not (_number(old) and _number(new)):
                continue
            key = (name.rsplit("-", 1)[-1], re.sub(r"\[\d+\]", "[]", path))
            values.setdefault(key, []).append((old, new))
            if _text(old) != _text(new):
                moved_fields.add(key)
    return {key: tuple(max(side) for side in zip(*values[key])) for key in sorted(moved_fields)}


def report(base: Path, change: Path, name: str) -> bool:
    """Print how a differing file differs; True if it is JSON with the base's values."""
    print(f"differs: {name}")
    if not (name.endswith(".json") and (base / name).is_file() and (change / name).is_file()):
        return False
    old_doc, new_doc = (json.loads((side / name).read_text()) for side in (base, change))
    # compared as canonical text, so that a NaN equals a NaN
    if json.dumps(old_doc, sort_keys=True) == json.dumps(new_doc, sort_keys=True):
        print("  same JSON values")
        return True
    lines = [f"{path}: {old!r} -> {new!r}" for path, old, new in moved(old_doc, new_doc)]
    for line in lines[:SHOWN]:
        print(f"  {line[:WIDTH]}")
    if len(lines) > SHOWN:
        print(f"  ... and {len(lines) - SHOWN} more")
    if name.endswith("chain.json"):
        step = first_moved_step(old_doc, new_doc)
        print(f"  steps agree to {STEP_MOVE:g}" if step is None else
              f"  first step whose parameter moved by more than {STEP_MOVE:g}: {step}")
    return False


def json_pairs(base: Path, change: Path):
    """``(name, base document, change document)`` for each JSON file both directories hold."""
    for path in sorted(base.glob("*.json")):
        if (change / path.name).is_file():
            yield path.name, json.loads(path.read_text()), json.loads(
                (change / path.name).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="checkout to compare against")
    parser.add_argument("--keep", type=Path, default=None,
                        help="write the outputs here and keep them (default: a temp dir)")
    parser.add_argument("--worker", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        return run_worker(args.worker)
    if args.base is None:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="cli-parity-") as tmp:
        root = args.keep if args.keep is not None else Path(tmp)
        run_checkout(args.base, root / "base")
        run_checkout(Path(__file__).resolve().parents[1], root / "change")
        differ, total = compare(root / "base", root / "change")
        same = sum(report(root / "base", root / "change", name) for name in differ)
        for (kind, field), (old, new) in worst_moved(json_pairs(root / "base",
                                                                root / "change")).items():
            print(f"{kind} {field} {old:.3g} -> {new:.3g}")
    print(f"{total - len(differ)} of {total} files byte-identical, "
          f"{same} more with the same JSON values")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
