"""Byte parity of the CLI's output files between a base checkout of symext and this one.

Runs gen -> build-sa --chain -> resolvent --csv -> verify over the pipeline
ladder (d = 16, 32 and 48 doubled, and 64; defect d/4; z = lambda0 = i) at
seeds 0-3 in each checkout, which writes 6 files per rung and seed (96 in
all), then lists every file whose bytes differ. Under a differing JSON file it
prints the first few values that moved, each as its path and old -> new; a
check record is named with its verdict, so a moved ``max_error`` in
``verify.json`` shows whether ``passed`` held. Each checkout runs in its own
process, importing ``symext`` from its ``src/``, with BLAS pinned to one
thread. Exit status 0 means every file is byte-identical.

    python tools/cli_parity.py --base ../symext-parent
    python tools/cli_parity.py --base ../symext-parent --keep out/   # keep the files
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LADDER = ((16, True), (32, True), (48, True), (64, False))
SEEDS = (0, 1, 2, 3)
FILES = ("op.json", "ext.json", "chain.json", "grid.csv", "res.json", "verify.json")
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHOWN, WIDTH = 5, 200  # moved values printed per file, characters per value


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


def moved(old, new, path=""):
    """``path: old -> new`` for each value that differs between two JSON documents.

    List items are labelled by index, or a record with a ``name`` by that name
    and its verdict ``passed`` in the base document.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from moved(old.get(key), new.get(key), f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            named = isinstance(a, dict) and "name" in a
            label = f"{a['name']}, passed {a.get('passed')}" if named else k
            yield from moved(a, b, f"{path}[{label}]")
    elif old != new:
        yield f"{path}: {old!r} -> {new!r}"


def report(base: Path, change: Path, name: str) -> None:
    print(f"differs: {name}")
    if not (name.endswith(".json") and (base / name).is_file() and (change / name).is_file()):
        return
    lines = list(moved(json.loads((base / name).read_text()),
                       json.loads((change / name).read_text())))
    for line in lines[:SHOWN]:
        print(f"  {line[:WIDTH]}")
    if len(lines) > SHOWN:
        print(f"  ... and {len(lines) - SHOWN} more")


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
        for name in differ:
            report(root / "base", root / "change", name)
    print(f"{total - len(differ)} of {total} files byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
