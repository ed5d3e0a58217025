"""Diff the verdict tokens of this checkout against ``perfbench/reference.json``.

For each named workload and seed it recomputes the token of every op with
``perfbench/make_reference.reference_tokens``, the function that wrote the
file, and prints each op whose token differs as ``old -> new``, then one line
per workload and seed. It writes nothing. Exit status 0 means every token set
is equal to the file's, 1 that some op differs or a seed is not in the file.

    python tools/check_reference.py --workload pipeline --seeds 0-3
    python tools/check_reference.py --workload pipeline resolvent-grid --seeds 0-19
"""

import argparse
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def seed_list(text: str) -> list:
    """``"LOW-HIGH"`` (or one seed) as the list of seeds from LOW to HIGH."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def differing(expected, actual):
    """``(op, old, new)`` for each op whose token differs; a missing op reads None.

    A token set is a string of one-character tokens or a list of tokens, as
    ``reference_tokens`` returns it.
    """
    expected, actual = list(expected), list(actual)
    for op in range(max(len(expected), len(actual))):
        old = expected[op] if op < len(expected) else None
        new = actual[op] if op < len(actual) else None
        if old != new:
            yield op, old, new


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True, help="workload names")
    parser.add_argument("--seeds", type=seed_list, required=True, help="LOW-HIGH, e.g. 0-3")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    import make_reference  # pins BLAS to one thread before numpy loads

    reference = json.loads(make_reference.run.REFERENCE.read_text(encoding="utf-8"))
    total = equal = 0
    for name in args.workload:
        for seed in args.seeds:
            total += 1
            expected = reference.get(name, {}).get(str(seed))
            if expected is None:
                print(f"{name} seed {seed}: not in reference.json")
                continue
            moved = list(differing(expected, make_reference.reference_tokens(name, seed)))
            for op, old, new in moved:
                print(f"{name} seed {seed} op {op}: {old!r} -> {new!r}")
            print(f"{name} seed {seed}: " + (f"{len(moved)} ops differ" if moved else "equal"),
                  flush=True)
            equal += not moved
    print(f"{equal} of {total} token sets equal")
    return 0 if equal == total else 1


if __name__ == "__main__":
    sys.exit(main())
