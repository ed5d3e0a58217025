"""Regenerate ``reference.json``, the committed verdict fingerprints.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

For every workload and seeds 0-19 it runs every unit of the workload once
and stores the verdict token of every op, in op order, in a fresh file. A
benchmark run on a seed listed there fails any op whose token differs. Regenerate only when a change is meant
to alter verdicts, and say so in that change.
"""

import json
import sys

import run


def reference_tokens(name, seed):
    _, workloads = run._import_program()
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    tokens = {}
    for unit in workload.units:
        for record in unit():
            for problem in record.problems:
                print(f"{name} seed {seed} op {record.index}: {problem}", file=sys.stderr)
            tokens[record.index] = record.token
    ordered = [tokens[i] for i in range(len(tokens))]
    if all(isinstance(t, str) and len(t) == 1 for t in ordered):
        return "".join(ordered)
    return ordered


def main():
    reference = {}
    for name in ("pipeline", "resolvent-grid", "sweep"):
        for seed in range(20):
            reference.setdefault(name, {})[str(seed)] = reference_tokens(name, seed)
            print(f"{name} seed {seed} done", flush=True)
    # one line per workload and seed keeps the file reviewable as a diff
    lines = []
    for name in sorted(reference):
        seeds = sorted(reference[name], key=int)
        body = ",\n".join(f"    {json.dumps(s)}: {json.dumps(reference[name][s])}"
                          for s in seeds)
        lines.append(f"  {json.dumps(name)}: {{\n{body}\n  }}")
    run.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
