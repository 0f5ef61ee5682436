#!/usr/bin/env python3
"""Per-op output digests of the four benchmark workloads, as sorted JSON.

    python3 scripts/op_digests.py [--root CHECKOUT] > digests.json
    python3 scripts/op_digests.py [--root CHECKOUT] --against digests.json

Runs `perfbench/run.py --workload W --seed S --seconds 1 --trace 0` in the
checkout, one run at a time, for every workload at seeds 1, 11, 12 and 13,
then prints the digests those runs recorded in the checkout's
`.bench_out/digests-<source hash>.json`, keyed "workload|seed|argv".  Two
source trees make the same search when their outputs are equal.  With
`--against`, it prints instead, per workload, how many ops' digests equal
those in the given file and how many differ, then the keys that differ,
so naming the runs a change moves takes one command.  Exits 1 when a
benchmark run fails or is not correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 11, 12, 13)


def compare(ours: dict[str, str], theirs: dict[str, str]) -> list[str]:
    """Per workload, in key order, one line `W: E equal, D differ` and
    then one indented line per differing key; a key on one side only
    differs."""
    by_workload: dict[str, list[str]] = {}
    for key in sorted(set(ours) | set(theirs)):
        by_workload.setdefault(key.split("|", 1)[0], []).append(key)
    lines = []
    for workload, keys in by_workload.items():
        differ = [key for key in keys if ours.get(key) != theirs.get(key)]
        lines.append(f"{workload}: {len(keys) - len(differ)} equal, {len(differ)} differ")
        lines += [f"  {key}" for key in differ]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to run (default: this one)")
    parser.add_argument("--against", type=Path, metavar="DIGESTS.json",
                        help="compare with this script's earlier output")
    args = parser.parse_args()
    root = args.root.resolve()
    theirs = None if args.against is None else json.loads(
        args.against.read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "perfbench"))
    import run  # the checkout's own benchmark, for its workloads and source hash

    for workload in run.workloads.WORKLOADS:
        for seed in SEEDS:
            print(f"op_digests: {workload} seed {seed}", file=sys.stderr)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines or not json.loads(lines[-1])["correct"]:
                sys.stderr.write(done.stdout + done.stderr)
                print(f"op_digests: {workload} seed {seed} failed", file=sys.stderr)
                return 1
    store = root / ".bench_out" / f"digests-{run.source_hash(root)}.json"
    known = json.loads(store.read_text(encoding="utf-8"))
    wanted = {f"{w}|{s}" for w in run.workloads.WORKLOADS for s in SEEDS}
    ours = {key: d for key, d in known.items() if "|".join(key.split("|", 2)[:2]) in wanted}
    if theirs is None:
        print(json.dumps(ours, indent=1, sort_keys=True))
    else:
        print("\n".join(compare(ours, theirs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
