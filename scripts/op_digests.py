#!/usr/bin/env python3
"""Per-op output digests of the four benchmark workloads, as sorted JSON.

    python3 scripts/op_digests.py [--root CHECKOUT] > digests.json

Runs `perfbench/run.py --workload W --seed S --seconds 1 --trace 0` in the
checkout, one run at a time, for every workload at seeds 1, 11, 12 and 13,
then prints the digests those runs recorded in the checkout's
`.bench_out/digests-<source hash>.json`, keyed "workload|seed|argv".  Two
source trees make the same search when their outputs are equal, so the
search-identity check is one `diff` of the two outputs.  Exits 1 when a
benchmark run fails or is not correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 11, 12, 13)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to run (default: this one)")
    args = parser.parse_args()
    root = args.root.resolve()
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
    print(json.dumps(ours, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
