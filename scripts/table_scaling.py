#!/usr/bin/env python3
"""What a constraint table costs as it grows: loading, compiling, the
spec's truth tables and library synthesis, timed in fresh interpreters.

    python3 scripts/table_scaling.py [--root CHECKOUT] [--inputs N ...] [--runs R]

For each input count N (default 8, 10 and 12) and each of two tables,
runs R fresh interpreters (default 5) against the checkout's `src`.
Each one times, in milliseconds, one call of:

- `loads_constraints` on the table's XML text;
- `compile_spec` on the list;
- `engine._PointSpec(...).ok`, the spec's table per output valuation;
- library `synthesize` of the compiled spec at the default seed.

It prints the median of each over the R runs.  The tables are one output
y = OR of the N inputs: "or" is the full table, one row per input point;
"dc" writes the same function with don't-cares on the last two inputs
wherever the others already hold a 1, so it has 2^(N-2) + 3 rows.  Run it
on two checkouts to compare them.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

STAGES = ("loads_constraints", "compile_spec", "ok", "synthesize")
TABLES = ("or", "dc")

_CHILD = """
import json, sys, time
from plcsynth import engine
from plcsynth.constraints import compile_spec, loads_constraints
text = sys.stdin.read()
clock = [time.perf_counter()]
cl = loads_constraints(text)
clock.append(time.perf_counter())
spec = compile_spec(cl)
clock.append(time.perf_counter())
engine._PointSpec(cl.interface.inputs, cl.interface.outputs, spec.obligations,
                  spec.assertions).ok
clock.append(time.perf_counter())
engine.synthesize(cl.interface, spec)
clock.append(time.perf_counter())
print(json.dumps([(b - a) * 1000 for a, b in zip(clock, clock[1:])]))
"""


def table_rows(kind: str, n: int) -> list[tuple[str, str]]:
    """The `in` and `out` cells of each row of table `kind` over n inputs."""
    names = [f"x{k}" for k in range(n)]
    if kind == "or":
        points = list(itertools.product("01", repeat=n))
    else:
        head = [bits for bits in itertools.product("01", repeat=max(n - 2, 0))
                if "1" in bits]
        points = [(*bits, "-", "-")[:n] for bits in head]
        points += [(*"0" * (n - len(tail)), *tail)
                   for tail in itertools.product("01", repeat=min(n, 2))]
    return [(";".join(f"{x}={v}" for x, v in zip(names, bits)), f"y={int('1' in bits)}")
            for bits in points]


def table_text(kind: str, n: int) -> str:
    """Table `kind` over n inputs as constraint-list XML."""
    variables = [f'    <var name="x{k}" dir="in" type="BOOL"/>' for k in range(n)]
    rows = [f'    <row in="{cells}" out="{out}"/>' if cells else f'    <row out="{out}"/>'
            for cells, out in table_rows(kind, n)]
    return "\n".join(['<?xml version="1.0" encoding="UTF-8"?>',
                      '<constraintList block="table" mode="generate">', "  <interface>",
                      *variables, '    <var name="y" dir="out" type="BOOL"/>', "  </interface>",
                      "  <truthTable>", *rows, "  </truthTable>", "</constraintList>"]) + "\n"


def measure(root: Path, kind: str, n: int, runs: int) -> dict[str, list[float]]:
    """Per stage, its milliseconds in each of `runs` fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    text = table_text(kind, n)
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", _CHILD], input=text, env=env,
                              capture_output=True, text=True, check=True)
        for stage, ms in zip(STAGES, json.loads(done.stdout)):
            times[stage].append(ms)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to run (default: this one)")
    parser.add_argument("--inputs", type=int, nargs="+", default=[8, 10, 12],
                        help="input counts (default: 8 10 12)")
    parser.add_argument("--runs", type=int, default=5, help="fresh interpreters per table")
    args = parser.parse_args()
    root = args.root.resolve()
    print(f"table scaling at {root}: median ms of {args.runs} fresh interpreters")
    print(f"{'table':<6}{'inputs':>7}{'rows':>7}" + "".join(f"{s:>19}" for s in STAGES))
    for n in args.inputs:
        for kind in TABLES:
            times = measure(root, kind, n, args.runs)
            print(f"{kind:<6}{n:>7}{len(table_rows(kind, n)):>7}"
                  + "".join(f"{statistics.median(times[s]):>19.2f}" for s in STAGES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
