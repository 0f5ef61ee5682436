#!/usr/bin/env python3
"""Cumulative import time of `plcsynth.cli`, with bytecode cached and
compiled from source.

    python3 scripts/import_time.py [--root CHECKOUT]

Imports `plcsynth.cli` from the checkout's `src` once, writing bytecode to
a temporary cache directory (so the checkout is left as it is), then
seven more times, each in a fresh interpreter under `-X importtime`.  Then
seven more imports with no bytecode at all (`PYTHONDONTWRITEBYTECODE=1`
and an empty cache directory), so every module compiles from source, as
when a checkout is run where no bytecode may be written; the benchmark's
`setup_s` re-imports the package that way.  Prints, for each, the median,
lowest and highest cumulative time in milliseconds.  That is the fixed
cost every command line pays before its op.  Run it on two checkouts to
compare them.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MODULE = "plcsynth.cli"
RUNS = 7


def cumulative_us(importtime: str, module: str = MODULE) -> int:
    """The cumulative microseconds `-X importtime` output gives `module`."""
    for line in importtime.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1])
    raise ValueError(f"no import time for {module}")


def measure(root: Path, runs: int, bytecode: bool = True) -> list[float]:
    """`runs` cumulative import times of MODULE in milliseconds, with its
    bytecode cached, or compiled from source on every import."""
    with tempfile.TemporaryDirectory() as cache:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=cache)
        if not bytecode:
            env["PYTHONDONTWRITEBYTECODE"] = "1"  # the cache stays empty
        command = [sys.executable, "-X", "importtime", "-c", f"import {MODULE}"]
        times = []
        for _ in range(runs + bytecode):  # a first run writes the bytecode
            done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
            times.append(cumulative_us(done.stderr) / 1000)
        return times[bytecode:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to import (default: this one)")
    args = parser.parse_args()
    for bytecode, how in ((True, "bytecode cached"), (False, "compiled from source")):
        times = measure(args.root.resolve(), RUNS, bytecode)
        print(f"{MODULE} cumulative import, {how}: median {statistics.median(times):.1f} ms "
              f"(min {min(times):.1f}, max {max(times):.1f}, {len(times)} runs) at {args.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
