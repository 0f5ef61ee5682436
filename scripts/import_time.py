#!/usr/bin/env python3
"""Cumulative import time of `plcsynth.cli`, with bytecode cached.

    python3 scripts/import_time.py [--root CHECKOUT]

Imports `plcsynth.cli` from the checkout's `src` once, writing bytecode to
a temporary cache directory (so the checkout is left as it is), then
seven more times, each in a fresh interpreter under `-X importtime`.
Prints the median, lowest and highest cumulative time in milliseconds.
That is the fixed cost every command line pays before its op.  Run it on
two checkouts to compare them.
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


def measure(root: Path, runs: int) -> list[float]:
    """`runs` cumulative import times of MODULE in milliseconds."""
    with tempfile.TemporaryDirectory() as cache:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=cache)
        command = [sys.executable, "-X", "importtime", "-c", f"import {MODULE}"]
        times = []
        for _ in range(runs + 1):  # the first run writes the bytecode
            done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
            times.append(cumulative_us(done.stderr) / 1000)
        return times[1:]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to import (default: this one)")
    args = parser.parse_args()
    times = measure(args.root.resolve(), RUNS)
    print(f"{MODULE} cumulative import: median {statistics.median(times):.1f} ms "
          f"(min {min(times):.1f}, max {max(times):.1f}, {len(times)} runs) at {args.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
