#!/usr/bin/env python3
"""Replay the SAT kernel calls of one benchmark pass, to time the kernel
alone and check that it searches the same way.

    python3 scripts/kernel_replay.py [--root CHECKOUT] WORKLOAD

Runs one pass over the seed-1 op catalogue of WORKLOAD (a `perfbench`
workload) in the checkout, in a fresh interpreter, and records every
`CdclSolver` call the ops make: each solver's construction, `extend` and
`solve`, with their arguments as given.  It then replays those calls in
7 fresh interpreters against the checkout's own `plcsynth.sat`, and
prints the median milliseconds spent loading clauses (construction plus
`extend`) and solving, per pass, with the lowest and highest round, plus
a digest of every answer and model.

The replay leaves out everything but the kernel: no encoding, no
counterexample search, no front end, so its split between loading and
solving does not spread the way a traced benchmark run's layers do.  The
digest covers each answer's verdict and model in call order.  Two trees
make the same search when their digests are equal.  Exits 1 when a
replayed answer differs from the one recorded, or a round's digest from
another's.
"""

import argparse
import hashlib
import io
import json
import os
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 1
ROUNDS = 7


def answers_digest(answers) -> str:
    """Digest of (verdict, model items in variable order) per answer."""
    h = hashlib.sha256()
    for satisfiable, model in answers:
        h.update(repr((satisfiable, sorted(model.items()) if satisfiable else None)).encode())
    return h.hexdigest()


def _import_checkout(root: Path):
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from plcsynth import cli, sat
    return workloads, cli, sat


def record(root: Path, workload: str, path: Path) -> None:
    """Run one seed-1 pass of `workload` with the checkout's program and
    pickle its kernel calls and answers to `path`: `calls` lists
    (solver index, method, arguments) in call order, `answers` the
    (verdict, model) each `solve` returned."""
    workloads, cli, sat = _import_checkout(root)
    solver_class = sat.CdclSolver
    calls, answers, ids = [], [], {}
    solvers = []  # kept alive, so that no two solvers share an id()
    real_init, real_extend, real_solve = (solver_class.__init__, solver_class.extend,
                                          solver_class.solve)
    inside = []  # a call made by a recorded one (the constructor's extend)

    def init(self, formula, seed=0):
        ids[id(self)] = len(solvers)
        solvers.append(self)
        calls.append((ids[id(self)], "init", (formula.num_vars, formula.clauses, seed)))
        inside.append(1)
        try:
            real_init(self, formula, seed)
        finally:
            inside.pop()

    def extend(self, num_vars, clauses):
        if not inside:  # callers clear their lists afterwards: keep a copy
            calls.append((ids[id(self)], "extend", (num_vars, [tuple(c) for c in clauses])))
        real_extend(self, num_vars, clauses)

    def solve(self, assumptions=()):
        assumed = list(assumptions)
        calls.append((ids[id(self)], "solve", (assumed,)))
        result = real_solve(self, assumed)
        answers.append((result.satisfiable, result.model))
        return result

    solver_class.__init__, solver_class.extend, solver_class.solve = init, extend, solve
    work = workloads.build(workload, SEED)
    with tempfile.TemporaryDirectory() as work_dir:
        for rel, text in work.files.items():
            (Path(work_dir) / rel).parent.mkdir(parents=True, exist_ok=True)
            (Path(work_dir) / rel).write_text(text, encoding="utf-8")
        os.makedirs(Path(work_dir) / "out", exist_ok=True)
        here = os.getcwd()
        os.chdir(work_dir)
        try:
            for entry in work.catalogue:
                cli.run(entry.argv, io.StringIO())
        finally:
            os.chdir(here)
    path.write_bytes(pickle.dumps({"calls": calls, "answers": answers}))


def replay(root: Path, path: Path) -> dict:
    """Replay recorded calls on the checkout's kernel: seconds loading and
    solving, and the answers digest; raises when an answer differs from
    the one recorded."""
    _, _, sat = _import_checkout(root)
    recorded = pickle.loads(path.read_bytes())
    solvers: dict[int, object] = {}
    answers = []
    load = solve = 0.0
    clock = time.perf_counter
    for index, method, args in recorded["calls"]:
        if method == "init":
            num_vars, clauses, seed = args
            formula = sat.CnfFormula(num_vars, clauses)
            start = clock()
            solvers[index] = sat.CdclSolver(formula, seed)
            load += clock() - start
        elif method == "extend":
            start = clock()
            solvers[index].extend(*args)
            load += clock() - start
        else:
            start = clock()
            result = solvers[index].solve(*args)
            solve += clock() - start
            answers.append((result.satisfiable, result.model))
    if answers != recorded["answers"]:
        raise SystemExit("kernel_replay: a replayed answer differs from the recorded one")
    return {"load_s": load, "solve_s": solve, "digest": answers_digest(answers),
            "solvers": len(solvers), "solves": len(answers),
            "clauses": sum(len(args[1]) for _, method, args in recorded["calls"]
                           if method != "solve")}


def _child(root: Path, *args: str) -> str:
    """Standard output of this script run with `args` in a fresh interpreter."""
    done = subprocess.run([sys.executable, __file__, "--root", str(root), *args],
                          capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"kernel_replay: {args[0]} failed")
    return done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to record and replay (default: this one)")
    parser.add_argument("workload", nargs="?", help="perfbench workload, e.g. edit")
    # the script runs itself for each step, so that every step has a fresh interpreter
    parser.add_argument("--record", type=Path, metavar="FILE", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=Path, metavar="FILE", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = args.root.resolve()
    if args.record is not None:
        record(root, args.workload, args.record)
        return 0
    if args.replay is not None:
        print(json.dumps(replay(root, args.replay)))
        return 0
    if args.workload is None:
        parser.error("give a workload")
    with tempfile.TemporaryDirectory() as scratch:
        calls = Path(scratch) / "calls.pickle"
        try:
            _child(root, "--record", str(calls), args.workload)
            rounds = [json.loads(_child(root, "--replay", str(calls)))
                      for _ in range(ROUNDS)]
        except SystemExit as exc:
            print(exc, file=sys.stderr)
            return 1
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        print("kernel_replay: rounds gave different answers", file=sys.stderr)
        return 1
    first = rounds[0]
    for key in ("load_s", "solve_s"):
        ms = [1000 * r[key] for r in rounds]
        print(f"{args.workload} {key[:-2]}: median {statistics.median(ms):.1f} ms "
              f"(min {min(ms):.1f}, max {max(ms):.1f}, {len(ms)} rounds)")
    print(f"{args.workload} calls: {first['solvers']} solvers, {first['clauses']} clauses "
          f"loaded, {first['solves']} solves at {root}")
    print(f"{args.workload} answers digest: {digests.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
