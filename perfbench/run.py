#!/usr/bin/env python3
"""plcsynth benchmark.

    python3 perfbench/run.py --workload synth-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One process, one caller, closed
loop: the workload's ops run back to back as `plcsynth.cli.run(argv)`
calls, in-process, in whole passes over the workload's op catalogue
until `--seconds` seconds have passed; the pass in flight at the deadline
finishes, so every pass does the same work.  Every op's exit code,
printed lines and written file are checked afterwards against the
benchmark's own oracles.  The last line of standard output is one JSON
object; the lines before it are the readable report.  Time metrics are
taken at the host's nominal speed (see `hostspeed`) and use each op's
median over the passes (see `entry_times`).

With `--trace 0` the JSON holds the end-to-end metrics.  With `--trace 1`
each op runs twice, untraced and traced in alternating order, and the JSON
holds the per-layer metrics of the traced runs plus the tracing overhead
(traced minus untraced op time).  A traced run is correct only if the
layers below the command-line front end account for all but
`COVERAGE_TOLERANCE` of traced op time.

Workspace files go to `.bench_work/` (removed at exit) and `.bench_out/`:
span dumps of traced runs, and the per-source-tree output digests that
let a later run of the same seed detect nondeterminism.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import workloads
from hostspeed import NOMINAL_S, Gauge
from tracing import Tracer

SETUP_ROUNDS = 7
COVERAGE_TOLERANCE = 0.05  # at most 5 % of traced op time left in cli.self_s
MODULES = ("cli", "engine", "constraints", "blocks", "sat", "lang")
_TIMING = re.compile(r", [0-9.]+ ms\)")


@dataclass
class Record:
    index: int
    entry: workloads.Entry
    argv: list[str]
    outcome: workloads.Outcome
    seconds: float
    span: tuple[float, float] = (0.0, 0.0)  # when the op ran
    scale: float = 1.0  # to nominal host speed, from the gauge
    traced: Optional[workloads.Outcome] = None
    traced_seconds: float = 0.0
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def digest(argv: list[str], outcome: workloads.Outcome) -> str:
    """Hash of everything an op produced, minus the printed wall time."""
    h = hashlib.sha256()
    h.update("\0".join(argv).encode())
    h.update(f"\0{outcome.rc}\0".encode())
    h.update(_TIMING.sub(")", outcome.stdout).encode())
    h.update(b"\0" if outcome.written is None else b"\1" + outcome.written)
    return h.hexdigest()


def source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "plcsynth").glob("*.py")) + \
            sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# Set-up


def import_program() -> dict:
    """Import plcsynth afresh, so every set-up round pays the import."""
    for name in [m for m in sys.modules if m == "plcsynth" or m.startswith("plcsynth.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"plcsynth.{name}") for name in MODULES}


def write_inputs(work: workloads.Workload, work_dir: Path) -> None:
    if work_dir.exists():
        shutil.rmtree(work_dir)
    (work_dir / "out").mkdir(parents=True)
    for rel, text in work.files.items():
        path = work_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def set_up(name: str, seed: int, work_dir: Path, gauge: Gauge):
    """Import, generate and write the inputs `SETUP_ROUNDS` times; returns
    the last round's modules and workload, and each round's (start, end,
    seconds net of sampling)."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        spent = gauge.spent
        start = time.perf_counter()
        modules = import_program()
        work = workloads.build(name, seed)
        write_inputs(work, work_dir)
        end = time.perf_counter()
        rounds.append((start, end, end - start - (gauge.spent - spent)))
    return modules, work, rounds


# --------------------------------------------------------------------------
# Timed phase


def run_one(cli, entry: workloads.Entry, argv: list[str], gauge: Gauge,
            tracer: Optional[Tracer] = None, index: int = 0):
    """One op as the command line would run it, traced when a tracer is
    given; returns (outcome, seconds, layer self times, counters).  The
    seconds exclude the gauge's sampling."""
    if entry.out is not None and os.path.exists(entry.out):
        os.remove(entry.out)
    out = io.StringIO()
    layers, counts = {}, {}
    spent = gauge.spent
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.run(argv, out)
        else:
            rc, layers, counts = tracer.run_op(index, lambda: cli.run(argv, out))
    except Exception as exc:  # counted as a failed op, the run goes on
        rc = -1
        out.write(f"benchmark: op raised {exc!r}\n")
    seconds = time.perf_counter() - start - (gauge.spent - spent)
    written = None
    if entry.out is not None and os.path.exists(entry.out):
        with open(entry.out, "rb") as f:
            written = f.read()
    return workloads.Outcome(rc, out.getvalue(), written), seconds, layers, counts


def timed_phase(cli, work: workloads.Workload, seconds: float,
                tracer: Optional[Tracer], modules: dict, gauge: Gauge):
    records: list[Record] = []
    start = time.perf_counter()
    index = 0
    while index % len(work.catalogue) or time.perf_counter() - start < seconds:
        entry = work.catalogue[index % len(work.catalogue)]
        argv = entry.argv
        record = Record(index, entry, argv, None, 0.0)
        if tracer is None:
            order = (False,)
        else:  # untraced and traced, in alternating order
            order = (False, True) if index % 2 == 0 else (True, False)
        for traced in order:
            if not traced:
                begin = time.perf_counter()
                record.outcome, record.seconds, _, _ = run_one(cli, entry, argv, gauge)
                record.span = (begin, time.perf_counter())
                continue
            # no gauge samples inside traced runs: they would land in a layer
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            tracer.install(modules)
            try:
                (record.traced, record.traced_seconds, record.layers,
                 record.counts) = run_one(cli, entry, argv, gauge, tracer, index)
            finally:
                tracer.remove()
                signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        records.append(record)
        index += 1
    return records, time.perf_counter() - start


# --------------------------------------------------------------------------
# Checking


def check(entry: workloads.Entry, outcome: workloads.Outcome) -> Optional[str]:
    """The entry's oracle verdict; output the oracle cannot even read
    counts as wrong rather than stopping the run."""
    try:
        return entry.check(outcome)
    except Exception as exc:
        return f"check failed on this output: {exc!r}"


def evaluate(records: list[Record]) -> dict[int, str]:
    """Failure reason per failed op index: oracle checks, plus identical
    output from the untraced and traced run of each op in a traced run,
    plus one slot count per distinct input.  `compare_digests` checks
    repeats of a command line."""
    failures: dict[int, str] = {}
    slots: dict[str, int] = {}
    for r in records:
        reason = check(r.entry, r.outcome)
        if reason is None and r.traced is not None and \
                digest(r.argv, r.traced) != digest(r.argv, r.outcome):
            reason = "traced run wrote other bytes"
        line = workloads.summary(r.outcome.stdout)
        if reason is None and line is not None:
            if slots.setdefault(r.entry.key, line[2]) != line[2]:
                reason = f"slot count moved from {slots[r.entry.key]} to {line[2]}"
        if reason is not None:
            failures[r.index] = reason
    return failures


def compare_digests(records: list[Record], store: Path, workload: str,
                    seed: int, failures: dict[int, str]) -> str:
    """Check op outputs against earlier repeats of the same command line,
    in this run and in earlier runs of this seed on the same sources,
    record the new ones, and return the run's digest."""
    try:
        known = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    run = hashlib.sha256()
    for r in records:
        d = digest(r.argv, r.outcome)
        run.update(d.encode())
        key = f"{workload}|{seed}|{' '.join(r.argv)}"
        if known.setdefault(key, d) != d and r.index not in failures:
            failures[r.index] = "output differs from an earlier run of this seed"
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return run.hexdigest()


def _rewrite_first_output(text: str, st, il: list[str]) -> str:
    """Block text with its first output's value changed: `st` maps an ST
    right-hand side to the new one; in IL, the `il` instructions go
    before the first store."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if ":=" in line:  # ST assignment
            target, rhs = line.split(":=", 1)
            lines[i] = f"{target}:= {st(rhs.strip().rstrip(';'))};"
            break
        if line.startswith("ST "):  # IL store
            lines[i:i] = il
            break
    return "\n".join(lines) + "\n"


def _negate_first_output(text: str) -> str:
    return _rewrite_first_output(text, lambda rhs: f"NOT ({rhs})", ["NOT"])


def _grow_first_output(text: str) -> str:
    """The same function, two slots larger."""
    return _rewrite_first_output(text, lambda rhs: f"({rhs}) AND TRUE", ["AND TRUE"])


def _wrong_verdict(stdout: str, argv: list[str]) -> str:
    if stdout.startswith("Verified"):
        return "cycle 0: \nviolated: assertion 0: planted\n"
    return f"Verified (bound {argv[argv.index('--cycles') + 1]})\n"


def self_check(records: list[Record]) -> list[str]:
    """Feed the checks deliberately wrong outputs (a negated output in a
    written block, an equivalent block larger than the printed slot count,
    a flipped verification verdict, a counterexample one cycle too long)
    and return the ones they failed to reject."""
    missed = []
    seen = set()
    for r in records:
        o = r.outcome
        if r.entry.key in seen or check(r.entry, o) is not None:
            continue
        seen.add(r.entry.key)
        planted = []
        if o.written is not None:
            planted.append(("wrong block", workloads.Outcome(
                o.rc, o.stdout, _negate_first_output(o.written.decode()).encode())))
        if workloads.summary(o.stdout) is not None:
            planted.append(("larger block", workloads.Outcome(
                o.rc, o.stdout, _grow_first_output(o.written.decode()).encode())))
        if r.entry.kind == "verify":
            planted.append(("wrong verdict", workloads.Outcome(
                1 - o.rc, _wrong_verdict(o.stdout, r.argv), None)))
            cycles = [ln for ln in o.stdout.splitlines() if ln.startswith("cycle")]
            if cycles:
                longer = o.stdout.replace(cycles[0], f"{cycles[0]}\n{cycles[0]}", 1)
                planted.append(("longer counterexample", workloads.Outcome(
                    o.rc, longer, None)))
        for what, outcome in planted:
            if check(r.entry, outcome) is None:
                missed.append(f"{what} accepted for {r.entry.key}")
    return missed


# --------------------------------------------------------------------------
# Metrics and report


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def entry_times(records: list[Record]) -> list[float]:
    """Each catalogue op's median time over the passes run, at nominal
    host speed.

    The ops are deterministic, so their repeats do the same work.  Scaling
    each repeat by the host's speed around it takes out the host's drift
    over minutes; the median over the repeats takes out bursts of
    interference within one op."""
    by_entry: dict[int, list[float]] = defaultdict(list)
    for r in records:
        by_entry[id(r.entry)].append(r.seconds * r.scale)
    return [statistics.median(v) for v in by_entry.values()]


def end_to_end(records, failures, elapsed, setup_times) -> dict:
    n = len(records)
    times = entry_times(records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": ((n - len(failures)) / n, "share"),
    }


def slots_total(records: list[Record]) -> int:
    """Sum of printed slot counts, once per distinct input."""
    per_key = {}
    for r in records:
        line = workloads.summary(r.outcome.stdout)
        if line is not None:
            per_key.setdefault(r.entry.key, line[2])
    return sum(per_key.values())


def per_layer(records: list[Record], tracer: Tracer) -> dict:
    n = len(records)
    layers: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for r in records:
        for group, seconds in r.layers.items():
            layers[group] += seconds
        for key, value in r.counts.items():
            counts[key] += value

    def group_sum(prefix: str) -> float:
        return sum(v for k, v in layers.items() if k.startswith(prefix)) / n

    untraced = sum(r.seconds for r in records)
    traced = sum(r.traced_seconds for r in records)
    proposed = counts["engine.counterexamples"] + counts["engine.outputs"]
    solves = counts["sat.solve_calls"]
    metrics = {
        "cli.self_s": (layers["cli.run"] / n, "s"),
        "constraints.load_s": (layers["constraints.load"] / n, "s"),
        "constraints.compile_s": (layers["constraints.compile"] / n, "s"),
        "lang.self_s": (group_sum("lang."), "s"),
        "engine.self_s": (group_sum("engine."), "s"),
        "sat.encode_s": (layers["sat.encode"] / n, "s"),
        "sat.load_s": (layers["sat.load"] / n, "s"),
        "sat.solve_s": (layers["sat.solve"] / n, "s"),
        "blocks.self_s": (group_sum("blocks."), "s"),
    }
    for key in ("lang.parse_calls", "lang.emit_calls", "lang.translate_calls",
                "engine.iterations", "engine.counterexamples", "sat.encode_calls",
                "sat.clauses_encoded", "sat.solvers_built", "sat.clauses_loaded",
                "sat.solve_calls", "blocks.eval_calls", "blocks.simulate_calls"):
        metrics[key] = (counts[key] / n, "count")
    metrics.update({
        "engine.refuted_share": (counts["engine.counterexamples"] / proposed
                                 if proposed else 0.0, "share"),
        "engine.slots_total": (slots_total(records), "count"),
        "sat.vars_max": (tracer.vars_max, "count"),
        "sat.unsat_share": (counts["sat.unsat"] / solves if solves else 0.0, "share"),
        "trace.overhead_s": ((traced - untraced) / n, "s"),
        "trace.overhead_share": ((traced - untraced) / untraced, "share"),
        "trace.coverage": (coverage(layers, traced), "share"),
    })
    return metrics


def coverage(layers: dict[str, float], op_time: float) -> float:
    """Share of traced op time spent in the layers below the command-line
    front end.  The rest is `cli.run` self time: argument parsing,
    printing, and any work done outside the wrapped layer boundaries."""
    return 1 - layers.get("cli.run", 0.0) / op_time


def coverage_ok(share: float) -> bool:
    return share >= 1 - COVERAGE_TOLERANCE


def layer_report(records: list[Record]) -> list[str]:
    """Per op kind: each layer group's self time per op and its share of
    the traced op time, and the kind's coverage (checked on the whole run
    only: short ops such as translate spend more in argument parsing)."""
    lines = []
    by_kind: dict[str, list[Record]] = defaultdict(list)
    for r in records:
        by_kind[r.entry.kind].append(r)
    for kind, group in sorted(by_kind.items()):
        op_time = sum(r.traced_seconds for r in group)
        plain = sum(r.seconds for r in group)
        layers: dict[str, float] = defaultdict(float)
        for r in group:
            for name, seconds in r.layers.items():
                layers[name] += seconds
        covered = coverage(layers, op_time)
        lines.append(f"  {kind}: n={len(group)}  traced op {_fmt(op_time / len(group))} s"
                     f"  untraced {_fmt(plain / len(group))} s"
                     f"  overhead {(op_time - plain) / plain:+.1%}"
                     f"  coverage {covered:.2%}")
        for name, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:<22} {_fmt(seconds / len(group)):>12} s/op"
                         f"  {seconds / op_time:6.1%}")
    return lines


def report(name, seed, seconds, records, failures, elapsed, setup_times,
           run_digest, missed, tracer, gauge) -> dict:
    n = len(records)
    e2e = end_to_end(records, failures, elapsed, setup_times)
    print(f"workload {name} seed {seed}: {n} ops in {elapsed:.2f} s "
          f"(closed loop, one caller, {seconds} s requested)")
    print(f"  host speed   gauge loop {_fmt(1000 * statistics.median(gauge.loops))} ms "
          f"(median of {len(gauge.loops)} samples; nominal {1000 * NOMINAL_S:g} ms); "
          f"times below are at nominal speed unless raw")
    print(f"  setup_s      {_fmt(e2e['setup_s'][0])} s (median of {SETUP_ROUNDS} set-ups)")
    per_pass = len(entry_times(records))
    print(f"  ops_per_s    {_fmt(e2e['ops_per_s'][0])} 1/s (a pass of {per_pass} ops at each "
          f"op's median of {n // per_pass} passes; raw {_fmt(n / elapsed)} 1/s)")
    print(f"  op_p50_s     {_fmt(e2e['op_p50_s'][0])} s (median over the {per_pass} ops of "
          f"each one's median; n={n} ops; raw pooled median "
          f"{_fmt(statistics.median(r.seconds for r in records))} s)")
    if n >= 100:
        p90 = statistics.quantiles([r.seconds for r in records], n=10)[8]
        print(f"  op_p90_s     {_fmt(p90)} s raw (n={n}, {n - int(n * 0.9)} beyond)")
    else:
        print(f"  op_p90_s     not reported: {n} ops, fewer than 100")
    print(f"  peak_rss_mb  {_fmt(e2e['peak_rss_mb'][0])} MB")
    print(f"  failed_share {_fmt(len(failures) / n)} ({len(failures)} of {n})")
    if any(workloads.summary(r.outcome.stdout) for r in records):
        print(f"  slots_total  {slots_total(records)}")
    kinds = defaultdict(list)
    for r in records:
        kinds[r.entry.kind].append(r.seconds * r.scale)
    for kind, times in sorted(kinds.items()):
        print(f"  {kind}: n={len(times)} p50 {_fmt(statistics.median(times))} s")
    print(f"  digest       {run_digest} ({n} ops)")
    for index, reason in sorted(failures.items())[:10]:
        print(f"  FAILED op {index} ({records[index].entry.key}): {reason}")
    for line in missed:
        print(f"  SELF-CHECK FAILED: {line}")
    if tracer is None:
        return {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    layers = per_layer(records, tracer)
    print("traced run (per op kind: layer self time per op, share of op time)")
    for line in layer_report(records):
        print(line)
    covered = layers["trace.coverage"][0]
    verdict = "ok" if coverage_ok(covered) else "FAILED"
    print(f"  coverage {covered:.2%} of traced op time in layers below cli.run "
          f"(at least {1 - COVERAGE_TOLERANCE:.0%}): {verdict}")
    print(f"  tracing overhead {_fmt(layers['trace.overhead_s'][0])} s/op "
          f"({layers['trace.overhead_share'][0]:+.1%}), traced minus untraced")
    return {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="plcsynth benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "plcsynth" / "cli.py").is_file():
        print(f"perfbench: no plcsynth sources in {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work_dir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = root / ".bench_out"
    try:
        with Gauge() as gauge:
            modules, work, rounds = set_up(args.workload, args.seed, work_dir, gauge)
            tracer = Tracer() if args.trace else None
            os.chdir(work_dir)
            try:
                records, elapsed = timed_phase(modules["cli"], work, args.seconds,
                                               tracer, modules, gauge)
            finally:
                os.chdir(root)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup_times = [net * gauge.scale(start, end) for start, end, net in rounds]
    for r in records:
        r.scale = gauge.scale(*r.span)
    failures = evaluate(records)
    run_digest = compare_digests(records, out_dir / f"digests-{source_hash(root)}.json",
                                 args.workload, args.seed, failures)
    missed = self_check(records)
    if tracer is not None:
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = report(args.workload, args.seed, args.seconds, records, failures,
                     elapsed, setup_times, run_digest, missed, tracer, gauge)
    covered = tracer is None or coverage_ok(metrics["trace.coverage"]["value"])
    print(json.dumps({"correct": not failures and not missed and covered,
                      "attempted": len(records), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
