"""Tests of the benchmark itself: input determinism, metric names, oracles.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_same_seed_same_input_bytes():
    for name in workloads.WORKLOADS:
        first, again = workloads.build(name, 7), workloads.build(name, 7)
        assert first.files == again.files
        assert [e.argv for e in first.catalogue] == [e.argv for e in again.catalogue]
        assert workloads.build(name, 8).files != first.files


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = _bench(ROOT, "bmc", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "bmc", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _run_catalogue(name: str, work_dir: Path) -> list[run.Record]:
    """Every op of the workload's catalogue once, in-process."""
    modules = run.import_program()
    work = workloads.build(name, 1)
    run.write_inputs(work, work_dir)
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        records = []
        for index in range(len(work.catalogue)):
            entry = work.catalogue[index]
            outcome, seconds, _, _ = run.run_one(modules["cli"], entry, entry.argv,
                                                 hostspeed.Gauge())
            records.append(run.Record(index, entry, entry.argv, outcome, seconds))
    finally:
        os.chdir(cwd)
    return records


@pytest.mark.parametrize("name", ["synth-small", "edit", "bmc"])
def test_checks_accept_outputs_and_reject_planted_wrong_ones(name, tmp_path):
    records = _run_catalogue(name, tmp_path / "work")
    assert run.evaluate(records) == {}
    assert run.self_check(records) == []
    # a wrong block or verdict counts as a failed op
    wrong = []
    for r in records:
        o = r.outcome
        if o.written is not None:
            o = workloads.Outcome(o.rc, o.stdout,
                                  run._negate_first_output(o.written.decode()).encode())
        else:
            o = workloads.Outcome(1 - o.rc, run._wrong_verdict(o.stdout, r.argv), None)
        wrong.append(run.Record(r.index, r.entry, r.argv, o, r.seconds))
    assert sorted(run.evaluate(wrong)) == [r.index for r in records]
    # so does an equivalent block larger than the printed slot count
    larger = [run.Record(r.index, r.entry, r.argv, workloads.Outcome(
                  r.outcome.rc, r.outcome.stdout,
                  run._grow_first_output(r.outcome.written.decode()).encode()), r.seconds)
              for r in records if workloads.summary(r.outcome.stdout) is not None]
    assert sorted(run.evaluate(larger)) == [r.index for r in larger]


def test_slot_count_reuses_shared_subterms():
    s1, s2, s3 = (oracles.var(f"s{i}") for i in (1, 2, 3))
    both = oracles.conj(s1, s2)
    assert oracles.slot_count(s1) == 1
    assert oracles.slot_count(oracles.disj(both, oracles.neg(s3))) == 3
    assert oracles.slot_count(("xor", oracles.disj(both, oracles.neg(s3)), both)) == 4


def test_coverage_check_fails_when_time_is_outside_the_layers():
    def traced(layers):
        record = run.Record(0, None, [], workloads.Outcome(0, "", None), 1.0,
                            traced_seconds=sum(layers.values()), layers=layers)
        return run.per_layer([record], run.Tracer())["trace.coverage"][0]

    assert run.coverage_ok(traced({"cli.run": 0.01, "sat.solve": 0.99}))
    assert not run.coverage_ok(traced({"cli.run": 0.4, "sat.solve": 0.6}))


def test_gauge_scales_by_the_samples_around_an_op():
    gauge = hostspeed.Gauge()
    gauge.ends = [1.0, 2.0, 3.0, 4.0]
    gauge.loops = [n * hostspeed.NOMINAL_S for n in (1, 2, 2, 4)]
    assert gauge.scale(2.5, 2.7) == pytest.approx(1 / 2)
    assert gauge.scale(1.5, 3.5) == pytest.approx(1 / 2.25)
    assert gauge.scale(0.5, 0.7) == pytest.approx(1)
    with hostspeed.Gauge() as gauge:
        deadline = time.perf_counter() + 3 * hostspeed.INTERVAL
        while time.perf_counter() < deadline:
            pass
    assert len(gauge.loops) >= 3 and gauge.spent == pytest.approx(sum(gauge.loops))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def _light_block(flags: list[str], lamp: str) -> str:
    expr = oracles.var(flags[0])
    for flag in flags[1:]:
        expr = oracles.disj(expr, oracles.var(flag))
    decls = tuple((f, "in") for f in flags) + ((lamp, "out"),)
    return oracles.write_st(oracles.Block("light", decls, ((lamp, expr),)))


def test_signal_light_check():
    work = workloads.build("synth-light", 4)
    entry = work.catalogue[0]
    xml = work.files["in/light.xml"].splitlines()
    inputs = [line.split('"')[1] for line in xml if 'dir="in"' in line]
    lamp = next(line.split('"')[1] for line in xml if 'dir="out"' in line)
    right = _light_block(inputs, lamp).encode()
    line = f"synth: wrote {entry.out} (slots 7, iterations 9, 10.0 ms)\n"
    assert entry.check(workloads.Outcome(0, line, right)) is None
    assert entry.check(workloads.Outcome(0, line.replace("slots 7", "slots 8"), right))
    missing_flag = _light_block(inputs[:-1] + [inputs[0]], lamp).encode()
    assert entry.check(workloads.Outcome(0, line, missing_flag))
    assert entry.check(workloads.Outcome(2, line, right))


def test_slot_lower_bounds():
    def magnet(k):
        return lambda bits: oracles.magnet_rule(list(bits), k)
    assert [oracles.min_slots(magnet(k), 4) for k in (1, 2, 3)] == [3, 3, 1]
    assert oracles.min_slots(lambda bits: any(bits), 8) == 7
    assert oracles.min_slots(lambda bits: not bits[2], 4) == 1


def test_shortest_violation_of_planted_ring_faults():
    names = workloads.Names(__import__("random").Random(0))
    for dup in (1, 3, 4):
        block, assertion = workloads.token_ring(names, "r", 5, dup)
        assert oracles.shortest_violation(block, assertion, False) == dup + 1
    block, assertion = workloads.token_ring(names, "r", 5)
    assert oracles.shortest_violation(block, assertion, False) is None
    assert oracles.shortest_violation(block, assertion, True) == 1
    block, assertion = workloads.arbitrated_ring(names, "a", 5)
    assert oracles.shortest_violation(block, assertion, True) is None
