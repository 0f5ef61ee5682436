"""Warehouse benchmark scenarios and timing statistics.

The intelligent-warehouse model: each storage row has four slots watched
by light barriers and three holding magnets between neighboring slots; a
magnet engages when both surrounding slots are occupied or when the
second slot downstream is vacant (out-of-range slots count as occupied).
A signal light summarizes eight row status flags into one lamp.

Every scenario is synthesized from its full truth table, validated
exhaustively, and timed over repeated runs with distinct seeds; the
spread is reported as the sample standard deviation (N-1 denominator).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .blocks import BlockInterface, Direction, VarDecl, simulate
from .constraints import ConstraintList, Mode, TruthTableRow, compile_spec
from .engine import SynthConfig, SynthesisResult, synthesize


class InsufficientSamples(ValueError):
    pass


@dataclass(frozen=True)
class BenchStats:
    """Sample count, samples, mean and sample standard deviation of durations."""
    n: int
    samples: tuple[float, ...]
    mean: float
    stddev: float


def stats(samples: Sequence[float]) -> BenchStats:
    """Mean and sample standard deviation (N-1 denominator) of durations."""
    values = tuple(float(x) for x in samples)
    n = len(values)
    if n < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n}")
    mean = sum(values) / n
    stddev = math.sqrt(sum((x - mean) ** 2 for x in values) / (n - 1))
    return BenchStats(n, values, mean, stddev)


# --------------------------------------------------------------------------
# Scenario definitions


@dataclass(frozen=True)
class ScenarioSpec:
    """A warehouse scenario: its interface, its constraint list and the
    oracle that gives the outputs expected at each input point."""
    name: str
    interface: BlockInterface
    build_constraints: Callable[[], ConstraintList]
    oracle: Callable[[dict[str, bool]], dict[str, bool]]


def magnet_rule(occupied: Sequence[bool], k: int) -> bool:
    """Magnet k (1-based, between slots k and k+1) of a four-slot row;
    slots beyond the row count as occupied."""
    occ = list(occupied) + [True, True]
    return (occ[k - 1] and occ[k]) or not occ[k + 1]


def signal_light_rule(flags: Sequence[bool]) -> bool:
    """Lamp on when any upper row is full or any lower row has run empty."""
    return any(flags)


_SLOTS = ("s1", "s2", "s3", "s4")
_FLAGS = ("up1", "up2", "up3", "up4", "low1", "low2", "low3", "low4")


def _interface(inputs: Sequence[str], outputs: Sequence[str]) -> BlockInterface:
    return BlockInterface(tuple(
        [VarDecl(n, Direction.INPUT) for n in inputs]
        + [VarDecl(n, Direction.OUTPUT) for n in outputs]))


def _full_table(interface: BlockInterface, name: str,
                oracle: Callable[[dict[str, bool]], dict[str, bool]]) -> ConstraintList:
    inputs = interface.inputs
    rows = []
    for bits in itertools.product((False, True), repeat=len(inputs)):
        env = dict(zip(inputs, bits))
        rows.append(TruthTableRow(env, oracle(env)))
    return ConstraintList(name, Mode.GENERATE, interface, tuple(rows))


def _magnets(*ks: int) -> Callable[[dict[str, bool]], dict[str, bool]]:
    """The oracle of a row's magnets `ks`, output `m<k>` for magnet k."""
    def oracle(env: dict[str, bool]) -> dict[str, bool]:
        occupied = [env[s] for s in _SLOTS]
        return {f"m{k}": magnet_rule(occupied, k) for k in ks}
    return oracle


def _signal_oracle(env: dict[str, bool]) -> dict[str, bool]:
    return {"light": signal_light_rule([env[f] for f in _FLAGS])}


# name -> (inputs, block name, oracle); the outputs are the oracle's keys
_SCENARIOS = {
    "magnet": (_SLOTS, "magnet", _magnets(2)),
    "row": (_SLOTS, "row", _magnets(1, 2, 3)),
    "signal-light": (_FLAGS, "signal_light", _signal_oracle),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def scenario(name: str) -> ScenarioSpec:
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    inputs, block_name, oracle = _SCENARIOS[name]
    interface = _interface(inputs, list(oracle(dict.fromkeys(inputs, False))))
    return ScenarioSpec(name, interface,
                        lambda: _full_table(interface, block_name, oracle), oracle)


# --------------------------------------------------------------------------
# Benchmark driver


class BenchValidationError(Exception):
    pass


@dataclass(frozen=True)
class BenchReport:
    """A bench run: statistics of the repeats' wall times, the same per
    CEGIS run label (an output, or "*" for a joint run), and every
    repeat's synthesis result."""
    scenario: str
    repeats: int
    stats: BenchStats
    per_component: dict[str, BenchStats]
    results: tuple[SynthesisResult, ...]


def _validate(result: SynthesisResult, spec: ScenarioSpec) -> None:
    inputs = spec.interface.inputs
    for bits in itertools.product((False, True), repeat=len(inputs)):
        env = dict(zip(inputs, bits))
        outputs = simulate(result.block, [env]).cycles[0].outputs
        expected = spec.oracle(env)
        for name, want in expected.items():
            if outputs[name] != want:
                raise BenchValidationError(
                    f"{spec.name}: synthesized block disagrees with the "
                    f"table at {env} on {name}")


def bench_run(spec: ScenarioSpec, repeats: int,
              cfg: SynthConfig = SynthConfig()) -> BenchReport:
    """Synthesize the scenario `repeats` times with distinct seeds, check
    every result against the full table and report timing statistics.

    Timing covers the synthesis call only.  The per-component report
    breaks the row scenario down into its per-magnet synthesis calls.
    """
    if repeats < 2:
        raise InsufficientSamples("need at least 2 repeats")
    constraint_list = spec.build_constraints()
    compiled = compile_spec(constraint_list)
    samples: list[float] = []
    per_component: dict[str, list[float]] = {}
    results = []
    for i in range(repeats):
        run_cfg = replace(cfg, seed=cfg.seed + i)
        start = time.perf_counter()
        result = synthesize(spec.interface, compiled, run_cfg,
                            name=constraint_list.block_name)
        samples.append(time.perf_counter() - start)
        _validate(result, spec)
        results.append(result)
        for run in result.per_output:
            per_component.setdefault(run.output, []).append(run.wall_time)
    return BenchReport(spec.name, repeats, stats(samples),
                       {k: stats(v) for k, v in per_component.items()},
                       tuple(results))
