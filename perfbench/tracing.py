"""Layer spans for the traced run, recorded from outside the program.

The tracer patches the public names each calling module imported
(`plcsynth.cli.synthesize`, `plcsynth.engine.eval_expr`, ...) and the
methods of the SAT classes, so every call across a layer boundary opens a
span.  A span's self time is its duration minus its children's.  Calls
that happen thousands of times per op (SAT, expression evaluation,
simulation) are not kept one by one: they are summed per parent span.
A call into the layer group that is already open (a recursive `encode`,
the `extend` inside `CdclSolver.__init__`) runs unwrapped inside it.

Only one op runs at a time; the tracer is not thread-safe.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable


class _Frame:
    __slots__ = ("span", "group", "start", "children")

    def __init__(self, span: int, group: str, start: float):
        self.span = span
        self.group = group
        self.start = start
        self.children = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (id, parent, op, group, start, end)
        self.hot: dict[tuple, list] = {}    # (parent id, group) -> [calls, seconds]
        self.vars_max = 0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._op = -1
        self._self: dict[str, float] = defaultdict(float)
        self._counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple] = []

    # -- recording

    def _open(self, group: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(self._next_id, group, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, hot: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self._self[frame.group] += duration - frame.children
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children += duration
        if hot and parent is not None:
            bucket = self.hot.setdefault((parent.span, frame.group), [0, 0.0])
            bucket[0] += 1
            bucket[1] += duration
        else:
            self.spans.append((frame.span, parent.span if parent else None,
                               self._op, frame.group, frame.start, end))

    def run_op(self, index: int, fn: Callable[[], int]):
        """Run one op under a root `cli.run` span; returns (result, self
        seconds per group, counters) for that op."""
        self._op = index
        self._self.clear()
        self._counts.clear()
        frame = self._open("cli.run")
        try:
            result = fn()
        finally:
            self._close(frame, hot=False)
        return result, dict(self._self), dict(self._counts)

    def _wrap(self, group: str, fn: Callable, hot: bool,
              count: Callable = None, measure: Callable = None) -> Callable:
        """`count(args, result, before)` runs after the call, where `before`
        is what `measure(args)` returned before it."""
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack or stack[-1].group == group:
                return fn(*args, **kwargs)
            before = measure(args) if measure is not None else None
            frame = self._open(group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, hot)
            if count is not None:
                count(args, result, before)
            return result

        return traced

    def _patch(self, owner, name: str, group: str, hot: bool = False,
               count: Callable = None, measure: Callable = None) -> None:
        original = getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, self._wrap(group, original, hot, count, measure))

    def _add(self, key: str, amount: float = 1) -> None:
        self._counts[key] += amount

    # -- layer boundaries

    def install(self, modules: dict) -> None:
        cli, engine, constraints = modules["cli"], modules["engine"], modules["constraints"]
        blocks, sat = modules["blocks"], modules["sat"]
        add = self._add
        self._patch(cli, "load_constraints", "constraints.load")
        self._patch(cli, "compile_spec", "constraints.compile")
        self._patch(engine, "compile_spec", "constraints.compile")
        for owner, name in ((cli, "parse_st"), (cli, "parse_il"),
                            (constraints, "parse_expression")):
            self._patch(owner, name, "lang.parse",
                        count=lambda a, r, b: add("lang.parse_calls"))
        self._patch(cli, "emit", "lang.emit", count=lambda a, r, b: add("lang.emit_calls"))
        self._patch(cli, "translate", "lang.translate",
                    count=lambda a, r, b: add("lang.translate_calls"))

        def synthesis_counts(args, result, before):
            add("engine.iterations", result.iterations)
            add("engine.counterexamples", result.counterexamples_used)
            add("engine.outputs", sum(1 for run in result.per_output if run.iterations))

        for name in ("synthesize", "repair", "simplify", "extend"):
            self._patch(cli, name, f"engine.{name}", count=synthesis_counts)
        for name in ("verify", "equivalent"):
            self._patch(cli, name, f"engine.{name}")

        def encoded(args, result, before):
            add("sat.encode_calls")
            add("sat.clauses_encoded", len(args[0].clauses) - before)

        for name in ("assert_true", "encode"):
            self._patch(sat.TseitinEncoder, name, "sat.encode", hot=True,
                        count=encoded, measure=lambda args: len(args[0].clauses))

        solver = sat.CdclSolver

        def built(args, result, before):
            add("sat.solvers_built")
            add("sat.clauses_loaded", len(args[1].clauses))

        def extended(args, result, before):
            add("sat.clauses_loaded", len(args[2]))

        def solved(args, result, before):
            add("sat.solve_calls")
            if not result.satisfiable:
                add("sat.unsat")
            self.vars_max = max(self.vars_max, args[0].num_vars)

        self._patch(solver, "__init__", "sat.load", hot=True, count=built)
        self._patch(solver, "extend", "sat.load", hot=True, count=extended)
        self._patch(solver, "solve", "sat.solve", hot=True, count=solved)
        self._patch(engine, "eval_expr", "blocks.eval", hot=True,
                    count=lambda a, r, b: add("blocks.eval_calls"))
        for owner, name in ((engine, "simulate"), (blocks, "cycle_environment")):
            self._patch(owner, name, "blocks.simulate", hot=True,
                        count=lambda a, r, b: add("blocks.simulate_calls"))

    def remove(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def write(self, path) -> None:
        """All spans and per-parent sums as JSON lines, once, at the end."""
        with open(path, "w", encoding="utf-8") as f:
            for span, parent, op, group, start, end in self.spans:
                f.write(json.dumps({"span": span, "parent": parent, "op": op,
                                    "name": group, "start": start, "end": end}) + "\n")
            for (parent, group), (calls, seconds) in sorted(self.hot.items()):
                f.write(json.dumps({"parent": parent, "name": group,
                                    "calls": calls, "seconds": seconds}) + "\n")
