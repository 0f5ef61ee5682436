"""Bounded verification and counterexample-guided synthesis.

Verification (and equivalence checking) grows one unrolled formula a
scan cycle at a time in a single incremental SAT solver, asking after each
cycle whether the spec can fail there, so the first counterexample found
is a shortest one; counterexamples always replay on the reference
simulator.

Synthesis searches straight-line candidate programs described by a slot
template (operator and operand selector variables) with iterative
deepening on the slot count, so the first verified candidate is minimal.
Each template numbers its own variables and owns one incremental solver,
which receives the template's well-formedness constraints and then every
counterexample point as int clauses, with no expressions or Tseitin pass
between.  Up to _CUBE_INPUTS inputs, the spec and each candidate are truth
tables held as Python ints (one bit per input point), so the first point
where a candidate fails is the lowest set bit of one mask; wider specs are
checked by the SAT solver.
Repair and extension reuse the same template seeded with the original
program plus an edit budget; simplification synthesizes against the
block's own behavior.  Simplification and extension pin outputs to the
original block through ordinary obligation clauses, so every run reads
one spec model; a contradictory spec is reported once, before CEGIS, at
an input point that no output valuation meets.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .blocks import (
    And, Block, BlockInterface, BoolExpr, Const, Direction, Lang, Not, Or,
    Statement, TypeCheckError, UnboundVariable, Var, Xor, cycle_environment,
    eval_expr, expr_vars, simulate,
)
from .constraints import (
    AssertionClause, ConstraintList, ObligationClause, SpecFormula,
    compile_spec,
)
from .sat import CdclSolver, CnfFormula, TseitinEncoder, solve

FALSE = Const(False)
TRUE = Const(True)

# Specs with at most this many inputs are held as 2^n-bit truth tables.
_CUBE_INPUTS = 12


class Unsatisfiable(Exception):
    """No program of any size can satisfy the spec: no output valuation
    meets it at the input point `witness` (every input, in interface
    order).  Up to _CUBE_INPUTS inputs that is the lowest such point in
    product order, past them whichever one SAT finds."""

    def __init__(self, message: str, witness: Optional[dict[str, bool]] = None):
        super().__init__(message)
        self.witness = witness


class SizeBoundExceeded(Exception):
    def __init__(self, max_slots: int):
        super().__init__(f"no candidate within {max_slots} slots")
        self.max_slots = max_slots


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    max_slots: int = 31
    per_output: bool = True
    unwind_cycles: int = 1
    symbolic_init: bool = False

    def __post_init__(self):
        if self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if self.unwind_cycles < 1:
            raise ValueError("unwind_cycles must be >= 1")


@dataclass(frozen=True)
class Counterexample:
    init_state: dict[str, bool]
    input_cycles: tuple[dict, ...]
    violated: str
    cycle_index: int


@dataclass(frozen=True)
class Verified:
    bound: int


@dataclass(frozen=True)
class Violated:
    counterexample: Counterexample


VerifyResult = Verified | Violated


@dataclass(frozen=True)
class OutputSynthesis:
    output: str
    slots_used: int
    iterations: int
    counterexamples_used: int
    wall_time: float


@dataclass(frozen=True)
class SynthesisResult:
    block: Block
    iterations: int
    counterexamples_used: int
    slots_used: int
    wall_time: float
    per_output: tuple[OutputSynthesis, ...] = ()


# --------------------------------------------------------------------------
# Folding expression constructors (keep symbolic circuits small)


def _not(x: BoolExpr) -> BoolExpr:
    if isinstance(x, Const):
        return Const(not x.value)
    if isinstance(x, Not):
        return x.operand
    return Not(x)


def _and(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    if isinstance(a, Const):
        return b if a.value else FALSE
    if isinstance(b, Const):
        return a if b.value else FALSE
    return And(a, b)


def _or(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    if isinstance(a, Const):
        return TRUE if a.value else b
    if isinstance(b, Const):
        return TRUE if b.value else a
    return Or(a, b)


def _xor(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    if isinstance(a, Const):
        return _not(b) if a.value else b
    if isinstance(b, Const):
        return _not(a) if b.value else a
    return Xor(a, b)


def _fold(items: Sequence, op: Callable, unit):
    """Balanced fold of `items` by `op` (expressions or gate nodes)."""
    work = list(items)
    if not work:
        return unit
    while len(work) > 1:
        merged = [op(work[i], work[i + 1]) for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            merged.append(work[-1])
        work = merged
    return work[0]


def _conj(items: Sequence[BoolExpr]) -> BoolExpr:
    return _fold(items, _and, TRUE)


def _disj(items: Sequence[BoolExpr]) -> BoolExpr:
    return _fold(items, _or, FALSE)


def _subst(expr: BoolExpr, env: Mapping[str, BoolExpr]) -> BoolExpr:
    """Replace variables by expressions, folding constants; memoized so
    shared subtrees stay shared."""
    memo: dict[int, BoolExpr] = {}

    def walk(node: BoolExpr) -> BoolExpr:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        if isinstance(node, Const):
            result = node
        elif isinstance(node, Var):
            try:
                result = env[node.name]
            except KeyError:
                raise UnboundVariable(node.name) from None
        elif isinstance(node, Not):
            result = _not(walk(node.operand))
        elif isinstance(node, And):
            result = _and(walk(node.left), walk(node.right))
        elif isinstance(node, Or):
            result = _or(walk(node.left), walk(node.right))
        else:
            result = _xor(walk(node.left), walk(node.right))
        memo[id(node)] = result
        return result

    return walk(expr)


def _mask(expr: BoolExpr, env: Mapping[str, int], full: int,
          memo: dict[int, int]) -> int:
    """Truth table of `expr` from its variables' tables in `env`: bit p is
    its value at point p, and `full` has every point's bit set.  `memo`
    is keyed by node identity and belongs to one `env`."""
    hit = memo.get(id(expr))
    if hit is not None:
        return hit
    if isinstance(expr, Const):
        result = full if expr.value else 0
    elif isinstance(expr, Var):
        try:
            result = env[expr.name]
        except KeyError:
            raise UnboundVariable(expr.name) from None
    elif isinstance(expr, Not):
        result = full ^ _mask(expr.operand, env, full, memo)
    elif isinstance(expr, And):
        result = _mask(expr.left, env, full, memo) & _mask(expr.right, env, full, memo)
    elif isinstance(expr, Or):
        result = _mask(expr.left, env, full, memo) | _mask(expr.right, env, full, memo)
    else:
        result = _mask(expr.left, env, full, memo) ^ _mask(expr.right, env, full, memo)
    memo[id(expr)] = result
    return result


def _symbolic_cycle(block: Block, state: Mapping[str, BoolExpr],
                    inputs: Mapping[str, BoolExpr]) -> dict[str, BoolExpr]:
    """One scan cycle over expressions instead of booleans."""
    env: dict[str, BoolExpr] = dict(inputs)
    env.update(state)
    for name in block.interface.outputs:
        env[name] = FALSE
    for stmt in block.body:
        env[stmt.target] = _subst(stmt.rhs, env)
    return env


# --------------------------------------------------------------------------
# Interface checks


def _non_temp_decls(interface: BlockInterface) -> set[tuple[str, Direction]]:
    return {(d.name, d.direction) for d in interface.decls
            if d.direction is not Direction.TEMP}


def _check_same_interface(block: Block, spec: SpecFormula) -> None:
    if _non_temp_decls(block.interface) != _non_temp_decls(spec.interface):
        raise TypeCheckError("block and spec interfaces do not match")


def _require_combinational(interface: BlockInterface, what: str) -> None:
    if interface.state_vars:
        raise TypeCheckError(f"{what} supports combinational blocks only "
                             f"(state vars: {', '.join(interface.state_vars)})")


# --------------------------------------------------------------------------
# Bounded verification


def _violation_exprs(spec: SpecFormula | _PointSpec,
                     env: Mapping[str, BoolExpr]) -> list[BoolExpr]:
    """Expressions that hold where an obligation or assertion of `spec` (a
    SpecFormula or _PointSpec) fails, over the environment `env`."""
    out: list[BoolExpr] = []
    for output, clauses in spec.obligations.items():
        out_expr = env[output]
        for clause in clauses:
            guard = _subst(clause.guard, env)
            wrong = _not(out_expr) if clause.value else out_expr
            out.append(_and(guard, wrong))
    for clause in spec.assertions:
        out.append(_not(_subst(clause.expr, env)))
    return out


def _first_violation(spec: SpecFormula, env: Mapping[str, bool]) -> Optional[str]:
    for output, clauses in spec.obligations.items():
        for clause in clauses:
            if eval_expr(clause.guard, env) and env[output] != clause.value:
                return spec.describe_obligation(output, clause)
    for clause in spec.assertions:
        if not eval_expr(clause.expr, env):
            return spec.describe_assertion(clause)
    return None


def _replay(block: Block, spec: SpecFormula, init_state: dict[str, bool],
            input_cycles: Sequence[dict]) -> Counterexample:
    state = dict(init_state)
    for index, inputs in enumerate(input_cycles):
        env = cycle_environment(block, state, inputs)
        violated = _first_violation(spec, env)
        if violated is not None:
            return Counterexample(init_state, tuple(dict(c) for c in input_cycles),
                                  violated, index)
        state = {s: env[s] for s in block.interface.state_vars}
    raise AssertionError("solver counterexample does not replay")


def _unroll(blocks: Sequence[Block], symbolic_init: bool, cycles: int,
            bad: Callable[[list[dict[str, BoolExpr]]], list[BoolExpr]],
            seed: int) -> Optional[tuple[dict[str, bool], list[dict[str, bool]]]]:
    """Shortest run of at most `cycles` scan cycles after whose last cycle
    one of `bad(envs)` holds, as (initial state, inputs per cycle), or None.

    All blocks read the same inputs from the same initial state (all false
    unless symbolic_init).  One encoder and one solver serve the whole
    call: each bound unrolls one more cycle, feeds the solver only the new
    clauses and solves under the assumption that this cycle's violation
    holds, so the first model found belongs to the shortest bound.
    """
    iface = blocks[0].interface
    enc = TseitinEncoder({})
    solver = CdclSolver(CnfFormula(0, ()), seed=seed)

    def fresh(name: str) -> BoolExpr:
        enc.var_map[name] = enc.fresh()
        return Var(name)

    if symbolic_init:
        init: dict[str, BoolExpr] = {s: fresh(f"{s}@init") for s in iface.state_vars}
    else:
        init = {s: FALSE for s in iface.state_vars}
    states = [init] * len(blocks)
    for t in range(cycles):
        inputs = {n: fresh(f"{n}@{t}") for n in iface.inputs}
        envs = [_symbolic_cycle(b, state, inputs) for b, state in zip(blocks, states)]
        states = [{s: env[s] for s in iface.state_vars} for env in envs]
        violation = _disj(bad(envs))
        if violation == FALSE:
            continue
        loaded = len(enc.clauses)
        root = enc.encode(violation)
        solver.extend(enc.num_vars, enc.clauses[loaded:])
        result = solver.solve([root])
        if result.satisfiable:
            value = {name: result.model[v] for name, v in enc.var_map.items()}
            init_state = {s: value[f"{s}@init"] if symbolic_init else False
                          for s in iface.state_vars}
            return init_state, [{n: value[f"{n}@{i}"] for n in iface.inputs}
                                for i in range(t + 1)]
    return None


def verify(block: Block, spec: SpecFormula,
           cfg: SynthConfig = SynthConfig()) -> VerifyResult:
    """Bounded model check of the block against the compiled spec.

    Unrolls the scan cycle one cycle at a time into a single growing
    formula (initial state all false unless symbolic_init) and asks after
    each cycle whether an obligation or assertion can fail there, so a
    Violated result carries a shortest counterexample within
    `unwind_cycles`, which provably replays on the simulator.
    """
    _check_same_interface(block, spec)
    found = _unroll([block], cfg.symbolic_init, cfg.unwind_cycles,
                    lambda envs: _violation_exprs(spec, envs[0]), cfg.seed)
    if found is None:
        return Verified(cfg.unwind_cycles)
    return Violated(_replay(block, spec, *found))


def equivalent(a: Block, b: Block,
               cfg: SynthConfig = SynthConfig()) -> VerifyResult:
    """Verified iff outputs agree on every input and initial-state pattern
    across `unwind_cycles` cycles; otherwise a shortest distinguishing
    counterexample is returned."""
    if _non_temp_decls(a.interface) != _non_temp_decls(b.interface):
        raise TypeCheckError("blocks have different interfaces")
    outputs = a.interface.outputs
    found = _unroll([a, b], True, cfg.unwind_cycles,
                    lambda envs: [_xor(envs[0][o], envs[1][o]) for o in outputs],
                    cfg.seed)
    if found is None:
        return Verified(cfg.unwind_cycles)
    init_state, input_cycles = found
    trace_a = simulate(a, input_cycles, init_state)
    trace_b = simulate(b, input_cycles, init_state)
    for index, (ca, cb) in enumerate(zip(trace_a.cycles, trace_b.cycles)):
        for output in outputs:
            if ca.outputs[output] != cb.outputs[output]:
                return Violated(Counterexample(
                    init_state, tuple(dict(c) for c in input_cycles),
                    f"outputs differ: {output}", index))
    raise AssertionError("solver difference witness does not replay")


# --------------------------------------------------------------------------
# Point specs: what synthesis must achieve at each concrete input point


def _pinned(obligations: Mapping[str, Sequence[ObligationClause]], output: str,
            original: BoolExpr, release: Sequence[BoolExpr] = ()
            ) -> dict[str, tuple[ObligationClause, ...]]:
    """`obligations` plus two clauses holding `output` to `original`
    wherever none of the `release` guards fires: NOT released AND original
    demands 1, NOT released AND NOT original demands 0.  They come from no
    source constraint, so their origin is -1."""
    held = _not(_disj(release))
    pin = (ObligationClause(_and(held, original), True, -1),
           ObligationClause(_and(held, _not(original)), False, -1))
    return {**obligations, output: (*obligations.get(output, ()), *pin)}


class _PointSpec:
    """What a candidate's outputs must do at each input point.

    Combines obligation clauses and assertions; simplify and extend pin
    an output to the original block's behavior with two more obligation
    clauses (`_pinned`).  Everything is read off truth tables: ints with
    one bit per point of the input cube, numbered in `itertools.product`
    order with the first input as the most significant bit, so the lowest
    set bit is the first point in that order.  `memo` keeps the tables of
    the guards, `ok` one table per output valuation.  Past _CUBE_INPUTS
    inputs there is no cube: the same walk runs on one point at a time
    with width-1 masks, and `_find_violation` asks the SAT solver.
    """

    def __init__(self, input_names: Sequence[str], outputs: Sequence[str],
                 obligations: Mapping[str, Sequence[ObligationClause]],
                 assertions: Sequence[AssertionClause] = ()):
        self.input_names = list(input_names)
        self.outputs = list(outputs)
        self.obligations = {o: tuple(obligations.get(o, ())) for o in outputs}
        self.assertions = tuple(assertions)
        n = len(self.input_names)
        self.cube = n <= _CUBE_INPUTS
        if self.cube:
            # input i is true in the upper half of every run of 2^(s+1)
            # points, s = n - 1 - i
            self.full = (1 << (1 << n)) - 1
            self.env = {name: self.full // ((1 << (2 << s)) - 1)
                        * (((1 << (1 << s)) - 1) << (1 << s))
                        for s, name in zip(range(n - 1, -1, -1), self.input_names)}
            self.memo: dict[int, int] = {}

    def lowest(self, mask: int) -> Optional[tuple[bool, ...]]:
        """The first point of a cube mask, None for an empty one."""
        if not mask:
            return None
        index, n = (mask & -mask).bit_length() - 1, len(self.input_names)
        return tuple(bool(index >> (n - 1 - i) & 1) for i in range(n))

    def failing(self, outs: Mapping[str, int], env: Mapping[str, int], full: int,
                memo: dict[int, int]) -> int:
        """Points where outputs with truth tables `outs` break the spec;
        `memo` holds guard tables over the input tables `env`."""
        bad = 0
        for output in self.outputs:
            out = outs[output]
            for clause in self.obligations[output]:
                wrong = full ^ out if clause.value else out
                bad |= _mask(clause.guard, env, full, memo) & wrong
        env, memo = {**env, **outs}, {}
        for clause in self.assertions:
            bad |= full ^ _mask(clause.expr, env, full, memo)
        return bad

    def _ok(self, env: Mapping[str, int], full: int, memo: dict[int, int]) -> list[int]:
        tables = ({o: full if bit else 0 for o, bit in zip(self.outputs, bits)}
                  for bits in itertools.product((False, True), repeat=len(self.outputs)))
        return [full ^ self.failing(outs, env, full, memo) for outs in tables]

    @cached_property
    def ok(self) -> list[int]:
        """Per output valuation (product order), the points it meets the spec at."""
        return self._ok(self.env, self.full, self.memo)

    def allowed(self, point: tuple[bool, ...]) -> list[tuple[bool, ...]]:
        """Output valuations (in `outputs` order) meeting the point."""
        if self.cube:
            oks = self.ok
            bit = sum(1 << (len(point) - 1 - i) for i, v in enumerate(point) if v)
        else:
            env = {name: int(v) for name, v in zip(self.input_names, point)}
            oks, bit = self._ok(env, 1, {}), 0
        valuations = itertools.product((False, True), repeat=len(self.outputs))
        return [bits for bits, ok in zip(valuations, oks) if ok >> bit & 1]

    def min_slot_bound(self) -> int:
        """Sound lower bound on the slot count of any satisfying program,
        the larger of two arguments; 1 without a cube or inputs.

        Input count (up to 4 outputs): stripping dead code leaves every
        non-output slot feeding another slot, which caps the number of
        distinct input references at (#binary slots) + (#outputs); a spec
        that forces the outputs to react to r distinct inputs therefore
        needs >= r - (#outputs) slots.  Input i counts when flipping it
        turns a point where some output is forced to one value into a
        point where it is forced to the other.

        Enumeration (one output, when the input count gives 2 or less):
        a one-slot program computes an input, 0, full, NOT of an input or
        AND/OR/XOR of two inputs; a two-slot one, besides those, NOT of a
        one-slot table or AND/OR/XOR of one with an input.  The least k
        whose tables hold one meeting the spec, else 3, is exact up to
        two slots, so no template of fewer slots than this bound can hold
        a program.
        """
        n, m = len(self.input_names), len(self.outputs)
        if n == 0 or not self.cube or m > 4:
            return 1
        forced = []  # per output: points where every allowed valuation sets it 0 / 1
        for o in range(m):
            can = [0, 0]
            for bits, ok in zip(itertools.product((False, True), repeat=m), self.ok):
                can[bits[o]] |= ok
            forced.append((can[0] & ~can[1], can[1] & ~can[0]))
        required = sum(any(((f0 & (f1 >> shift)) | (f1 & (f0 >> shift))) & ~self.env[name]
                           for f0, f1 in forced)
                       for name, shift in zip(self.input_names,
                                              (1 << s for s in range(n - 1, -1, -1))))
        bound = max(1, required - m)
        if m > 1 or bound > 2:
            return bound
        full, inputs = self.full, list(self.env.values())
        # points where the output must be 0, where it must be 1
        must0, must1 = full & ~self.ok[1], full & ~self.ok[0]
        one = {0, full, *inputs, *(full ^ x for x in inputs)}
        for x, y in itertools.combinations(inputs, 2):
            one |= {x & y, x | y, x ^ y}
        two = (g for f in one
               for g in (full ^ f, *(h for x in inputs for h in (f & x, f | x, f ^ x))))
        exact = next((k for k, tables in enumerate((one, two), 1)
                      if any(f & must0 == 0 and f & must1 == must1 for f in tables)), 3)
        return max(bound, exact)

    def violation_expr(self, input_vars: Mapping[str, BoolExpr],
                       outs: Mapping[str, BoolExpr]) -> BoolExpr:
        """Fully symbolic violation predicate (for SAT-based verification)."""
        return _disj(_violation_exprs(self, {**input_vars, **outs}))

    def dead_point(self, seed: int) -> Optional[tuple[bool, ...]]:
        """A point that no output valuation meets, or None: the first one
        in the cube, past it whichever one SAT finds."""
        if self.cube:
            return self.lowest(self.full & ~reduce(or_, self.ok))
        input_vars = {name: Var(name) for name in self.input_names}
        valuations = itertools.product((FALSE, TRUE), repeat=len(self.outputs))
        every = _conj([self.violation_expr(input_vars, dict(zip(self.outputs, v)))
                       for v in valuations])
        return _sat_point(every, self.input_names, seed)


# --------------------------------------------------------------------------
# Slot templates


@dataclass(frozen=True)
class _SlotShape:
    """Decoded slot: operator tag, operand indices, constant value."""
    op: tuple
    args: tuple[int, int] = (0, 0)
    const: bool = False


# Clauses tying a slot's value at a point to its operator, each also
# guarded by the operator's selector.  Role codes: 1 is the slot value, 2
# and 3 its operand values, 4 its constant bit; a minus sign negates.
_OP_CLAUSES = {
    "const": ((-1, 4), (1, -4)),
    "not": ((-1, -2), (1, 2)),
    "and": ((-1, 2), (-1, 3), (1, -2, -3)),
    "or": ((1, -2), (1, -3), (-1, 2, 3)),
    "xor": ((-1, 2, 3), (-1, -2, -3), (1, -2, 3), (1, 2, -3)),
}


def _gate_and(a, b) -> tuple:
    return ("&", a, b)


def _gate_or(a, b) -> tuple:
    return ("|", a, b)


def _gate(node, out: list[tuple[int, ...]], fresh: Callable[[], int],
          memo: dict[int, int]) -> int:
    """Literal of a gate node: an int literal, ("-", node) for a negation
    or (kind, left, right) for an AND ("&"), OR ("|") or XOR ("^") gate.
    On a gate's first use its operands are encoded, it is numbered by
    `fresh` and its Tseitin definition is appended to `out`."""
    if type(node) is int:
        return node
    if node[0] == "-":
        return -_gate(node[1], out, fresh, memo)
    v = memo.get(id(node))
    if v is None:
        kind, a, b = node
        a, b = _gate(a, out, fresh, memo), _gate(b, out, fresh, memo)
        v = memo[id(node)] = fresh()
        if kind == "&":
            out += ((-v, a), (-v, b), (v, -a, -b))
        elif kind == "|":
            out += ((-v, a, b), (v, -a), (v, -b))
        else:
            out += ((-v, a, b), (-v, -a, -b), (v, a, -b), (v, -a, b))
    return v


def _one_hot(lits: list[int]) -> list[tuple[int, ...]]:
    """Exactly one of the literals: at least one, then at most one of each
    pair, every clause with its literals last to first."""
    return [tuple(lits[::-1]), *((-b, -a) for a, b in itertools.combinations(lits, 2))]


class _SlotTemplate:
    """Selector-variable encoding of straight-line candidate programs, and
    the one incremental solver that searches it.

    Slot j computes one of: an input, a constant, NOT, AND, OR, XOR of
    operands drawn from the inputs and earlier slots.  Selectors are
    one-hot variables, so per-point semantics turn into short implication
    clauses that propagate well.  The template numbers every variable
    itself (`num_vars` counts them) and keeps its selectors as ints for
    `decode`.  Construction loads the well-formedness clauses into
    `solver`; `add_point` adds one point's clauses, and the solver keeps
    its learned clauses and activities between `solve` calls.  The int
    clauses are numbered and ordered as the Tseitin encoding of the same
    constraints as expressions was, since search is very sensitive to
    that order.
    """

    def __init__(self, input_names: Sequence[str], n_slots: int,
                 outputs: Sequence[str], seed: int, prune: bool = True,
                 originals: Optional[list[_SlotShape]] = None,
                 edit_budget: Optional[int] = None):
        self.inputs = list(input_names)
        self.n = len(self.inputs)
        self.k = n_slots
        self.outputs = list(outputs)
        self.ops: list[tuple] = [("input", i) for i in range(self.n)]
        self.ops += [("const",), ("not",), ("and",), ("or",), ("xor",)]
        self.prune = prune
        self.originals = originals
        self.edit_budget = edit_budget
        if originals is not None and edit_budget < n_slots - len(originals):
            raise ValueError("edit budget below the number of added slots")
        self._idx = {op: i for i, op in enumerate(self.ops)}
        self._binary_ids = [self._idx[op] for op in (("and",), ("or",), ("xor",))]
        self._leaf_ids = [i for i, op in enumerate(self.ops)
                          if op[0] in ("input", "const")]
        self.num_vars = 0
        clauses = self._wellformed_clauses()
        self.solver = CdclSolver(CnfFormula(0, ()), seed=seed)
        self.solver.extend(self.num_vars, clauses)

    def _op_uses(self, op: tuple) -> int:
        return {"input": 0, "const": 0, "not": 1}.get(op[0], 2)

    def _fresh(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def _cv(self, j: int) -> int:
        """Slot j's constant bit.  A slot with no operands (slot 0 without
        inputs) gets it numbered where it is first mentioned: the edit
        counter, the duplicate-slot rule or the first point."""
        if self._cvs[j] is None:
            self._cvs[j] = self._fresh()
        return self._cvs[j]

    # -- well-formedness and pruning constraints

    def _wellformed_clauses(self) -> list[tuple[int, ...]]:
        """Int clauses making the selectors describe one program: one-hot
        operator, operand and output selectors with unused ones pinned,
        then a repair template's edit budget, then the pruning rules.

        Selectors are numbered in first appearance, reading the
        constraints in order; the gates of the slot-use, duplicate-slot and
        edit-counter constraints after all selectors.  Clauses are
        gathered in reading order, each with its literals last to first;
        the last pass reverses the list and numbers every gate where it is
        first met (a slot's match test, shared by its counter row, once).
        That is the CNF the Tseitin encoding of these constraints as one
        conjunction gives, and search depends on it: golden digests in the
        tests pin it.
        """
        k, fresh = self.k, self._fresh
        fwd: list = []  # clause tuples, or lists holding gate nodes
        # per slot: operator selectors, both operand selector lists
        self._selectors: list[tuple[list[int], list[list[int]]]] = []
        self._cvs: list[Optional[int]] = []  # constant bits; None until mentioned
        for j in range(k):
            dom = self.n + j  # operands: the inputs, then earlier slots
            op_sels = [fresh() for _ in self.ops]
            fwd += _one_hot(op_sels)
            arg_sels = []
            for which in (0, 1):
                arg_sels.append([fresh() for _ in range(dom)])
                if dom:
                    fwd += _one_hot(arg_sels[which])
            cv = fresh() if dom else None
            for opv, op in zip(op_sels, self.ops):
                uses = self._op_uses(op)
                if dom == 0 and uses > 0:
                    fwd.append((-opv,))
                    continue
                # pin unused operand selectors and the constant bit
                if dom:
                    fwd += [(arg_sels[which][0], -opv) for which in range(uses, 2)]
                if op[0] != "const":
                    fwd.append((-cv, -opv))
            self._selectors.append((op_sels, arg_sels))
            self._cvs.append(cv)
        # per output of a joint template: which slot it reads
        joint = len(self.outputs) > 1
        self._outs = [[fresh() for _ in range(k)] for _ in self.outputs if joint]
        for row in self._outs:
            fwd += _one_hot(row)
        if self.originals is not None:
            budget = self.edit_budget - (k - len(self.originals))
            if budget < len(self.originals):
                fwd += self._edit_clauses(budget)
        if self.prune:
            fwd += self._pruning_clauses()
        clauses: list[tuple[int, ...]] = []
        memo: dict[int, int] = {}
        for clause in reversed(fwd):
            if type(clause) is list:
                clause = tuple([_gate(lit, clauses, fresh, memo) for lit in clause])
            clauses.append(clause)
        return clauses

    def _pruning_clauses(self) -> list:
        """Rules that only cut redundant programs: symmetric or reducible
        slots, dead slots and duplicate slots."""
        n, k, sels, outs = self.n, self.k, self._selectors, self._outs
        not_id = self._idx[("not",)]
        clauses: list = []
        for j, (op_sels, (arg0, arg1)) in enumerate(sels):
            taps = [row[j] for row in reversed(outs)]  # output selectors of slot j
            tapped = j == k - 1 and not outs  # the single output reads it
            # inputs/constants are only useful where an output taps the slot
            if not tapped:
                clauses += [(*taps, -op_sels[i]) for i in self._leaf_ids]
            # commutative operators take strictly ordered operands
            for i in self._binary_ids:
                clauses += [(-a1, -a0, -op_sels[i])
                            for d0, a0 in enumerate(arg0) for a1 in arg1[:d0 + 1]]
            # double negation is always reducible
            clauses += [(-sels[d - n][0][not_id], -arg0[d], -op_sels[not_id])
                        for d in range(n, n + j)]
            # every slot must feed a later slot or an output
            if not tapped:
                used: list = []
                for later_ops, (later0, later1) in reversed(sels[j + 1:]):
                    binary = [later_ops[i] for i in self._binary_ids]
                    leafish = [later_ops[i] for i in self._leaf_ids]
                    used.append(("&", later1[n + j], _fold(binary, _gate_or, None)))
                    used.append(("&", later0[n + j], ("-", _fold(leafish, _gate_or, None))))
                clauses.append(used + taps)
        # no two slots compute the same thing
        for i, (ops_i, args_i) in enumerate(sels):
            for j in range(i + 1, k):
                ops_j, args_j = sels[j]
                same = [_fold([("&", a, b) for a, b in zip(ops_i, ops_j)], _gate_or, None)]
                if n + i:
                    same += [_fold([("&", a, b) for a, b in zip(args_i[w], args_j[w])],
                                   _gate_or, None) for w in (0, 1)]
                same.append(("-", ("^", self._cv(i), self._cv(j))))
                clauses.append([("-", _fold(same, _gate_and, None))])
        return clauses

    # -- repair: distance to the original encoding

    def _edit_clauses(self, bound: int) -> list:
        """At most `bound` slots differ from the original program: a
        sequential counter over the slots, where slot j counts as changed
        unless an AND gate tree matches it to its original shape."""
        matches = []
        for j, shape in enumerate(self.originals):
            op_sels, arg_sels = self._selectors[j]
            lits = [op_sels[self._idx[shape.op]]]
            if arg_sels[0]:
                uses = self._op_uses(shape.op)
                lits += [arg_sels[w][shape.args[w] if w < uses else 0] for w in (0, 1)]
            cv = self._cv(j)
            lits.append(cv if shape.op[0] == "const" and shape.const else -cv)
            matches.append(lits)
        if bound == 0:  # every slot matches
            return [(lit,) for lits in matches for lit in lits]
        same = [_fold(lits, _gate_and, None) for lits in matches]
        regs = [[self._fresh() for _ in range(bound)] for _ in range(len(same) - 1)]
        clauses: list = [[regs[0][0], same[0]], *((-r,) for r in regs[0][1:])]
        for i in range(1, len(same) - 1):
            prev, row = regs[i - 1], regs[i]
            clauses += ([row[0], same[i]], (row[0], -prev[0]))
            for c in range(1, bound):
                clauses += ([row[c], -prev[c - 1], same[i]], (row[c], -prev[c]))
            clauses.append([-prev[-1], same[i]])
        clauses.append([-regs[-1][-1], same[-1]])
        return clauses

    # -- per-point evaluation

    def add_point(self, point: tuple[bool, ...], pspec: _PointSpec) -> None:
        """Load the int clauses defining the candidate's slot values at one
        concrete input point and requiring the spec to hold there.

        Disallowed output valuations are blocked by clauses over the
        output values (defined from the output selectors when there are
        several outputs).  New variables are numbered in first appearance
        and the clauses come last to first with reversed literals: the CNF
        the Tseitin flattening of their conjunction gave, as search is very
        sensitive to that order.
        """
        n, fresh = self.n, self._fresh
        sign = [1 if bit else -1 for bit in point]
        clauses: list[tuple[int, ...]] = []
        add = clauses.append
        vals: list[int] = []
        for j, (op_sels, arg_sels) in enumerate(self._selectors):
            operands: list[int] = []
            for sels in arg_sels:
                if not sels:
                    break
                av = fresh()
                operands.append(av)
                for d, sel in enumerate(sels):
                    if d < n:
                        # operand is an input: its value at this point is fixed
                        add((-sel, sign[d] * av))
                    else:
                        add((-sel, -av, vals[d - n]))
                        add((-sel, av, -vals[d - n]))
            val = fresh()
            vals.append(val)
            cv = self._cv(j)
            while len(operands) < 2:  # no operand selectors: first seen below
                operands.append(fresh())
            roles = (0, val, *operands, cv)
            for opv, op in zip(op_sels, self.ops):
                if op[0] == "input":
                    add((-opv, sign[op[1]] * val))
                    continue
                for pattern in _OP_CLAUSES[op[0]]:
                    add((-opv, *[roles[r] if r > 0 else -roles[-r] for r in pattern]))
        outs = [vals[-1]] if not self._outs else []
        for row in self._outs:
            out = fresh()
            outs.append(out)
            for sel, v in zip(row, vals):
                add((-sel, -v, out))
                add((-sel, v, -out))
        allowed = pspec.allowed(point)
        blocked: dict[tuple[int, ...], None] = {}
        for bits in itertools.product((False, True), repeat=len(outs)):
            if bits in allowed:
                continue
            keep = list(range(len(outs)))  # widen while it blocks no allowed one
            for i in range(len(outs)):
                if not any(all(a[x] == bits[x] for x in keep if x != i) for a in allowed):
                    keep.remove(i)
            blocked[tuple(-outs[x] if bits[x] else outs[x] for x in keep)] = None
        clauses += blocked
        clauses = [clause[::-1] for clause in reversed(clauses)]
        self.solver.extend(self.num_vars, clauses)

    # -- search and decoding

    def solve(self) -> Optional[dict[str, BoolExpr]]:
        """The candidate of the solver's next model, None once UNSAT."""
        result = self.solver.solve()
        return self.decode(result.model) if result.satisfiable else None

    def decode(self, model: Mapping[int, bool]) -> dict[str, BoolExpr]:
        """Per-output expressions of the program the model's selectors pick."""
        def one_hot(sels: Sequence[int]) -> int:
            return next((i for i, v in enumerate(sels) if model[v]), 0)

        memo: dict[int, BoolExpr] = {}

        def operand(d: int) -> BoolExpr:
            if d < self.n:
                return Var(self.inputs[d])
            return slot_expr(d - self.n)

        def slot_expr(j: int) -> BoolExpr:
            if j in memo:
                return memo[j]
            op_sels, (arg0, arg1) = self._selectors[j]
            op = self.ops[one_hot(op_sels)]
            kind = op[0]
            if kind == "input":
                expr: BoolExpr = Var(self.inputs[op[1]])
            elif kind == "const":
                cv = self._cvs[j]  # unmentioned only before any point
                expr = Const(cv is not None and model[cv])
            else:
                a = operand(one_hot(arg0))
                if kind == "not":
                    expr = Not(a)
                else:
                    b = operand(one_hot(arg1))
                    expr = {"and": And, "or": Or, "xor": Xor}[kind](a, b)
            memo[j] = expr
            return expr

        if not self._outs:
            return {self.outputs[0]: slot_expr(self.k - 1)}
        return {name: slot_expr(one_hot(row)) for name, row in zip(self.outputs, self._outs)}


# --------------------------------------------------------------------------
# Original program encoding (for repair templates)


def _encode_original(expr: BoolExpr, template_inputs: Sequence[str]) -> list[_SlotShape]:
    """Post-order slot encoding; Var/Const leaves inline as operands where
    possible, the root always lands in the last slot."""
    input_index = {name: i for i, name in enumerate(template_inputs)}
    n = len(template_inputs)
    slots: list[_SlotShape] = []

    def emit(shape: _SlotShape) -> int:
        slots.append(shape)
        return n + len(slots) - 1

    def operand(node: BoolExpr) -> int:
        if isinstance(node, Var):
            return input_index[node.name]
        return walk(node)

    def walk(node: BoolExpr) -> int:
        if isinstance(node, Var):
            return emit(_SlotShape(("input", input_index[node.name])))
        if isinstance(node, Const):
            return emit(_SlotShape(("const",), const=node.value))
        if isinstance(node, Not):
            a = operand(node.operand)
            return emit(_SlotShape(("not",), (a, 0)))
        a = operand(node.left)
        b = operand(node.right)
        kind = {And: "and", Or: "or", Xor: "xor"}[type(node)]
        return emit(_SlotShape((kind,), (a, b)))

    walk(expr)
    return slots


# --------------------------------------------------------------------------
# The CEGIS loop


def _find_violation(out_exprs: Mapping[str, BoolExpr], pspec: _PointSpec,
                    seed: int) -> Optional[tuple[bool, ...]]:
    """The first point (in product order) where the candidate's outputs
    break the spec; past _CUBE_INPUTS inputs, whichever one SAT finds."""
    if pspec.cube:
        memo: dict[int, int] = {}
        outs = {o: _mask(expr, pspec.env, pspec.full, memo)
                for o, expr in out_exprs.items()}
        return pspec.lowest(pspec.failing(outs, pspec.env, pspec.full, pspec.memo))
    input_vars = {name: Var(name) for name in pspec.input_names}
    return _sat_point(pspec.violation_expr(input_vars, out_exprs), pspec.input_names, seed)


def _sat_point(expr: BoolExpr, input_names: Sequence[str],
               seed: int) -> Optional[tuple[bool, ...]]:
    """An input point where `expr`, over the inputs, holds, or None."""
    if expr == FALSE:
        return None
    var_map = {name: i + 1 for i, name in enumerate(input_names)}
    enc = TseitinEncoder(var_map)
    root = enc.encode(expr)
    result = solve(enc.formula(), assumptions=[root], seed=seed)
    if not result.satisfiable:
        return None
    return tuple(result.model[var_map[name]] for name in input_names)


def _seed_points(pspec: _PointSpec) -> list[tuple[bool, ...]]:
    n = len(pspec.input_names)
    candidates = [(False,) * n, *(tuple(j == i for j in range(n)) for i in range(n)),
                  (True,) * n]
    # without assertions, only a firing guard rules out a valuation
    fixed = bool(pspec.assertions)
    every = list(itertools.product((False, True), repeat=len(pspec.outputs)))
    return [point for i, point in enumerate(candidates) if point not in candidates[:i]
            and (fixed or pspec.allowed(point) != every)]


def _run_cegis(label: str, rounds: Iterable[_SlotTemplate], pspec: _PointSpec,
               cfg: SynthConfig) -> tuple[Optional[dict[str, BoolExpr]], OutputSynthesis]:
    """First candidate (in round order) meeting the spec, or None when no
    template yields one, with the run's record under `label` (slots_used
    is the winning template's size, 0 without a candidate).

    Each template's own solver holds its well-formedness clauses and the
    points seen so far; every counterexample adds only its own point
    constraint before the solver is asked again.  A spec's dead point
    raises Unsatisfiable before any template is built, as the templates
    may run out before CEGIS reaches it."""
    start = time.perf_counter()
    iterations = counterexamples = 0
    dead = pspec.dead_point(cfg.seed)
    if dead is not None:
        witness = dict(zip(pspec.input_names, dead))
        pattern = " ".join(f"{n}={int(v)}" for n, v in witness.items())
        raise Unsatisfiable(f"spec is contradictory at input pattern: {pattern}", witness)
    points = _seed_points(pspec)
    for template in rounds:
        for point in points:
            template.add_point(point, pspec)
        while True:
            iterations += 1
            candidate = template.solve()
            if candidate is None:
                break
            violation = _find_violation(candidate, pspec, cfg.seed)
            if violation is None:
                return candidate, OutputSynthesis(label, template.k, iterations,
                                                  counterexamples,
                                                  time.perf_counter() - start)
            if violation in points:
                raise AssertionError("counterexample repeated")
            template.add_point(violation, pspec)
            points.append(violation)
            counterexamples += 1
    return None, OutputSynthesis(label, 0, iterations, counterexamples,
                                 time.perf_counter() - start)


def _deepening(pspec: _PointSpec, top: int, seed: int) -> Iterator[_SlotTemplate]:
    """Templates from the spec's slot lower bound up to `top` slots; the
    bound is computed on first use, inside the run that consumes them."""
    for k in range(pspec.min_slot_bound(), top + 1):
        yield _SlotTemplate(pspec.input_names, k, pspec.outputs, seed)


def _result(block: Block, runs: Sequence[OutputSynthesis],
            start: float) -> SynthesisResult:
    """The op's result: iterations, counterexamples and slots summed over
    its runs."""
    return SynthesisResult(block, sum(r.iterations for r in runs),
                           sum(r.counterexamples_used for r in runs),
                           sum(r.slots_used for r in runs),
                           time.perf_counter() - start, tuple(runs))


# --------------------------------------------------------------------------
# Public operations


def _split_assertions(spec: SpecFormula, outputs: Sequence[str]):
    """Assertions grouped by the single output they mention; input-only
    assertions go everywhere; returns (per_output, coupling)."""
    output_set = set(outputs)
    per_output: dict[str, list[AssertionClause]] = {o: [] for o in outputs}
    coupling: list[AssertionClause] = []
    for clause in spec.assertions:
        mentioned = sorted(expr_vars(clause.expr) & output_set)
        if len(mentioned) > 1:
            coupling.append(clause)
        elif len(mentioned) == 1:
            per_output[mentioned[0]].append(clause)
        else:
            for o in outputs:
                per_output[o].append(clause)
    return per_output, coupling


def _build_body(interface: BlockInterface,
                exprs: Mapping[str, BoolExpr]) -> tuple[Statement, ...]:
    return tuple(Statement(name, exprs[name])
                 for name in interface.outputs if name in exprs)


def synthesize(interface: BlockInterface, spec: SpecFormula,
               cfg: SynthConfig = SynthConfig(), *,
               name: str = "generated") -> SynthesisResult:
    """CEGIS over slot templates with iterative deepening on the slot count.

    With per_output on, every output gets an independent run (assertions
    that couple several outputs force a joint run instead).  The returned
    block is minimal in slot count and verified against the spec.
    """
    start = time.perf_counter()
    if _non_temp_decls(interface) != _non_temp_decls(spec.interface):
        raise TypeCheckError("interface does not match the spec")
    _require_combinational(interface, "synthesize")
    inputs = interface.inputs
    outputs = interface.outputs
    if not outputs:
        raise TypeCheckError("synthesizable blocks need at least one output")
    per_assertions, coupling = _split_assertions(spec, outputs)
    full_pspec = _PointSpec(inputs, outputs, spec.obligations, spec.assertions)
    if cfg.per_output and not coupling and len(outputs) > 1:
        jobs = [(o, _PointSpec(inputs, [o], spec.obligations, per_assertions[o]))
                for o in outputs]
    else:
        jobs = [(outputs[0] if len(outputs) == 1 else "*", full_pspec)]

    runs: list[OutputSynthesis] = []
    exprs: dict[str, BoolExpr] = {}
    for label, pspec in jobs:
        candidate, run = _run_cegis(label, _deepening(pspec, cfg.max_slots, cfg.seed),
                                    pspec, cfg)
        if candidate is None:
            raise SizeBoundExceeded(cfg.max_slots)
        exprs.update(candidate)
        runs.append(run)
    block = Block(name, interface, _build_body(interface, exprs), Lang.ST)
    if _find_violation(exprs, full_pspec, cfg.seed) is not None:
        raise AssertionError("synthesized block fails its spec")
    return _result(block, runs, start)


def _original_exprs(block: Block) -> dict[str, BoolExpr]:
    """Per-output expressions of the block with temps inlined."""
    inputs = {name: Var(name) for name in block.interface.inputs}
    env = _symbolic_cycle(block, {}, inputs)
    return {o: env[o] for o in block.interface.outputs}


def _slot_count(expr: BoolExpr) -> int:
    """Slots the expression takes as straight-line code: one per distinct
    operator or constant subterm, as a slot's result can be read again; a
    bare variable still takes the one slot that feeds the output."""
    if isinstance(expr, Var):
        return 1
    seen: set[BoolExpr] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var) or node in seen:
            continue
        seen.add(node)
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or, Xor)):
            stack += (node.left, node.right)
    return len(seen)


def _repair_rounds(originals: list[_SlotShape], inputs: Sequence[str],
                   output: str, cfg: SynthConfig):
    n_orig = len(originals)
    max_extra = max(0, cfg.max_slots - n_orig)
    for edits in range(0, n_orig + max_extra + 1):
        for extra in range(0, min(edits, max_extra) + 1):
            yield _SlotTemplate(inputs, n_orig + extra, [output], cfg.seed, prune=False,
                                originals=originals, edit_budget=edits)


def _minimal_edit_synthesis(block: Block, spec: SpecFormula, cfg: SynthConfig,
                            what: str) -> SynthesisResult:
    """Shared core of repair and extend: per output, find the candidate
    with the fewest changed slots (then fewest slots) meeting its spec.
    Extend also pins each output that no assertion mentions to the block's
    behavior wherever none of that output's guards fire."""
    start = time.perf_counter()
    _check_same_interface(block, spec)
    per_assertions, coupling = _split_assertions(spec, block.interface.outputs)
    if coupling:
        raise TypeCheckError("assertions couple several outputs; "
                             f"{what} handles per-output specs only")
    _require_combinational(block.interface, what)
    inputs = block.interface.inputs
    originals = _original_exprs(block)
    exprs = dict(originals)
    runs: list[OutputSynthesis] = []
    for output in block.interface.outputs:
        pinned = what == "extend" and not any(output in expr_vars(c.expr)
                                              for c in spec.assertions)
        obligations = spec.obligations
        if pinned:
            obligations = _pinned(obligations, output, originals[output],
                                  [c.guard for c in obligations.get(output, ())])
        pspec = _PointSpec(inputs, [output], obligations, per_assertions[output])
        check_start = time.perf_counter()
        if _find_violation({output: originals[output]}, pspec, cfg.seed) is None:
            runs.append(OutputSynthesis(output, 0, 0, 0,
                                        time.perf_counter() - check_start))
            continue
        shapes = _encode_original(originals[output], inputs)
        candidate, run = _run_cegis(output, _repair_rounds(shapes, inputs, output, cfg),
                                    pspec, cfg)
        if candidate is None:
            raise SizeBoundExceeded(cfg.max_slots)
        exprs[output] = candidate[output]
        # repair templates keep dead slots, so count what is written
        runs.append(replace(run, slots_used=_slot_count(candidate[output])))
    if exprs != originals:
        assigned = {s.target for s in block.body}
        body = tuple(Statement(o, exprs[o]) for o in block.interface.outputs
                     if o in assigned or exprs[o] != FALSE)
        block = Block(block.name, block.interface, body, block.lang)
    return _result(block, runs, start)


def repair(block: Block, spec: SpecFormula,
           cfg: SynthConfig = SynthConfig()) -> SynthesisResult:
    """Make the block satisfy the spec by changing as few slots of its
    straight-line encoding as possible, then using as few slots as
    possible.  A slot counts as changed when its operator, operands or
    constant differ, however many expression nodes that touches, so
    `a OR b` may become `b AND a`.  A block that already verifies is
    returned unchanged with zero iterations."""
    return _minimal_edit_synthesis(block, spec, cfg, "repair")


def simplify(block: Block, cfg: SynthConfig = SynthConfig()) -> SynthesisResult:
    """Slot-minimal block with behavior exhaustively equal to the input;
    the result never uses more slots than the original encoding."""
    _require_combinational(block.interface, "simplify")
    start = time.perf_counter()
    inputs = block.interface.inputs
    originals = _original_exprs(block)
    assigned = {s.target for s in block.body}
    exprs: dict[str, BoolExpr] = {}
    runs: list[OutputSynthesis] = []
    for output in block.interface.outputs:
        if output not in assigned:
            continue
        pspec = _PointSpec(inputs, [output], _pinned({}, output, originals[output]))
        orig_size = len(_encode_original(originals[output], inputs))
        top = min(cfg.max_slots, orig_size)
        candidate, run = _run_cegis(output, _deepening(pspec, top, cfg.seed), pspec, cfg)
        if candidate is None:
            # the original does not fit max_slots and nothing smaller works
            candidate = {output: originals[output]}
            run = replace(run, slots_used=orig_size)
        exprs.update(candidate)
        runs.append(run)
    body = _build_body(block.interface, exprs)
    return _result(Block(block.name, block.interface, body, block.lang), runs, start)


def extend(block: Block, extra: ConstraintList,
           cfg: SynthConfig = SynthConfig()) -> SynthesisResult:
    """Add the extra constraints' behavior with minimal edits; where the
    extra constraints say nothing, the original behavior is preserved
    (new constraints win on overlap)."""
    return _minimal_edit_synthesis(block, compile_spec(extra), cfg, "extend")
