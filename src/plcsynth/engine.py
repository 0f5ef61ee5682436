"""Bounded verification and counterexample-guided synthesis.

Verification, equivalence checking and, past _CUBE_INPUTS inputs, the
counterexample and dead-point searches of synthesis ask one bounded
checker, `_unroll`.  It grows one unrolled formula a scan cycle at a time
in a single incremental SAT solver, so the first counterexample found is a
shortest one, and it replays every model on the reference simulator.  A
`Verified (bound K)` rests on bound 1 alone where every run can start from
any state; on bound 1 and one induction step where a block with state
starts all-false and no clean cycle from any state is followed by a bad
one; else on all K bounds.  When the state vars and two cycles of inputs
fit the cube, the step is evaluated on truth tables, so it is an
evaluation fact and not a SAT answer.

Synthesis searches straight-line candidate programs described by a slot
template (operator and operand selector variables) with iterative
deepening on the slot count, so the first verified candidate is minimal.
Each template numbers its variables through one Tseitin encoder and owns
one incremental solver.  The encoder writes the gates of the template's
pruning and edit-counter rules, which are expressions over selector
literals; the template writes the other well-formedness constraints and
every counterexample point itself.  Both write clauses of literal codes
(2v for variable v, 2v+1 for its negation), each naming a variable once,
which the solver takes as they are.  Up to _CUBE_INPUTS inputs, the
spec and each candidate are truth tables held as Python ints (one bit per
input point), so the first point where a candidate fails is the lowest
set bit of one mask.  Wider specs go to `_unroll`, and a single point of
one is read by the clause walk, `_failing_clauses`.

Synthesis and simplification search over the inputs the spec depends on
(`_PointSpec.projected`): in the cube, those whose flip changes what the
spec allows somewhere; past it, those a guard or assertion mentions, and a
spec left with at most _CUBE_INPUTS of them gets the cube.  Candidates then
read only kept inputs, which keeps templates small and gives wide specs the
bitset checks and the slot lower bound; the least slot count does not
change, and their one driver still checks the block against the full
spec.
A single output that the spec forces to react to r inputs needs at least
r - 1 slots (`_PointSpec.min_slot_bound`), and every program of exactly
r - 1 slots that meets it is a read-once AND/OR/XOR tree over those
inputs.  So when deepening starts there, that one template is read-once:
binary slots only, each forced input and each slot but the last read
exactly once.  A spec that is not read-once leaves it UNSAT and deepening
goes on with full templates.

Repair and extension reuse the same template seeded with the original
program, one per slot count and over every input, as the original's
slots may read inputs the spec does not depend on; the edit budget is an
assumption on its counter of changed slots, so one solver serves every
budget.  They start at one edit, from the point where the original
fails, and at the spec's `min_slot_bound`.
Simplification runs synthesis's driver against the block's own behavior,
with the original as each output's known program: deepening stops at its
slot count, and an output that nothing smaller meets keeps it.
Simplification and extension pin outputs to the original block through
ordinary obligation clauses, so every run reads one spec model.  `check`
and every op but simplify report a contradictory spec from one place,
`_PointSpec.refute`, before CEGIS: an input point that no output
valuation meets and the constraints that clash there.
"""

from __future__ import annotations

import itertools
import time
from functools import cached_property, partial, reduce
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

# eval_expr is not called here; perfbench's tracer counts calls through
# engine.eval_expr, so the name stays
from .blocks import (
    FALSE, TRUE, And, Block, BlockInterface, BoolExpr, Const, Direction, Lang,
    Not, Or, Record, Statement, TypeCheckError, UnboundVariable, Var, VarDecl,
    Xor, eval_expr, expr_vars, fold_expr, rename_vars, replace, simulate,
)
from .constraints import (
    AssertionClause, ConstraintList, ObligationClause, SpecFormula,
    compile_spec, describe_clause,
)
from .sat import CdclSolver, CnfFormula, TseitinEncoder

# Specs with at most this many inputs are held as 2^n-bit truth tables.
_CUBE_INPUTS = 12

T = TypeVar("T")


class Unsatisfiable(Exception):
    """No program of any size can satisfy the spec: no output valuation
    meets it at the input point `witness` (every input, in interface
    order).  Up to _CUBE_INPUTS inputs that is the lowest such point in
    product order, past them whichever one SAT finds.  The message names
    the clauses that rule the valuations out there, one line each;
    `origins` holds their constraint indices, sorted (see
    `_PointSpec.refute`)."""

    def __init__(self, message: str, witness: dict[str, bool],
                 origins: tuple[int, ...]):
        super().__init__(message)
        self.witness = witness
        self.origins = origins


class SizeBoundExceeded(Exception):
    def __init__(self, max_slots: int):
        super().__init__(f"no candidate within {max_slots} slots")
        self.max_slots = max_slots


class SynthConfig(Record):
    """Settings shared by every op: solver seed, slot bound, and the bound
    and initial state of bounded checks."""
    seed: int = 0
    max_slots: int = 31
    unwind_cycles: int = 1
    symbolic_init: bool = False

    def __post_init__(self):
        if self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if self.unwind_cycles < 1:
            raise ValueError("unwind_cycles must be >= 1")


class Counterexample(Record):
    """A run that breaks a check: initial state, inputs per cycle, what
    fails (a clause's wording or the outputs that differ) and the cycle
    where it first fails."""
    init_state: dict[str, bool]
    input_cycles: tuple[dict, ...]
    violated: str
    cycle_index: int


class Verified(Record):
    """No run of at most `bound` scan cycles breaks the check."""
    bound: int


class Violated(Record):
    """A shortest run that breaks the check."""
    counterexample: Counterexample


VerifyResult = Verified | Violated


class OutputSynthesis(Record):
    """One CEGIS run: its output (a joint run's outputs joined by "*",
    see `_output_groups`), the inputs its templates read (synthesize and
    simplify keep those the spec depends on, see `_PointSpec.projected`),
    the slots it writes (each output's straight-line encoding,
    `_encode_original`) and the run's counts and time."""
    output: str
    inputs: tuple[str, ...]
    slots_used: int
    iterations: int
    counterexamples_used: int
    wall_time: float


class SynthesisResult(Record):
    """A synthesized or edited block with its counts summed over its CEGIS
    runs, its wall time and the runs themselves."""
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
    """Balanced fold of `items` by `op`, an expression constructor."""
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


_FOLDING = {Not: _not, And: _and, Or: _or, Xor: _xor}


def _const(value: bool) -> BoolExpr:
    return TRUE if value else FALSE


def _subst(expr: BoolExpr, env: Mapping[str, BoolExpr],
           memo: Optional[dict[int, BoolExpr]] = None) -> BoolExpr:
    """Replace variables by expressions, folding constants; shared
    subterms stay shared, across calls too when they share a `memo`
    (`fold_expr`'s)."""
    try:
        return fold_expr(expr, env.__getitem__, _const, _FOLDING, memo)
    except KeyError as exc:
        raise UnboundVariable(exc.args[0]) from None


def _mask(expr: BoolExpr, env: Mapping[str, int], full: int,
          memo: dict[int, int]) -> int:
    """Truth table of `expr` from its variables' tables in `env`: bit p is
    its value at point p, and `full` has every point's bit set.  `memo`
    is keyed by node identity and belongs to one `env`."""
    hit = memo.get(id(expr))
    if hit is not None:
        return hit
    try:
        return fold_expr(expr, env.__getitem__, lambda value: full if value else 0,
                         {Not: full.__xor__, And: int.__and__, Or: int.__or__,
                          Xor: int.__xor__}, memo)
    except KeyError as exc:
        raise UnboundVariable(exc.args[0]) from None


def _cube_tables(names: Sequence[str]) -> tuple[int, dict[str, int]]:
    """`_mask`'s `full` and `env` over the cube of `names`: bit p of a
    name's table is its value at point p, with the first name as the most
    significant bit of p.  Name i is true in the upper half of every run of
    2w points, w = 2^(n-1-i): name 0 on the upper half of the cube, and
    each next name's table is the last one XORed with itself shifted right
    by half its run length, one shift per name and no big-int division."""
    size = 1 << len(names)
    full = (1 << size) - 1
    env, table = {}, full ^ full >> size // 2
    for i, name in enumerate(names):
        env[name], table = table, table ^ table >> (size >> i + 2)
    return full, env


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


def _check_same_interface(a: BlockInterface, b: BlockInterface, message: str) -> None:
    """Raise TypeCheckError(message) unless both declare the same
    variables apart from temps."""
    a_decls, b_decls = ({d for d in i.decls if d.direction is not Direction.TEMP}
                        for i in (a, b))
    if a_decls != b_decls:
        raise TypeCheckError(message)


def _require_combinational(interface: BlockInterface, what: str) -> None:
    if interface.state_vars:
        raise TypeCheckError(f"{what} supports combinational blocks only "
                             f"(state vars: {', '.join(interface.state_vars)})")


# --------------------------------------------------------------------------
# The spec-failure rule


def _failures(spec: SpecFormula | _PointSpec, outs: Mapping[str, T],
              guard: Callable[[BoolExpr], T], assertion: Callable[[BoolExpr], T],
              and_op: Callable[[T, T], T], not_op: Callable[[T], T]
              ) -> Iterator[tuple[Optional[str], ObligationClause | AssertionClause, T]]:
    """Where each clause of `spec` (a SpecFormula or _PointSpec) fails, in
    spec order, obligations by output and then assertions: (output, clause,
    failure), output None for an assertion.  An obligation fails where its
    guard fires and its output has the other value; an assertion, where its
    expression is false.  `outs` holds the outputs' values, `guard` and
    `assertion` read a guard or an assertion's expression, and `and_op` and
    `not_op` combine values: expressions, truth tables or single points."""
    for output, clauses in spec.obligations.items():
        out = outs[output]
        for clause in clauses:
            yield output, clause, and_op(guard(clause.guard), not_op(out) if clause.value else out)
    for clause in spec.assertions:
        yield None, clause, not_op(assertion(clause.expr))


def _violation_exprs(spec: SpecFormula | _PointSpec,
                     env: Mapping[str, BoolExpr]) -> list[BoolExpr]:
    """Expressions that hold where a clause of `spec` fails, over the
    environment `env`, in spec order."""
    read = partial(_subst, env=env)
    return [bad for _, _, bad in _failures(spec, env, read, read, _and, _not)]


def _failing_clauses(spec: SpecFormula | _PointSpec, env: Mapping[str, bool]
                     ) -> Iterator[tuple[Optional[str], ObligationClause | AssertionClause]]:
    """(output, clause) of each clause of `spec` that fails at the concrete
    environment `env`, in spec order, output None for an assertion.  It
    reads width-1 truth tables, which take no Python stack frame per level
    of a deep guard."""
    bits = {name: int(value) for name, value in env.items()}
    read = partial(_mask, env=bits, full=1, memo={})
    return ((output, clause) for output, clause, bad
            in _failures(spec, bits, read, read, and_, (1).__xor__) if bad)


# --------------------------------------------------------------------------
# Bounded verification


def _step(block: Block, bad: Callable[[list[dict[str, BoolExpr]]], list[BoolExpr]],
          leaf: Callable[[str], BoolExpr | int]) -> Iterator[BoolExpr]:
    """The induction step's two scan cycles of `block` from a free state:
    each cycle's violation, the disjunction of `bad([env])`.  Its leaves
    come from `leaf(name)`: the state vars, then each input once per
    cycle, named `input@cycle` (no ST or IL identifier holds an `@`).  A
    generator, so the first violation can be encoded before the second
    cycle's leaves are made."""
    state = {s: leaf(s) for s in block.interface.state_vars}
    for c in range(2):
        env = _symbolic_cycle(block, state, {n: leaf(f"{n}@{c}") for n in block.interface.inputs})
        state = {s: env[s] for s in block.interface.state_vars}
        yield _disj(bad([env]))


def _unroll(blocks: Sequence[Block], symbolic_init: bool, cycles: int,
            bad: Callable[[list[dict[str, BoolExpr]]], list[BoolExpr]],
            violated: Callable[[list[dict[str, bool]]], Optional[str]],
            seed: int) -> VerifyResult:
    """Verified(cycles) when no run of at most `cycles` scan cycles ends in
    a cycle where one of `bad(envs)` holds, else Violated with a shortest
    such run.

    All blocks read the same inputs from the same initial state (all false
    unless symbolic_init).  One encoder and one solver serve every bound:
    each bound unrolls one more cycle, feeds the solver only the new
    clauses and solves under the assumption that this cycle's violation
    holds, so the first model found belongs to the shortest bound.  The
    initial state and inputs are int leaves, literal codes that the
    encoder numbered.

    Only bound 1 is asked when every run can start from any state: one
    block with symbolic_init, or blocks without state vars.  Proof: the
    last cycle of a run is a one-cycle run from the state before it,
    which is then an allowed start, so a bad run of any length means a
    bad run of one cycle.

    One block with state from the all-false start asks, once bound 1 is
    clean (UNSAT, or its violation folds to FALSE) and cycles > 1, the
    induction step (`_step`): two cycles from a free state, the first with
    no violation and the second with one.  When no such pair exists, no
    bound can fail and the call returns Verified(cycles).  Proof: cycle 0
    of every run is clean by bound 1, and the step carries a clean cycle
    to the next one.  When the state vars and both cycles' inputs number
    at most _CUBE_INPUTS, the step is two truth tables over those leaves,
    and an empty `bad1 AND NOT bad0` settles it by evaluation; past that,
    it is an encoder and solver of its own, solved under those two
    literals.  Otherwise the bounds go on as above; the step touches
    neither their encoder nor their solver, so their search and models
    are the same.

    Every model replays on the simulator before it is returned: `violated`
    names what fails on one cycle's concrete environments, one per block
    (inputs, outputs and state after the cycle), and the counterexample is
    its first cycle where it names something.  A model that does not
    replay raises AssertionError.
    """
    iface = blocks[0].interface
    new_solver = lambda: CdclSolver(CnfFormula(0, ()), seed=seed)
    enc = TseitinEncoder({})
    solver = new_solver()
    init = {s: enc.fresh() if symbolic_init else FALSE for s in iface.state_vars}
    states = [init] * len(blocks)
    input_vars: list[dict[str, int]] = []
    any_start = not iface.state_vars or (symbolic_init and len(blocks) == 1)
    for t in range(1 if any_start else cycles):
        if t == 1 and len(blocks) == 1:
            # bound 1 was clean, and a one-block check that gets here has
            # state and the all-false start: ask the induction step
            leaves = [*iface.state_vars, *(f"{n}@{c}" for c in range(2) for n in iface.inputs)]
            if len(leaves) <= _CUBE_INPUTS:
                full, env = _cube_tables(leaves)
                # one memo, keyed by node identity: the list keeps both alive
                bad0, bad1 = map(partial(_mask, env=env, full=full, memo={}),
                                 list(_step(blocks[0], bad, Var)))
                if not bad1 & ~bad0:
                    return Verified(cycles)
            else:
                step_enc = TseitinEncoder({})
                bad0, bad1 = map(step_enc.encode,
                                 _step(blocks[0], bad, lambda _: step_enc.fresh()))
                step_solver = new_solver()
                step_solver.extend(step_enc.num_vars, step_enc.clauses)
                if not step_solver.solve([bad1, bad0 ^ 1]).satisfiable:
                    return Verified(cycles)
        inputs = {n: enc.fresh() for n in iface.inputs}
        input_vars.append(inputs)
        envs = [_symbolic_cycle(b, state, inputs) for b, state in zip(blocks, states)]
        states = [{s: env[s] for s in iface.state_vars} for env in envs]
        violation = _disj(bad(envs))
        if violation == FALSE:
            continue
        root = enc.encode(violation)
        solver.extend(enc.num_vars, enc.clauses)
        enc.clauses.clear()  # the solver holds them now
        result = solver.solve([root])
        if not result.satisfiable:
            continue
        value = result.model
        init_state = {s: symbolic_init and value[c >> 1] for s, c in init.items()}
        input_cycles = tuple({n: value[c >> 1] for n, c in cycle.items()} for cycle in input_vars)
        traces = [simulate(b, input_cycles, init_state).cycles for b in blocks]
        for index, replayed in enumerate(zip(*traces)):
            text = violated([{**c.inputs, **c.outputs, **c.state_after} for c in replayed])
            if text is not None:
                return Violated(Counterexample(init_state, input_cycles, text, index))
        raise AssertionError("solver counterexample does not replay")
    return Verified(cycles)


def verify(block: Block, spec: SpecFormula,
           cfg: SynthConfig = SynthConfig()) -> VerifyResult:
    """Bounded model check of the block against the compiled spec: a
    shortest run of at most `unwind_cycles` cycles (initial state all false
    unless symbolic_init) at whose end an obligation or assertion fails,
    replayed on the simulator (see `_unroll`), else Verified.  With
    symbolic_init, or for a block without state, only one cycle is
    checked: any run's last cycle is a one-cycle run from an allowed
    start, so that answer holds at every bound.  From the all-false start,
    a block with state whose cycle 1 is clean is Verified at once when one
    induction step shows that no clean cycle, from any state, is followed
    by a bad one (on truth tables when the state and two cycles of inputs
    fit the cube, else by SAT); else every bound is checked."""
    _check_same_interface(block.interface, spec.interface,
                          "block and spec interfaces do not match")
    return _unroll([block], cfg.symbolic_init, cfg.unwind_cycles,
                   lambda envs: _violation_exprs(spec, envs[0]),
                   lambda envs: next((describe_clause(*failed)
                                      for failed in _failing_clauses(spec, envs[0])), None),
                   cfg.seed)


def equivalent(a: Block, b: Block,
               cfg: SynthConfig = SynthConfig()) -> VerifyResult:
    """Verified iff outputs agree on every input and initial-state pattern
    across `unwind_cycles` cycles; otherwise a shortest distinguishing
    counterexample is returned.  Blocks without state are compared on
    one cycle, which behaves like every later one."""
    _check_same_interface(a.interface, b.interface, "blocks have different interfaces")
    outputs = a.interface.outputs
    return _unroll([a, b], True, cfg.unwind_cycles,
                   lambda envs: [_xor(envs[0][o], envs[1][o]) for o in outputs],
                   lambda envs: next((f"outputs differ: {o}" for o in outputs
                                      if envs[0][o] != envs[1][o]), None),
                   cfg.seed)


# --------------------------------------------------------------------------
# Point specs: what synthesis must achieve at each concrete input point


def _pinned(obligations: Mapping[str, Sequence[ObligationClause]], output: str,
            original: BoolExpr, release: Sequence[BoolExpr] = ()
            ) -> dict[str, tuple[ObligationClause, ...]]:
    """`obligations` plus two clauses holding `output` to `original`
    wherever none of the `release` guards fires: NOT released AND original
    demands 1, NOT released AND NOT original demands 0.  They come from no
    source constraint, so their origin is -1.  Each release guard is
    rebuilt on its own: compiled guards share prefix nodes, and one pin
    clause must reach the SAT encoder, which numbers gates by node
    identity, with the separate gates of unshared guards."""
    held = _not(_disj([rename_vars(guard, {}) for guard in release]))
    pin = (ObligationClause(_and(held, original), True, -1),
           ObligationClause(_and(held, _not(original)), False, -1))
    return {**obligations, output: (*obligations.get(output, ()), *pin)}


class _PointSpec:
    """What a candidate's outputs must do at each input point.

    Combines obligation clauses and assertions; simplify and extend pin
    an output to the original block's behavior with two more obligation
    clauses (`_pinned`).  In the cube, everything is read off truth
    tables: ints with one bit per point of the input cube, numbered in `itertools.product`
    order with the first input as the most significant bit, so the lowest
    set bit is the first point in that order.  The obligations are read
    once, into each output's forcing masks (`forcing`): the points where
    some clause forces it to 0 and those where one forces it to 1.  A
    candidate's failures and `ok`, one table per output valuation, are
    then a few big-int operations per output (`failing`).  Past
    _CUBE_INPUTS inputs there is no cube and no table: `allowed` reads a
    point by the clause walk (`_failing_clauses`), and `_unroll` answers
    the SAT questions.
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
            # input i is bit shifts[i] of a point's number, so flipping it
            # moves the point by shifts[i]
            self.shifts = [1 << s for s in range(n - 1, -1, -1)]
            self.full, self.env = _cube_tables(self.input_names)

    @cached_property
    def valuations(self) -> list[tuple[bool, ...]]:
        """Every output valuation (in `outputs` order), in product order:
        the order of `ok` and of `allowed`'s answers."""
        return list(itertools.product((False, True), repeat=len(self.outputs)))

    def lowest(self, mask: int) -> Optional[tuple[bool, ...]]:
        """The first point of a cube mask, None for an empty one."""
        if not mask:
            return None
        index = (mask & -mask).bit_length() - 1
        return tuple(bool(index & shift) for shift in self.shifts)

    @cached_property
    def forcing(self) -> list[tuple[str, int, int]]:
        """Per output, (output, force0, force1): the points of the cube
        where some obligation forces it to 0 and where one forces it to 1,
        each the union of those clauses' guard tables."""
        memo: dict[int, int] = {}
        forcing = []
        for output, clauses in self.obligations.items():
            force = [0, 0]
            for clause in clauses:
                force[clause.value] |= _mask(clause.guard, self.env, self.full, memo)
            forcing.append((output, *force))
        return forcing

    def failing(self, outs: Mapping[str, int]) -> int:
        """Points of the cube where outputs with truth tables `outs` break
        the spec.

        This is the union of `_failures`' masks.  An obligation of value v
        fails where its guard fires and its output is not v, so the
        obligations of one output and value together fail on the union of
        their guards (force1 or force0) less the points where the output
        is v: force1 & ~out | force0 & out.  An assertion fails where its
        table, read over the inputs and `outs`, is 0."""
        full, bad = self.full, 0
        for output, force0, force1 in self.forcing:
            out = outs[output]
            bad |= force1 & ~out | force0 & out
        if self.assertions:
            assertion_env, memo = {**self.env, **outs}, {}
            for clause in self.assertions:
                bad |= full ^ _mask(clause.expr, assertion_env, full, memo)
        return bad

    @cached_property
    def ok(self) -> list[int]:
        """Per output valuation (product order), the points of the cube it
        meets the spec at."""
        full = self.full
        return [full ^ self.failing({o: full if bit else 0 for o, bit in zip(self.outputs, bits)})
                for bits in self.valuations]

    def allowed(self, point: tuple[bool, ...]) -> list[tuple[bool, ...]]:
        """Output valuations (in `outputs` order) meeting the point: read
        off `ok` in the cube, past it those where the clause walk finds no
        failing clause."""
        if not self.cube:
            env = dict(zip(self.input_names, point))
            return [bits for bits in self.valuations
                    if not any(_failing_clauses(self, {**env, **dict(zip(self.outputs, bits))}))]
        bit = sum(shift for shift, v in zip(self.shifts, point) if v)
        return [bits for bits, ok in zip(self.valuations, self.ok) if ok >> bit & 1]

    @cached_property
    def forced_flips(self) -> list[str]:
        """The inputs every satisfying program reads, in input order: input
        i counts when flipping it turns a point where some output is
        forced to one value into a point where it is forced to the other.
        None are found without a cube or past 4 outputs."""
        m = len(self.outputs)
        if not self.cube or m > 4:
            return []
        forced = []  # per output: points where every allowed valuation sets it 0 / 1
        for o in range(m):
            can = [0, 0]
            for bits, ok in zip(self.valuations, self.ok):
                can[bits[o]] |= ok
            forced.append((can[0] & ~can[1], can[1] & ~can[0]))
        return [name for name, shift in zip(self.input_names, self.shifts)
                if any(((f0 & (f1 >> shift)) | (f1 & (f0 >> shift))) & ~self.env[name]
                       for f0, f1 in forced)]

    def min_slot_bound(self) -> int:
        """Sound lower bound on the slot count of any satisfying program,
        the larger of two arguments; 1 without a cube or inputs.

        Input count (up to 4 outputs): stripping dead code leaves every
        non-output slot feeding another slot, which caps the number of
        distinct input references at (#binary slots) + (#outputs); a spec
        that forces the outputs to react to the r inputs of `forced_flips`
        therefore needs >= r - (#outputs) slots.

        Equality (one output, k = r - 1 >= 1 slots): every k-slot program
        meeting the spec is a read-once AND/OR/XOR tree over exactly the
        forced inputs.  Proof: count operand references; a constant makes
        none, NOT and an input copy one, AND/OR/XOR two.  Strip the dead
        slots, leaving k' <= k with the output last and every other slot
        read at least once; then at most 2k' - (k' - 1) - c references read
        inputs, where c counts the slots left that are not binary.  The
        program reads all r = k + 1 forced inputs, so k + 1 <= k' + 1 - c:
        k' = k and c = 0.  So no slot is dead, every slot is binary, and
        the 2k references are exactly k - 1 slot reads (one per slot but
        the last) and k + 1 input reads (one per forced input): no other
        input is read.  So a k-slot template may drop the constant, NOT
        and input-copy operators and every other input, and require each
        forced input and each slot but the last to be read exactly once
        (`_SlotTemplate` with read_once), without losing a program; if the
        spec is not read-once, it has none.

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
        bound = max(1, len(self.forced_flips) - m)
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

    def restricted(self, kept: Sequence[str]) -> _PointSpec:
        """The spec over the inputs `kept`, the others fixed to false.
        Obligations whose guard folds to false and assertions that fold
        to true are left out.  One substitution memo serves every clause,
        so guards that share nodes still do."""
        env: dict[str, BoolExpr] = {name: FALSE for name in self.input_names}
        env.update((name, Var(name)) for name in (*kept, *self.outputs))
        read = partial(_subst, env=env, memo={})
        obligations = {o: [replace(c, guard=guard) for c in clauses
                           for guard in [read(c.guard)] if guard != FALSE]
                       for o, clauses in self.obligations.items()}
        assertions = [replace(c, expr=expr) for c in self.assertions
                      for expr in [read(c.expr)] if expr != TRUE]
        return _PointSpec(kept, self.outputs, obligations, assertions)

    def projected(self) -> _PointSpec:
        """The spec over the inputs it depends on (itself when that is all
        of them), the others fixed to false by `restricted`.

        In the cube, input i is dropped when flipping it changes no `ok`
        table.  Past the cube, the inputs no guard or assertion mentions
        are dropped; when at most _CUBE_INPUTS remain, the spec is rebuilt
        with the cube and projected again, which gives it the bitset
        checks and `min_slot_bound`.

        Projection keeps the least slot count.  A program over the kept
        inputs that meets the projected spec meets the full one, since the
        full spec cannot tell a point from its twin with a dropped input
        flipped.  Conversely, set the dropped inputs of a program meeting
        the full spec to false and fold it: a slot that copies one becomes
        a constant; NOT, AND, OR or XOR with a constant becomes a
        constant, the other operand or its NOT, and a slot that only
        copies another slot's value goes once its readers read that slot.
        No slot is added, and the folded program meets the projected spec.
        """
        names = self.input_names
        if self.cube:
            kept = [name for name, shift in zip(names, self.shifts)
                    if any(((ok >> shift) ^ ok) & ~self.env[name] for ok in self.ok)]
        else:
            mentioned = set().union(
                *(expr_vars(c.guard) for clauses in self.obligations.values()
                  for c in clauses),
                *(expr_vars(c.expr) for c in self.assertions))
            kept = [name for name in names if name in mentioned]
        if len(kept) == len(names):
            return self
        spec = self.restricted(kept)
        return spec.projected() if spec.cube and not self.cube else spec

    @cached_property
    def interface(self) -> BlockInterface:
        """The spec's inputs and outputs, for one-cycle blocks past the cube."""
        return BlockInterface(tuple(
            [VarDecl(name, Direction.INPUT) for name in self.input_names]
            + [VarDecl(name, Direction.OUTPUT) for name in self.outputs]))

    def point(self, found: VerifyResult) -> Optional[tuple[bool, ...]]:
        """The input point of a one-cycle `_unroll` answer, None if Verified."""
        if isinstance(found, Verified):
            return None
        return tuple(found.counterexample.input_cycles[0][n] for n in self.input_names)

    def dead_point(self, seed: int) -> Optional[tuple[bool, ...]]:
        """A point that no output valuation meets, or None: the first one
        in the cube, past it whichever one SAT finds, checked by `allowed`."""
        if self.cube:
            return self.lowest(self.full & ~reduce(or_, self.ok))
        valuations = [dict(zip(self.outputs, map(_const, v))) for v in self.valuations]
        return self.point(_unroll(
            [Block("dead", self.interface, ())], False, 1,
            lambda envs: [_conj([_disj(_violation_exprs(self, {**envs[0], **v}))
                                 for v in valuations])],
            lambda envs: None if self.allowed(tuple(envs[0][n] for n in self.input_names))
            else "no output valuation meets the spec", seed))

    def refute(self, seed: int) -> None:
        """Raise Unsatisfiable at the spec's `dead_point`, if it has one.

        For each output valuation (product order) the message names the
        failing clause of lowest origin at that point, source clauses before
        pin clauses (origin -1), one line each, sorted by origin.  Together
        the named clauses rule out every valuation at the witness; the set
        is not promised to be minimal."""
        dead = self.dead_point(seed)
        if dead is None:
            return
        witness = dict(zip(self.input_names, dead))
        named: dict[str, int] = {}
        for bits in self.valuations:
            env = {**witness, **dict(zip(self.outputs, bits))}
            output, clause = min(_failing_clauses(self, env),
                                 key=lambda f: (f[1].origin < 0, f[1].origin))
            named[describe_clause(output, clause)] = clause.origin
        pattern = " ".join(f"{n}={int(v)}" for n, v in witness.items())
        raise Unsatisfiable("\n  ".join([f"spec is contradictory at input pattern: {pattern}",
                                         *sorted(named, key=named.get)]),
                            witness, tuple(sorted(set(named.values()))))


# --------------------------------------------------------------------------
# Slot templates


class _SlotShape(Record):
    """One slot of a straight-line program: its operator tag, `(cls,)` for
    an expression class of `_OPERATORS` or `(Var, i)` for a copy of input
    i; its operand indices (the inputs, then earlier slots; 0 where the
    operator reads fewer); its constant value (False unless a Const)."""
    op: tuple
    args: tuple[int, int] = (0, 0)
    const: bool = False


# The slot operators, in template order, by expression class: operand
# count, then the clauses tying a slot's value at a point to the operator,
# each also guarded by the operator's selector.  Role codes: 1 is the slot
# value, 2 and 3 its operand values, 4 its constant bit; a minus sign
# negates.  A Var slot copies one input, whose value at a point is fixed.
_OPERATORS: dict[type, tuple[int, tuple[tuple[int, ...], ...]]] = {
    Var: (0, ()),
    Const: (0, ((-1, 4), (1, -4))),
    Not: (1, ((-1, -2), (1, 2))),
    And: (2, ((-1, 2), (-1, 3), (1, -2, -3))),
    Or: (2, ((1, -2), (1, -3), (-1, 2, 3))),
    Xor: (2, ((-1, 2, 3), (-1, -2, -3), (1, -2, 3), (1, 2, -3))),
}


def _one_hot(lits: list[int]) -> list[tuple[int, ...]]:
    """Exactly one of the literal codes: at least one, then at most one of
    each pair, every clause with its literals last to first."""
    return [tuple(lits[::-1]), *((b ^ 1, a ^ 1) for a, b in itertools.combinations(lits, 2))]


class _SlotTemplate:
    """Selector-variable encoding of straight-line candidate programs, and
    the one incremental solver that searches it.

    Slot j computes one of: an input, a constant, NOT, AND, OR, XOR of
    operands drawn from the inputs and earlier slots.  Selectors are
    one-hot variables, so per-point semantics turn into short implication
    clauses that propagate well.  One Tseitin encoder numbers every
    variable of the template (`num_vars` counts them) and writes the gates
    of its well-formedness rules; the selectors stay literal codes, read
    by `decode` as `model[code >> 1]`.
    Construction loads the well-formedness clauses into `solver`;
    `add_point` adds one point's clauses, and the solver keeps its learned
    clauses and activities between `solve` calls.  Search is very
    sensitive to variable and clause order, so both are fixed as the
    methods below describe.

    A repair template (`originals` given) counts the slots that differ
    from the original: `solve([more_than[b] ^ 1])` allows at most b of
    them.
    It has no pruning rules: the original must stay expressible with no
    edit, whatever its operand order, constant slots or double NOTs.
    A read-once template (one output, the inputs of `forced_flips`, one
    slot fewer than them) holds only AND/OR/XOR slots that read each input
    and each slot but the last exactly once, which loses no program
    there (see `_PointSpec.min_slot_bound`).
    """

    def __init__(self, input_names: Sequence[str], n_slots: int,
                 outputs: Sequence[str], seed: int,
                 originals: Optional[list[_SlotShape]] = None,
                 read_once: bool = False):
        self.inputs = list(input_names)
        self.n = len(self.inputs)
        self.k = n_slots
        self.outputs = list(outputs)
        self.read_once = read_once
        self.ops: list[tuple] = [
            op for cls, (uses, _) in _OPERATORS.items() if uses == 2 or not read_once
            for op in ([(Var, i) for i in range(self.n)] if cls is Var else [(cls,)])]
        self.originals = originals
        self.more_than: list[int] = []
        self.loaded = 0  # points given to add_point so far
        self._idx = {op: i for i, op in enumerate(self.ops)}
        self._uses = [_OPERATORS[op[0]][0] for op in self.ops]
        self._binary_ids = [i for i, uses in enumerate(self._uses) if uses == 2]
        self._leaf_ids = [i for i, uses in enumerate(self._uses) if uses == 0]
        self._enc = TseitinEncoder({})
        clauses = self._wellformed_clauses()
        self.solver = CdclSolver(CnfFormula(0, ()), seed=seed)
        self.solver.extend(self.num_vars, clauses)
        clauses.clear()  # the solver holds them now

    @property
    def num_vars(self) -> int:
        return self._enc.num_vars

    def _cv(self, j: int) -> int:
        """Slot j's constant bit.  A slot with no operands (slot 0 without
        inputs) gets it numbered where it is first mentioned: the edit
        counter, the duplicate-slot rule or the first point."""
        if self._cvs[j] is None:
            self._cvs[j] = self._enc.fresh()
        return self._cvs[j]

    # -- well-formedness and pruning constraints

    def _wellformed_clauses(self) -> list[tuple[int, ...]]:
        """Clauses making the selectors describe one program: one-hot
        operator, operand and output selectors with unused ones pinned,
        then a repair template's edit rules, then the pruning rules.

        Selectors are numbered in first appearance, reading the
        constraints in order; the gates of the slot-use, duplicate-slot and
        edit-counter rules after all selectors.  Clauses are gathered in
        reading order, each with its literals last to first; the last pass
        reverses the list and encodes each clause that holds expressions,
        so the encoder numbers every gate where it is first met (a slot's
        match test, shared by its counter row, once) and writes its
        definition just before that clause.  Search depends on this CNF:
        golden digests in the tests pin it.
        """
        k, fresh = self.k, self._enc.fresh
        fwd: list = []  # clause tuples of codes, or lists holding expressions
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
            cv = fresh() if dom and not self.read_once else None
            for opv, op, uses in zip(op_sels, self.ops, self._uses):
                if dom == 0 and uses > 0:
                    fwd.append((opv ^ 1,))
                    continue
                # pin unused operand selectors and the constant bit
                if dom:
                    fwd += [(arg_sels[which][0], opv ^ 1) for which in range(uses, 2)]
                if cv is not None and op[0] is not Const:
                    fwd.append((cv ^ 1, opv ^ 1))
            self._selectors.append((op_sels, arg_sels))
            self._cvs.append(cv)
        # per output of a joint template: which slot it reads
        joint = len(self.outputs) > 1
        self._outs = [[fresh() for _ in range(k)] for _ in self.outputs if joint]
        for row in self._outs:
            fwd += _one_hot(row)
        if self.originals is not None:
            fwd += self._edit_clauses()
        if self.read_once:
            fwd += self._read_once_clauses()
        elif self.originals is None:
            fwd += self._pruning_clauses()
        enc = self._enc
        for clause in reversed(fwd):
            if type(clause) is list:
                clause = tuple([enc.encode(lit) for lit in clause])
            enc.clauses.append(clause)
        return enc.clauses

    def _pruning_clauses(self) -> list:
        """Rules that only cut redundant programs: symmetric or reducible
        slots, dead slots and duplicate slots."""
        n, k, sels, outs = self.n, self.k, self._selectors, self._outs
        not_id = self._idx[(Not,)]
        clauses: list = []
        for j, (op_sels, (arg0, arg1)) in enumerate(sels):
            taps = [row[j] for row in reversed(outs)]  # output selectors of slot j
            tapped = j == k - 1 and not outs  # the single output reads it
            # inputs/constants are only useful where an output taps the slot
            if not tapped:
                clauses += [(*taps, op_sels[i] ^ 1) for i in self._leaf_ids]
            # commutative operators take strictly ordered operands
            for i in self._binary_ids:
                clauses += [(a1 ^ 1, a0 ^ 1, op_sels[i] ^ 1)
                            for d0, a0 in enumerate(arg0) for a1 in arg1[:d0 + 1]]
            # double negation is always reducible
            clauses += [(sels[d - n][0][not_id] ^ 1, arg0[d] ^ 1, op_sels[not_id] ^ 1)
                        for d in range(n, n + j)]
            # every slot must feed a later slot or an output
            if not tapped:
                used: list = []
                for later_ops, (later0, later1) in reversed(sels[j + 1:]):
                    binary = [later_ops[i] for i in self._binary_ids]
                    leafish = [later_ops[i] for i in self._leaf_ids]
                    used.append(And(later1[n + j], _fold(binary, Or, None)))
                    used.append(And(later0[n + j], Not(_fold(leafish, Or, None))))
                clauses.append(used + taps)
        # no two slots compute the same thing
        for i, (ops_i, args_i) in enumerate(sels):
            for j in range(i + 1, k):
                ops_j, args_j = sels[j]
                same = [_fold([And(a, b) for a, b in zip(ops_i, ops_j)], Or, None)]
                if n + i:
                    same += [_fold([And(a, b) for a, b in zip(args_i[w], args_j[w])], Or, None)
                             for w in (0, 1)]
                same.append(Not(Xor(self._cv(i), self._cv(j))))
                clauses.append([Not(_fold(same, And, None))])
        return clauses

    def _read_once_clauses(self) -> list[tuple[int, ...]]:
        """A read-once template's rules: strictly ordered operands, as
        every operator is commutative; each input and each slot but the
        last read by exactly one operand; and readers in slot order: when
        slot b reads slot j, no slot before b reads slot j + 1.

        With only binary operators, the first two imply what the pruning
        rules cut: no slot is dead, copies an input or a constant, negates
        or repeats another slot.  The last loses no
        program: number a read-once tree's slots from the root down,
        breadth first, giving each slot's slot operands the next numbers;
        readers are then numbered in the order of the slots they read."""
        n, k = self.n, self.k
        args = [arg_sels for _, arg_sels in self._selectors]
        clauses: list[tuple[int, ...]] = []
        for arg0, arg1 in args:
            clauses += [(a1 ^ 1, a0 ^ 1) for d0, a0 in enumerate(arg0) for a1 in arg1[:d0 + 1]]
        for d in range(n + k - 1):  # slot d - n is read by later slots only
            clauses += _one_hot([sels[d] for later in args[max(0, d - n + 1):]
                                 for sels in later])
        for j in range(k - 2):
            for b in range(j + 1, k):
                clauses += [(c_sels[n + j + 1] ^ 1, b_sels[n + j] ^ 1) for c in range(j + 2, b)
                            for b_sels in args[b] for c_sels in args[c]]
        return clauses

    # -- repair: distance to the original encoding

    def _edit_clauses(self) -> list:
        """Operand rules on the original's commutative slots, then a
        sequential counter of changed slots (Sinz, CP 2005): slot j counts
        as changed unless an AND gate tree matches it to its original
        shape, and register c of row i is implied when more than c of
        slots 0..i changed.  The last row is `more_than`; with no overflow
        clause, no assumption leaves the count free."""
        clauses: list = []
        matches = []
        for j, shape in enumerate(self.originals):
            op_sels, arg_sels = self._selectors[j]
            a, b = shape.args
            uses = _OPERATORS[shape.op[0]][0]
            # on an original op(a, b), AND/OR/XOR may take b first only as
            # (b, b) and a second only as (a, a); this loses no minimum:
            # the swapped twin has the same value, obeys both rules and
            # differs from the original slot no more
            if uses == 2 and a != b:
                arg0, arg1 = arg_sels
                for i in self._binary_ids:
                    clauses += ((arg1[b], arg0[b] ^ 1, op_sels[i] ^ 1),
                                (arg0[a], arg1[a] ^ 1, op_sels[i] ^ 1))
            lits = [op_sels[self._idx[shape.op]]]
            if arg_sels[0]:
                lits += [arg_sels[w][shape.args[w] if w < uses else 0] for w in (0, 1)]
            cv = self._cv(j)
            lits.append(cv if shape.const else cv ^ 1)
            matches.append(lits)
        prev: list[int] = []
        for i, lits in enumerate(matches):
            same = _fold(lits, And, None)
            row = [self._enc.fresh() for _ in range(i + 1)]
            clauses.append([row[0], same])
            for c in range(1, i + 1):
                clauses += ((row[c - 1], prev[c - 1] ^ 1), [row[c], prev[c - 1] ^ 1, same])
            prev = row
        self.more_than = prev
        return clauses

    # -- per-point evaluation

    def add_point(self, point: tuple[bool, ...], pspec: _PointSpec) -> None:
        """Load the clauses defining the candidate's slot values at one
        concrete input point and requiring the spec to hold there.

        Disallowed output valuations are blocked by clauses over the
        output values (defined from the output selectors when there are
        several outputs).  New variables are numbered in first appearance
        and the clauses come last to first with reversed literals: each is
        written literals last to first as it is built, and the list is
        reversed at the end.  Search is very sensitive to that order.
        """
        n, fresh = self.n, self._enc.fresh
        values = dict(zip(pspec.input_names, point))  # the template may read fewer
        neg = [0 if values[name] else 1 for name in self.inputs]  # flips a code when false
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
                        add((av ^ neg[d], sel ^ 1))
                    else:
                        add((vals[d - n], av ^ 1, sel ^ 1))
                        add((vals[d - n] ^ 1, av, sel ^ 1))
            val = fresh()
            vals.append(val)
            cv = 0 if self.read_once else self._cv(j)
            while len(operands) < 2:  # no operand selectors: first seen below
                operands.append(fresh())
            roles = (0, val, *operands, cv)
            for opv, op in zip(op_sels, self.ops):
                if op[0] is Var:
                    add((val ^ neg[op[1]], opv ^ 1))
                    continue
                for pattern in _OPERATORS[op[0]][1]:
                    add((*[roles[r] if r > 0 else roles[-r] ^ 1 for r in reversed(pattern)],
                         opv ^ 1))
        outs = [vals[-1]] if not self._outs else []
        for row in self._outs:
            out = fresh()
            outs.append(out)
            for sel, v in zip(row, vals):
                add((out, v ^ 1, sel ^ 1))
                add((out ^ 1, v, sel ^ 1))
        allowed = pspec.allowed(point)
        blocked: dict[tuple[int, ...], None] = {}
        for bits in pspec.valuations:
            if bits in allowed:
                continue
            keep = list(range(len(outs)))  # widen while it blocks no allowed one
            for i in range(len(outs)):
                if not any(all(a[x] == bits[x] for x in keep if x != i) for a in allowed):
                    keep.remove(i)
            blocked[tuple(outs[x] ^ bits[x] for x in reversed(keep))] = None
        clauses += blocked
        clauses.reverse()
        self.solver.extend(self.num_vars, clauses)
        self.loaded += 1

    # -- search and decoding

    def solve(self, assumptions: Sequence[int] = ()) -> Optional[dict[str, BoolExpr]]:
        """The candidate of the solver's next model under the assumed
        literals, None when there is none."""
        result = self.solver.solve(assumptions)
        return self.decode(result.model) if result.satisfiable else None

    def decode(self, model: Mapping[int, bool]) -> dict[str, BoolExpr]:
        """Per-output expressions of the program the model's selectors pick.
        Slots are built in order, as each reads only inputs and earlier
        slots; a slot read several times is one shared node."""
        def one_hot(sels: Sequence[int]) -> int:
            return next((i for i, c in enumerate(sels) if model[c >> 1]), 0)

        operands: list[BoolExpr] = [Var(name) for name in self.inputs]  # then slots
        for (op_sels, arg_sels), cv in zip(self._selectors, self._cvs):
            i = one_hot(op_sels)
            cls = self.ops[i][0]
            if cls is Var:
                expr = operands[self.ops[i][1]]
            elif cls is Const:  # cv unmentioned only before any point
                expr = Const(cv is not None and model[cv >> 1])
            else:
                expr = cls(*[operands[one_hot(sels)] for sels in arg_sels[:self._uses[i]]])
            operands.append(expr)
        slots = operands[self.n:]
        if not self._outs:
            return {self.outputs[0]: slots[-1]}
        return {name: slots[one_hot(row)] for name, row in zip(self.outputs, self._outs)}


# --------------------------------------------------------------------------
# Straight-line encoding: slot counts and repair templates


def _encode_original(expr: BoolExpr, template_inputs: Sequence[str]) -> list[_SlotShape]:
    """The expression as straight-line code: every slot count is `len` of
    it, and repair templates seed from it.  Post-order, one slot per
    distinct operator or constant subterm (shapes are hash-consed, so a
    temp read twice is one slot); Var operands read their input, a bare
    variable takes one slot and the root lands in the last."""
    input_index = {name: i for i, name in enumerate(template_inputs)}
    if isinstance(expr, Var):
        return [_SlotShape((Var, input_index[expr.name]))]
    slots: dict[_SlotShape, int] = {}  # shape -> operand index, in post-order

    def slot(cls: type, a: int = 0, b: int = 0, const: bool = False) -> int:
        return slots.setdefault(_SlotShape((cls,), (a, b), const), len(input_index) + len(slots))

    fold_expr(expr, input_index.__getitem__, lambda value: slot(Const, const=value),
              {cls: partial(slot, cls) for cls, (uses, _) in _OPERATORS.items() if uses})
    return list(slots)


# --------------------------------------------------------------------------
# The CEGIS loop


def _find_violation(out_exprs: Mapping[str, BoolExpr], pspec: _PointSpec,
                    seed: int) -> Optional[tuple[bool, ...]]:
    """The first point (in product order) where the candidate's outputs
    break the spec; past _CUBE_INPUTS inputs, the `_failing_point` of the
    candidate as a one-cycle block."""
    if pspec.cube:
        memo: dict[int, int] = {}
        outs = {o: _mask(expr, pspec.env, pspec.full, memo)
                for o, expr in out_exprs.items()}
        return pspec.lowest(pspec.failing(outs))
    return _failing_point(Block("candidate", pspec.interface,
                                _build_body(pspec.interface, out_exprs)), pspec, seed)


def _failing_point(block: Block, pspec: _PointSpec, seed: int) -> Optional[tuple[bool, ...]]:
    """A point, whichever one `_unroll` finds, where one scan cycle of
    `block` (reading the spec's inputs) breaks the spec, replayed on the
    simulator; None if none.  The replay words no clause, as printing a
    deep pin guard takes a Python stack frame per level."""
    return pspec.point(_unroll(
        [block], False, 1, lambda envs: _violation_exprs(pspec, envs[0]),
        lambda envs: next(("spec violated" for _ in _failing_clauses(pspec, envs[0])), None),
        seed))


def _seed_points(pspec: _PointSpec) -> list[tuple[bool, ...]]:
    n = len(pspec.input_names)
    candidates = [(False,) * n, *(tuple(j == i for j in range(n)) for i in range(n)),
                  (True,) * n]
    # without assertions, only a firing guard rules out a valuation
    fixed = bool(pspec.assertions)
    return [point for i, point in enumerate(candidates) if point not in candidates[:i]
            and (fixed or pspec.allowed(point) != pspec.valuations)]


_Round = tuple[_SlotTemplate, Sequence[int]]
# a program meeting a spec, per output, and the slots it writes
_Known = tuple[dict[str, BoolExpr], int]


def _run_cegis(label: str, rounds: Iterable[_Round], pspec: _PointSpec,
               points: Sequence[tuple[bool, ...]], cfg: SynthConfig,
               known: Optional[_Known] = None
               ) -> tuple[dict[str, BoolExpr], OutputSynthesis]:
    """First candidate (in round order) meeting the spec, with the run's
    record under `label` (slots_used is what is written: the candidate's
    straight-line encodings summed over its outputs).  When the rounds run
    out, the answer is the caller's `known` program with its slot count,
    which the caller counts over the block's own inputs, as the program
    may read inputs the spec dropped; without one, SizeBoundExceeded.

    CEGIS starts from the caller's distinct `points`.  A round is a
    template and the literals its solver assumes; a template may serve
    several rounds.  Its solver keeps its well-formedness clauses and the
    points it was given, and is given only the points found since, before
    each solve.  The spec must have no dead point:
    callers `refute` it first, as the rounds may run out before CEGIS
    reaches one.  Simplify's spec needs no check, since its only clauses
    are one pair of complementary pins per output, which cannot clash."""
    start = time.perf_counter()
    iterations = counterexamples = 0
    kept = tuple(pspec.input_names)
    points = list(points)

    def record(slots: int) -> OutputSynthesis:
        return OutputSynthesis(label, kept, slots, iterations, counterexamples,
                               time.perf_counter() - start)

    for template, assumptions in rounds:
        while True:
            for point in points[template.loaded:]:
                template.add_point(point, pspec)
            iterations += 1
            candidate = template.solve(assumptions)
            if candidate is None:
                break
            violation = _find_violation(candidate, pspec, cfg.seed)
            if violation is None:
                return candidate, record(sum(len(_encode_original(expr, kept))
                                             for expr in candidate.values()))
            if violation in points:
                raise AssertionError("counterexample repeated")
            points.append(violation)
            counterexamples += 1
    if known is None:
        raise SizeBoundExceeded(cfg.max_slots)
    return known[0], record(known[1])


def _deepening(pspec: _PointSpec, top: int, seed: int) -> Iterator[_Round]:
    """One round per template from the spec's slot lower bound up to `top`
    slots; the bound is computed on first use, inside the run.  A single
    output's template one slot short of its `forced_flips` is read-once
    (see `_PointSpec.min_slot_bound`)."""
    forced = pspec.forced_flips
    for k in range(pspec.min_slot_bound(), top + 1):
        if len(pspec.outputs) == 1 and k == len(forced) - 1:
            yield _SlotTemplate(forced, k, pspec.outputs, seed, read_once=True), ()
        else:
            yield _SlotTemplate(pspec.input_names, k, pspec.outputs, seed), ()


def _result(block: Block, runs: Sequence[OutputSynthesis],
            start: float) -> SynthesisResult:
    """The op's result: iterations, counterexamples and slots summed over
    its runs."""
    return SynthesisResult(block, sum(r.iterations for r in runs),
                           sum(r.counterexamples_used for r in runs),
                           sum(r.slots_used for r in runs),
                           time.perf_counter() - start, tuple(runs))


def _synthesis_driver(jobs: Sequence[tuple[str, _PointSpec, Optional[_Known]]],
                      whole: _PointSpec, shell: Block, cfg: SynthConfig,
                      start: float) -> SynthesisResult:
    """Synthesize and simplify: per job (label, spec, known program or
    None), a CEGIS run over the projected spec, deepening from its slot
    lower bound up to max_slots or the known program's slots, whichever
    is fewer (see `_run_cegis` for running out).  The runs' outputs make
    `shell`'s body, and the block is checked against the whole spec."""
    runs: list[OutputSynthesis] = []
    exprs: dict[str, BoolExpr] = {}
    for label, spec, known in jobs:
        pspec = spec.projected()
        top = cfg.max_slots if known is None else min(cfg.max_slots, known[1])
        candidate, run = _run_cegis(label, _deepening(pspec, top, cfg.seed), pspec,
                                    _seed_points(pspec), cfg, known)
        exprs.update(candidate)
        runs.append(run)
    block = replace(shell, body=_build_body(shell.interface, exprs))
    if _find_violation(exprs, whole, cfg.seed) is not None:
        raise AssertionError("synthesized block fails its spec")
    return _result(block, runs, start)


# --------------------------------------------------------------------------
# Public operations


def _output_groups(spec: SpecFormula, outputs: Sequence[str]
                   ) -> list[tuple[list[str], list[AssertionClause]]]:
    """The spec's CEGIS jobs: outputs that assertions name together,
    transitively, form one group (its outputs in `outputs` order), which
    gets every assertion that names no output outside it, so one naming
    inputs only reaches every group.  Groups come in the order of their
    first output.  No two groups share an output, so the spec has a dead
    point exactly when some group has one."""
    named = [expr_vars(clause.expr).intersection(outputs) for clause in spec.assertions]
    groups = [[o] for o in outputs]
    for names in named:
        tied = [g for g in groups if names.intersection(g)]
        for g in tied[1:]:
            tied[0].extend(g)
            groups.remove(g)
    return [(sorted(g, key=outputs.index),
             [c for c, names in zip(spec.assertions, named) if names.issubset(g)])
            for g in groups]


def _build_body(interface: BlockInterface,
                exprs: Mapping[str, BoolExpr]) -> tuple[Statement, ...]:
    return tuple(Statement(name, exprs[name])
                 for name in interface.outputs if name in exprs)


def check(spec: SpecFormula) -> None:
    """Raise Unsatisfiable when no combinational block can meet the spec,
    at the dead point and with the clauses `synthesize` would report."""
    _require_combinational(spec.interface, "check")
    _PointSpec(spec.interface.inputs, spec.interface.outputs, spec.obligations,
               spec.assertions).refute(SynthConfig().seed)


def synthesize(interface: BlockInterface, spec: SpecFormula,
               cfg: SynthConfig = SynthConfig(), *,
               name: str = "generated") -> SynthesisResult:
    """CEGIS over slot templates with iterative deepening on the slot count,
    run by `_synthesis_driver` with no known program, so running out of
    slots raises SizeBoundExceeded.

    One run per `_output_groups` group: outputs that assertions tie
    together run jointly, every other output alone.  A joint run writes
    one expression per output and reports the slots it writes.  The
    returned block is minimal in slot count per run and verified against
    the spec, which is refuted when any run's spec has a dead point.
    """
    start = time.perf_counter()
    _check_same_interface(interface, spec.interface, "interface does not match the spec")
    _require_combinational(interface, "synthesize")
    inputs = interface.inputs
    outputs = interface.outputs
    if not outputs:
        raise TypeCheckError("synthesizable blocks need at least one output")
    full_pspec = _PointSpec(inputs, outputs, spec.obligations, spec.assertions)
    groups = _output_groups(spec, outputs)
    jobs = [("*".join(group), full_pspec if len(groups) == 1 else
             _PointSpec(inputs, group, spec.obligations, assertions), None)
            for group, assertions in groups]
    # one job is the whole spec, which `refute` searches once; with several,
    # a job tabulates 2^(its outputs) valuations where the whole spec takes 2^m
    if len(jobs) == 1 or any(job.dead_point(cfg.seed) is not None for _, job, _ in jobs):
        full_pspec.refute(cfg.seed)
    return _synthesis_driver(jobs, full_pspec, Block(name, interface, (), Lang.ST), cfg, start)


def _original_exprs(block: Block) -> dict[str, BoolExpr]:
    """Per-output expressions of the block with temps inlined."""
    inputs = {name: Var(name) for name in block.interface.inputs}
    env = _symbolic_cycle(block, {}, inputs)
    return {o: env[o] for o in block.interface.outputs}


def _repair_rounds(originals: list[_SlotShape], pspec: _PointSpec,
                   cfg: SynthConfig) -> Iterator[_Round]:
    """Rounds by edits (changed original slots plus added slots), then by
    slots added, from one edit (none gives the original, which the caller
    has refuted) and from the spec's slot lower bound, computed in the
    run (k slots hold no program of more than k live slots).  Each
    template size is built once, when first needed.  A template is asked
    with no assumption (any original slot may change) in one round only,
    as UNSAT without assumptions is final."""
    n_orig = len(originals)
    max_extra = max(0, cfg.max_slots - n_orig)
    min_extra = max(0, pspec.min_slot_bound() - n_orig)
    templates: dict[int, _SlotTemplate] = {}  # by slots added
    for edits in range(max(1, min_extra), n_orig + max_extra + 1):
        for extra in range(max(min_extra, edits - n_orig), min(edits, max_extra) + 1):
            if extra not in templates:
                templates[extra] = _SlotTemplate(pspec.input_names, n_orig + extra,
                                                 pspec.outputs, cfg.seed, originals=originals)
            template, changed = templates[extra], edits - extra
            yield template, [template.more_than[changed] ^ 1] if changed < n_orig else []


def _minimal_edit_synthesis(block: Block, spec: SpecFormula, cfg: SynthConfig,
                            what: str) -> SynthesisResult:
    """Shared core of repair and extend: per output, find the candidate
    with the fewest changed slots (then fewest slots) meeting its spec.
    Extend also pins each output that no assertion mentions to the block's
    behavior wherever none of that output's guards fire."""
    start = time.perf_counter()
    _check_same_interface(block.interface, spec.interface,
                          "block and spec interfaces do not match")
    groups = _output_groups(spec, block.interface.outputs)
    for group, _ in groups:
        if len(group) > 1:
            raise TypeCheckError(f"assertions couple several outputs ({', '.join(group)}); "
                                 f"{what} handles per-output specs only")
    _require_combinational(block.interface, what)
    inputs = block.interface.inputs
    originals = _original_exprs(block)
    exprs = dict(originals)
    runs: list[OutputSynthesis] = []
    for [output], assertions in groups:
        pinned = what == "extend" and not any(output in expr_vars(c.expr)
                                              for c in spec.assertions)
        obligations = spec.obligations
        if pinned:
            obligations = _pinned(obligations, output, originals[output],
                                  [c.guard for c in obligations.get(output, ())])
        pspec = _PointSpec(inputs, [output], obligations, assertions)
        check_start = time.perf_counter()
        # past the cube the block itself replays, as inlining its temps can
        # make a statement deeper than MAX_EXPR_DEPTH
        violation = (_find_violation({output: originals[output]}, pspec, cfg.seed)
                     if pspec.cube else _failing_point(block, pspec, cfg.seed))
        if violation is None:
            runs.append(OutputSynthesis(output, tuple(inputs), 0, 0, 0,
                                        time.perf_counter() - check_start))
            continue
        pspec.refute(cfg.seed)
        shapes = _encode_original(originals[output], inputs)
        points = list(dict.fromkeys([*_seed_points(pspec), violation]))
        candidate, run = _run_cegis(output, _repair_rounds(shapes, pspec, cfg),
                                    pspec, points, cfg)
        exprs[output] = candidate[output]
        runs.append(run)
    if exprs != originals:
        assigned = {s.target for s in block.body}
        body = tuple(Statement(o, exprs[o]) for o in block.interface.outputs
                     if o in assigned or exprs[o] != FALSE)
        block = Block(block.name, block.interface, body, block.lang)
    return _result(block, runs, start)


def repair(block: Block, spec: SpecFormula,
           cfg: SynthConfig = SynthConfig()) -> SynthesisResult:
    """Make the block satisfy the spec by changing as few slots of its
    straight-line encoding (`_encode_original`: a subterm computed once
    is one slot) as possible, then using as few slots as possible.  A
    slot counts as changed when its operator, operands or constant
    differ, however many expression nodes that touches.  A
    changed AND/OR/XOR slot keeps an original operand in place: `a OR b`
    and `a AND c` become `a AND b`, not `b AND a`.  A block that already
    verifies is returned unchanged with zero iterations; otherwise the
    iterations never include the unchanged original."""
    return _minimal_edit_synthesis(block, spec, cfg, "repair")


def simplify(block: Block, cfg: SynthConfig = SynthConfig()) -> SynthesisResult:
    """Slot-minimal block with behavior exhaustively equal to the input:
    `synthesize`'s driver run on a spec that pins each assigned output to
    the original, with the original as each output's known program.  So
    the result never uses more slots than the original's straight-line
    encoding (`_encode_original`), and an output that nothing smaller
    meets within max_slots stays as it was.  Each output is searched over
    the inputs it depends on, and the block is checked over all of them."""
    _require_combinational(block.interface, "simplify")
    start = time.perf_counter()
    inputs = block.interface.inputs
    originals = _original_exprs(block)
    assigned = {s.target for s in block.body}
    outputs = [o for o in block.interface.outputs if o in assigned]
    pins: dict[str, tuple[ObligationClause, ...]] = {}
    for output in outputs:
        pins = _pinned(pins, output, originals[output])
    whole = _PointSpec(inputs, outputs, pins)
    jobs = [(o, whole if len(outputs) == 1 else _PointSpec(inputs, [o], pins),
             ({o: originals[o]}, len(_encode_original(originals[o], inputs))))
            for o in outputs]
    return _synthesis_driver(jobs, whole, block, cfg, start)


def extend(block: Block, extra: ConstraintList,
           cfg: SynthConfig = SynthConfig()) -> SynthesisResult:
    """Add the extra constraints' behavior with minimal edits; where the
    extra constraints say nothing, the original behavior is preserved
    (new constraints win on overlap)."""
    return _minimal_edit_synthesis(block, compile_spec(extra), cfg, "extend")
