import collections
import hashlib
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_assignments, blocks_equivalent, deep_temps_st, output_table, random_block,
    random_expr, reachable_functions, ref_vars, signed_clauses, tie_outputs,
)
from plcsynth.blocks import (
    And, Block, BlockInterface, Const, Direction, Lang, Not, Or, Statement,
    TypeCheckError, Var, VarDecl, Xor, eval_expr, expr_size, simulate,
)
from plcsynth.constraints import (
    Assertion, AssertionClause, CauseEffectColumn, Combinator, ConstraintList, Mode,
    ObligationClause, SpecFormula, TruthTableRow, compile_spec,
)
from plcsynth import engine
from plcsynth.bench import magnet_rule
from plcsynth.engine import (
    FALSE, TRUE, SizeBoundExceeded, SynthConfig, Unsatisfiable, Verified, Violated,
    check, equivalent, extend, repair, simplify, synthesize, verify,
)
from plcsynth.lang import emit, format_expression, parse_expression, parse_st
from plcsynth.sat import CnfFormula, to_dimacs


def iface(*names):
    decls = []
    for name in names:
        direction = {"i": Direction.INPUT, "o": Direction.OUTPUT,
                     "s": Direction.STATE}[name[0]]
        decls.append(VarDecl(name[2:], direction))
    return BlockInterface(tuple(decls))


IFACE_AB_Y = iface("i:a", "i:b", "o:y")


def table_rows(inputs, outputs, fn):
    rows = []
    for bits in itertools.product((False, True), repeat=len(inputs)):
        env = dict(zip(inputs, bits))
        rows.append(TruthTableRow(env, fn(env)))
    return tuple(rows)


def spec_for(interface, constraints, mode=Mode.GENERATE, name="blk"):
    return compile_spec(ConstraintList(name, mode, interface, tuple(constraints)))


def and_table_spec():
    rows = table_rows(["a", "b"], ["y"], lambda e: {"y": e["a"] and e["b"]})
    return spec_for(IFACE_AB_Y, rows)


class TestVerify:
    def test_and_implication_verified(self):
        interface = iface("i:s1", "i:s2", "o:m")
        block = Block("m", interface, (Statement("m", And(Var("s1"), Var("s2"))),))
        spec = spec_for(interface, [Assertion(parse_expression("s2 OR NOT m"))])
        result = verify(block, spec)
        assert result == Verified(1)

    def test_or_violates_implication(self):
        block = Block("o", IFACE_AB_Y, (Statement("y", Or(Var("a"), Var("b"))),))
        spec = spec_for(IFACE_AB_Y, [Assertion(parse_expression("a OR NOT y"))])
        result = verify(block, spec)
        assert isinstance(result, Violated)
        assert result.counterexample.input_cycles == ({"a": False, "b": True},)
        assert result.counterexample.cycle_index == 0

    def test_latch_violation_at_first_cycle(self):
        interface = iface("i:a", "o:y", "s:s")
        block = Block("l", interface,
                      (Statement("s", Or(Var("s"), Var("a"))),
                       Statement("y", Var("s"))))
        spec = spec_for(interface, [TruthTableRow({}, {"y": False})])
        result = verify(block, spec, SynthConfig(unwind_cycles=2))
        assert isinstance(result, Violated)
        cex = result.counterexample
        assert cex.cycle_index == 0
        assert cex.input_cycles[0] == {"a": True}

    def test_counterexample_replays(self):
        block = Block("o", IFACE_AB_Y, (Statement("y", Or(Var("a"), Var("b"))),))
        spec = spec_for(IFACE_AB_Y, [Assertion(parse_expression("a OR NOT y"))])
        result = verify(block, spec)
        cex = result.counterexample
        trace = simulate(block, list(cex.input_cycles), cex.init_state)
        outputs = trace.cycles[cex.cycle_index].outputs
        env = dict(cex.input_cycles[cex.cycle_index])
        env.update(outputs)
        assert eval_expr(parse_expression("a OR NOT y"), env) is False

    def test_interface_mismatch(self):
        block = Block("o", IFACE_AB_Y, (Statement("y", Var("a")),))
        other = iface("i:a", "o:y")
        spec = spec_for(other, [TruthTableRow({"a": True}, {"y": True})])
        with pytest.raises(TypeCheckError):
            verify(block, spec)

    def test_vacuous_spec_verified(self):
        block = Block("o", IFACE_AB_Y, (Statement("y", Var("a")),))
        spec = spec_for(IFACE_AB_Y, [])
        assert verify(block, spec, SynthConfig(unwind_cycles=3)) == Verified(3)

    def test_random_blocks_match_exhaustive_simulation(self):
        rng = random.Random(2024)
        checked_violations = 0
        for _ in range(60):
            n_in = rng.randint(1, 5)
            block = random_block(rng, n_in, 1, 0, rng.randint(0, 1),
                                 rng.randint(1, 5), name="rv")
            inputs = block.interface.inputs
            cells = {n: rng.choice([True, False, None]) for n in inputs}
            want = rng.random() < 0.5
            row = TruthTableRow({k: v for k, v in cells.items() if v is not None},
                                {"out0": want})
            spec_iface = BlockInterface(tuple(
                d for d in block.interface.decls
                if d.direction is not Direction.TEMP))
            spec = spec_for(spec_iface, [row])
            result = verify(block, spec)
            # oracle: exhaustive simulation
            expected_violation = None
            for env in all_assignments(inputs):
                if all(env[k] == v for k, v in row.inputs.items()):
                    out = simulate(block, [env]).cycles[0].outputs["out0"]
                    if out != want:
                        expected_violation = env
                        break
            if expected_violation is None:
                assert isinstance(result, Verified)
            else:
                assert isinstance(result, Violated)
                checked_violations += 1
                got = result.counterexample.input_cycles[0]
                out = simulate(block, [got]).cycles[0].outputs["out0"]
                assert all(got[k] == v for k, v in row.inputs.items())
                assert out != want
        assert checked_violations > 5


class TestEquivalent:
    def test_commutativity(self):
        b1 = Block("c1", IFACE_AB_Y, (Statement("y", And(Var("a"), Var("b"))),))
        b2 = Block("c2", IFACE_AB_Y, (Statement("y", And(Var("b"), Var("a"))),))
        assert equivalent(b1, b2) == Verified(1)

    def test_reflexivity(self):
        rng = random.Random(5)
        block = random_block(rng, 3, 2, 1, 0, 4)
        assert isinstance(equivalent(block, block, SynthConfig(unwind_cycles=2)),
                          Verified)

    def test_or_vs_and_distinguished(self):
        b1 = Block("c1", IFACE_AB_Y, (Statement("y", Or(Var("a"), Var("b"))),))
        b2 = Block("c2", IFACE_AB_Y, (Statement("y", And(Var("a"), Var("b"))),))
        result = equivalent(b1, b2)
        assert isinstance(result, Violated)
        witness = result.counterexample.input_cycles[0]
        assert witness["a"] != witness["b"]
        assert "y" in result.counterexample.violated

    def test_stateful_difference_found(self):
        interface = iface("i:a", "o:y", "s:s")
        latch = Block("l", interface,
                      (Statement("s", Or(Var("s"), Var("a"))),
                       Statement("y", Var("s"))))
        plain = Block("p", interface, (Statement("y", Var("a")),))
        result = equivalent(latch, plain, SynthConfig(unwind_cycles=2))
        assert isinstance(result, Violated)

    def test_interface_mismatch(self):
        b1 = Block("c1", IFACE_AB_Y, (Statement("y", Var("a")),))
        b2 = Block("c2", iface("i:a", "o:y"), (Statement("y", Var("a")),))
        with pytest.raises(TypeCheckError):
            equivalent(b1, b2)


def explicit_shortest(step, starts, inputs, bound):
    """Depth of the shortest run whose last cycle is bad, by breadth-first
    search over explicit states; `step(state, env)` returns (bad, next
    state) for one cycle.  None when no run up to `bound` cycles is bad."""
    frontier = set(starts)
    for depth in range(1, bound + 1):
        reached = set()
        for state in frontier:
            for env in all_assignments(inputs):
                bad, after = step(state, env)
                if bad:
                    return depth
                reached.add(after)
        frontier = reached
    return None


def mutate_one_node(rng, expr):
    """The expression with one node changed: a binary operator swapped for
    another, a negation dropped, or a leaf negated."""
    index = [rng.randrange(expr_size(expr))]

    def walk(node):
        index[0] -= 1
        if index[0] == -1:
            if isinstance(node, Not):
                return node.operand
            if isinstance(node, (And, Or, Xor)):
                other = rng.choice([c for c in (And, Or, Xor) if c is not type(node)])
                return other(node.left, node.right)
            return Not(node)
        if isinstance(node, Not):
            return Not(walk(node.operand))
        if isinstance(node, (And, Or, Xor)):
            left = walk(node.left)
            return type(node)(left, walk(node.right))
        return node

    return walk(expr)


def sat_step(monkeypatch):
    """Ask every induction step on a CDCL solver of its own: no block's
    state and inputs fit a cube of 0 inputs."""
    monkeypatch.setattr(engine, "_CUBE_INPUTS", 0)


class TestBoundedUnroll:
    """verify/equivalent on random blocks with 0-4 state vars and on deep
    rings, shift registers and counters against an explicit-state search:
    same verdict, same shortest depth, replaying counterexamples; and the
    induction step on truth tables against the one on SAT."""

    def random_case(self, rng, states=(0, 2)):
        block = random_block(rng, rng.randint(1, 3), 1, rng.randint(*states),
                             rng.randint(0, 1), rng.randint(2, 5), name="rs")
        names = list(block.interface.inputs + block.interface.outputs
                     + block.interface.state_vars)
        if rng.random() < 0.5:
            pattern = {n: rng.random() < 0.5 for n in block.interface.inputs
                       if rng.random() < 0.5}
            constraint = TruthTableRow(pattern, {"out0": rng.random() < 0.5})

            def violates(env):
                return (all(env[k] == v for k, v in pattern.items())
                        and env["out0"] != constraint.outputs["out0"])
        else:
            constraint = Assertion(random_expr(rng, names, rng.randint(2, 5)))

            def violates(env):
                return not eval_expr(constraint.expr, env)

        spec_iface = BlockInterface(tuple(
            d for d in block.interface.decls if d.direction is not Direction.TEMP))
        return block, spec_for(spec_iface, [constraint], Mode.VERIFY), violates

    @staticmethod
    def verify_step(block, violates):
        """`explicit_shortest`'s step for `verify` of the block: whether
        one cycle from a state tuple breaks the check, and the next one."""
        states = block.interface.state_vars

        def step(state, env):
            cycle = simulate(block, [env], dict(zip(states, state))).cycles[0]
            full = {**env, **cycle.outputs, **cycle.state_after}
            return violates(full), tuple(cycle.state_after[s] for s in states)

        return step

    def test_verify_matches_explicit_search(self):
        rng = random.Random(31)
        deep = 0
        for case in range(150):
            block, spec, violates = self.random_case(rng)
            states = block.interface.state_vars
            step = self.verify_step(block, violates)
            for symbolic in (False, True):
                starts = (itertools.product((False, True), repeat=len(states))
                          if symbolic else [tuple(False for _ in states)])
                depth = explicit_shortest(step, starts, block.interface.inputs, 4)
                deep += depth is not None and depth > 1
                for bound in range(1, 5):
                    cfg = SynthConfig(unwind_cycles=bound, symbolic_init=symbolic)
                    result = verify(block, spec, cfg)
                    if depth is None or depth > bound:
                        assert result == Verified(bound), (case, symbolic, bound)
                        continue
                    assert isinstance(result, Violated), (case, symbolic, bound)
                    cex = result.counterexample
                    assert cex.cycle_index + 1 == depth == len(cex.input_cycles)
                    if not symbolic:
                        assert not any(cex.init_state.values())
                    trace = simulate(block, list(cex.input_cycles), cex.init_state)
                    last = trace.cycles[cex.cycle_index]
                    assert violates({**last.inputs, **last.outputs, **last.state_after})
        assert deep >= 3

    def test_equivalent_matches_explicit_search(self):
        rng = random.Random(47)
        deep = 0
        for case in range(200):
            a = random_block(rng, rng.randint(1, 3), 1, rng.randint(0, 2),
                             rng.randint(0, 1), rng.randint(2, 5), name="ra")
            j = rng.randrange(len(a.body))
            stmt = a.body[j]
            body = list(a.body)
            body[j] = Statement(stmt.target, mutate_one_node(rng, stmt.rhs))
            b = Block("rb", a.interface, tuple(body))
            states = a.interface.state_vars

            def step(pair, env):
                ca = simulate(a, [env], dict(zip(states, pair[0]))).cycles[0]
                cb = simulate(b, [env], dict(zip(states, pair[1]))).cycles[0]
                after = tuple(tuple(c.state_after[s] for s in states) for c in (ca, cb))
                return ca.outputs != cb.outputs, after

            starts = [(s, s) for s in itertools.product((False, True), repeat=len(states))]
            depth = explicit_shortest(step, starts, a.interface.inputs, 4)
            deep += depth is not None and depth > 1
            for bound in range(1, 5):
                result = equivalent(a, b, SynthConfig(unwind_cycles=bound))
                if depth is None or depth > bound:
                    assert result == Verified(bound), (case, bound)
                    continue
                assert isinstance(result, Violated), (case, bound)
                cex = result.counterexample
                assert cex.cycle_index + 1 == depth == len(cex.input_cycles)
                ta = simulate(a, list(cex.input_cycles), cex.init_state)
                tb = simulate(b, list(cex.input_cycles), cex.init_state)
                assert ta.cycles[cex.cycle_index].outputs != tb.cycles[cex.cycle_index].outputs
        assert deep >= 3

    def counting_solver(self, monkeypatch):
        """Patches the engine's solver; returns the solvers built and, per
        solve, (solver, number of assumptions, satisfiable).  Only the
        induction step solves under two assumptions."""
        built, solves = [], []

        class CountingSolver(engine.CdclSolver):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def solve(self, assumptions=()):
                assumed = list(assumptions)
                result = super().solve(assumed)
                solves.append((self, len(assumed), result.satisfiable))
                return result

        monkeypatch.setattr(engine, "CdclSolver", CountingSolver)
        return built, solves

    def shift_register(self):
        # y reads the input of two cycles earlier
        interface = iface("i:a", "o:y", "s:s1", "s:s2")
        return Block("sr", interface, (Statement("y", Var("s2")),
                                       Statement("s2", Var("s1")),
                                       Statement("s1", Var("a"))))

    def toggle_pair(self):
        # both bits toggle together, so from the all-false start they stay
        # equal
        block = Block("pair", iface("i:a", "o:y", "s:s1", "s:s2"),
                      (Statement("y", Var("s1")),
                       Statement("s1", Xor(Var("s1"), Var("a"))),
                       Statement("s2", Xor(Var("s2"), Var("a")))))
        spec = spec_for(block.interface, [Assertion(parse_expression("NOT (s1 XOR s2)"))],
                        Mode.VERIFY)
        return block, spec

    def token_ring(self, n, keep=None):
        """An n-place token ring that `put` fills when empty and `adv`
        turns, y reading place 0 before the turn.  Place `keep`, when
        given, keeps its token as it passes it on: a planted fault."""
        p = parse_expression
        empty = " AND ".join(f"NOT t{i}" for i in range(n))
        kept = lambda i: f" OR adv AND t{i}" if i == keep else ""
        body = [Statement("y", Var("t0")),
                Statement("t0", p(f"adv AND t{n - 1} OR NOT adv AND t0"
                                  f" OR put AND {empty}{kept(0)}"))]
        body += [Statement(f"t{i}", p(f"adv AND {'y' if i == 1 else f't{i - 1}'}"
                                      f" OR NOT adv AND t{i}{kept(i)}"))
                 for i in range(n - 1, 0, -1)]
        places = [f"s:t{i}" for i in range(n)]
        return Block("ring", iface("i:adv", "i:put", "o:y", *places), tuple(body))

    @staticmethod
    def no_two_tokens(block):
        """One check per pair of places: not both hold a token."""
        return [parse_expression(f"NOT ({a} AND {b})")
                for a, b in itertools.combinations(block.interface.state_vars, 2)]

    def at_most_one_token(self, block):
        return spec_for(block.interface, [Assertion(e) for e in self.no_two_tokens(block)],
                        Mode.VERIFY)

    def pair_counter(self):
        # a counter whose two bits move together, toggled by `en`, cycles
        # between 00 and 11; a state whose bits differ swaps them, so the
        # unreachable 10 steps into the bad 01
        block = Block("ctr", iface("i:en", "o:y", "s:s1", "s:s0"),
                      (Statement("y", Xor(Var("s1"), Var("s0"))),
                       Statement("s1", Xor(Var("s1"), Or(Var("en"), Var("y")))),
                       Statement("s0", Xor(Var("s0"), Or(Var("en"), Var("y"))))))
        spec = spec_for(block.interface, [Assertion(parse_expression("s1 OR NOT s0"))],
                        Mode.VERIFY)
        return block, spec

    def test_verify_builds_one_solver(self, monkeypatch):
        sat_step(monkeypatch)
        block = self.shift_register()
        spec_iface = iface("i:a", "o:y", "s:s1", "s:s2")
        violated = spec_for(spec_iface, [TruthTableRow({}, {"y": False})])
        holds = spec_for(spec_iface,
                         [Assertion(parse_expression("(s1 OR NOT a) AND (a OR NOT s1)"))])
        built, solves = self.counting_solver(monkeypatch)
        result = verify(block, violated, SynthConfig(unwind_cycles=4))
        assert result.counterexample.cycle_index == 2
        # cycles 0 and 1 fold to constants from the all-false start, so one
        # solver answers every bound with one solve; the induction step,
        # asked on a solver of its own once bound 1 is clean, is SAT (a
        # clean cycle can load s2)
        assert (len(built), len(solves)) == (2, 2)
        built.clear(), solves.clear()
        # from any start, the one-cycle answer holds at every bound
        cfg = SynthConfig(unwind_cycles=4, symbolic_init=True)
        assert verify(block, holds, cfg) == Verified(4)
        assert (len(built), len(solves)) == (1, 1)

    def test_inductive_check_stops_after_bound_one(self, monkeypatch):
        sat_step(monkeypatch)
        # both bits toggle together, so they stay equal: bound 1 and the
        # induction step settle every bound, though from a start where
        # they differ the check fails at once
        block, spec = self.toggle_pair()
        assert isinstance(verify(block, spec, SynthConfig(symbolic_init=True)), Violated)
        built, solves = self.counting_solver(monkeypatch)
        for bound in range(2, 21):
            built.clear(), solves.clear()
            assert verify(block, spec, SynthConfig(unwind_cycles=bound)) == Verified(bound)
            assert (len(built), len(solves)) == (2, 2), bound

    def test_folded_bound_one_gets_the_step(self, monkeypatch):
        sat_step(monkeypatch)
        # a two-place token ring that `put` fills when empty and `adv`
        # turns: from the empty start, bound 1's violation folds to FALSE,
        # and the step alone proves that the ring never holds two tokens
        block = self.token_ring(2)
        spec = self.at_most_one_token(block)
        built, solves = self.counting_solver(monkeypatch)
        for bound in range(2, 9):
            built.clear(), solves.clear()
            assert verify(block, spec, SynthConfig(unwind_cycles=bound)) == Verified(bound)
            assert (len(built), len(solves)) == (2, 1), bound

    def test_safe_check_that_is_not_inductive_asks_every_bound(self, monkeypatch):
        sat_step(monkeypatch)
        # the pair counter never reaches 01, but the step is SAT from the
        # unreachable 10
        block, spec = self.pair_counter()
        built, solves = self.counting_solver(monkeypatch)
        for bound in range(2, 7):
            built.clear(), solves.clear()
            assert verify(block, spec, SynthConfig(unwind_cycles=bound)) == Verified(bound)
            # bound 1, the step, then bounds 2..K
            assert (len(built), len(solves)) == (2, bound + 1), bound

    def fixed_init_oracle(self, monkeypatch, cases):
        """`verify` from the all-false start at bounds 1-8 on each (block,
        spec, violates) of `cases`, checked against explicit search.
        Returns each case's shortest depth (None when no run of 8 cycles
        fails) and, per verify, its result, how many solvers it built and
        its solves as (number of assumptions, satisfiable)."""
        built, solves = self.counting_solver(monkeypatch)
        depths, runs = [], []
        for case, (block, spec, violates) in enumerate(cases):
            start = tuple(False for _ in block.interface.state_vars)
            depth = explicit_shortest(self.verify_step(block, violates), [start],
                                      block.interface.inputs, 8)
            depths.append(depth)
            for bound in range(1, 9):
                built.clear(), solves.clear()
                result = verify(block, spec, SynthConfig(unwind_cycles=bound))
                runs.append((result, len(built), [(n, sat) for _, n, sat in solves]))
                if depth is None or depth > bound:
                    assert result == Verified(bound), (case, bound)
                    continue
                assert isinstance(result, Violated), (case, bound)
                cex = result.counterexample
                assert cex.cycle_index + 1 == depth == len(cex.input_cycles)
                assert not any(cex.init_state.values())
                trace = simulate(block, list(cex.input_cycles), cex.init_state)
                last = trace.cycles[cex.cycle_index]
                assert violates({**last.inputs, **last.outputs, **last.state_after})
        return depths, runs

    @staticmethod
    def step_answers(runs):
        """The SAT step's answers over `fixed_init_oracle`'s runs."""
        return [sat for _, _, solves in runs for n, sat in solves if n == 2]

    def test_fixed_init_matches_explicit_search(self, monkeypatch):
        sat_step(monkeypatch)
        # deeper runs of blocks with 1-3 state vars from the all-false
        # start: the step must neither prove a check that fails nor move a
        # shortest counterexample
        rng = random.Random(67)
        depths, runs = self.fixed_init_oracle(
            monkeypatch, (self.random_case(rng, states=(1, 3)) for _ in range(200)))
        steps = self.step_answers(runs)
        asked, proved = len(steps), steps.count(False)
        deep = sum(depth is not None and depth > 1 for depth in depths)
        # 413 steps asked and 336 proved at this seed
        assert proved >= 250 and asked - proved >= 50 and deep >= 3

    def test_symbolic_init_answers_at_bound_one(self):
        # a bad run of any length ends in a one-cycle run from an allowed
        # start, so every bound gives the bound-1 answer
        rng = random.Random(53)
        violated = 0
        for case in range(60):
            block, spec, _ = self.random_case(rng)
            first = verify(block, spec, SynthConfig(symbolic_init=True))
            violated += isinstance(first, Violated)
            for bound in range(2, 6):
                result = verify(block, spec, SynthConfig(unwind_cycles=bound,
                                                         symbolic_init=True))
                assert result == (Verified(bound) if first == Verified(1) else first), \
                    (case, bound)
        assert 10 <= violated <= 50

    def test_stateless_equivalence_solves_once(self, monkeypatch):
        plain = Block("p", IFACE_AB_Y, (Statement("y", Or(Var("a"), Var("b"))),))
        twin = Block("t", IFACE_AB_Y, (Statement("y", Or(Var("b"), Var("a"))),))
        built, solves = self.counting_solver(monkeypatch)
        assert equivalent(plain, twin, SynthConfig(unwind_cycles=5)) == Verified(5)
        assert (len(built), len(solves)) == (1, 1)

    def test_equivalent_builds_one_solver(self, monkeypatch):
        block = self.shift_register()
        silent = Block("z", block.interface, (Statement("y", Const(False)),))
        built, solves = self.counting_solver(monkeypatch)
        assert equivalent(block, block, SynthConfig(unwind_cycles=4)) == Verified(4)
        assert (len(built), len(solves)) == (1, 4)
        built.clear(), solves.clear()
        assert isinstance(equivalent(block, silent, SynthConfig(unwind_cycles=4)), Violated)
        assert len(built) == 1 and 1 <= len(solves) <= 4

    def unrolled_checks(self):
        """Five 3-cycle checks of one stateful block: verify of a property
        that holds and of one that fails, from the all-false start and then
        with symbolic init, and equivalence with a reordered twin."""
        interface = iface("i:a", "i:b", "o:y", "s:s1", "s:s2")
        p = parse_expression
        block = Block("st", interface, (Statement("y", p("s1 XOR (a AND s2)")),
                                        Statement("s2", p("s1 OR b")),
                                        Statement("s1", p("a AND NOT s2"))))
        twin = Block("tw", interface, (Statement("y", p("(s2 AND a) XOR s1")),
                                       Statement("s2", p("b OR s1")),
                                       Statement("s1", p("NOT s2 AND a"))))
        holds = spec_for(interface, [Assertion(p("NOT s1 OR a"))], Mode.VERIFY)
        fails = spec_for(interface, [TruthTableRow({}, {"y": False})], Mode.VERIFY)
        results = []
        for symbolic in (False, True):
            cfg = SynthConfig(unwind_cycles=3, symbolic_init=symbolic)
            results += [verify(block, holds, cfg), verify(block, fails, cfg)]
        results.append(equivalent(block, twin, SynthConfig(unwind_cycles=3)))
        return results

    @staticmethod
    def cnf(solvers):
        return [(signed_clauses(s.original), s.num_vars) for s in solvers]

    def test_unrolled_cnf_matches_golden(self, monkeypatch):
        sat_step(monkeypatch)
        # digests of the CNF verify and equivalent load over 3 cycles of a
        # stateful block (1 cycle for verify with symbolic init), as
        # search is very sensitive to variable and clause order.  The
        # bounded solvers are pinned with every bound asked, which a step
        # solver that drops its assumptions (so answers SAT) forces; the two
        # fixed-init verifies' induction steps are pinned apart.  The real
        # step proves the first check, whose bounded CNF then stops after
        # the first cycle.
        bounded, steps, drop = [], [], [True]

        class RecordingSolver(engine.CdclSolver):
            def __init__(self, *args, **kwargs):
                bounded.append(self)
                super().__init__(*args, **kwargs)

            def solve(self, assumptions=()):
                assumed = list(assumptions)
                if len(assumed) == 2:  # the induction step
                    bounded.remove(self)
                    steps.append(self)
                    assumed = [] if drop[0] else assumed
                return super().solve(assumed)

        monkeypatch.setattr(engine, "CdclSolver", RecordingSolver)
        cnf = self.cnf
        runs = []
        for dropping in (True, False):
            drop[0] = dropping
            bounded.clear(), steps.clear()
            results = self.unrolled_checks()
            assert [type(r).__name__ for r in results] == [
                "Verified", "Violated", "Verified", "Violated", "Verified"]
            runs.append((cnf(bounded), cnf(steps)))
        (every_bound, step_cnf), (cut, real_step_cnf) = runs
        digest = hashlib.sha256(repr(every_bound).encode())
        assert (len(every_bound), digest.hexdigest()) == (
            5, "14eee30a8404eb3876f66a555c25fd44bb48886f0cd670bb225b8b01903a73c5")
        digest = hashlib.sha256(repr(step_cnf).encode())
        assert (len(step_cnf), digest.hexdigest()) == (
            2, "4093d57c8489f140d0836fb38b7b115c1ea7be735ccb039c5dc23e2b5b0c921f")
        assert real_step_cnf == step_cnf and cut[1:] == every_bound[1:]
        clauses, num_vars = cut[0]
        assert 0 < len(clauses) < len(every_bound[0][0]) and num_vars < every_bound[0][1]
        assert clauses == every_bound[0][0][:len(clauses)]

    # The tests above ask the step on a CDCL solver.  A block whose state
    # vars and two cycles of inputs number at most _CUBE_INPUTS gets it on
    # truth tables instead: the same answers with one solver and one solve
    # fewer wherever the step is asked, as their twins below check.

    def test_verify_builds_one_solver_on_truth_tables(self, monkeypatch):
        block = self.shift_register()
        spec = spec_for(block.interface, [TruthTableRow({}, {"y": False})])
        built, solves = self.counting_solver(monkeypatch)
        result = verify(block, spec, SynthConfig(unwind_cycles=4))
        assert result.counterexample.cycle_index == 2
        assert (len(built), len(solves)) == (1, 1)

    def test_inductive_check_stops_after_bound_one_on_truth_tables(self, monkeypatch):
        block, spec = self.toggle_pair()
        built, solves = self.counting_solver(monkeypatch)
        for bound in range(2, 21):
            built.clear(), solves.clear()
            assert verify(block, spec, SynthConfig(unwind_cycles=bound)) == Verified(bound)
            assert (len(built), len(solves)) == (1, 1), bound

    def test_folded_bound_one_gets_the_step_on_truth_tables(self, monkeypatch):
        # bound 1 folds to FALSE and the tables prove the step: no solve
        block = self.token_ring(2)
        spec = self.at_most_one_token(block)
        built, solves = self.counting_solver(monkeypatch)
        for bound in range(2, 9):
            built.clear(), solves.clear()
            assert verify(block, spec, SynthConfig(unwind_cycles=bound)) == Verified(bound)
            assert (len(built), len(solves)) == (1, 0), bound

    def test_safe_check_that_is_not_inductive_on_truth_tables(self, monkeypatch):
        block, spec = self.pair_counter()
        built, solves = self.counting_solver(monkeypatch)
        for bound in range(2, 7):
            built.clear(), solves.clear()
            assert verify(block, spec, SynthConfig(unwind_cycles=bound)) == Verified(bound)
            # bound 1, then bounds 2..K
            assert (len(built), len(solves)) == (1, bound), bound

    def test_fixed_init_on_truth_tables(self, monkeypatch):
        # the same checks with the step on truth tables and on SAT: the
        # same results (each checked against explicit search) and bounded
        # solves; the SAT route's step solver and solve are all it adds
        rng = random.Random(67)
        cases = [self.random_case(rng, states=(1, 3)) for _ in range(200)]
        _, on_tables = self.fixed_init_oracle(monkeypatch, cases)
        sat_step(monkeypatch)
        _, on_sat = self.fixed_init_oracle(monkeypatch, cases)
        for (result, built, solves), (sat_result, sat_built, sat_solves) in zip(
                on_tables, on_sat, strict=True):
            bounded = [solve for solve in sat_solves if solve[0] != 2]
            assert result == sat_result and (built, solves) == (1, bounded)
            assert sat_built - built == len(sat_solves) - len(bounded)
        assert self.step_answers(on_tables) == [] and len(self.step_answers(on_sat)) > 300

    def test_unrolled_cnf_on_truth_tables(self, monkeypatch):
        # no step solver; the bounded CNF is the SAT route's when its step
        # is real (the first check stops after its first cycle)
        built, solves = self.counting_solver(monkeypatch)
        routes = []
        for sat in (False, True):
            if sat:
                sat_step(monkeypatch)
            built.clear(), solves.clear()
            results = self.unrolled_checks()
            steps = [solver for solver, n, _ in solves if n == 2]
            routes.append((results, len(steps), self.cnf([s for s in built if s not in steps])))
        (results, no_steps, cnf), (sat_results, sat_steps, sat_cnf) = routes
        assert results == sat_results and (no_steps, sat_steps) == (0, 2) and cnf == sat_cnf
        digest = hashlib.sha256(repr(cnf).encode())
        assert (len(cnf), digest.hexdigest()) == (
            5, "2daf0cbc6238a170eeafda3e21013cae29207330ba7efef5837e0d4a8f615e5d")

    def test_wide_ring_takes_the_sat_step(self, monkeypatch):
        # 13 places and two cycles of two inputs are past the cube, so the
        # step runs on a solver of its own, unpatched, and proves that the
        # ring never holds two tokens (bound 1 folds to FALSE)
        block = self.token_ring(13)
        spec = self.at_most_one_token(block)
        built, solves = self.counting_solver(monkeypatch)
        for bound in (2, 5, 30):
            built.clear(), solves.clear()
            assert verify(block, spec, SynthConfig(unwind_cycles=bound)) == Verified(bound)
            assert len(built) == 2 and [(n, sat) for _, n, sat in solves] == [(2, False)]

    def deep_case(self, rng):
        """A block whose runs from the all-false start go deep: a token
        ring, a shift register or a binary counter over 2-6 state vars,
        with a fault planted at a depth of 2-6 or none, and its check, as
        `random_case` returns them."""
        p = parse_expression
        kind = rng.choice(("ring", "shift", "counter"))
        if kind == "ring":
            # a kept token makes two tokens at depth keep + 2
            n = rng.randint(2, 6)
            block = self.token_ring(n, rng.choice([None, *range(n - 1)]))
            i = rng.randrange(n - 1)
            checks = (self.no_two_tokens(block) if rng.random() < 0.5
                      else [p(f"NOT (t{i} AND t{i + 1})")])
        elif kind == "shift":
            # stage i holds `a` of i cycles before; an injector lets `a` in
            # only when every stage is clear, so at most one stage is set
            n = rng.randint(2, 6)
            stages = [f"s{i}" for i in range(1, n + 1)]
            clear = " AND ".join(f"NOT {s}" for s in stages)
            first = f"a AND {clear}" if rng.random() < 0.5 else "a"
            body = [Statement("y", Var(stages[-1]))]
            body += [Statement(stages[i], Var(stages[i - 1])) for i in range(n - 1, 0, -1)]
            body.append(Statement("s1", p(first)))
            block = Block("sh", iface("i:a", "o:y", *(f"s:{s}" for s in stages)), tuple(body))
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            checks = [p(f"NOT (s{i} AND s{j})" if rng.random() < 0.5 else f"NOT s{j}")]
        else:
            # counts cycles with `en`; a wrapping counter goes back to 0
            # after `top`
            n = rng.randint(2, 4)
            bits = [f"c{i}" for i in range(n)]

            def equals(value):
                return " AND ".join(b if value >> i & 1 else f"NOT {b}"
                                    for i, b in enumerate(bits))

            top = rng.choice([None, *range(2, 1 << n)])
            wrap = "FALSE" if top is None else "en AND y"
            body = [Statement("y", p("FALSE" if top is None else equals(top)))]
            for i in range(n - 1, -1, -1):
                carry = " AND ".join(["en", *bits[:i]])
                body.append(Statement(bits[i], p(f"({bits[i]} XOR ({carry})) AND NOT ({wrap})")))
            block = Block("ctr", iface("i:en", "o:y", *(f"s:{b}" for b in bits)), tuple(body))
            checks = [p(f"NOT ({equals(rng.randint(2, min(6, (1 << n) - 1)))})")]
        spec = spec_for(block.interface, [Assertion(e) for e in checks], Mode.VERIFY)
        return block, spec, lambda env: not all(eval_expr(e, env) for e in checks)

    @pytest.mark.parametrize("tables", [False, True], ids=["sat", "tables"])
    def test_deep_states_match_explicit_search(self, monkeypatch, tables):
        # rings, shift registers and counters from the all-false start on
        # both routes of the step: shortest counterexamples up to 6 cycles
        # deep stay where explicit search puts them
        if not tables:
            sat_step(monkeypatch)
        rng = random.Random(73)
        depths, runs = self.fixed_init_oracle(
            monkeypatch, (self.deep_case(rng) for _ in range(90)))
        # 36 cases fail deeper than 2 cycles (up to 7) and 28 hold at this
        # seed; on SAT, 112 steps proved and 518 did not
        depth_counts = collections.Counter(depths)
        assert sum(depth_counts[d] for d in range(3, 9)) >= 30, depth_counts
        assert depth_counts[None] >= 20, depth_counts
        steps = self.step_answers(runs)
        assert (tables and steps == []
                or not tables and steps.count(False) >= 80 and steps.count(True) >= 400)

    def test_step_on_truth_tables_matches_the_sat_step(self, monkeypatch):
        # the induction step asked by truth tables and by SAT on random
        # blocks with 1-4 state vars and on deep ones: the same answer, and
        # the tables' lowest counterexample to induction replays, a clean
        # cycle from its state and then a bad one
        _, solves = self.counting_solver(monkeypatch)
        rng = random.Random(89)
        answers = collections.Counter()
        for case in range(240):
            block, spec, violates = (self.deep_case(rng) if case % 2
                                     else self.random_case(rng, states=(1, 4)))
            states, inputs = block.interface.state_vars, block.interface.inputs
            names = [*states, *(f"{n}@{c}" for c in range(2) for n in inputs)]
            full, env = engine._cube_tables(names)
            bad0, bad1 = (engine._mask(v, env, full, {}) for v in engine._step(
                block, lambda envs: engine._violation_exprs(spec, envs[0]), Var))
            cti = bad1 & ~bad0
            cfg = SynthConfig(unwind_cycles=2)
            solves.clear()
            result = verify(block, spec, cfg)
            on_tables = [(n, sat) for _, n, sat in solves]
            solves.clear()
            with pytest.MonkeyPatch.context() as mp:
                sat_step(mp)
                assert verify(block, spec, cfg) == result, case
            steps = [sat for _, n, sat in solves if n == 2]
            assert on_tables == [(n, sat) for _, n, sat in solves if n != 2], case
            if not steps:  # bound 1 fails, so no step is asked
                answers["unasked"] += 1
                continue
            assert steps == [cti != 0], case
            answers[steps[0]] += 1
            if cti:
                index = (cti & -cti).bit_length() - 1
                point = {name: bool(index >> i & 1) for i, name in enumerate(reversed(names))}
                cycles = [{n: point[f"{n}@{c}"] for n in inputs} for c in range(2)]
                trace = simulate(block, cycles, {s: point[s] for s in states})
                assert [violates({**c.inputs, **c.outputs, **c.state_after})
                        for c in trace.cycles] == [False, True], case
        # 111 counterexamples to induction replayed, 47 steps proved and 82
        # not asked at this seed
        assert answers[True] >= 90 and answers[False] >= 35, answers


class TestSynthesize:
    def test_all_two_input_tables(self):
        for code in range(16):
            fn = lambda e, code=code: {"y": bool((code >> ((e["a"] << 1) | e["b"])) & 1)}
            spec = spec_for(IFACE_AB_Y, table_rows(["a", "b"], ["y"], fn))
            result = synthesize(IFACE_AB_Y, spec, SynthConfig(seed=code))
            assert output_table(result.block, "y") == {
                (a, b): fn({"a": a, "b": b})["y"]
                for a, b in itertools.product((False, True), repeat=2)}

    def test_xor_table_minimal(self):
        spec = spec_for(IFACE_AB_Y, table_rows(
            ["a", "b"], ["y"], lambda e: {"y": e["a"] != e["b"]}))
        result = synthesize(IFACE_AB_Y, spec)
        assert result.slots_used <= 3
        assert result.block.body[0].rhs in (Xor(Var("a"), Var("b")),
                                            Xor(Var("b"), Var("a")))

    def test_dontcare_row_gives_constant(self):
        interface = iface("i:a", "o:y")
        spec = spec_for(interface, [TruthTableRow({}, {"y": True})])
        result = synthesize(interface, spec)
        assert result.slots_used == 1
        assert result.block.body[0].rhs == Const(True)

    def test_conflicting_rows_unsatisfiable(self):
        # the witness is the lowest dead point, every input in interface
        # order, whichever clashing rows come first, also when the clashes
        # are on different outputs and each output gets its own run
        def clash(pattern, output="y"):
            return [TruthTableRow(pattern, {output: v}) for v in (False, True)]

        for names, outputs, rows, witness, origins in [
                (["a"], ["y"], clash({"a": False}), {"a": False}, (0, 1)),
                (["a", "b"], ["y"], clash({"a": False}), {"a": False, "b": False},
                 (0, 1)),
                (["a", "b", "c"], ["y"], clash({"a": True, "b": False, "c": False})
                 + clash({"a": False, "b": True, "c": True}),
                 {"a": False, "b": True, "c": True}, (2, 3)),
                (["a", "b"], ["y", "z"], clash({"a": True, "b": True})
                 + clash({"a": False, "b": True}, "z"), {"a": False, "b": True},
                 (2, 3))]:
            interface = iface(*(f"i:{x}" for x in names), *(f"o:{o}" for o in outputs))
            pattern = " ".join(f"{x}={int(v)}" for x, v in witness.items())
            plain = spec_for(interface, rows)
            for spec in (plain, tie_outputs(plain)):
                with pytest.raises(Unsatisfiable, match=f"contradictory at input "
                                                        f"pattern: {pattern}\n") as info:
                    synthesize(interface, spec)
                assert list(info.value.witness.items()) == list(witness.items())
                assert info.value.origins == origins

    @pytest.mark.parametrize("max_slots", [1, 2, 3, 31])
    def test_contradiction_found_whatever_the_slot_limit(self, max_slots):
        # at a=1 b=1 c=0 the table wants y=0 and the assertion y=1; no two
        # row guards clash, and one slot cannot reach that point by CEGIS;
        # with 10 unused inputs more there is no cube and SAT must find it
        for pad in (0, 10):
            names = ["a", "b", "c", *(f"p{x}" for x in range(pad))]
            interface = iface(*(f"i:{x}" for x in names), "o:y")
            rows = table_rows(["a", "b", "c"], ["y"],
                              lambda e: {"y": e["a"] ^ e["b"] ^ e["c"]})
            spec = spec_for(interface, [*rows, Assertion(
                parse_expression("y OR NOT a OR NOT b OR c"))])
            with pytest.raises(Unsatisfiable, match="a=1 b=1 c=0") as info:
                synthesize(interface, spec, SynthConfig(max_slots=max_slots))
            witness = info.value.witness
            assert list(witness) == names
            assert {x: witness[x] for x in "abc"} == {"a": True, "b": True, "c": False}

    def test_magnet_rule_full_table(self):
        names = ["s1", "s2", "s3", "s4"]
        interface = BlockInterface(tuple(
            [VarDecl(n, Direction.INPUT) for n in names]
            + [VarDecl("m2", Direction.OUTPUT)]))
        rule = lambda e: {"m2": (e["s2"] and e["s3"]) or not e["s4"]}
        spec = spec_for(interface, table_rows(names, ["m2"], rule))
        result = synthesize(interface, spec)
        assert output_table(result.block, "m2") == {
            bits: (bits[1] and bits[2]) or not bits[3]
            for bits in itertools.product((False, True), repeat=4)}

    def test_assertion_only_spec(self):
        interface = iface("i:a", "o:y")
        spec = spec_for(interface, [Assertion(parse_expression("y OR NOT a")),
                                    Assertion(parse_expression("a OR NOT y"))])
        result = synthesize(interface, spec)
        assert output_table(result.block, "y") == {(False,): False, (True,): True}

    def test_max_slots_exceeded(self):
        names = ["a", "b", "c"]
        interface = BlockInterface(tuple(
            [VarDecl(n, Direction.INPUT) for n in names]
            + [VarDecl("y", Direction.OUTPUT)]))
        parity = lambda e: {"y": (e["a"] + e["b"] + e["c"]) % 2 == 1}
        spec = spec_for(interface, table_rows(names, ["y"], parity))
        with pytest.raises(SizeBoundExceeded):
            synthesize(interface, spec, SynthConfig(max_slots=1))

    def test_determinism(self):
        spec = and_table_spec()
        first = synthesize(IFACE_AB_Y, spec, SynthConfig(seed=11))
        second = synthesize(IFACE_AB_Y, spec, SynthConfig(seed=11))
        assert first.block == second.block
        assert first.iterations == second.iterations

    def test_stateful_interface_rejected(self):
        interface = iface("i:a", "o:y", "s:s")
        spec = spec_for(interface, [TruthTableRow({"a": True}, {"y": True})])
        with pytest.raises(TypeCheckError):
            synthesize(interface, spec)

    def test_no_outputs_rejected(self):
        interface = iface("i:a")
        with pytest.raises(TypeCheckError, match="at least one output"):
            synthesize(interface, spec_for(interface, []))

    def test_result_verifies_and_counts(self):
        spec = and_table_spec()
        result = synthesize(IFACE_AB_Y, spec)
        assert isinstance(verify(result.block, spec), Verified)
        assert result.iterations >= 1
        assert result.counterexamples_used >= 0
        assert result.wall_time >= 0.0


def guard_evaluations(monkeypatch, spec):
    """A live list of the spec's obligation guards passed to the engine's
    point evaluator `eval_expr`."""
    guards = {id(c.guard) for clauses in spec.obligations.values() for c in clauses}
    assert guards
    calls = []
    real = engine.eval_expr

    def counting(expr, env):
        if id(expr) in guards:
            calls.append(expr)
        return real(expr, env)

    monkeypatch.setattr(engine, "eval_expr", counting)
    return calls


class TestPerOutput:
    def row_interface(self):
        names = ["s1", "s2", "s3", "s4"]
        return BlockInterface(tuple(
            [VarDecl(n, Direction.INPUT) for n in names]
            + [VarDecl(f"m{k}", Direction.OUTPUT) for k in (1, 2, 3)]))

    def magnet_value(self, bits, k):
        occ = list(bits) + [True]  # out-of-range slot counts as occupied
        return (occ[k - 1] and occ[k]) or not occ[k + 1]

    def row_spec(self, interface):
        names = interface.inputs
        rows = []
        for bits in itertools.product((False, True), repeat=4):
            env = dict(zip(names, bits))
            outs = {f"m{k}": self.magnet_value(bits, k) for k in (1, 2, 3)}
            rows.append(TruthTableRow(env, outs))
        return spec_for(interface, rows)

    def test_per_output_runs_are_independent(self):
        interface = self.row_interface()
        spec = self.row_spec(interface)
        combined = synthesize(interface, spec, SynthConfig(seed=3))
        assert len(combined.per_output) == 3
        assert combined.iterations == sum(r.iterations for r in combined.per_output)
        assert combined.slots_used == sum(r.slots_used for r in combined.per_output)
        # each output independently re-synthesized gives the same expression
        for k in (1, 2, 3):
            single_iface = BlockInterface(tuple(
                [VarDecl(n, Direction.INPUT) for n in interface.inputs]
                + [VarDecl(f"m{k}", Direction.OUTPUT)]))
            rows = []
            for bits in itertools.product((False, True), repeat=4):
                env = dict(zip(interface.inputs, bits))
                rows.append(TruthTableRow(env, {f"m{k}": self.magnet_value(bits, k)}))
            single = synthesize(single_iface, spec_for(single_iface, rows),
                                SynthConfig(seed=3))
            run = next(r for r in combined.per_output if r.output == f"m{k}")
            assert single.block.body[0].rhs == \
                next(s.rhs for s in combined.block.body if s.target == f"m{k}")
            assert single.iterations == run.iterations

    def test_outputs_validate_against_table(self):
        interface = self.row_interface()
        result = synthesize(interface, self.row_spec(interface), SynthConfig(seed=1))
        for bits in itertools.product((False, True), repeat=4):
            env = dict(zip(interface.inputs, bits))
            outs = simulate(result.block, [env]).cycles[0].outputs
            for k in (1, 2, 3):
                assert outs[f"m{k}"] == self.magnet_value(bits, k)

    def test_joint_mode_matches_table(self):
        interface = self.row_interface()
        # the slowest joint run: the row table with every output tied
        result = synthesize(interface, tie_outputs(self.row_spec(interface)),
                            SynthConfig(seed=1))
        assert [r.output for r in result.per_output] == ["m1*m2*m3"]
        for bits in itertools.product((False, True), repeat=4):
            env = dict(zip(interface.inputs, bits))
            outs = simulate(result.block, [env]).cycles[0].outputs
            for k in (1, 2, 3):
                assert outs[f"m{k}"] == self.magnet_value(bits, k)

    def partially_tied(self, interface):
        """Rows give m1 and m2; two assertions tie m3 to NOT m2."""
        rows = [TruthTableRow(dict(zip(interface.inputs, bits)),
                              {f"m{k}": self.magnet_value(bits, k) for k in (1, 2)})
                for bits in itertools.product((False, True), repeat=4)]
        return spec_for(interface, [*rows, Assertion(parse_expression("m2 OR m3")),
                                    Assertion(parse_expression("NOT m2 OR NOT m3"))])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_untied_output_runs_alone(self, monkeypatch, seed):
        template_outputs = []
        real_init = engine._SlotTemplate.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            template_outputs.append(set(self.outputs))

        monkeypatch.setattr(engine._SlotTemplate, "__init__", init)
        interface = self.row_interface()
        spec = self.partially_tied(interface)
        result = synthesize(interface, spec, SynthConfig(seed=seed))
        assert [r.output for r in result.per_output] == ["m1", "m2*m3"]
        assert result.per_output[0].slots_used == 3
        assert {"m1"} in template_outputs and {"m2", "m3"} in template_outputs
        assert all(outs in ({"m1"}, {"m2", "m3"}) for outs in template_outputs)
        for env in all_assignments(interface.inputs):
            outs = simulate(result.block, [env]).cycles[0].outputs
            assert spec_holds(spec, {**env, **outs})

    def test_dead_point_in_a_tied_group(self):
        # at a=1 b=1 the rows want y=z=1 and the assertion y XOR z; w runs
        # alone and is fine, yet the whole spec is refuted as `check` does
        interface = iface("i:a", "i:b", "o:y", "o:z", "o:w")
        spec = spec_for(interface, [
            TruthTableRow({"b": False}, {"w": True}),
            TruthTableRow({"a": True}, {"y": True}),
            TruthTableRow({"b": True}, {"z": True}),
            Assertion(parse_expression("y XOR z"))])
        outcomes = []
        for op in (lambda: check(spec), lambda: synthesize(interface, spec)):
            with pytest.raises(Unsatisfiable) as info:
                op()
            outcomes.append((str(info.value), info.value.witness, info.value.origins))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == {"a": True, "b": True}

    def test_guards_never_evaluated_per_point(self, monkeypatch):
        # per-output runs and the final spec check read the guards' truth
        # tables; no guard goes through the point evaluator
        interface = self.row_interface()
        spec = self.row_spec(interface)
        calls = guard_evaluations(monkeypatch, spec)
        result = synthesize(interface, spec, SynthConfig(seed=1))
        assert len(result.per_output) == 3
        assert calls == []

    def test_repair_never_evaluates_guards_per_point(self, monkeypatch):
        interface = self.row_interface()
        spec = self.row_spec(interface)
        s1, s2, s3, s4 = (Var(n) for n in interface.inputs)
        block = Block("row", interface, (
            Statement("m1", Or(And(s1, s2), Not(s3))),
            Statement("m2", And(s2, s3)),  # drops "OR NOT s4"
            Statement("m3", And(s3, s4))), Lang.ST)
        calls = guard_evaluations(monkeypatch, spec)
        result = repair(block, spec, SynthConfig(seed=1))
        assert [r.iterations > 0 for r in result.per_output] == [False, True, False]
        assert calls == []

    def test_coupling_assertion_forces_joint(self):
        interface = iface("i:a", "o:y", "o:z")
        spec = spec_for(interface, [
            TruthTableRow({"a": True}, {"y": True}),
            Assertion(parse_expression("y OR z")),
            Assertion(parse_expression("NOT y OR NOT z")),
        ])
        result = synthesize(interface, spec, SynthConfig(seed=0))
        for env in all_assignments(["a"]):
            outs = simulate(result.block, [env]).cycles[0].outputs
            assert outs["y"] != outs["z"]
            if env["a"]:
                assert outs["y"] is True


@st.composite
def coupled_specs(draw):
    """Random partial tables over at most 3 inputs and 2-4 outputs plus one
    or two assertions that each couple two outputs, so the coupled outputs
    run jointly: ties may chain, or leave outputs alone."""
    inputs = [f"i{k}" for k in range(draw(st.integers(1, 3)))]
    outputs = [f"o{k}" for k in range(draw(st.integers(2, 4)))]
    interface = BlockInterface(tuple(
        [VarDecl(x, Direction.INPUT) for x in inputs]
        + [VarDecl(o, Direction.OUTPUT) for o in outputs]))

    def literal(name):
        return Var(name) if draw(st.booleans()) else Not(Var(name))

    rows = []
    points = list(itertools.product((False, True), repeat=len(inputs)))
    for bits in draw(st.lists(st.sampled_from(points), min_size=len(points) // 2,
                              unique=True)):
        told = [o for o in outputs if draw(st.booleans())] or [outputs[0]]
        rows.append(TruthTableRow(dict(zip(inputs, bits)),
                                  {o: draw(st.booleans()) for o in told}))
    ties = []
    for _ in range(draw(st.integers(1, 2))):
        first, second = draw(st.permutations(outputs))[:2]
        tie = draw(st.sampled_from([And, Or, Xor]))(literal(first), literal(second))
        if draw(st.booleans()):
            tie = Or(tie, literal(draw(st.sampled_from(inputs))))
        ties.append(Assertion(tie))
    return interface, spec_for(interface, rows + ties)


def tied_labels(spec, outputs):
    """The run labels of a spec's groups, by closing the ties of its
    assertions one output at a time."""
    labels, left = [], list(outputs)
    while left:
        group = {left[0]}
        for _ in outputs:
            group |= {o for c in spec.assertions if ref_vars(c.expr) & group
                      for o in ref_vars(c.expr) & set(outputs)}
        labels.append("*".join(o for o in outputs if o in group))
        left = [o for o in left if o not in group]
    return labels


def spec_holds(spec, env):
    for output, clauses in spec.obligations.items():
        for clause in clauses:
            if eval_expr(clause.guard, env) and env[output] != clause.value:
                return False
    return all(eval_expr(c.expr, env) for c in spec.assertions)


class TestJointEncoding:
    @given(coupled_specs(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_coupled_specs_synthesize_exhaustively_correct(self, case, seed):
        interface, spec = case
        inputs, outputs = interface.inputs, interface.outputs
        points = [dict(zip(inputs, bits)) for bits in
                  itertools.product((False, True), repeat=len(inputs))]
        feasible = all(
            any(spec_holds(spec, {**env, **dict(zip(outputs, outs))})
                for outs in itertools.product((False, True), repeat=len(outputs)))
            for env in points)
        if not feasible:
            with pytest.raises(Unsatisfiable):
                synthesize(interface, spec, SynthConfig(seed=seed))
            return
        first = synthesize(interface, spec, SynthConfig(seed=seed))
        assert [r.output for r in first.per_output] == tied_labels(spec, outputs)
        for env in points:
            outs = simulate(first.block, [env]).cycles[0].outputs
            assert spec_holds(spec, {**env, **outs})
        again = synthesize(interface, spec, SynthConfig(seed=seed))
        assert emit(again.block, Lang.ST) == emit(first.block, Lang.ST)


class TestOutputGroups:
    """`engine._output_groups`: which outputs share a CEGIS run, and with
    which assertions."""

    def groups(self, outputs, *assertions):
        interface = iface("i:a", *(f"o:{o}" for o in outputs))
        spec = spec_for(interface, [Assertion(parse_expression(a)) for a in assertions])
        return [(group, [format_expression(c.expr) for c in clauses])
                for group, clauses in engine._output_groups(spec, interface.outputs)]

    def test_untied_outputs_run_alone(self):
        assert self.groups(["y", "z"], "a", "y OR a", "NOT z") == [
            (["y"], ["a", "y OR a"]), (["z"], ["a", "NOT z"])]

    def test_ties_chain(self):
        # y-z and z-w give one group, its outputs in interface order
        assert self.groups(["w", "y", "z"], "z XOR w", "y OR z") == [
            (["w", "y", "z"], ["z XOR w", "y OR z"])]
        assert self.groups(["y", "z", "w", "v"], "y OR z", "a", "z AND w", "v") == [
            (["y", "z", "w"], ["y OR z", "a", "z AND w"]), (["v"], ["a", "v"])]

    def test_groups_in_order_of_their_first_output(self):
        assert self.groups(["p", "y", "q", "z"], "z OR y", "q AND p") == [
            (["p", "q"], ["q AND p"]), (["y", "z"], ["z OR y"])]
        assert self.groups(["p", "y", "q", "z"], "z OR y") == [
            (["p"], []), (["y", "z"], ["z OR y"]), (["q"], [])]

    @given(coupled_specs())
    @settings(max_examples=100, deadline=None)
    def test_groups_partition_the_outputs(self, case):
        interface, spec = case
        outputs = list(interface.outputs)
        groups = engine._output_groups(spec, outputs)
        assert ["*".join(group) for group, _ in groups] == tied_labels(spec, outputs)
        for clause in spec.assertions:
            named = ref_vars(clause.expr) & set(outputs)
            holding = [g for g, clauses in groups if clause in clauses]
            # an input-only assertion reaches every group, any other one
            # lands in the group of the outputs it names
            assert len(holding) == (len(groups) if not named else 1)
            assert all(named <= set(g) for g in holding)


class TestWideInputs:
    """Past 12 inputs there is no truth-table cube: the spec is read one
    point at a time and the CEGIS verifier switches from bitsets to the
    SAT route; these exercise that path end to end."""

    def wide_interface(self, n=13):
        names = [f"i{k}" for k in range(n)]
        return names, BlockInterface(tuple(
            [VarDecl(x, Direction.INPUT) for x in names]
            + [VarDecl("y", Direction.OUTPUT)]))

    def test_synthesize_with_sat_verifier(self):
        names, interface = self.wide_interface()
        rows = (TruthTableRow({"i0": True}, {"y": True}),
                TruthTableRow({"i12": True}, {"y": True}),
                TruthTableRow({x: False for x in names}, {"y": False}))
        spec = spec_for(interface, rows)
        result = synthesize(interface, spec, SynthConfig(seed=0))
        table_points = [
            {x: False for x in names},
            {**{x: False for x in names}, "i0": True},
            {**{x: False for x in names}, "i12": True},
        ]
        expected = [False, True, True]
        for env, want in zip(table_points, expected):
            assert simulate(result.block, [env]).cycles[0].outputs["y"] == want
        assert isinstance(verify(result.block, spec), Verified)

    def test_simplify_with_sat_verifier(self):
        names, interface = self.wide_interface()
        expr = Or(Var("i0"), And(Var("i5"), Not(Var("i5"))))
        block = Block("wide", interface, (Statement("y", expr),))
        result = simplify(block)
        assert result.block.body == (Statement("y", Var("i0")),)

    def test_extend_with_sat_verifier(self):
        # the pin of y to i0 is released where the extra row fires
        names, interface = self.wide_interface()
        block = Block("wide", interface, (Statement("y", Var("i0")),))
        extra = ConstraintList("e", Mode.EXTEND, interface,
                               (TruthTableRow({"i12": True}, {"y": True}),))
        want = Block("want", interface, (Statement("y", Or(Var("i0"), Var("i12"))),))
        for seed in range(3):
            result = extend(block, extra, SynthConfig(seed=seed))
            assert isinstance(equivalent(result.block, want), Verified)

    def test_repair_keeps_deep_original(self):
        # the temps inline to a 70-deep AND chain, deeper than a statement
        # may be, so the original is replayed as the block itself
        names, interface = self.wide_interface()
        temps = [VarDecl(f"t{k}", Direction.TEMP) for k in range(70)]
        body = [Statement("t0", Var("i0")),
                *(Statement(f"t{k}", And(Var(f"t{k - 1}"), Var(names[k % 13])))
                  for k in range(1, 70)),
                Statement("y", Var("t69"))]
        block = Block("deep", BlockInterface(interface.decls + tuple(temps)), tuple(body))
        spec = spec_for(interface, [TruthTableRow({"i0": False}, {"y": False})])
        result = repair(block, spec)
        assert (result.block, result.iterations) == (block, 0)

    def test_sat_answers_replay(self, monkeypatch):
        # a solver that holds none of its clauses answers SAT with a model
        # that breaks no clause it holds; past the cube the counterexample
        # and dead-point searches replay that model and refuse it
        class Planted(engine.CdclSolver):
            def extend(self, num_vars, clauses):
                super().extend(num_vars, [])

        names, interface = self.wide_interface()
        spec = spec_for(interface, [TruthTableRow({"i0": True}, {"y": True}),
                                    TruthTableRow({"i0": False, "i1": True}, {"y": False})])
        pspec = engine._PointSpec(names, ["y"], spec.obligations, spec.assertions)
        assert not pspec.cube
        meets = {"y": Var("i0")}
        assert engine._find_violation(meets, pspec, 0) is None
        assert pspec.dead_point(0) is None
        monkeypatch.setattr(engine, "CdclSolver", Planted)
        with pytest.raises(AssertionError, match="does not replay"):
            engine._find_violation(meets, pspec, 0)
        with pytest.raises(AssertionError, match="does not replay"):
            pspec.dead_point(0)


def exprs_over(names):
    leaves = st.sampled_from([Var(n) for n in names] + [Const(False), Const(True)])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Xor, sub, sub)), max_leaves=16)


def without_temps(interface):
    return BlockInterface(tuple(d for d in interface.decls
                                if d.direction is not Direction.TEMP))


def op_outcomes(block, constraints):
    """ST, iterations and counterexample count (or the error) of synthesize
    (per output, and joint with the outputs tied by `tie_outputs`), repair,
    simplify and extend on one case; extend gets the last two constraints
    only, as a long extra list makes it slow."""
    interface = without_temps(block.interface)
    spec = spec_for(interface, constraints)
    extra = ConstraintList("e", Mode.EXTEND, interface, tuple(constraints[-2:]))
    ops = [lambda: synthesize(interface, spec, SynthConfig(seed=1)),
           lambda: synthesize(interface, tie_outputs(spec), SynthConfig(seed=1)),
           lambda: repair(block, spec, SynthConfig(seed=1)),
           lambda: simplify(block, SynthConfig(seed=1)),
           lambda: extend(block, extra, SynthConfig(seed=1))]
    outcomes = []
    for op in ops:
        try:
            result = op()
            outcomes.append((emit(result.block, Lang.ST), result.iterations,
                             result.counterexamples_used))
        except (Unsatisfiable, SizeBoundExceeded) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def cube_and_point_outcomes(block, constraints):
    """op_outcomes through the truth-table cube, then with the cube switched
    off (width-1 masks per point and the SAT counterexample search).  The
    second pass checks every SAT answer (a violation, of a candidate or of
    a block, or a dead point exactly when the cube finds one, and one by
    the width-1 masks) and then goes on with the cube's first such point,
    and it takes its slot lower bounds, its forced inputs (which make a
    template read-once) and the inputs that projection keeps from the cube
    too, so both passes must make the same search."""
    real_bound = engine._PointSpec.min_slot_bound
    real_dead = engine._PointSpec.dead_point
    real_find = engine._find_violation
    real_failing = engine._failing_point
    real_projected = engine._PointSpec.projected
    real_flips = engine._PointSpec.forced_flips.func

    def cube_twin(pspec):
        mp.setattr(engine, "_CUBE_INPUTS", 12)
        twin = engine._PointSpec(pspec.input_names, pspec.outputs, pspec.obligations,
                                 pspec.assertions)
        mp.setattr(engine, "_CUBE_INPUTS", 0)
        return twin

    def checked(out_exprs, pspec, seed):
        # a spec projected to no inputs keeps its one-point cube
        assert not pspec.cube or not pspec.input_names
        found = real_find(out_exprs, pspec, seed)
        first = real_find(out_exprs, cube_twin(pspec), seed)
        assert (found is None) == (first is None)
        if found is not None:
            env = dict(zip(pspec.input_names, found))
            assert tuple(eval_expr(out_exprs[o], env) for o in pspec.outputs) \
                not in pspec.allowed(found)
        return first

    def checked_failing(block, pspec, seed):
        assert not pspec.cube
        found = real_failing(block, pspec, seed)
        exprs = engine._original_exprs(block)
        first = real_find({o: exprs[o] for o in pspec.outputs}, cube_twin(pspec), seed)
        assert (found is None) == (first is None)
        if found is not None:
            env = dict(zip(pspec.input_names, found))
            assert tuple(eval_expr(exprs[o], env) for o in pspec.outputs) \
                not in pspec.allowed(found)
        return first

    def checked_dead(pspec, seed):
        assert not pspec.cube
        found = real_dead(pspec, seed)
        first = real_dead(cube_twin(pspec), seed)
        assert (found is None) == (first is None)
        assert found is None or pspec.allowed(found) == []
        return first

    cube = op_outcomes(block, constraints)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._PointSpec, "min_slot_bound",
                   lambda pspec: real_bound(cube_twin(pspec)))
        mp.setattr(engine._PointSpec, "forced_flips",
                   property(lambda pspec: real_flips(cube_twin(pspec))))
        mp.setattr(engine._PointSpec, "dead_point", checked_dead)
        mp.setattr(engine._PointSpec, "projected", lambda pspec: pspec.restricted(
            real_projected(cube_twin(pspec)).input_names))
        mp.setattr(engine, "_find_violation", checked)
        mp.setattr(engine, "_failing_point", checked_failing)
        mp.setattr(engine, "_CUBE_INPUTS", 0)
        points = op_outcomes(block, constraints)
    return cube, points


@st.composite
def spec_cases(draw):
    """A random block over 3 inputs and 1-2 outputs (minimal-edit runs
    over four inputs can take many seconds), with rows on about half the
    points (at most one row partial) and at most one single-output
    assertion over its interface."""
    n, m = 3, draw(st.integers(1, 2))
    rng = random.Random(draw(st.integers(0, 2**32)))
    block = random_block(rng, n, m, n_temps=rng.randint(0, 1),
                         n_statements=rng.randint(m, m + 2), max_expr_size=5)
    inputs, outputs = block.interface.inputs, block.interface.outputs
    patterns = [dict(zip(inputs, bits))
                for bits in itertools.product((False, True), repeat=n)
                if rng.random() < 0.5]
    if rng.random() < 0.3:
        patterns.append({x: rng.random() < 0.5 for x in rng.sample(inputs, n - 1)})
    constraints = [TruthTableRow(pattern, {o: rng.random() < 0.5 for o in outputs
                                           if o == told or rng.random() < 0.5})
                   for pattern in patterns for told in [rng.choice(outputs)]]
    for _ in range(rng.randint(0, 1)):
        output = Var(rng.choice(outputs))
        output = output if rng.random() < 0.5 else Not(output)
        constraints.append(Assertion(Or(output, random_expr(rng, inputs, 3))))
    return block, constraints


@st.composite
def constraint_lists(draw):
    """A random combinational constraint list over 2-3 inputs and 1-2
    outputs: rows with don't-cares, cause-effect columns, and assertions
    over inputs only, over one output or coupling two outputs."""
    inputs = [f"i{k}" for k in range(draw(st.integers(2, 3)))]
    outputs = [f"o{k}" for k in range(draw(st.integers(1, 2)))]
    interface = BlockInterface(tuple(
        [VarDecl(x, Direction.INPUT) for x in inputs]
        + [VarDecl(o, Direction.OUTPUT) for o in outputs]))
    scopes = [[], *([o] for o in outputs), *([outputs] if len(outputs) > 1 else [])]

    def literal(name):
        return Var(name) if draw(st.booleans()) else Not(Var(name))

    constraints = []
    for kind in draw(st.lists(st.sampled_from(["row", "column", "assertion"]),
                              max_size=4)):
        if kind == "row":
            told = draw(st.lists(st.sampled_from(outputs), min_size=1, unique=True))
            constraints.append(TruthTableRow(
                {x: draw(st.sampled_from([False, True, None])) for x in inputs},
                {o: draw(st.booleans()) for o in told}))
        elif kind == "column":
            marked = draw(st.lists(st.sampled_from(inputs), min_size=1, unique=True))
            constraints.append(CauseEffectColumn(
                draw(st.sampled_from(outputs)), draw(st.sampled_from(list(Combinator))),
                {x: draw(st.booleans()) for x in marked}))
        else:
            names = draw(st.sampled_from(scopes)) + draw(
                st.lists(st.sampled_from(inputs), min_size=1, max_size=2, unique=True))
            expr = literal(names[0])
            for name in names[1:]:
                expr = draw(st.sampled_from([And, Or, Or, Xor]))(expr, literal(name))
            constraints.append(Assertion(expr))
    return interface, constraints


class TestContradictionCheck:
    @given(constraint_lists())
    @settings(max_examples=100, deadline=None)
    def test_check_agrees_with_synthesize(self, case):
        # synthesis stops at 3 slots: a spec is refuted before any template
        interface, constraints = case
        inputs, outputs = interface.inputs, interface.outputs
        spec = spec_for(interface, constraints)
        runs = [lambda: check(spec)] + [
            lambda goal=goal: synthesize(interface, goal, SynthConfig(max_slots=3))
            for goal in (spec, tie_outputs(spec))]
        outcomes = []
        for op in runs:
            try:
                op()
                outcomes.append(None)
            except SizeBoundExceeded:
                outcomes.append(None)
            except Unsatisfiable as exc:
                outcomes.append((str(exc), exc.witness, exc.origins))
        assert outcomes[1:] == outcomes[:-1]
        valuations = list(itertools.product((False, True), repeat=len(outputs)))
        dead = next((dict(zip(inputs, bits))
                     for bits in itertools.product((False, True), repeat=len(inputs))
                     if not any(spec_holds(spec, {**dict(zip(inputs, bits)),
                                                  **dict(zip(outputs, v))})
                                for v in valuations)), None)
        if dead is None:
            assert outcomes[0] is None
            return
        _, witness, origins = outcomes[0]
        assert witness == dead
        assert origins == tuple(sorted(set(origins)))
        named = SpecFormula(interface, {o: tuple(c for c in clauses if c.origin in origins)
                                        for o, clauses in spec.obligations.items()},
                            tuple(c for c in spec.assertions if c.origin in origins))
        for v in valuations:
            assert not spec_holds(named, {**dead, **dict(zip(outputs, v))})

    def test_independent_outputs_tabulate_two_valuations(self, monkeypatch):
        # sixteen outputs that copy a: no spec of the run tabulates more
        # than one output's two valuations, the contradiction check included
        outputs = [f"y{k}" for k in range(16)]
        interface = iface("i:a", *(f"o:{o}" for o in outputs))
        spec = spec_for(interface, table_rows(["a"], outputs,
                                              lambda e: dict.fromkeys(outputs, e["a"])))
        widths = []
        real_ok = engine._PointSpec._ok

        def ok(pspec, *args):
            widths.append(len(pspec.valuations))
            return real_ok(pspec, *args)

        monkeypatch.setattr(engine._PointSpec, "_ok", ok)
        result = synthesize(interface, spec, SynthConfig(seed=1))
        assert result.block.body == tuple(Statement(o, Var("a")) for o in outputs)
        assert widths and max(widths) == 2

    @pytest.mark.parametrize("constraints", [
        [TruthTableRow({"a": True}, {"y": True}), TruthTableRow({"b": True}, {"y": False}),
         TruthTableRow({"a": False}, {"z": True})],
        [TruthTableRow({"a": True}, {"z": True}), Assertion(parse_expression("a AND NOT b"))],
    ], ids=["one-output", "input-only-assertion"])
    def test_independent_contradiction_reported_as_check_does(self, constraints):
        # a clash in one output's own spec, or one every output shares,
        # gives the same Unsatisfiable as the whole spec's check
        interface = iface("i:a", "i:b", "o:y", "o:z")
        spec = spec_for(interface, constraints)
        errors = []
        for op in (lambda: check(spec), lambda: synthesize(interface, spec)):
            with pytest.raises(Unsatisfiable) as caught:
                op()
            errors.append((str(caught.value), caught.value.witness, caught.value.origins))
        assert errors[0] == errors[1]

    def test_wide_contradiction_asks_one_query(self, monkeypatch):
        # past the cube a dead point is a SAT query; with one group the
        # whole spec is the run's spec, so synthesize asks it once
        inputs = [f"x{i}" for i in range(engine._CUBE_INPUTS + 1)]
        interface = iface(*(f"i:{x}" for x in inputs), "o:y")
        spec = spec_for(interface, [TruthTableRow({"x0": True}, {"y": True}),
                                    TruthTableRow({"x1": True}, {"y": False})])
        real_unroll = engine._unroll
        errors, calls = [], []

        def unroll(*args, **kwargs):
            calls[-1] += 1
            return real_unroll(*args, **kwargs)

        monkeypatch.setattr(engine, "_unroll", unroll)
        for op in (lambda: check(spec), lambda: synthesize(interface, spec)):
            calls.append(0)
            with pytest.raises(Unsatisfiable) as caught:
                op()
            errors.append((str(caught.value), caught.value.witness, caught.value.origins))
        assert calls == [1, 1]
        assert errors[0] == errors[1]
        assert errors[0][2] == (0, 1)


def padded(spec):
    """The spec over three more inputs it does not depend on: p0, which no
    constraint mentions, and p1 and p2, which it mentions to no effect.
    Each obligation splits into one clause where p1 holds and one where
    it does not, each guard also reads `p2 OR NOT p2`, and each assertion
    reads `p1 AND NOT p1` in a disjunct."""
    p1, p2 = Var("p1"), Var("p2")
    first, *rest = spec.interface.inputs
    interface = BlockInterface(tuple(
        [VarDecl(x, Direction.INPUT) for x in ("p0", first, "p1", *rest, "p2")]
        + [VarDecl(o, Direction.OUTPUT) for o in spec.interface.outputs]))
    obligations = {o: tuple(ObligationClause(And(And(c.guard, side), Or(p2, Not(p2))),
                                             c.value, c.origin)
                            for c in clauses for side in (p1, Not(p1)))
                   for o, clauses in spec.obligations.items()}
    assertions = tuple(AssertionClause(Or(c.expr, And(p1, Not(p1))), c.origin)
                       for c in spec.assertions)
    return SpecFormula(interface, obligations, assertions)


def synthesis_outcome(spec, cfg):
    try:
        return synthesize(spec.interface, spec, cfg)
    except (Unsatisfiable, SizeBoundExceeded) as exc:
        return type(exc).__name__


class TestProjection:
    """synthesize and simplify search over the inputs the spec depends on
    (`_PointSpec.projected`); the slot count must not change."""

    @given(constraint_lists(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_padding_keeps_slot_count(self, case, tied):
        interface, constraints = case
        spec = spec_for(interface, constraints)
        if tied:
            spec = tie_outputs(spec)
        cfg = SynthConfig(seed=1)
        plain, wide = synthesis_outcome(spec, cfg), synthesis_outcome(padded(spec), cfg)
        if isinstance(plain, str):
            assert wide == plain
            return
        assert [(r.output, r.slots_used) for r in wide.per_output] == \
            [(r.output, r.slots_used) for r in plain.per_output]
        assert all(not {"p0", "p1", "p2"} & set(r.inputs) for r in wide.per_output)
        assert isinstance(verify(wide.block, padded(spec)), Verified)

    def test_projection_semantic_in_cube(self):
        spec = padded(spec_for(IFACE_AB_Y, [TruthTableRow({"a": True}, {"y": True}),
                                            TruthTableRow({"a": False}, {"y": False})]))
        pspec = engine._PointSpec(spec.interface.inputs, ["y"], spec.obligations)
        assert pspec.cube and pspec.input_names == ["p0", "a", "p1", "b", "p2"]
        assert pspec.projected().input_names == ["a"]
        assert pspec.projected().projected().input_names == ["a"]

    def test_four_inputs_of_sixteen(self):
        names = [f"i{k}" for k in range(16)]
        interface = BlockInterface(tuple(
            [VarDecl(x, Direction.INPUT) for x in names]
            + [VarDecl("y", Direction.OUTPUT)]))
        read = ["i3", "i7", "i11", "i14"]
        rule = lambda e: {"y": (e["i3"] and e["i7"]) or (e["i11"] and not e["i14"])}
        # i0 is mentioned to no effect, so only the cube can drop it
        spec = spec_for(interface, (*table_rows(read, ["y"], rule),
                                    Assertion(Or(Var("y"), Or(Var("i0"), Not(Var("i0")))))))
        a, b, c, d = (Var(x) for x in read)
        want = Block("want", interface, (Statement("y", Or(And(a, b), And(c, Not(d)))),))
        for seed in range(3):
            result = synthesize(interface, spec, SynthConfig(seed=seed))
            assert isinstance(equivalent(result.block, want), Verified)
            assert result.iterations < 20
            assert result.per_output[0].inputs == tuple(read)

    def test_simplify_drops_tautology_input(self, monkeypatch):
        # a bloated warehouse row: m1 reads s4 only in `s4 OR NOT s4`
        s1, s2, s3, s4 = (Var(f"s{k}") for k in range(1, 5))
        interface = iface("i:s1", "i:s2", "i:s3", "i:s4", "o:m1", "o:m2", "o:m3")
        block = Block("tautology", interface, (
            Statement("m1", And(Or(And(s1, s2), Not(s3)), Or(s4, Not(s4)))),
            Statement("m2", Or(Not(Not(And(s2, s3))), Not(s4))),
            Statement("m3", And(And(s3, s4), s3))))
        offered = []

        class Recording(engine._SlotTemplate):
            def __init__(self, input_names, n_slots, outputs, *args, **kwargs):
                offered.append((outputs[0], tuple(input_names)))
                super().__init__(input_names, n_slots, outputs, *args, **kwargs)

        monkeypatch.setattr(engine, "_SlotTemplate", Recording)
        result = simplify(block, SynthConfig(seed=1))
        assert isinstance(equivalent(result.block, block), Verified)
        assert {inputs for output, inputs in offered if output == "m1"} == {("s1", "s2", "s3")}
        assert [r.inputs for r in result.per_output] == [
            ("s1", "s2", "s3"), ("s2", "s3", "s4"), ("s3", "s4")]


class TestTruthTables:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_mask_matches_eval_expr(self, data):
        names = ["a", "b", "c", "d", "e"][:data.draw(st.integers(0, 5))]
        expr = data.draw(exprs_over(names))
        shared = Xor(expr, And(Not(expr), expr))  # memo hits on shared nodes
        pspec = engine._PointSpec(names, ["y"], {})
        for e in (expr, shared):
            table = engine._mask(e, pspec.env, pspec.full, {})
            assert 0 <= table <= pspec.full
            for index, point in enumerate(itertools.product((False, True),
                                                            repeat=len(names))):
                env = dict(zip(names, point))
                want = eval_expr(e, env)
                assert bool(table >> index & 1) == want
                width1 = engine._mask(e, {x: int(v) for x, v in env.items()}, 1, {})
                assert width1 == want
        assert pspec.lowest(pspec.full) == (False,) * len(names)

    def test_cube_tables_match_division(self):
        # name i is true in the upper half of every run of 2w points,
        # w = 2^(n-1-i): the repeating pattern is full // (2^(2w) - 1)
        # copies of ((2^w - 1) << w)
        for n in range(17):
            names = [f"x{i}" for i in range(n)]
            full, env = engine._cube_tables(names)
            assert full == (1 << (1 << n)) - 1 and list(env) == names
            for i, name in enumerate(names):
                w = 1 << n - 1 - i
                assert env[name] == full // ((1 << 2 * w) - 1) * (((1 << w) - 1) << w), (n, i)

    @given(spec_cases())
    @settings(max_examples=40, deadline=None)
    def test_point_masks_match_cube(self, case):
        block, constraints = case
        inputs, outputs = block.interface.inputs, block.interface.outputs
        spec = spec_for(without_temps(block.interface), constraints)
        originals, pinned = engine._original_exprs(block), spec.obligations
        for o in outputs:
            pinned = engine._pinned(pinned, o, originals[o],
                                    [c.guard for c in spec.obligations.get(o, ())])
        for obligations in (spec.obligations, pinned):
            args = (inputs, outputs, obligations, spec.assertions)
            cube = engine._PointSpec(*args)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_CUBE_INPUTS", 0)
                single = engine._PointSpec(*args)
            assert cube.cube and not single.cube
            for point in itertools.product((False, True), repeat=len(inputs)):
                assert cube.allowed(point) == single.allowed(point)

    @given(spec_cases())
    @settings(max_examples=60, deadline=None)
    def test_ops_match_without_cube(self, case):
        cube, points = cube_and_point_outcomes(*case)
        assert cube == points

    def test_ops_match_without_cube_at_twelve_inputs(self):
        names = [f"i{k}" for k in range(12)]
        interface = BlockInterface(tuple(
            [VarDecl(x, Direction.INPUT) for x in names]
            + [VarDecl("y", Direction.OUTPUT)]))
        i = [Var(x) for x in names]
        block = Block("wide", interface, (Statement("y", Or(
            And(i[0], i[11]), And(i[4], Not(i[4])))),))
        constraints = [TruthTableRow({"i0": True, "i11": True}, {"y": True}),
                       TruthTableRow({"i0": False, "i5": True, "i11": True}, {"y": False}),
                       TruthTableRow({"i11": False, "i2": True}, {"y": True}),
                       Assertion(parse_expression("NOT y OR i0 OR i2 OR i4"))]
        cube, points = cube_and_point_outcomes(block, constraints)
        assert cube == points
        assert all(isinstance(outcome[1], int) for outcome in cube)
        assert any(outcome[2] > 0 for outcome in cube)  # counterexamples were used


class TestCegisProgress:
    def test_counterexamples_never_repeat(self):
        # indirectly asserted inside the loop; a run on a moderately hard
        # spec exercises it
        names = ["a", "b", "c", "d"]
        interface = BlockInterface(tuple(
            [VarDecl(n, Direction.INPUT) for n in names]
            + [VarDecl("y", Direction.OUTPUT)]))
        fn = lambda e: {"y": (e["a"] and e["b"]) or (e["c"] and not e["d"])}
        spec = spec_for(interface, table_rows(names, ["y"], fn))
        result = synthesize(interface, spec, SynthConfig(seed=2))
        assert output_table(result.block, "y") == {
            bits: (bits[0] and bits[1]) or (bits[2] and not bits[3])
            for bits in itertools.product((False, True), repeat=4)}

    def magnet_case(self):
        names = ["s1", "s2", "s3", "s4"]
        interface = BlockInterface(tuple(
            [VarDecl(n, Direction.INPUT) for n in names]
            + [VarDecl("m2", Direction.OUTPUT)]))
        rule = lambda e: {"m2": (e["s2"] and e["s3"]) or not e["s4"]}
        return interface, spec_for(interface, table_rows(names, ["m2"], rule))

    def test_one_solver_per_template(self, monkeypatch):
        built = count_solvers(monkeypatch)
        interface, spec = self.magnet_case()
        result = synthesize(interface, spec, SynthConfig(seed=1))
        assert result.counterexamples_used > 0
        # one template per slot count from the projected spec's lower
        # bound up to the answer's size
        bound = engine._PointSpec(interface.inputs, ["m2"], spec.obligations
                                  ).projected().min_slot_bound()
        assert len(built) == result.slots_used - bound + 1

    def test_guards_never_evaluated_per_point(self, monkeypatch):
        # a single-output run and the final spec check read the guards'
        # truth tables; no guard goes through the point evaluator
        interface, spec = self.magnet_case()
        calls = guard_evaluations(monkeypatch, spec)
        result = synthesize(interface, spec, SynthConfig(seed=1))
        assert result.counterexamples_used > 0
        assert calls == []

    def test_point_cnf_matches_golden(self):
        # digest of the CNF the Tseitin-encoded point constraints gave this
        # template; the direct clauses must match it, as search is very
        # sensitive to variable and clause order
        interface, spec = self.magnet_case()
        pspec = engine._PointSpec(interface.inputs, ["m2"], spec.obligations)
        template = engine._SlotTemplate(interface.inputs, 3, ["m2"], 1)
        points = engine._seed_points(pspec)
        for point in points:
            template.add_point(point, pspec)
        candidate = template.solve()
        violation = engine._find_violation(candidate, pspec, 1)
        assert violation not in (None, *points)
        template.add_point(violation, pspec)
        cnf = CnfFormula(template.solver.num_vars,
                         tuple(signed_clauses(template.solver.original)))
        assert (len(cnf.clauses), cnf.num_vars) == (1431, 256)
        assert hashlib.sha256(to_dimacs(cnf).encode()).hexdigest() == (
            "dc927ddf66dab33d3aebb80e332beba9e0e20ce66b8ad609a6dec29922fa0211")

    @staticmethod
    def template_digest(templates):
        """(count, digest) of each template's well-formedness CNF and
        variable count."""
        digest, count = hashlib.sha256(), 0
        for template in templates:
            digest.update(repr((signed_clauses(template.solver.original),
                                template.num_vars)).encode())
            count += 1
        return count, digest.hexdigest()

    def test_template_cnf_matches_golden(self):
        # plain templates over 0-5 inputs, 1-6 slots and 1-3 outputs, with
        # and without the pruning rules (which only repair templates leave
        # out); the digest is the CNF the Tseitin encoder gave these
        # constraints, as search is very sensitive to variable and clause
        # order
        class Unpruned(engine._SlotTemplate):
            def _pruning_clauses(self):
                return []

        templates = ((engine._SlotTemplate if prune else Unpruned)(
                        [f"i{x}" for x in range(n)], k, [f"o{x}" for x in range(m)], 0)
                     for n in range(6)
                     for k, m, prune in itertools.product(range(1, 7), range(1, 4),
                                                          (True, False)))
        assert self.template_digest(templates) == (
            216, "1ad591485cb6d6240775dfaad257dc650f6f76e41b64fccdba8ee6a6c77b7417")

    def test_repair_template_cnf_matches_golden(self):
        # the templates of the repair rounds of fixed random expressions
        # over 0-4 inputs (0-input blocks are all constants), one per size;
        # an empty spec's slot lower bound is 1, so every size opens
        def templates():
            rng = random.Random(20261018)
            for trial in range(60):
                inputs = [f"i{x}" for x in range(trial % 5)]
                shapes = engine._encode_original(
                    random_expr(rng, inputs, rng.randint(1, 6)), inputs)
                rounds = engine._repair_rounds(shapes, engine._PointSpec(inputs, ["y"], {}),
                                               SynthConfig(max_slots=len(shapes) + 2))
                yield from dict.fromkeys(template for template, _ in rounds)

        assert self.template_digest(templates()) == (
            180, "c6806161a829563952c388ce589d80154e1ef9a6f5d65ed3a11f8e2367384248")

    def test_same_seed_same_bytes(self):
        interface, spec = self.magnet_case()
        for seed in (0, 5):
            runs = [synthesize(interface, spec, SynthConfig(seed=seed))
                    for _ in range(2)]
            assert emit(runs[0].block, Lang.ST) == emit(runs[1].block, Lang.ST)
            assert runs[0].iterations == runs[1].iterations
            assert runs[0].counterexamples_used == runs[1].counterexamples_used

    def test_repeated_counterexample_raises(self, monkeypatch):
        # the all-false point is a seed point, so reporting it again is a bug
        monkeypatch.setattr(engine, "_find_violation",
                            lambda outs, pspec, seed: (False, False))
        with pytest.raises(AssertionError, match="counterexample repeated"):
            synthesize(IFACE_AB_Y, and_table_spec())

    def test_final_spec_check_raises(self, monkeypatch):
        real = engine._find_violation
        calls = []

        def accept_first(outs, pspec, seed):
            calls.append(outs)
            return None if len(calls) == 1 else real(outs, pspec, seed)

        monkeypatch.setattr(engine, "_find_violation", accept_first)
        monkeypatch.setattr(engine._SlotTemplate, "decode",
                            lambda self, model: {"y": Or(Var("a"), Var("b"))})
        with pytest.raises(AssertionError, match="synthesized block fails its spec"):
            synthesize(IFACE_AB_Y, and_table_spec())


def slots(expr, inputs=("a", "b", "c")):
    """Slots of the expression's straight-line encoding."""
    return len(engine._encode_original(expr, inputs))


def temp_chain(n):
    """`t1 := a XOR b; t_i := t_(i-1) AND (t_(i-1) OR a); y := t_n`, which
    computes a XOR b; inlined, every temp is read twice."""
    interface = BlockInterface((*IFACE_AB_Y.decls,
                                *(VarDecl(f"t{i}", Direction.TEMP) for i in range(1, n + 1))))
    body = [Statement("t1", Xor(Var("a"), Var("b")))]
    body += [Statement(f"t{i}", And(Var(f"t{i - 1}"), Or(Var(f"t{i - 1}"), Var("a"))))
             for i in range(2, n + 1)]
    return Block("chain", interface, (*body, Statement("y", Var(f"t{n}"))))


def and_chain(n, *inputs):
    """`t1 := b AND a; t_i := t_(i-1) AND a; y := t_n` over inputs a, b and
    `inputs`, which computes a AND b; inlined, it is n levels deep."""
    interface = BlockInterface((*iface("i:a", "i:b", *(f"i:{x}" for x in inputs), "o:y").decls,
                                *(VarDecl(f"t{i}", Direction.TEMP) for i in range(1, n + 1))))
    body = [Statement("t1", And(Var("b"), Var("a")))]
    body += [Statement(f"t{i}", And(Var(f"t{i - 1}"), Var("a"))) for i in range(2, n + 1)]
    return Block("chain", interface, (*body, Statement("y", Var(f"t{n}"))))


SHARED_TEMP = Block("sh", BlockInterface((*iface("i:a", "i:b", "i:c", "o:y").decls,
                                          VarDecl("t", Direction.TEMP))),
                    (Statement("t", parse_expression("a AND b")),
                     Statement("y", parse_expression("t OR (t XOR c)"))))


@st.composite
def shared_exprs(draw):
    """Expressions over a, b and c, rooted at the last of up to 8 built
    nodes; each node reads leaves or earlier nodes (the latest by
    default), so a subterm object is often shared and equal subterms are
    often built twice."""
    pool = [Var("a"), Var("b"), Var("c"), FALSE, TRUE]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from([Not, And, Or, Xor]))
        args = [pool[-1 - draw(st.integers(0, len(pool) - 1))]
                for _ in range(1 if kind is Not else 2)]
        pool.append(kind(*args))
    return pool[-1]


class TestSlotCount:
    def test_shared_subterms_counted_once(self):
        shared = And(Var("a"), Var("b"))
        assert slots(Or(shared, Not(And(Var("a"), Var("b"))))) == 3
        assert slots(Var("a")) == 1
        assert slots(Const(True)) == 1
        assert slots(Xor(Var("a"), Const(False))) == 2

    @given(shared_exprs())
    @settings(max_examples=200, deadline=None)
    def test_encoding_computes_the_expression(self, expr):
        # the slots, run over the cube, give the expression's truth table,
        # and there is one per distinct non-variable subterm (a bare
        # variable takes one slot)
        inputs = ["a", "b", "c"]
        pspec = engine._PointSpec(inputs, ["y"], {})
        env, full = pspec.env, pspec.full
        vals = [env[name] for name in inputs]  # operand index -> truth table
        for shape in engine._encode_original(expr, inputs):
            kind, (a, b) = shape.op[0], shape.args
            if kind is Var:
                vals.append(env[inputs[shape.op[1]]])
            elif kind is Const:
                vals.append(full if shape.const else 0)
            elif kind is Not:
                vals.append(full ^ vals[a])
            else:
                vals.append({And: vals[a] & vals[b], Or: vals[a] | vals[b],
                             Xor: vals[a] ^ vals[b]}[kind])
        assert vals[-1] == engine._mask(expr, env, full, {})
        subterms, stack = set(), [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, Not):
                stack.append(node.operand)
            elif isinstance(node, (And, Or, Xor)):
                stack += (node.left, node.right)
            if not isinstance(node, Var):
                subterms.add(node)
        assert len(vals) - len(inputs) == max(1, len(subterms))

    def test_shared_temp_is_one_slot(self):
        # t is computed once and read twice: three slots, not four
        assert slots(engine._original_exprs(SHARED_TEMP)["y"]) == 3

    def test_repair_reports_written_slots_not_template_size(self, monkeypatch):
        template = engine._SlotTemplate(["a", "b"], 2, ["y"], 0)
        not_id, and_id = template._idx[(Not,)], template._idx[(And,)]
        (ops0, (a00, a01)), (ops1, (a10, a11)) = template._selectors
        # slot 0 computes NOT a and is never read; slot 1 is a AND b
        chosen = {ops0[not_id], a00[0], a01[0], ops1[and_id], a10[0], a11[1]}
        candidate = template.decode({v: 2 * v in chosen
                                     for v in range(1, template.num_vars + 1)})
        assert candidate == {"y": And(Var("a"), Var("b"))}
        monkeypatch.setattr(engine._SlotTemplate, "solve",
                            lambda self, assumptions: candidate)
        # two original slots, so every repair template has at least two
        block = Block("orb", IFACE_AB_Y, (Statement("y", Or(Not(Var("a")), Var("b"))),))
        result = repair(block, and_table_spec())
        assert result.block.body == (Statement("y", And(Var("a"), Var("b"))),)
        assert result.slots_used == 1
        assert [r.slots_used for r in result.per_output] == [1]


class TestRepair:
    def test_or_to_and_single_change(self):
        block = Block("orb", IFACE_AB_Y, (Statement("y", Or(Var("a"), Var("b"))),))
        result = repair(block, and_table_spec())
        assert result.block.body == (Statement("y", And(Var("a"), Var("b"))),)

    def test_coupling_assertion_rejected(self):
        # the error names the tied outputs in interface order, not the
        # untied w
        interface = iface("i:a", "o:y", "o:w", "o:z")
        block = Block("yz", interface, tuple(Statement(o, Var("a")) for o in "ywz"))
        tie = Assertion(Or(Var("z"), Var("y")))
        with pytest.raises(TypeCheckError, match=r"couple several outputs \(y, z\); repair"):
            repair(block, spec_for(interface, [tie]))
        with pytest.raises(TypeCheckError, match=r"couple several outputs \(y, z\); extend"):
            extend(block, ConstraintList("e", Mode.EXTEND, interface, (tie,)))

    def test_only_or_to_and_among_single_edits(self):
        # enumerate all single-node edits of Or(a, b): operator swaps and
        # leaf substitutions; only AND satisfies the full AND table
        target = {bits: bits[0] and bits[1]
                  for bits in itertools.product((False, True), repeat=2)}
        leaves = [Var("a"), Var("b"), Const(True), Const(False)]
        candidates = [And(Var("a"), Var("b")), Xor(Var("a"), Var("b"))]
        for leaf in leaves:
            candidates.append(Or(leaf, Var("b")))
            candidates.append(Or(Var("a"), leaf))
        matching = []
        for cand in candidates:
            table = {bits: eval_expr(cand, dict(zip(("a", "b"), bits)))
                     for bits in itertools.product((False, True), repeat=2)}
            if table == target:
                matching.append(cand)
        assert matching == [And(Var("a"), Var("b"))]

    @pytest.mark.parametrize("seed", range(12))
    def test_one_changed_slot_whatever_the_seed(self, seed):
        # one changed slot, and a changed commutative slot keeps the
        # original operand order: never And(b, a)
        block = Block("orb", IFACE_AB_Y, (Statement("y", Or(Var("a"), Var("b"))),))
        result = repair(block, and_table_spec(), SynthConfig(seed=seed))
        assert result.block.body == (Statement("y", And(Var("a"), Var("b"))),)

    @pytest.mark.parametrize("seed", range(12))
    def test_changed_slot_keeps_operand_in_place(self, seed):
        # a AND c becomes a AND b: the kept operand a stays first
        interface = iface("i:a", "i:b", "i:c", "o:y")
        spec = spec_for(interface, table_rows(["a", "b", "c"], ["y"], lambda e: {
            "y": (e["a"] and e["b"]) or not e["c"]}))
        block = Block("rb", interface,
                      (Statement("y", parse_expression("(a AND c) OR NOT c")),))
        result = repair(block, spec, SynthConfig(seed=seed))
        assert result.block.body == (
            Statement("y", parse_expression("(a AND b) OR NOT c")),)

    def test_deep_chain_checked_without_recursion(self):
        # the chain is 1,200 levels deep once inlined and already meets
        # the table, so repair returns it after one truth-table check
        block = and_chain(1200)
        result = repair(block, and_table_spec())
        assert (result.block, result.iterations) == (block, 0)
        assert len(engine._encode_original(engine._original_exprs(block)["y"],
                                           ("a", "b"))) == 1200

    def test_satisfying_block_unchanged(self):
        block = Block("ok", IFACE_AB_Y, (Statement("y", And(Var("a"), Var("b"))),))
        result = repair(block, and_table_spec())
        assert result.block is block
        assert result.iterations == 0

    def test_identity_to_negation(self):
        interface = iface("i:a", "o:y")
        spec = spec_for(interface, [TruthTableRow({"a": False}, {"y": True}),
                                    TruthTableRow({"a": True}, {"y": False})])
        block = Block("idb", interface, (Statement("y", Var("a")),))
        result = repair(block, spec)
        assert result.block.body[0].rhs == Not(Var("a"))

    def test_unsatisfiable_spec(self):
        interface = iface("i:a", "o:y")
        spec = spec_for(interface, [TruthTableRow({"a": False}, {"y": False}),
                                    TruthTableRow({"a": False}, {"y": True})])
        block = Block("idb", interface, (Statement("y", Var("a")),))
        with pytest.raises(Unsatisfiable):
            repair(block, spec)


def straight_line_programs(n_inputs, n_slots):
    """Every program of the repair template's grammar with `n_slots` slots,
    as (slot shapes, truth table of the last slot); input i is true at the
    points p with bit i set."""
    points = range(1 << n_inputs)
    full = (1 << len(points)) - 1
    tables = [sum(1 << p for p in points if p >> i & 1) for i in range(n_inputs)]
    programs = [((), tables)]
    for j in range(n_slots):
        dom = n_inputs + j
        grown = []
        for shapes, values in programs:
            options = [(engine._SlotShape((Var, i)), tables[i]) for i in range(n_inputs)]
            options += [(engine._SlotShape((Const,), const=c), full if c else 0)
                        for c in (False, True)]
            options += [(engine._SlotShape((Not,), (d, 0)), full ^ values[d])
                        for d in range(dom)]
            for d0, d1 in itertools.product(range(dom), repeat=2):
                x, y = values[d0], values[d1]
                options += [(engine._SlotShape((And,), (d0, d1)), x & y),
                            (engine._SlotShape((Or,), (d0, d1)), x | y),
                            (engine._SlotShape((Xor,), (d0, d1)), x ^ y)]
            grown += [(shapes + (shape,), values + [value]) for shape, value in options]
        programs = grown
    return [(shapes, values[-1]) for shapes, values in programs]


def test_decode_builds_every_program():
    # every two-slot program over two inputs, set on a template's
    # selectors, decodes to an expression with its table and no more slots
    inputs = ["a", "b"]
    template = engine._SlotTemplate(inputs, 2, ["y"], 0)
    env = {name: sum(1 << p for p in range(4) if p >> i & 1) for i, name in enumerate(inputs)}
    programs = straight_line_programs(2, 2)
    for shapes, table in programs:
        chosen = set()
        for shape, (op_sels, arg_sels), cv in zip(shapes, template._selectors, template._cvs):
            chosen |= {op_sels[template._idx[shape.op]], arg_sels[0][shape.args[0]],
                       arg_sels[1][shape.args[1]]}
            if shape.const:
                chosen.add(cv)
        expr = template.decode({v: 2 * v in chosen
                                for v in range(1, template.num_vars + 1)})["y"]
        assert engine._mask(expr, env, 15, {}) == table, shapes
        assert len(engine._encode_original(expr, inputs)) <= len(shapes), shapes
    assert len(programs) == 18 * 34


def chosen_shapes(template, model):
    """The slot shapes a repair template's model picks."""
    def pick(sels):
        return next(i for i, sel in enumerate(sels) if model[sel >> 1])

    return [engine._SlotShape(template.ops[pick(op_sels)],
                              tuple(pick(sels) for sels in arg_sels) if arg_sels[0] else (0, 0),
                              model[cv >> 1])
            for (op_sels, arg_sels), cv in zip(template._selectors, template._cvs)]


def majority_edit(op):
    """A repair or extend run (seed 1) that turns y := a into the majority
    of a, b and c, whose least slot count is 4 and whose slot lower bound
    is 3 (no program of 1 or 2 slots computes it)."""
    interface = iface("i:a", "i:b", "i:c", "o:y")
    block = Block("base", interface, (Statement("y", Var("a")),))
    if op == "repair":
        spec = spec_for(interface, table_rows(["a", "b", "c"], ["y"], lambda e: {
            "y": e["a"] + e["b"] + e["c"] >= 2}))
        return lambda: repair(block, spec, SynthConfig(seed=1))
    # the two points where y := a and the majority differ
    extra = ConstraintList("e", Mode.EXTEND, interface, (
        TruthTableRow({"a": True, "b": False, "c": False}, {"y": False}),
        TruthTableRow({"a": False, "b": True, "c": True}, {"y": True})))
    return lambda: extend(block, extra, SynthConfig(seed=1))


def edit_cases(case):
    """Repair (toward the case's spec) and extend (by its last two
    constraints) runs of a `spec_cases` case, at seed 1."""
    block, constraints = case
    interface = without_temps(block.interface)
    spec = spec_for(interface, constraints)
    extra = ConstraintList("e", Mode.EXTEND, interface, tuple(constraints[-2:]))
    return [lambda: repair(block, spec, SynthConfig(seed=1)),
            lambda: extend(block, extra, SynthConfig(seed=1))]


def run_edit(op):
    """The op's result, or None when its spec is contradictory."""
    try:
        return op()
    except Unsatisfiable:
        return None


class TestMinimalEditSearch:
    @pytest.mark.parametrize("op", ["repair", "extend"])
    def test_one_solver_per_template_size(self, monkeypatch, op):
        # y := a needs three added slots and one changed one for the
        # majority; the bound opens sizes 3 and 4, each once, across
        # edit budgets 2 to 4
        built, sizes = count_solvers(monkeypatch), template_sizes(monkeypatch)
        result = majority_edit(op)()
        assert output_table(result.block, "y") == {
            bits: sum(bits) >= 2 for bits in itertools.product((False, True), repeat=3)}
        assert result.slots_used == 4
        assert sizes == [3, 4]
        assert len(built) == 2

    @given(spec_cases())
    @settings(max_examples=20, deadline=None)
    @example((Block("base", iface("i:a", "i:b", "i:c", "o:y"), (Statement("y", Var("a")),)),
              list(table_rows(["a", "b", "c"], ["y"],
                              lambda e: {"y": e["a"] + e["b"] + e["c"] >= 2}))))
    def test_no_template_below_the_slot_bound(self, case):
        # every template of a run has at least as many slots as the lower
        # bound of the run's spec, computed just before its templates
        events = []
        real_bound, real_init = engine._PointSpec.min_slot_bound, engine._SlotTemplate.__init__

        def bound(pspec):
            value = real_bound(pspec)
            events.append(("bound", value))
            return value

        def init(template, input_names, n_slots, *args, **kwargs):
            events.append(("template", n_slots))
            real_init(template, input_names, n_slots, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._PointSpec, "min_slot_bound", bound)
            mp.setattr(engine._SlotTemplate, "__init__", init)
            for op in edit_cases(case):
                events.clear()
                run_edit(op)
                least = None
                for kind, value in events:
                    if kind == "bound":
                        least = value
                    else:
                        assert least is not None and value >= least

    @given(spec_cases())
    @settings(max_examples=20, deadline=None)
    def test_zero_edit_round_never_solved(self, case):
        # the original's failing point is given up front, so no solve on a
        # template of the original's size allows 0 changed slots
        asked = []
        real_solve = engine._SlotTemplate.solve

        def solve(template, assumptions=()):
            asked.append((template, list(assumptions)))
            return real_solve(template, assumptions)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._SlotTemplate, "solve", solve)
            for op in edit_cases(case):
                run_edit(op)
        assert not [template for template, assumptions in asked
                    if template.k == len(template.originals)
                    and assumptions == [template.more_than[0] ^ 1]]

    def test_shared_temp_seeds_one_slot(self, monkeypatch):
        # t := a AND b is read twice but computed once, so the fix
        # t := a OR b changes one slot of a 3-slot template
        interface = iface("i:a", "i:b", "i:c", "o:y")
        spec = spec_for(interface, table_rows(["a", "b", "c"], ["y"], lambda e: {
            "y": e["a"] or e["b"] or e["c"]}))
        sizes = template_sizes(monkeypatch)
        result = repair(SHARED_TEMP, spec, SynthConfig(seed=1))
        assert output_table(result.block, "y") == {
            bits: any(bits) for bits in itertools.product((False, True), repeat=3)}
        assert sizes == [3]

    def test_temp_chain_repairs_in_one_edit(self):
        # six temps read twice each are eleven distinct slots, and
        # changing t1's XOR to AND is one edit
        target = Block("and", IFACE_AB_Y, (Statement("y", And(Var("a"), Var("b"))),))
        result = repair(temp_chain(6), and_table_spec())
        assert isinstance(equivalent(result.block, target), Verified)
        assert result.slots_used == 11

    @given(st.recursive(st.sampled_from([Var("a"), Var("b"), FALSE, TRUE]), lambda sub: st.one_of(
               st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
               st.builds(Xor, sub, sub)), max_leaves=3),
           st.dictionaries(st.sampled_from(list(itertools.product((False, True), repeat=2))),
                           st.booleans(), min_size=1),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    # slot lower bounds above the original's slot count: y := a against
    # NOT (a XOR b), and y := b against a table that NOT (a XOR b) and
    # a OR NOT b meet, each taking 2 slots
    @example(Var("a"), {(False, False): True, (False, True): False,
                        (True, False): False, (True, True): True}, 1)
    @example(Var("b"), {(False, False): True, (True, True): True, (False, True): False}, 2)
    def test_fewest_changed_slots_then_fewest_slots(self, original, table, seed):
        # brute force over every program of the template sizes: the winner
        # has the fewest edits (changed original slots plus added slots),
        # then the fewest slots
        inputs = ["a", "b"]
        block = Block("orig", IFACE_AB_Y, (Statement("y", original),))
        # repair reads the block with its constants folded
        originals = engine._encode_original(engine._original_exprs(block)["y"], inputs)
        assume(len(originals) <= 2)
        index = {bits: sum(b << i for i, b in enumerate(bits)) for bits in table}
        meets = lambda vec: all(bool(vec >> index[bits] & 1) == v for bits, v in table.items())
        assume(not meets(sum(1 << index[bits] for bits in table
                             if eval_expr(original, dict(zip(inputs, bits))))))
        n = len(originals)
        best = min((sum(x != y for x, y in zip(shapes, originals)) + k - n, k)
                   for k in (n, n + 1)
                   for shapes, vec in straight_line_programs(2, k) if meets(vec))
        spec = spec_for(IFACE_AB_Y, [TruthTableRow(dict(zip(inputs, bits)), {"y": v})
                                     for bits, v in table.items()])
        picked = []
        real_decode = engine._SlotTemplate.decode

        def decode(template, model):
            picked[:] = [(template, model)]
            return real_decode(template, model)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._SlotTemplate, "decode", decode)
            result = repair(block, spec, SynthConfig(seed=seed, max_slots=n + 1))
        template, model = picked[0]
        shapes = chosen_shapes(template, model)
        changed = sum(x != y for x, y in zip(shapes, originals))
        assert (changed + template.k - n, template.k) == best
        assert meets(sum(1 << index[bits] for bits in table
                         if eval_expr(result.block.body[0].rhs, dict(zip(inputs, bits)))))


class TestSimplify:
    def test_absorbs_redundant_terms(self):
        expr = parse_expression("a AND b OR a AND NOT b")
        block = Block("simp", IFACE_AB_Y, (Statement("y", expr),))
        result = simplify(block)
        assert result.block.body == (Statement("y", Var("a")),)
        assert result.slots_used == 1

    def test_already_minimal_not_grown(self):
        block = Block("min", IFACE_AB_Y, (Statement("y", And(Var("a"), Var("b"))),))
        result = simplify(block)
        assert blocks_equivalent(block, result.block)
        assert result.slots_used <= 1

    def test_double_negation(self):
        block = Block("nn", IFACE_AB_Y, (Statement("y", Not(Not(Var("a")))),))
        result = simplify(block)
        assert result.block.body[0].rhs == Var("a")

    def test_size_never_grows(self):
        rng = random.Random(77)
        from plcsynth.engine import _encode_original, _original_exprs
        for _ in range(15):
            block = random_block(rng, rng.randint(1, 4), 1, 0, 0,
                                 rng.randint(1, 3), max_expr_size=7)
            result = simplify(block)
            assert blocks_equivalent(block, result.block)
            for stmt in result.block.body:
                orig = _original_exprs(block)[stmt.target]
                assert len(_encode_original(stmt.rhs, block.interface.inputs)) <= \
                    len(_encode_original(orig, block.interface.inputs))

    def test_fallback_counts_written_slots(self):
        # nothing fits one slot, so the original stays: t is written once
        result = simplify(SHARED_TEMP, SynthConfig(max_slots=1))
        assert blocks_equivalent(SHARED_TEMP, result.block)
        assert result.slots_used == 3

    def test_long_temp_chain(self):
        # 40 temps read twice each: 2^40 inlined paths, 79 distinct slots
        result = simplify(temp_chain(40))
        assert result.block.body == (Statement("y", Xor(Var("a"), Var("b"))),)
        assert result.slots_used == 1

    @pytest.mark.parametrize("inputs", [(), ("c",)], ids=["chain", "unused-input"])
    def test_deep_chain(self, inputs):
        # 1,200 levels once inlined: the truth tables, the straight-line
        # encoding and, with an input to project away, the substitution
        # must not take a Python stack frame per level
        result = simplify(and_chain(1200, *inputs))
        assert result.block.body == (Statement("y", And(Var("a"), Var("b"))),)
        assert result.slots_used == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deep_temps_past_the_cube(self, seed):
        # 13 inputs, so candidates are checked by the bounded checker, and
        # the pin guard is 1,200 levels deep: replaying its models once
        # took a Python stack frame per level
        result = simplify(parse_st(deep_temps_st(1200)), SynthConfig(seed=seed))
        assert result.block.body == (
            Statement("y", parse_expression("a AND x1 OR x2 AND x3")),)

    def test_one_output_falls_back(self):
        # y shrinks to one slot; the multiplexer z needs three, so under
        # max_slots=2 the original stays and its run reports its 4 slots
        from plcsynth.engine import _encode_original
        block = Block("two", iface("i:a", "i:b", "i:c", "o:y", "o:z"),
                      (Statement("y", parse_expression("a AND b OR a AND NOT b")),
                       Statement("z", parse_expression("a AND b OR NOT a AND c"))))
        result = simplify(block, SynthConfig(max_slots=2))
        assert blocks_equivalent(block, result.block)
        assert result.block.body == (Statement("y", Var("a")), block.body[1])
        assert [(r.output, r.slots_used) for r in result.per_output] == [
            ("y", 1), ("z", len(_encode_original(block.body[1].rhs, ("a", "b", "c"))))]
        assert result.slots_used == sum(r.slots_used for r in result.per_output) == 5

    def test_checked_over_every_input(self, monkeypatch):
        # a projection that drops a needed input must not go unnoticed: y
        # reads only a and comes out right, z's AND loses b, and the one
        # check of the whole block catches it
        monkeypatch.setattr(engine._PointSpec, "projected",
                            lambda self: self.restricted(self.input_names[:1]))
        block = Block("two", iface("i:a", "i:b", "o:y", "o:z"),
                      (Statement("y", parse_expression("a OR a AND b")),
                       Statement("z", parse_expression("a AND b OR a AND b"))))
        with pytest.raises(AssertionError, match="synthesized block fails its spec"):
            simplify(block)

    def test_stateful_rejected(self):
        interface = iface("i:a", "o:y", "s:s")
        block = Block("st", interface, (Statement("s", Var("a")),))
        with pytest.raises(TypeCheckError):
            simplify(block)


class TestExtend:
    def test_identity_plus_override_row(self):
        extra = ConstraintList("e", Mode.EXTEND, IFACE_AB_Y,
                               (TruthTableRow({"a": True, "b": True}, {"y": False}),))
        block = Block("ext", IFACE_AB_Y, (Statement("y", Var("a")),))
        result = extend(block, extra)
        assert output_table(result.block, "y") == {
            (False, False): False, (False, True): False,
            (True, False): True, (True, True): False}

    def test_empty_extra_unchanged(self):
        extra = ConstraintList("e", Mode.EXTEND, IFACE_AB_Y, ())
        block = Block("ext", IFACE_AB_Y, (Statement("y", Var("a")),))
        result = extend(block, extra)
        assert result.block is block
        assert result.iterations == 0

    def test_self_contradictory_extra(self):
        extra = ConstraintList("e", Mode.EXTEND, IFACE_AB_Y,
                               (TruthTableRow({"a": True}, {"y": False}),
                                TruthTableRow({"b": True}, {"y": True})))
        block = Block("ext", IFACE_AB_Y, (Statement("y", Var("a")),))
        with pytest.raises(Unsatisfiable):
            extend(block, extra)

    def test_contradiction_names_no_pin(self):
        # at a=0 b=0 the assertion fails whatever y is, and the pin holding
        # y to a fails too for y=1; the source constraint is named, not it
        extra = ConstraintList("e", Mode.EXTEND, IFACE_AB_Y,
                               (Assertion(parse_expression("b")),))
        block = Block("ext", IFACE_AB_Y, (Statement("y", Var("a")),))
        with pytest.raises(Unsatisfiable) as info:
            extend(block, extra)
        assert info.value.witness == {"a": False, "b": False}
        assert info.value.origins == (0,)
        assert str(info.value) == ("spec is contradictory at input pattern: a=0 b=0\n"
                                   "  assertion 0: b")

    def test_contradiction_past_the_cube_with_deep_pin(self):
        # 13 inputs and a 1,200-level pin guard: naming the clauses at the
        # dead point once took a Python stack frame per level
        block = parse_st(deep_temps_st(1200))
        interface = BlockInterface(tuple(d for d in block.interface.decls
                                         if d.direction is not Direction.TEMP))
        extra = ConstraintList("e", Mode.EXTEND, interface,
                               (Assertion(parse_expression("x5")),))
        with pytest.raises(Unsatisfiable) as info:
            extend(block, extra)
        assert info.value.witness == dict.fromkeys(interface.inputs, False)
        assert info.value.origins == (0,)
        assert str(info.value).splitlines()[1:] == ["  assertion 0: x5"]

    def test_unconstrained_behavior_preserved(self):
        rng = random.Random(9)
        for _ in range(10):
            block = random_block(rng, 3, 1, 0, 0, 2, max_expr_size=5, name="base")
            interface = block.interface
            pattern = {n: rng.random() < 0.5 for n in interface.inputs}
            want = rng.random() < 0.5
            extra = ConstraintList("e", Mode.EXTEND, interface,
                                   (TruthTableRow(pattern, {"out0": want}),))
            result = extend(block, extra)
            for env in all_assignments(interface.inputs):
                got = simulate(result.block, [env]).cycles[0].outputs["out0"]
                if all(env[k] == v for k, v in pattern.items()):
                    assert got == want
                else:
                    orig = simulate(block, [env]).cycles[0].outputs["out0"]
                    assert got == orig


class TestZeroInputs:
    """Blocks with no inputs: slot 0 has no operands, so its constant bit
    is numbered where it is first mentioned rather than with its
    selectors."""

    IFACE_YZ = iface("o:y", "o:z")

    def spec(self):
        return spec_for(self.IFACE_YZ, [TruthTableRow({}, {"y": True, "z": False})])

    @pytest.mark.parametrize("seed", [0, 3])
    def test_per_output_synthesis(self, seed):
        result = synthesize(self.IFACE_YZ, self.spec(), SynthConfig(seed=seed))
        assert result.block.body == (Statement("y", TRUE), Statement("z", FALSE))
        assert result.slots_used == 2
        assert [r.slots_used for r in result.per_output] == [1, 1]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_joint_synthesis(self, seed):
        result = synthesize(self.IFACE_YZ, tie_outputs(self.spec()), SynthConfig(seed=seed))
        assert result.block.body == (Statement("y", Not(FALSE)), Statement("z", FALSE))
        # the joint template shares FALSE, but each output's encoding has it
        assert result.slots_used == 3
        assert [r.slots_used for r in result.per_output] == [3]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_repair_negated_constants(self, seed):
        block = Block("cst", self.IFACE_YZ, (Statement("y", FALSE), Statement("z", TRUE)))
        result = repair(block, self.spec(), SynthConfig(seed=seed))
        assert result.block.body == (Statement("y", TRUE), Statement("z", FALSE))
        assert result.slots_used == 2
        assert [r.slots_used for r in result.per_output] == [1, 1]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_simplify_constant_expressions(self, seed):
        block = Block("cst", self.IFACE_YZ, (Statement("y", Not(TRUE)),
                                             Statement("z", Xor(TRUE, FALSE))))
        result = simplify(block, SynthConfig(seed=seed))
        assert result.block.body == (Statement("y", FALSE), Statement("z", TRUE))
        assert result.slots_used == 2
        assert [r.slots_used for r in result.per_output] == [1, 1]


class TestMinimality:
    def test_no_smaller_program_exists(self):
        rng = random.Random(123)
        names = ["a", "b", "c"]
        interface = BlockInterface(tuple(
            [VarDecl(n, Direction.INPUT) for n in names]
            + [VarDecl("y", Direction.OUTPUT)]))
        for trial in range(8):
            pins = {}
            for bits in itertools.product((False, True), repeat=3):
                if rng.random() < 0.7:
                    pins[bits] = rng.random() < 0.5
            if not pins:
                pins[(False, False, False)] = True
            rows = [TruthTableRow(dict(zip(names, bits)), {"y": v})
                    for bits, v in pins.items()]
            spec = spec_for(interface, rows)
            result = synthesize(interface, spec, SynthConfig(seed=trial))
            table = output_table(result.block, "y")
            assert all(table[bits] == v for bits, v in pins.items())
            k = result.slots_used

            def satisfies(vec):
                return all(bool((vec >> sum(b << i for i, b in enumerate(bits))) & 1) == v
                           for bits, v in pins.items())

            for smaller in range(1, k):
                assert not any(satisfies(vec)
                               for vec in reachable_functions(3, smaller)), \
                    f"trial {trial}: {k}-slot result not minimal"


@st.composite
def single_output_specs(draw):
    """A spec for one output y over 2-4 inputs: rows on some points, maybe
    one partial row, maybe an assertion on y, and maybe a pin of y to an
    expression, released wherever a row's guard fires (as extend pins)."""
    inputs = [f"i{k}" for k in range(draw(st.integers(2, 4)))]
    interface = BlockInterface(tuple(
        [VarDecl(x, Direction.INPUT) for x in inputs] + [VarDecl("y", Direction.OUTPUT)]))
    points = list(itertools.product((False, True), repeat=len(inputs)))
    constraints = [TruthTableRow(dict(zip(inputs, bits)), {"y": draw(st.booleans())})
                   for bits in draw(st.lists(st.sampled_from(points), unique=True))]
    if draw(st.booleans()):
        told = draw(st.lists(st.sampled_from(inputs), min_size=1,
                             max_size=len(inputs) - 1, unique=True))
        constraints.append(TruthTableRow({x: draw(st.booleans()) for x in told},
                                         {"y": draw(st.booleans())}))
    if draw(st.booleans()):
        y = Var("y") if draw(st.booleans()) else Not(Var("y"))
        constraints.append(Assertion(Or(y, draw(exprs_over(inputs)))))
    return inputs, spec_for(interface, constraints), draw(st.none() | exprs_over(inputs))


def least_slots(n_inputs, meets, top=3):
    """The fewest slots (up to `top`) of a program whose truth vector, in
    the point order of `reachable_functions`, `meets` accepts; else None."""
    return next((k for k in range(1, top + 1)
                 if any(map(meets, reachable_functions(n_inputs, k)))), None)


def count_solvers(monkeypatch):
    """A live list with one entry per CdclSolver the engine builds."""
    built = []

    class CountingSolver(engine.CdclSolver):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "CdclSolver", CountingSolver)
    return built


def template_sizes(monkeypatch):
    """A live list with the slot count of each template the engine builds."""
    sizes = []
    real_init = engine._SlotTemplate.__init__

    def init(self, input_names, n_slots, *args, **kwargs):
        sizes.append(n_slots)
        real_init(self, input_names, n_slots, *args, **kwargs)

    monkeypatch.setattr(engine._SlotTemplate, "__init__", init)
    return sizes


class TestSlotBound:
    @given(single_output_specs())
    @settings(max_examples=200, deadline=None)
    def test_bound_sound_and_exact_to_two_slots(self, case):
        inputs, spec, pin = case
        guards = [c.guard for c in spec.obligations.get("y", ())]
        obligations = spec.obligations
        if pin is not None:
            obligations = engine._pinned(obligations, "y", pin, guards)
        pspec = engine._PointSpec(inputs, ["y"], obligations, spec.assertions)
        allowed = {}  # point index as in reachable_functions -> values of y
        for bits in itertools.product((False, True), repeat=len(inputs)):
            env = dict(zip(inputs, bits))
            pinned = pin is not None and not any(eval_expr(g, env) for g in guards)
            allowed[sum(b << i for i, b in enumerate(bits))] = [
                v for v in (False, True) if spec_holds(spec, {**env, "y": v})
                and not (pinned and eval_expr(pin, env) != v)]

        def meets(vec):
            return all(bool(vec >> index & 1) in values for index, values in allowed.items())

        least = least_slots(len(inputs), meets)
        bound = pspec.min_slot_bound()
        if least is not None:
            assert bound <= least
        if least is not None and least <= 2:
            assert bound == least
        else:
            assert bound >= 3

    @given(st.dictionaries(st.sampled_from(list(itertools.product((False, True), repeat=3))),
                           st.booleans(), min_size=1),
           st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_synthesize_writes_the_minimum(self, table, seed):
        names = ["a", "b", "c"]
        least = least_slots(3, lambda vec: all(
            bool(vec >> sum(b << i for i, b in enumerate(bits)) & 1) == v
            for bits, v in table.items()))
        assume(least is not None)
        interface = iface("i:a", "i:b", "i:c", "o:y")
        spec = spec_for(interface, [TruthTableRow(dict(zip(names, bits)), {"y": v})
                                    for bits, v in table.items()])
        result = synthesize(interface, spec, SynthConfig(seed=seed))
        got = output_table(result.block, "y")
        assert all(got[bits] == v for bits, v in table.items())
        assert result.slots_used == least
        assert slots(result.block.body[0].rhs) == least

    def test_magnet1_opens_one_template(self, monkeypatch):
        # inputs alone bound m1 = (s1 AND s2) OR NOT s3 by 2 slots; no
        # two-slot program computes it, so k = 2 is never opened
        names = ["s1", "s2", "s3", "s4"]
        interface = iface(*(f"i:{x}" for x in names), "o:m1")
        spec = spec_for(interface, table_rows(names, ["m1"], lambda e: {
            "m1": magnet_rule([e[x] for x in names], 1)}))
        built = count_solvers(monkeypatch)
        result = synthesize(interface, spec, SynthConfig(seed=1))
        assert result.slots_used == 3
        assert len(built) == 1

    @pytest.mark.parametrize("fn, k", [(lambda e: e["a"], 1),
                                       (lambda e: e["a"] and not e["b"], 2)],
                             ids=["a", "a-and-not-b"])
    def test_small_minimum_starts_at_its_k(self, monkeypatch, fn, k):
        spec = spec_for(IFACE_AB_Y, table_rows(["a", "b"], ["y"], lambda e: {"y": fn(e)}))
        pspec = engine._PointSpec(["a", "b"], ["y"], spec.obligations)
        assert pspec.min_slot_bound() == k
        built = count_solvers(monkeypatch)
        result = synthesize(IFACE_AB_Y, spec, SynthConfig(seed=1))
        assert result.slots_used == k
        assert len(built) == 1


@st.composite
def read_once_formulas(draw):
    """Input names and an AND/OR/XOR formula over 2-7 of them that reads
    each exactly once, in a shuffled order."""
    names = [f"i{x}" for x in range(draw(st.integers(2, 7)))]
    nodes = [Var(x) for x in draw(st.permutations(names))]
    while len(nodes) > 1:
        at = draw(st.integers(0, len(nodes) - 2))
        nodes[at:at + 2] = [draw(st.sampled_from([And, Or, Xor]))(*nodes[at:at + 2])]
    return names, nodes[0]


def table_meets(table):
    """Whether a truth vector in the point order of `reachable_functions`
    agrees with `table` (input bits -> value) wherever it is defined."""
    return lambda vec: all(bool(vec >> sum(b << i for i, b in enumerate(bits)) & 1) == v
                           for bits, v in table.items())


class TestReadOnce:
    """At k = r - 1 slots for the r inputs of `forced_flips`, the template
    is read-once (see `_PointSpec.min_slot_bound`)."""

    @given(read_once_formulas(), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_read_once_formula_takes_one_slot_per_operator(self, case, seed):
        names, formula = case
        interface = iface(*(f"i:{x}" for x in names), "o:y")
        spec = spec_for(interface, table_rows(names, ["y"], lambda e: {
            "y": eval_expr(formula, e)}))
        result = synthesize(interface, spec, SynthConfig(seed=seed))
        assert result.slots_used == len(names) - 1
        original = Block("f", interface, (Statement("y", formula),))
        assert equivalent(result.block, original) == Verified(1)

    def test_tight_partial_specs_reach_the_enumerated_minimum(self):
        # the generator of test_criterion_5_minimality, kept where the
        # first template is the read-once one
        rng = random.Random(1105)
        names = ["a", "b", "c"]
        interface = iface("i:a", "i:b", "i:c", "o:y")
        checked = 0
        for trial in range(120):
            pins = {}
            for bits in itertools.product((False, True), repeat=3):
                if rng.random() < 0.65:
                    pins[bits] = rng.random() < 0.5
            if not pins:
                pins[(False, False, False)] = True
            spec = spec_for(interface, [TruthTableRow(dict(zip(names, bits)), {"y": v})
                                        for bits, v in pins.items()])
            pspec = engine._PointSpec(names, ["y"], spec.obligations).projected()
            if pspec.min_slot_bound() != len(pspec.forced_flips) - 1:
                continue
            result = synthesize(interface, spec, SynthConfig(seed=trial))
            assert result.slots_used == least_slots(3, table_meets(pins)), f"trial {trial}"
            checked += 1
        assert checked >= 20

    def test_mux_is_not_read_once(self):
        # (a AND b) OR (NOT a AND c) reacts to all three inputs, but no
        # two-slot program computes it
        names = ["a", "b", "c"]
        interface = iface("i:a", "i:b", "i:c", "o:y")
        table = {bits: bits[1] if bits[0] else bits[2]
                 for bits in itertools.product((False, True), repeat=3)}
        spec = spec_for(interface, table_rows(names, ["y"], lambda e: {
            "y": table[(e["a"], e["b"], e["c"])]}))
        pspec = engine._PointSpec(names, ["y"], spec.obligations)
        assert pspec.forced_flips == names
        template = engine._SlotTemplate(names, 2, ["y"], 0, read_once=True)
        for point in table:
            template.add_point(point, pspec)
        assert template.solve() is None
        result = synthesize(interface, spec, SynthConfig(seed=1))
        assert result.slots_used == least_slots(3, table_meets(table)) == 3

    def test_or_opens_one_read_once_template(self, monkeypatch):
        names = [f"i{x}" for x in range(5)]
        interface = iface(*(f"i:{x}" for x in names), "o:y")
        spec = spec_for(interface, table_rows(names, ["y"], lambda e: {"y": any(e.values())}))
        built = []
        real_init = engine._SlotTemplate.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append((self.k, self.read_once, self.ops))

        monkeypatch.setattr(engine._SlotTemplate, "__init__", init)
        result = synthesize(interface, spec, SynthConfig(seed=1))
        assert built == [(4, True, [(And,), (Or,), (Xor,)])]
        assert result.slots_used == 4

    def test_forced_inputs_only(self):
        # d changes what is allowed (y is free where it is set) but never
        # flips a forced value, so the read-once template does not read it
        names = ["a", "b", "d"]
        interface = iface("i:a", "i:b", "i:d", "o:y")
        rows = [TruthTableRow({"a": a, "b": b, "d": False}, {"y": a and b})
                for a, b in itertools.product((False, True), repeat=2)]
        spec = spec_for(interface, rows)
        pspec = engine._PointSpec(names, ["y"], spec.obligations)
        assert pspec.projected().input_names == names
        assert pspec.forced_flips == ["a", "b"]
        result = synthesize(interface, spec, SynthConfig(seed=0))
        assert result.block.body == (Statement("y", And(Var("a"), Var("b"))),)

    def test_read_once_template_cnf_matches_golden(self):
        # read-once templates over 2-8 inputs; search is very sensitive to
        # variable and clause order
        templates = (engine._SlotTemplate([f"i{x}" for x in range(n)], n - 1, ["y"], 0,
                                          read_once=True) for n in range(2, 9))
        assert TestCegisProgress.template_digest(templates) == (
            7, "a7fae09aa1d62a867d35e5eaa8df542f5f3d91f8c1d3dfffc06cd3c27d177697")


class TestKernelBoundary:
    """The engine hands the solver clauses of literal codes that `extend`
    takes as they are: every code in 2..2N+1, each clause naming each
    variable once, also where a gate's operands share a variable."""

    @pytest.fixture
    def loaded(self, monkeypatch):
        """The clauses every solver the engine builds is given; a clause
        the kernel could not take as is fails the op."""
        clauses = []

        class Checked(engine.CdclSolver):
            def extend(self, num_vars, batch):
                for clause in batch:
                    assert all(2 <= code <= 2 * num_vars + 1 for code in clause), clause
                    assert len({code >> 1 for code in clause}) == len(clause), clause
                clauses.extend(batch)
                super().extend(num_vars, batch)

        monkeypatch.setattr(engine, "CdclSolver", Checked)
        return clauses

    def test_synthesis_and_edits(self, loaded, monkeypatch):
        read_once = []
        real_init = engine._SlotTemplate.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            read_once.append(self.read_once)

        monkeypatch.setattr(engine._SlotTemplate, "__init__", init)
        interface = iface("i:a", "i:b", "i:c", "o:y", "o:z")
        spec = spec_for(interface, table_rows(["a", "b", "c"], ["y", "z"], lambda e: {
            "y": e["a"] or (e["b"] and e["c"]), "z": e["a"] != e["b"]}))
        synthesize(interface, spec, SynthConfig(seed=1))
        synthesize(interface, tie_outputs(spec), SynthConfig(seed=1))
        block = Block("base", interface, (Statement("y", Var("a")), Statement("z", Var("b"))))
        repair(block, spec, SynthConfig(seed=1))
        extra = ConstraintList("e", Mode.EXTEND, interface,
                               (TruthTableRow({"b": True, "c": True}, {"y": True}),))
        extend(block, extra, SynthConfig(seed=1))
        simplify(Block("s", interface, (Statement("y", parse_expression("a AND b OR a")),)),
                 SynthConfig(seed=1))
        assert True in read_once and False in read_once
        assert len(loaded) > 1000

    def test_bounded_checks_with_shared_operands(self, loaded):
        # `x AND x` and `x XOR NOT x` reach the encoder as gates over one
        # variable; a stateful block unrolls from a symbolic state
        interface = iface("i:a", "i:b", "o:y", "o:z", "s:s")
        p = parse_expression
        block = Block("sh", interface, (Statement("y", p("a AND a")),
                                        Statement("z", p("(s XOR NOT s) AND b")),
                                        Statement("s", p("s OR (a XOR NOT a) AND b"))))
        spec = spec_for(interface, [Assertion(p("NOT y OR a"))], Mode.VERIFY)
        for symbolic in (False, True):
            cfg = SynthConfig(unwind_cycles=3, symbolic_init=symbolic)
            assert verify(block, spec, cfg) == Verified(3)
            assert equivalent(block, block, cfg) == Verified(3)
        assert loaded
