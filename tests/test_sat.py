import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_satisfiable, random_3cnf, signed_clauses
from plcsynth import engine
from plcsynth.blocks import (
    And, BlockInterface, Const, Direction, Not, Or, UnboundVariable, Var,
    VarDecl, Xor,
)
from plcsynth.constraints import ConstraintList, Mode, TruthTableRow, compile_spec
from plcsynth.sat import (
    CdclSolver, CnfFormula, SatResult, TseitinEncoder, _signed, literal_code, solve, to_codes,
    to_dimacs,
)


def cnf(num_vars, clauses):
    return CnfFormula(num_vars, tuple(tuple(c) for c in clauses))


def codes(lits):
    return [literal_code(lit) for lit in lits]


def tseitin(root, var_map):
    """The encoder's CNF for `root` and the literal equivalent to it, in
    signed literals, with the variables of `var_map` (name -> signed
    variable) numbered as given."""
    enc = TseitinEncoder({name: literal_code(v) for name, v in var_map.items()})
    lit = enc.encode(root)
    return CnfFormula(enc.num_vars, tuple(signed_clauses(enc.clauses))), _signed(lit)


class TestCnfFormula:
    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError):
            cnf(2, [()])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cnf(2, [(3,)])

    def test_dimacs_format(self):
        f = cnf(3, [(1, -2), (2, 3)])
        text = to_dimacs(f)
        lines = text.splitlines()
        assert lines[0] == "p cnf 3 2"
        assert lines[1] == "1 -2 0"
        assert lines[2] == "2 3 0"


class TestSolveBasics:
    def test_unit_propagation_forces_model(self):
        res = solve(cnf(2, [(1, 2), (-1,)]))
        assert res.satisfiable
        assert res.model == {1: False, 2: True}

    def test_direct_contradiction(self):
        assert not solve(cnf(1, [(1,), (-1,)])).satisfiable

    def test_empty_formula_all_false(self):
        res = solve(cnf(3, []))
        assert res.satisfiable
        assert res.model == {1: False, 2: False, 3: False}

    def test_model_is_total_over_unused_vars(self):
        res = solve(cnf(5, [(4,)]))
        assert set(res.model) == {1, 2, 3, 4, 5}

    def test_assumptions_flip_verdict(self):
        f = cnf(2, [(1, 2)])
        assert solve(f, assumptions=[1]).satisfiable
        res = solve(f, assumptions=[-1, -2])
        assert not res.satisfiable

    def test_assumptions_do_not_poison_later_calls(self):
        solver = CdclSolver(cnf(2, [(1, 2)]))
        assert not solver.solve(codes([-1, -2])).satisfiable
        again = solver.solve(codes([1]))
        assert again.satisfiable and again.model[1] is True

    def test_assumption_out_of_range(self):
        # the one-shot solve takes signed literals and names the one given
        for bad in (4, -2, 0):
            with pytest.raises(ValueError, match=rf"assumption {bad} out of range \(num_vars=1\)"):
                solve(cnf(1, [(1,)]), assumptions=[1, bad])

    def test_tautological_clause_ignored(self):
        res = solve(cnf(2, [(1, -1), (2,)]))
        assert res.satisfiable and res.model[2] is True

    def test_model_check_raises(self):
        # an explicit raise, so it also holds under python -O
        solver = CdclSolver(cnf(2, [(1, 2)]))
        with pytest.raises(AssertionError, match="does not satisfy clause"):
            solver._check_model({1: False, 2: False}, [])
        with pytest.raises(AssertionError, match="does not satisfy assumption"):
            solver._check_model({1: True, 2: False}, codes([2]))


class TestSolveAgainstBruteForce:
    def test_random_3cnf_matches_enumeration(self):
        rng = random.Random(20240817)
        for trial in range(100):
            n = rng.randint(3, 12)
            m = rng.randint(2 * n, 5 * n)
            clauses = random_3cnf(rng, n, m)
            expected = brute_force_satisfiable(n, clauses)
            res = solve(cnf(n, clauses), seed=trial % 5)
            assert res.satisfiable == expected, (n, clauses)

    def test_random_cnf_with_assumptions(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(3, 9)
            clauses = random_3cnf(rng, n, rng.randint(n, 4 * n))
            assume = [v if rng.random() < 0.5 else -v
                      for v in rng.sample(range(1, n + 1), rng.randint(0, 2))]
            expected = brute_force_satisfiable(
                n, clauses + [(a,) for a in assume])
            got = solve(cnf(n, clauses), assumptions=assume).satisfiable
            assert got == expected

    def test_determinism_same_seed_same_model(self):
        rng = random.Random(99)
        clauses = random_3cnf(rng, 10, 25)
        f = cnf(10, clauses)
        first = solve(f, seed=3)
        second = solve(f, seed=3)
        assert first == second

    def test_hard_unsat_pigeonhole(self):
        # 4 pigeons, 3 holes: forces real conflict analysis.
        def var(p, h):
            return p * 3 + h + 1
        clauses = []
        for p in range(4):
            clauses.append(tuple(var(p, h) for h in range(3)))
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    clauses.append((-var(p1, h), -var(p2, h)))
        assert not solve(cnf(12, clauses)).satisfiable


class TestTseitin:
    def project(self, expr, names, assert_root=True):
        """Models of the encoding projected onto the named variables."""
        var_map = {name: i + 1 for i, name in enumerate(names)}
        formula, root = tseitin(expr, var_map)
        found = set()
        for bits in range(1 << len(names)):
            assumps = []
            for i, name in enumerate(names):
                v = var_map[name]
                assumps.append(v if (bits >> i) & 1 else -v)
            if assert_root:
                assumps.append(root)
            if solve(formula, assumptions=assumps).satisfiable:
                found.add(tuple(bool((bits >> i) & 1) for i in range(len(names))))
        return found

    def test_and_projects_to_single_model(self):
        expr = And(Var("a"), Var("b"))
        assert self.project(expr, ["a", "b"]) == {(True, True)}

    def test_or_xor_not_projections(self):
        assert self.project(Or(Var("a"), Var("b")), ["a", "b"]) == {
            (False, True), (True, False), (True, True)}
        assert self.project(Xor(Var("a"), Var("b")), ["a", "b"]) == {
            (False, True), (True, False)}
        assert self.project(Not(Var("a")), ["a"]) == {(False,)}

    def test_const_true_unconstrained_inputs(self):
        assert self.project(Const(True), ["a"]) == {(False,), (True,)}

    def test_const_false_root_unsat(self):
        var_map = {"a": 1}
        formula, root = tseitin(Const(False), var_map)
        assert not solve(formula, assumptions=[root]).satisfiable

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            tseitin(Var("ghost"), {"a": 1})

    def test_shared_subexpression_encoded_once(self):
        shared = And(Var("a"), Var("b"))
        expr = Or(shared, shared)
        formula, _ = tseitin(expr, {"a": 1, "b": 2})
        single, _ = tseitin(Or(And(Var("a"), Var("b")), And(Var("a"), Var("b"))),
                            {"a": 1, "b": 2})
        assert formula.num_vars < single.num_vars

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30)
    def test_random_exprs_match_direct_evaluation(self, seed):
        from helpers import random_expr
        from plcsynth.blocks import eval_expr

        rng = random.Random(seed)
        names = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        expr = random_expr(rng, names, rng.randint(1, 9))
        var_map = {n: i + 1 for i, n in enumerate(names)}
        formula, root = tseitin(expr, var_map)
        for bits in range(1 << len(names)):
            env = {n: bool((bits >> i) & 1) for i, n in enumerate(names)}
            assumps = [var_map[n] if env[n] else -var_map[n] for n in names]
            assumps.append(root)
            assert solve(formula, assumptions=assumps).satisfiable == eval_expr(expr, env)
        # with each Var replaced by its literal code (sharing kept), the
        # encoding is the same CNF and root
        memo = {}

        def numbered(node):
            if id(node) not in memo:
                if isinstance(node, Var):
                    memo[id(node)] = literal_code(var_map[node.name])
                elif isinstance(node, Not):
                    memo[id(node)] = Not(numbered(node.operand))
                elif isinstance(node, (And, Or, Xor)):
                    memo[id(node)] = type(node)(numbered(node.left), numbered(node.right))
                else:
                    memo[id(node)] = node
            return memo[id(node)]

        assert tseitin(numbered(expr), var_map) == (formula, root)
        enc = TseitinEncoder({n: literal_code(v) for n, v in var_map.items()})
        leaf = literal_code(-var_map[names[-1]])
        assert (enc.encode(leaf), enc.clauses, enc.num_vars) == (leaf, [], len(names))

    def test_size_bounds(self):
        from helpers import random_expr
        from plcsynth.blocks import expr_size

        rng = random.Random(5)
        for _ in range(40):
            names = ["a", "b", "c"]
            expr = random_expr(rng, names, rng.randint(1, 15))
            formula, _ = tseitin(expr, {n: i + 1 for i, n in enumerate(names)})
            n = expr_size(expr)
            assert formula.num_vars - 3 <= n
            assert len(formula.clauses) <= 3 * n + 2


class TestCodeBoundary:
    """Signed literals meet literal codes in one place, `to_codes`, and
    the encoder writes what `extend` takes as is."""

    def test_codes(self):
        assert codes([1, -1, 2, -2, 7]) == [2, 3, 4, 5, 14]
        assert [_signed(c) for c in range(2, 8)] == [1, -1, 2, -2, 3, -3]

    def test_signed_clauses_each_variable_once(self):
        # a repeated literal keeps its first place; a clause holding a
        # literal and its negation is dropped
        assert to_codes([(1, -2, 1), (3, -3), (-1,), (2, 3, 2, -1)]) == \
            [(2, 5), (3,), (4, 6, 3)]

    def test_constructor_and_one_shot_solve_normalize(self):
        formula = cnf(3, [(1, 1, 2), (2, -2), (-1, 3, -1), (-3, -3)])
        solver = CdclSolver(formula)
        assert signed_clauses(solver.original) == [(1, 2), (-1, 3), (-3,)]
        assert solver.solve().model == {1: False, 2: True, 3: False}
        assert solve(formula, [1]) == SatResult(False)
        assert solve(formula, [-1, -1]).satisfiable

    @pytest.mark.parametrize("gate", [And, Or, Xor])
    def test_gate_over_one_variable(self, gate):
        # x OP x and x OP NOT x: the textbook clauses with each variable
        # named once, as `to_codes` keeps them
        textbook = {And: lambda v, a, b: [(-v, a), (-v, b), (v, -a, -b)],
                    Or: lambda v, a, b: [(-v, a, b), (v, -a), (v, -b)],
                    Xor: lambda v, a, b: [(-v, a, b), (-v, -a, -b), (v, a, -b), (v, -a, b)]}
        for right in (Var("x"), Not(Var("x"))):
            formula, root = tseitin(gate(Var("x"), right), {"x": 1})
            b = 1 if right == Var("x") else -1
            assert root == 2
            assert list(formula.clauses) == signed_clauses(to_codes(textbook[gate](2, 1, b)))
            for clause in formula.clauses:
                assert len({abs(lit) for lit in clause}) == len(clause)


@st.composite
def chunked_cnf(draw):
    """A random small CNF cut into 2-4 consecutive chunks, plus a seed."""
    n = draw(st.integers(min_value=2, max_value=8))
    lit = st.integers(min_value=1, max_value=n).flatmap(
        lambda v: st.sampled_from((v, -v)))
    clause = st.lists(lit, min_size=1, max_size=3).map(tuple)
    clauses = draw(st.lists(clause, min_size=1, max_size=4 * n))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=len(clauses)),
                                min_size=1, max_size=3)))
    bounds = [0] + cuts + [len(clauses)]
    chunks = [clauses[a:b] for a, b in zip(bounds, bounds[1:])]
    return chunks, draw(st.integers(min_value=0, max_value=3))


class TestIncremental:
    def test_extend_after_solve_sees_level0_falsified_clause(self):
        solver = CdclSolver(cnf(3, [(-1,), (-2,), (1, 2, 3)]))
        assert solver.solve().satisfiable
        solver.extend(3, to_codes([(1, 2)]))
        assert not solver.solve().satisfiable
        assert not solve(cnf(3, [(-1,), (-2,), (1, 2, 3), (1, 2)])).satisfiable

    def test_empty_clause_in_extend_is_unsat(self):
        # before any propagation (a fresh solver) and after a solve()
        fresh = CdclSolver(cnf(2, []))
        fresh.extend(2, [()])
        assert not fresh.ok and not fresh.solve().satisfiable
        solved = CdclSolver(cnf(2, []))
        assert solved.solve().satisfiable
        solved.extend(2, [()])
        assert not solved.ok and not solved.solve().satisfiable

    def test_out_of_range_literal_rejects_whole_batch(self):
        # codes run 2..2N+1; the error names the first bad code, and
        # nothing of the batch is loaded or propagated, on a fresh solver
        # and after a solve()
        for bad, bad_at_3 in ((0, 0), (1, 1), (6, 8)):  # 2N+2 for N = 2, then 3
            solver = CdclSolver(cnf(2, []))
            with pytest.raises(ValueError, match=f"literal code {bad} out of range"):
                solver.extend(2, [(2, 4), (3,), (bad,), (1,)])
            assert (solver.original, solver.trail, solver.num_vars) == ([], [], 2)
            solver.extend(2, [(2, 4)])
            assert solver.solve().satisfiable
            trail = list(solver.trail)
            with pytest.raises(ValueError, match=f"literal code {bad_at_3} out of range"):
                solver.extend(3, [(3,), (6, 4), (7, bad_at_3, 0)])
            assert (solver.original, solver.trail, solver.num_vars) == ([(2, 4)], trail, 2)
            assert solver.solve().satisfiable
        with pytest.raises(ValueError, match="assumption code 6 out of range"):
            solver.solve([3, 6])
        with pytest.raises(ValueError, match="assumption code 1 out of range"):
            solver.solve([1])

    def test_unsat_without_assumptions_is_final(self):
        # the first solve ends in a conflict with no decision behind it;
        # a later solve under assumptions must not build a model from the
        # trail that conflict left
        solver = CdclSolver(cnf(3, [(1, -3), (3, 2), (-2, 1), (-1, 2, -3),
                                    (-2, -1, -3), (-2, -1, 3)]), seed=2)
        assert not solver.solve().satisfiable
        assert not solver.ok
        assert not solver.solve().satisfiable
        assert not solver.solve(codes([1, -2])).satisfiable

    @given(chunked_cnf())
    @settings(max_examples=300)
    def test_chunked_extend_matches_fresh_solver(self, case):
        chunks, seed = case
        solver = CdclSolver(cnf(0, []), seed=seed)
        so_far = []
        for chunk in chunks:
            so_far += chunk
            num_vars = max([solver.num_vars] + [abs(l) for c in chunk for l in c])
            solver.extend(num_vars, to_codes(chunk))
            got = solver.solve()
            fresh = solve(cnf(num_vars, so_far), seed=seed)
            assert got.satisfiable == fresh.satisfiable
            assert got.satisfiable == brute_force_satisfiable(num_vars, so_far)
            if got.satisfiable:
                assert all(any(got.model[abs(l)] == (l > 0) for l in c)
                           for c in so_far)
            if not num_vars:
                continue
            # queries under assumptions, several on the same solver, must
            # agree with a fresh solver and must not stick for the next
            # chunk or query
            last = got.model if got.satisfiable else {}
            flips = [-v if last.get(v) else v for v in range(1, num_vars + 1)]
            for assumed in ([flips[0]], flips[:2], [-lit for lit in flips[-2:]], flips[1:4]):
                answer = solver.solve(codes(assumed))
                assert answer.satisfiable == solve(cnf(num_vars, so_far), assumed).satisfiable
                if answer.satisfiable:
                    assert all(answer.model[abs(l)] == (l > 0) for l in assumed)


def _answers_digest(answers) -> str:
    h = hashlib.sha256()
    for res in answers:
        model = sorted(res.model.items()) if res.satisfiable else None
        h.update(repr((res.satisfiable, model)).encode())
    return h.hexdigest()


class TestSearchIdentity:
    """Golden digests of every answer and model on fixed call sequences.

    A kernel change must keep the search identical: the same watch visit
    order, trail, learned clauses and decisions, hence the same models.
    The digests were recorded on the solver before both of its layout
    rewrites, the one that indexed its tables by signed literals and the
    one that indexes them by literal codes (2v, 2v+1); a model that
    differs means the search changed."""

    def test_rephase_ladder(self):
        # no golden reaches a second attempt (the first has a budget of
        # 3,000 conflicts), so the default polarities of every attempt are
        # pinned apart: vars 1-500, seeds 0-3, attempts 0-6, recorded
        # from the per-variable polarity function `_phases` replaced
        digest = hashlib.sha256()
        for seed in range(4):
            solver = CdclSolver(cnf(0, []), seed)
            for attempt in range(7):
                phases = solver._phases(1, 500, attempt)
                assert solver._phases(1, 199, attempt) + solver._phases(200, 500, attempt) \
                    == phases
                digest.update(bytes(phases))
        assert digest.hexdigest() == \
            "f57c483b181e0e03d659383263d347fb115644a1c6e8fd10b2cb0fa1a37b0b5c"

    def magnet_answers(self, seed):
        names = ["s1", "s2", "s3", "s4"]
        interface = BlockInterface(tuple(
            [VarDecl(n, Direction.INPUT) for n in names]
            + [VarDecl("m2", Direction.OUTPUT)]))
        rows = []
        for bits in itertools.product((False, True), repeat=4):
            env = dict(zip(names, bits))
            rows.append(TruthTableRow(env, {"m2": (bits[1] and bits[2]) or not bits[3]}))
        spec = compile_spec(ConstraintList("blk", Mode.GENERATE, interface, tuple(rows)))
        pspec = engine._PointSpec(names, ["m2"], spec.obligations)
        template = engine._SlotTemplate(names, 3, ["m2"], seed)
        for point in engine._seed_points(pspec):
            template.add_point(point, pspec)
        answers = []
        while True:
            res = template.solver.solve()
            answers.append(res)
            if not res.satisfiable:
                return answers
            candidate = template.decode(res.model)
            violation = engine._find_violation(candidate, pspec, seed)
            if violation is None:
                return answers
            template.add_point(violation, pspec)

    @pytest.mark.parametrize("seed, solves, digest", [
        (0, 3, "93e913e7eed58e3350815decfa9aabbbb6d08b4afbe75d522fc3066428afe549"),
        (1, 5, "11c179cb6f04d769e98c66b8d18b69c1ecbfa40a93265013465d085048d14592"),
    ])
    def test_magnet_template_answers(self, seed, solves, digest):
        answers = self.magnet_answers(seed)
        assert (len(answers), _answers_digest(answers)) == (solves, digest)

    def random_answers(self):
        rng = random.Random(20260417)
        answers = []
        for trial in range(8):
            n = rng.randint(50, 90)
            clauses = random_3cnf(rng, n, round(4.26 * n))
            solver = CdclSolver(cnf(0, []), seed=trial % 3)
            if trial == 6:
                solver._max_learned = 40  # reach the learned-clause reduction
            if trial == 7:
                solver._var_inc = 1e99  # reach the activity rescale
            cuts = sorted(rng.sample(range(1, len(clauses)), rng.randint(1, 2)))
            for a, b in zip([0] + cuts, cuts + [len(clauses)]):
                chunk = clauses[a:b]
                num_vars = max([solver.num_vars] + [abs(l) for c in chunk for l in c])
                solver.extend(num_vars, to_codes(chunk))
                res = solver.solve()
                answers.append(res)
                v = rng.randint(1, num_vars)
                lit = -v if res.satisfiable and res.model[v] else v
                answers.append(solver.solve(codes([lit])))
        return answers

    def test_random_3cnf_answers(self):
        answers = self.random_answers()
        assert (len(answers), _answers_digest(answers)) == (
            40, "ce4529877a521cf593b5fb07ec8f6762171a15d05d8fcfd8ce09efc64fec7d44")

    def test_reduction_drops_least_recently_used_half(self):
        # the digests above reach `_reduce_db` but keep their models when it
        # drops the other half, so its choice is checked here: of the long
        # learned clauses no assignment rests on, the half with the oldest
        # stamps goes (ties: the earlier learned), from `learned`,
        # `clauses` and the watches alike
        solver = CdclSolver(cnf(0, []), seed=1)
        solver._max_learned = 20
        reduce, reductions = solver._reduce_db, []

        def checked():
            stamps, before = dict(solver._stamps), list(solver.learned)
            locked = {id(solver.reasons[lit >> 1]) for lit in solver.trail}
            candidates = [c for c in before if len(c) > 2 and id(c) not in locked]
            oldest = sorted(range(len(candidates)), key=lambda i: (stamps[id(candidates[i])], i))
            gone = {id(candidates[i]) for i in oldest[:len(candidates) // 2]}
            reduce()
            assert [id(c) for c in solver.learned] == [id(c) for c in before if id(c) not in gone]
            assert gone.isdisjoint(map(id, solver.clauses)) and gone.isdisjoint(solver._stamps)
            assert sorted(id(c) for w in solver.watches for c in w) == \
                sorted(id(c) for c in solver.clauses for _ in range(2))
            reductions.append(len(gone))

        solver._reduce_db = checked
        solver.extend(90, to_codes(random_3cnf(random.Random(7), 90, 383)))
        solver.solve()
        assert len(reductions) >= 3 and all(reductions)
