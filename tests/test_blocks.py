import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_assignments, random_block, random_expr
from plcsynth.blocks import (
    And, Block, BlockInterface, Const, Direction, Not, Or, Record, Statement,
    TypeCheckError, UnassignedTemp, UnboundVariable, Var, VarDecl, Xor,
    default_state, eval_expr, expr_depth, expr_size, expr_vars, rename_vars,
    replace, run_cycle, simulate, validate_identifier,
)
from plcsynth.engine import SynthConfig


def iface(**kw):
    decls = []
    for name in kw.get("inputs", ()):
        decls.append(VarDecl(name, Direction.INPUT))
    for name in kw.get("outputs", ()):
        decls.append(VarDecl(name, Direction.OUTPUT))
    for name in kw.get("state", ()):
        decls.append(VarDecl(name, Direction.STATE))
    for name in kw.get("temps", ()):
        decls.append(VarDecl(name, Direction.TEMP))
    return BlockInterface(tuple(decls))


def block(body, **kw):
    return Block(kw.pop("name", "b"), iface(**kw), tuple(body))


class TestIdentifiers:
    def test_accepts_plain_names(self):
        assert validate_identifier("a_1") == "a_1"

    @pytest.mark.parametrize("bad", ["", "1a", "a-b", "a b", "x" * 65, "AND", "TRUE"])
    def test_rejects_invalid(self, bad):
        with pytest.raises(TypeCheckError):
            validate_identifier(bad)


class TestInterface:
    def test_duplicate_names_rejected(self):
        with pytest.raises(TypeCheckError):
            iface(inputs=["a"], outputs=["a"])

    def test_direction_queries(self):
        i = iface(inputs=["a", "b"], outputs=["y"], state=["s"], temps=["t"])
        assert i.inputs == ("a", "b")
        assert i.outputs == ("y",)
        assert i.state_vars == ("s",)
        assert i.temps == ("t",)
        assert i.direction_of("s") is Direction.STATE
        assert "a" in i and "zz" not in i


class TestRecord:
    def test_equal_by_class_and_fields(self):
        a, b = Var("a"), Var("b")
        assert And(a, b) == And(Var("a"), Var("b"))
        assert And(a, b) != And(b, a)
        assert And(a, b) != Or(a, b)

    def test_hash_is_the_field_tuple_hash(self):
        a, b = Var("a"), Var("b")
        assert hash(And(a, b)) == hash((a, b))
        assert hash(a) == hash(("a",))

    def test_repr(self):
        assert repr(And(Var("a"), Const(True))) == \
            "And(left=Var(name='a'), right=Const(value=True))"

    def test_positional_class_pattern(self):
        match And(Var("a"), Const(True)):
            case And(Var(name), Const(value)):
                assert (name, value) == ("a", True)
            case _:
                pytest.fail("And(Var, Const) did not match")

    def test_fields_immutable(self):
        expr = And(Var("a"), Var("b"))
        with pytest.raises(AttributeError):
            expr.left = Var("c")
        with pytest.raises(AttributeError):
            del expr.right
        with pytest.raises(AttributeError):
            expr.extra = 1
        assert expr == And(Var("a"), Var("b"))

    def test_defaults_and_keywords(self):
        decl = VarDecl("x", Direction.INPUT)
        assert decl.dtype == "BOOL"
        assert VarDecl(direction=Direction.INPUT, name="x") == decl
        assert VarDecl._fields == ("name", "direction", "dtype")

    @pytest.mark.parametrize("args, kwargs", [(("x",), {}), ((), {"direction": Direction.INPUT}),
                                              (("x", Direction.INPUT), {"kind": "BOOL"}),
                                              (("x", Direction.INPUT, "BOOL", 1), {})])
    def test_missing_or_unknown_field_rejected(self, args, kwargs):
        with pytest.raises(TypeError):
            VarDecl(*args, **kwargs)

    def test_post_init_runs(self):
        with pytest.raises(TypeCheckError):
            VarDecl("x", Direction.INPUT, "INT")
        with pytest.raises(ValueError):
            replace(SynthConfig(), max_slots=0)

    def test_replace(self):
        cfg = SynthConfig(seed=3)
        assert replace(cfg, max_slots=5) == SynthConfig(seed=3, max_slots=5)
        assert cfg.max_slots == 31
        with pytest.raises(TypeError):
            replace(cfg, slots=5)

    def test_subclass_fields_follow_base_fields(self):
        class Point(Record):
            x: int
            y: int = 0

        class Labelled(Point):
            label: str = ""

        p = Labelled(1, label="p")
        assert Labelled._fields == ("x", "y", "label")
        assert repr(p).endswith(".<locals>.Labelled(x=1, y=0, label='p')")
        assert p != Point(1, 0) and Point(1) == Point(1, 0)


class TestEvalExpr:
    def test_and_truth_table(self):
        expr = And(Var("a"), Var("b"))
        assert eval_expr(expr, {"a": True, "b": False}) is False
        assert eval_expr(expr, {"a": True, "b": True}) is True

    def test_not_const(self):
        assert eval_expr(Not(Const(False)), {}) is True

    def test_xor_self_is_false(self):
        assert eval_expr(Xor(Var("a"), Var("a")), {"a": True}) is False

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable) as exc:
            eval_expr(Var("q"), {})
        assert exc.value.name == "q"

    def test_size_depth_vars(self):
        expr = Or(And(Var("a"), Not(Var("b"))), Const(True))
        assert expr_size(expr) == 6
        assert expr_depth(expr) == 4
        assert expr_vars(expr) == {"a", "b"}

    def test_depth_measures_each_node_once(self):
        # 200 levels that each read the level below twice: 2^200 paths
        shared = Var("a")
        for _ in range(200):
            shared = Xor(shared, shared)
        assert expr_depth(shared) == 201

    def test_rename(self):
        expr = Or(Var("a"), Not(Var("b")))
        assert rename_vars(expr, {"a": "x"}) == Or(Var("x"), Not(Var("b")))

    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_double_negation(self, seed):
        rng = random.Random(seed)
        names = ["a", "b", "c"]
        expr = random_expr(rng, names, rng.randint(1, 8))
        for env in all_assignments(names):
            assert eval_expr(Not(Not(expr)), env) == eval_expr(expr, env)


class TestBlockValidation:
    def test_assign_to_input_rejected(self):
        with pytest.raises(TypeCheckError):
            block([Statement("a", Const(True))], inputs=["a"], outputs=["y"])

    def test_undeclared_rhs_rejected(self):
        with pytest.raises(TypeCheckError) as exc:
            block([Statement("y", Var("zz"))], outputs=["y"])
        assert "zz" in str(exc.value)

    def test_temp_read_before_assignment_rejected(self):
        with pytest.raises(TypeCheckError):
            block([Statement("y", Var("t"))], outputs=["y"], temps=["t"])

    def test_long_chain_too_deep(self):
        chain = Var("a")
        for _ in range(1499):
            chain = And(chain, Var("a"))
        with pytest.raises(TypeCheckError, match="too deep"):
            block([Statement("y", chain)], inputs=["a"], outputs=["y"])

    def test_temp_after_assignment_ok(self):
        b = block([Statement("t", Var("a")), Statement("y", Not(Var("t")))],
                  inputs=["a"], outputs=["y"], temps=["t"])
        assert len(b.body) == 2


class TestRunCycle:
    def test_single_and(self):
        b = block([Statement("y", And(Var("a"), Var("b")))],
                  inputs=["a", "b"], outputs=["y"])
        outputs, state = run_cycle(b, {}, {"a": True, "b": True})
        assert outputs == {"y": True}
        assert state == {}

    def test_sequential_temp(self):
        b = block([Statement("t", Var("a")), Statement("y", Not(Var("t")))],
                  inputs=["a"], outputs=["y"], temps=["t"])
        outputs, _ = run_cycle(b, {}, {"a": False})
        assert outputs == {"y": True}

    def test_latch_sets_state(self):
        b = block([Statement("s", Or(Var("s"), Var("a")))],
                  inputs=["a"], state=["s"])
        _, state = run_cycle(b, {"s": False}, {"a": True})
        assert state == {"s": True}

    def test_unassigned_output_defaults_false(self):
        b = block([], inputs=["a"], outputs=["y", "z"])
        outputs, _ = run_cycle(b, {}, {"a": True})
        assert outputs == {"y": False, "z": False}

    def test_missing_input_raises(self):
        b = block([Statement("y", Var("a"))], inputs=["a"], outputs=["y"])
        with pytest.raises(UnboundVariable):
            run_cycle(b, {}, {})

    def test_reassignment_uses_latest_value(self):
        b = block([Statement("y", Var("a")), Statement("y", Not(Var("y")))],
                  inputs=["a"], outputs=["y"])
        outputs, _ = run_cycle(b, {}, {"a": True})
        assert outputs == {"y": False}

    def test_deterministic(self):
        rng = random.Random(11)
        b = random_block(rng, 3, 2, 1, 1, 5)
        state = default_state(b)
        inputs = {"in0": True, "in1": False, "in2": True}
        assert run_cycle(b, state, inputs) == run_cycle(b, state, inputs)


class TestSimulate:
    def latch(self):
        return block([Statement("s", Or(Var("s"), Var("a"))),
                      Statement("y", Var("s"))],
                     inputs=["a"], outputs=["y"], state=["s"])

    def test_latch_trace(self):
        trace = simulate(self.latch(), [{"a": False}, {"a": True}, {"a": False}])
        assert [c.outputs["y"] for c in trace.cycles] == [False, True, True]

    def test_empty_body_outputs_false(self):
        b = block([], inputs=["a"], outputs=["y"])
        trace = simulate(b, [{"a": True}, {"a": False}])
        assert all(c.outputs == {"y": False} for c in trace.cycles)

    def test_single_cycle_matches_run_cycle(self):
        b = self.latch()
        trace = simulate(b, [{"a": True}])
        outputs, state = run_cycle(b, {"s": False}, {"a": True})
        assert trace.cycles[0].outputs == outputs
        assert trace.cycles[0].state_after == state

    def test_unassigned_temp_reports_cycle(self):
        # static validation catches this shape at construction; the runtime
        # guard stays as a defense, so smuggle the bad body past __post_init__
        bad = Block("bad", iface(inputs=["a"], outputs=["y"], temps=["t"]),
                    (Statement("y", Var("a")),))
        object.__setattr__(bad, "body", (Statement("y", Var("t")),))
        with pytest.raises(UnassignedTemp) as exc:
            simulate(bad, [{"a": True}])
        assert exc.value.cycle == 0

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=30)
    def test_composition(self, seed):
        rng = random.Random(seed)
        b = random_block(rng, 2, 1, 1, 0, 4)
        trace_inputs = [dict(zip(("in0", "in1"), bits))
                        for bits in itertools.product((False, True), repeat=2)]
        t1 = trace_inputs[:2]
        t2 = trace_inputs[2:]
        whole = simulate(b, t1 + t2)
        part1 = simulate(b, t1)
        part2 = simulate(b, t2, part1.cycles[-1].state_after)
        assert whole.cycles == part1.cycles + part2.cycles

    def test_stateless_blocks_have_no_memory(self):
        rng = random.Random(3)
        for _ in range(20):
            b = random_block(rng, rng.randint(1, 5), 2, 0, 1, 4)
            names = b.interface.inputs
            for first in all_assignments(names):
                baseline = None
                for second in all_assignments(names):
                    trace = simulate(b, [dict(second), dict(first)])
                    if baseline is None:
                        baseline = trace.cycles[1].outputs
                    else:
                        assert trace.cycles[1].outputs == baseline
