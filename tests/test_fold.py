"""The one expression fold, and every helper built on it checked against
a plain recursive reference on DAGs whose subterms are shared by object."""

import itertools
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    brute_force_satisfiable, ref_depth, ref_mask, ref_rename, ref_size,
    ref_straight_line, ref_subst, ref_tseitin, ref_vars, signed_clauses,
)
from plcsynth import engine
from plcsynth.blocks import (
    And, Const, Not, Or, Var, Xor, eval_expr, expr_depth, expr_size, expr_vars,
    fold_expr, rename_vars,
)
from plcsynth.sat import TseitinEncoder, _signed, literal_code

NAMES = ("a", "b", "c")
FULL = 0xFF  # the 8 points of NAMES, a in the upper half
TABLES = {"a": 0xF0, "b": 0xCC, "c": 0xAA}
VAR_MAP = {"a": 1, "b": 2, "c": 3, "i4": 4, "i5": 5}  # 4 and 5 are int leaves
CODES = {name: literal_code(v) for name, v in VAR_MAP.items()}  # what the encoder reads
FOLDING = {Not: engine._not, And: engine._and, Or: engine._or, Xor: engine._xor}


@st.composite
def dags(draw, ints=False):
    """An expression whose every operator node reads nodes made before
    it, so subterms (and leaves) are shared by object; with `ints`, some
    leaves are literal codes (of 4, -4 and -5)."""
    nodes = [*map(Var, NAMES), Const(False), Const(True),
             *(map(literal_code, (4, -4, -5)) if ints else ())]
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([Not, And, Or, Xor]))
        pick = st.integers(0, len(nodes) - 1)
        nodes.append(kind(*(nodes[draw(pick)] for _ in range(1 if kind is Not else 2))))
    return nodes[-1]


def recorder(order):
    """Ops that spell each node's value out and record it when computed."""
    def op(name):
        def build(*args):
            order.append(text := f"{name}({', '.join(args)})")
            return text
        return build
    return {kind: op(kind.__name__.lower()) for kind in (Not, And, Or, Xor)}


class TestContract:
    def test_post_order_left_first_once_per_node(self):
        shared = And(Var("a"), Var("b"))
        expr = Or(Xor(shared, Not(Var("c"))), shared)
        order = []
        assert fold_expr(expr, str, str, recorder(order)) == \
            "or(xor(and(a, b), not(c)), and(a, b))"
        assert order == ["and(a, b)", "not(c)", "xor(and(a, b), not(c))",
                         "or(xor(and(a, b), not(c)), and(a, b))"]

    def test_memo_shared_across_calls(self):
        inner = And(Var("a"), Const(True))
        memo, order = {}, []
        fold_expr(inner, str, str, recorder(order), memo)
        assert fold_expr(Not(inner), str, str, recorder(order), memo) == "not(and(a, True))"
        assert order == ["and(a, True)", "not(and(a, True))"]
        assert fold_expr(inner, str, str, {}, memo) == "and(a, True)"  # a hit computes nothing

    def test_int_leaf_is_its_own_value(self):
        memo = {}
        assert fold_expr(7, str, str, {}, memo) == 7
        expr = Xor(-3, Var("a"))
        assert fold_expr(expr, str.upper, str, {Not: str, Xor: lambda a, b: (a, b)}, memo) == \
            (-3, "A")
        assert list(memo) == [id(expr)]

    @pytest.mark.parametrize("expr", ["a", And(Var("a"), "b"), Not(None)], ids=repr)
    def test_non_expression_raises_type_error(self, expr):
        with pytest.raises(TypeError):
            fold_expr(expr, str, str, recorder([]))


class TestAgainstReferences:
    @given(dags())
    def test_size_depth_vars(self, expr):
        assert (expr_size(expr), expr_depth(expr), expr_vars(expr)) == \
            (ref_size(expr), ref_depth(expr), ref_vars(expr))

    @given(dags())
    def test_rename(self, expr):
        mapping = {"a": "x", "c": "a"}
        assert rename_vars(expr, mapping) == ref_rename(expr, mapping)

    @given(dags(), dags())
    def test_subst(self, expr, other):
        env = {"a": other, "b": Not(Var("c")), "c": Const(True)}
        assert engine._subst(expr, env) == ref_subst(expr, env, FOLDING)

    @given(dags())
    def test_mask(self, expr):
        assert engine._mask(expr, TABLES, FULL, {}) == ref_mask(expr, TABLES, FULL)

    @given(dags())
    def test_straight_line(self, expr):
        assert [(s.op, s.args, s.const) for s in engine._encode_original(expr, NAMES)] == \
            ref_straight_line(expr, NAMES)

    @given(dags(ints=True), dags(ints=True))
    def test_tseitin_numbering(self, first, second):
        # two roots through one encoder: the second reuses the first's gates
        enc = TseitinEncoder(CODES)
        lits = [_signed(enc.encode(first)), _signed(enc.encode(second))]
        assert (lits, signed_clauses(enc.clauses), enc.num_vars) == \
            ref_tseitin([first, second], VAR_MAP)

    @given(dags())
    def test_tseitin_equisatisfiable(self, expr):
        # at every point, the encoding with its root asserted is
        # satisfiable exactly when the expression holds
        enc = TseitinEncoder(CODES)
        root = _signed(enc.encode(expr))
        clauses = signed_clauses(enc.clauses)
        for bits in itertools.product((False, True), repeat=len(NAMES)):
            units = [(v if bit else -v,) for v, bit in zip((1, 2, 3), bits)]
            assert brute_force_satisfiable(enc.num_vars, [*clauses, *units, (root,)]) == \
                eval_expr(expr, dict(zip(NAMES, bits)))


class TestDeepAndShared:
    def test_self_shared_levels_come_back_at_once(self):
        # x := x AND x, 60 times: 2^60 paths through 60 distinct nodes
        x = Var("a")
        for _ in range(60):
            x = And(x, x)
        assert expr_vars(x) == {"a"}
        assert expr_depth(x) == 61
        assert expr_size(x) == 2 ** 61 - 1
        assert expr_vars(rename_vars(x, {"a": "b"})) == {"b"}
        assert expr_depth(engine._subst(x, {"a": Var("b")})) == 61
        assert engine._mask(x, TABLES, FULL, {}) == TABLES["a"]
        assert len(engine._encode_original(x, NAMES)) == 60
        enc = TseitinEncoder(CODES)
        enc.encode(x)
        assert enc.num_vars == len(VAR_MAP) + 60

    def test_chain_deeper_than_the_python_stack(self):
        # NOT (... NOT (a AND b) AND b ...), one level per step
        levels = 2 * sys.getrecursionlimit()
        x, table = Var("a"), TABLES["a"]
        for level in range(levels):
            x = Not(x) if level % 2 else And(x, Var("b"))
            table = FULL ^ table if level % 2 else table & TABLES["b"]
        assert expr_depth(x) == levels + 1
        assert expr_size(x) == levels + levels // 2 + 1
        assert expr_vars(x) == {"a", "b"}
        assert expr_depth(rename_vars(x, {"b": "c"})) == levels + 1
        assert expr_depth(engine._subst(x, {"a": Var("c"), "b": Var("b")})) == levels + 1
        assert engine._mask(x, TABLES, FULL, {}) == table
        assert len(engine._encode_original(x, NAMES)) == levels
        enc = TseitinEncoder(CODES)
        enc.encode(x)
        assert enc.num_vars == len(VAR_MAP) + levels // 2
