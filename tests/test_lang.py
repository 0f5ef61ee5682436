import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import blocks_equivalent, random_block
from plcsynth.blocks import (
    And, Block, BlockInterface, Const, Direction, Lang, Not, Or, Statement,
    TypeCheckError, Var, VarDecl, Xor, rename_vars,
)
from plcsynth.lang import (
    AccumulatorUndefined, ParseError, UnbalancedParen, emit,
    format_expression, parse, parse_expression, parse_il, parse_st, translate,
)

ST_AND = """
FUNCTION_BLOCK M
VAR_INPUT a : BOOL; b : BOOL; END_VAR
VAR_OUTPUT y : BOOL; END_VAR
BEGIN
  y := a AND NOT b;
END_FUNCTION_BLOCK
"""


class TestParseSt:
    def test_basic_block(self):
        b = parse_st(ST_AND)
        assert b.name == "M"
        assert b.lang is Lang.ST
        assert b.interface.inputs == ("a", "b")
        assert b.interface.outputs == ("y",)
        assert b.body == (Statement("y", And(Var("a"), Not(Var("b")))),)

    def test_precedence_or_over_and(self):
        b = parse_st("FUNCTION_BLOCK P VAR_INPUT a:BOOL; b:BOOL; c:BOOL; END_VAR "
                     "VAR_OUTPUT y:BOOL; END_VAR BEGIN y := a OR b AND c; "
                     "END_FUNCTION_BLOCK")
        assert b.body[0].rhs == Or(Var("a"), And(Var("b"), Var("c")))

    def test_precedence_xor_between(self):
        b = parse_st("FUNCTION_BLOCK P VAR_INPUT a:BOOL; b:BOOL; c:BOOL; END_VAR "
                     "VAR_OUTPUT y:BOOL; END_VAR BEGIN y := a XOR b OR c AND a; "
                     "END_FUNCTION_BLOCK")
        assert b.body[0].rhs == Or(Xor(Var("a"), Var("b")), And(Var("c"), Var("a")))

    def test_undeclared_variable_names_it(self):
        with pytest.raises(TypeCheckError) as exc:
            parse_st("FUNCTION_BLOCK P VAR_OUTPUT y:BOOL; END_VAR BEGIN "
                     "y := x; END_FUNCTION_BLOCK")
        assert "x" in str(exc.value)

    def test_assignment_to_input_rejected(self):
        with pytest.raises(TypeCheckError):
            parse_st("FUNCTION_BLOCK P VAR_INPUT a:BOOL; END_VAR BEGIN "
                     "a := TRUE; END_FUNCTION_BLOCK")

    def test_parse_error_has_span_inside_text(self):
        text = ("FUNCTION_BLOCK P\nVAR_INPUT a:BOOL; END_VAR\n"
                "VAR_OUTPUT y:BOOL; END_VAR\nBEGIN\n  y := a AND ;\n"
                "END_FUNCTION_BLOCK")
        with pytest.raises(ParseError) as exc:
            parse_st(text)
        span = exc.value.span
        lines = text.splitlines()
        assert 1 <= span.line <= len(lines)
        assert 1 <= span.column <= len(lines[span.line - 1]) + 1

    def test_comments_and_whitespace_ignored(self):
        b = parse_st("FUNCTION_BLOCK C // header\nVAR_INPUT // section\n"
                     "a : BOOL; // input a\nEND_VAR\nVAR_OUTPUT y:BOOL; END_VAR\n"
                     "BEGIN\ny := a; // copy\nEND_FUNCTION_BLOCK")
        assert b.body == (Statement("y", Var("a")),)

    def test_var_section_is_state(self):
        b = parse_st("FUNCTION_BLOCK S VAR_INPUT a:BOOL; END_VAR VAR s:BOOL; END_VAR "
                     "BEGIN s := s OR a; END_FUNCTION_BLOCK")
        assert b.interface.state_vars == ("s",)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_st(ST_AND + "leftover")


class TestParseIl:
    def make(self, instructions, inputs="a b", outputs="y"):
        lines = ["FUNCTION_BLOCK T", "VAR_INPUT"]
        lines += [f"  {n} : BOOL;" for n in inputs.split()]
        lines += ["END_VAR", "VAR_OUTPUT"]
        lines += [f"  {n} : BOOL;" for n in outputs.split()]
        lines += ["END_VAR"]
        lines += instructions
        lines += ["END_FUNCTION_BLOCK"]
        return "\n".join(lines)

    def test_ld_andn_st(self):
        b = parse_il(self.make(["LD a", "ANDN b", "ST y"]))
        assert b.lang is Lang.IL
        assert b.body == (Statement("y", And(Var("a"), Not(Var("b")))),)

    def test_deferred_group(self):
        b = parse_il(self.make(["LD a", "OR( b", "AND c", ")", "ST y"],
                               inputs="a b c"))
        assert b.body == (Statement("y", Or(Var("a"), And(Var("b"), Var("c")))),)

    def test_nested_groups(self):
        b = parse_il(self.make(
            ["LD a", "AND( b", "OR( c", "ANDN d", ")", ")", "ST y"],
            inputs="a b c d"))
        expected = And(Var("a"), Or(Var("b"), And(Var("c"), Not(Var("d")))))
        assert b.body == (Statement("y", expected),)

    def test_negated_group(self):
        b = parse_il(self.make(["LD a", "ORN( b", "AND c", ")", "ST y"],
                               inputs="a b c"))
        assert b.body == (Statement("y", Or(Var("a"), Not(And(Var("b"), Var("c"))))),)

    def test_not_and_constants(self):
        b = parse_il(self.make(["LD TRUE", "NOT", "ST y"]))
        assert b.body == (Statement("y", Not(Const(True))),)

    def test_combinator_before_load_rejected(self):
        with pytest.raises(AccumulatorUndefined):
            parse_il(self.make(["AND a", "ST y"]))

    def test_store_before_load_rejected(self):
        with pytest.raises(AccumulatorUndefined):
            parse_il(self.make(["ST y"]))

    def test_unbalanced_close(self):
        with pytest.raises(UnbalancedParen):
            parse_il(self.make(["LD a", ")", "ST y"]))

    def test_unclosed_group(self):
        with pytest.raises(UnbalancedParen):
            parse_il(self.make(["LD a", "OR( b", "ST y"]))

    def test_multiple_statements_keep_accumulator(self):
        b = parse_il(self.make(["LD a", "ST y", "ST z"], outputs="y z"))
        assert b.body == (Statement("y", Var("a")), Statement("z", Var("a")))

    def test_unknown_mnemonic(self):
        with pytest.raises(ParseError):
            parse_il(self.make(["FOO a", "ST y"]))

    def test_undeclared_operand_rejected(self):
        with pytest.raises(TypeCheckError):
            parse_il(self.make(["LD q", "ST y"]))


class TestEmit:
    def test_st_roundtrip_is_identity(self):
        b = parse_st(ST_AND)
        again = parse_st(emit(b, Lang.ST))
        assert again.interface == b.interface
        assert again.body == b.body
        assert again.name == b.name

    def test_il_accumulator_order(self):
        b = Block("X", BlockInterface((VarDecl("a", Direction.INPUT),
                                       VarDecl("b", Direction.INPUT),
                                       VarDecl("y", Direction.OUTPUT))),
                  (Statement("y", Xor(Var("a"), Var("b"))),))
        text = emit(b, Lang.IL)
        body_lines = [l for l in text.splitlines()
                      if l and not l.startswith(("FUNCTION_BLOCK", "VAR", "END_VAR",
                                                 "  ", "END_FUNCTION_BLOCK"))]
        assert body_lines == ["LD a", "XOR b", "ST y"]

    def test_il_uses_deferred_group_for_nested_right_operand(self):
        b = Block("X", BlockInterface((VarDecl("a", Direction.INPUT),
                                       VarDecl("b", Direction.INPUT),
                                       VarDecl("c", Direction.INPUT),
                                       VarDecl("y", Direction.OUTPUT))),
                  (Statement("y", Or(And(Var("a"), Var("b")), Not(Var("c")))),))
        text = emit(b, Lang.IL)
        assert "ORN c" in text  # Not(Var) right operand uses the N modifier
        b2 = Block("X", b.interface,
                   (Statement("y", Or(Var("a"), And(Var("b"), Var("c")))),))
        text2 = emit(b2, Lang.IL)
        assert "OR( b" in text2 and ")" in text2

    def test_emit_deterministic(self):
        b = parse_st(ST_AND)
        assert emit(b, Lang.IL) == emit(b, Lang.IL)
        assert emit(b, Lang.ST) == emit(b, Lang.ST)

    def test_parens_only_where_needed(self):
        expr = Or(And(Var("a"), Var("b")), Xor(Var("c"), Const(False)))
        assert format_expression(expr) == "a AND b OR c XOR FALSE"
        assert format_expression(And(Var("a"), Xor(Var("b"), Var("c")))) == "a AND (b XOR c)"
        assert format_expression(Not(Or(Var("a"), Var("b")))) == "NOT (a OR b)"
        assert format_expression(And(And(Var("a"), Var("b")), Var("c"))) == "a AND b AND c"
        assert format_expression(And(Var("a"), And(Var("b"), Var("c")))) == "a AND (b AND c)"

    def test_section_runs_preserved(self):
        iface = BlockInterface((VarDecl("y", Direction.OUTPUT),
                                VarDecl("a", Direction.INPUT),
                                VarDecl("b", Direction.INPUT),
                                VarDecl("s", Direction.STATE)))
        b = Block("Z", iface, (Statement("y", Var("a")),))
        again = parse_st(emit(b, Lang.ST))
        assert again.interface == iface


class TestExpressionParsing:
    def test_standalone_expression(self):
        assert parse_expression("a OR NOT b") == Or(Var("a"), Not(Var("b")))

    def test_type_check_against_interface(self):
        iface = BlockInterface((VarDecl("a", Direction.INPUT),))
        with pytest.raises(TypeCheckError):
            parse_expression("a AND q", iface)

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a OR b c")

    def test_format_parse_roundtrip(self):
        rng = random.Random(17)
        from helpers import random_expr
        for _ in range(100):
            expr = random_expr(rng, ["a", "b", "c", "d"], rng.randint(1, 12))
            assert parse_expression(format_expression(expr)) == expr


class TestTranslate:
    def test_translate_and_block_all_inputs(self):
        b = parse_st(ST_AND)
        il = translate(b, Lang.IL)
        assert il.lang is Lang.IL
        assert blocks_equivalent(b, il)

    def test_translate_identity_lang(self):
        b = parse_st(ST_AND)
        same = translate(b, Lang.ST)
        assert same.body == b.body and same.interface == b.interface

    def test_double_translate_roundtrip(self):
        rng = random.Random(23)
        for _ in range(25):
            b = random_block(rng, rng.randint(1, 4), rng.randint(1, 2),
                             rng.randint(0, 2), rng.randint(0, 1),
                             rng.randint(1, 5))
            back = translate(translate(b, Lang.IL), Lang.ST)
            assert blocks_equivalent(b, back, cycles=2)

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=40)
    def test_roundtrip_preserves_semantics(self, seed):
        rng = random.Random(seed)
        n_in = rng.randint(0, 3)
        n_state = rng.randint(0, 2)
        b = random_block(rng, n_in, rng.randint(1, 2), n_state,
                         rng.randint(0, 1), rng.randint(0, 5))
        il = translate(b, Lang.IL)
        assert blocks_equivalent(b, il, cycles=2)
        st_again = translate(il, Lang.ST)
        assert st_again.body == tuple(b.body) or blocks_equivalent(b, st_again, cycles=2)

    @pytest.mark.parametrize("lang", list(Lang), ids=lambda lang: lang.value)
    def test_il_roundtrip_exact_trees(self, lang):
        # names that contain keywords or are IL mnemonics
        names = dict(zip(["in0", "in1", "in2", "out0", "out1", "st0"],
                         ["was_END_VAR", "END_VARx", "VAR_INPUTs", "LD", "ST", "ANDN"]))
        rng = random.Random(31)
        for _ in range(50):
            b = random_block(rng, 3, 2, 1, 1, rng.randint(1, 6), max_expr_size=10)
            iface = BlockInterface(tuple(VarDecl(names.get(d.name, d.name), d.direction)
                                         for d in b.interface.decls))
            b = Block(b.name, iface, tuple(Statement(names.get(s.target, s.target),
                                                     rename_vars(s.rhs, names))
                                           for s in b.body))
            again = parse(emit(b, lang), lang)
            assert again.body == b.body
            assert again.interface == b.interface


@pytest.mark.parametrize("lang", list(Lang), ids=lambda lang: lang.value)
def test_dialects_share_header_and_errors(lang):
    def text(ands, end="END_FUNCTION_BLOCK\n"):
        body = (f"BEGIN\n  y := a{' AND b' * ands};\n" if lang is Lang.ST
                else "LD a\n" + "AND b\n" * ands + "ST y\n")
        return ("FUNCTION_BLOCK P\nVAR_INPUT\ta : BOOL; b : BOOL;\nEND_VAR // inputs\n"
                "VAR_OUTPUT y : BOOL; END_VAR\n" + body + end)

    block = parse(text(1), lang)
    assert block.interface.inputs == ("a", "b")
    assert block.body == (Statement("y", And(Var("a"), Var("b"))),)
    # a 70-deep AND chain, and a block without its end
    for bad in (text(69), text(1, end="")):
        with pytest.raises(ParseError):
            parse(bad, lang)


@pytest.mark.parametrize("nesting", ["(" * 300 + "a AND b" + ")" * 300,
                                     "NOT " * 1200 + "a", "(" * 65 + "a" + ")" * 65],
                         ids=["parens", "nots", "just-past"])
def test_deep_nesting_is_a_parse_error(nesting):
    # each level recurses, so nesting past MAX_EXPR_DEPTH is refused before
    # it can exhaust the stack
    with pytest.raises(ParseError, match="expression too deep"):
        parse_expression(nesting)
    block = ST_AND.replace("a AND NOT b", nesting)
    with pytest.raises(ParseError, match="expression too deep"):
        parse_st(block)
    # as deep as allowed: 64 levels of parentheses around one variable
    assert parse_expression("(" * 64 + "a" + ")" * 64) == Var("a")
