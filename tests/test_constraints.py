import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import all_assignments
from plcsynth.blocks import (
    BlockInterface, Direction, Not, Or, TypeCheckError, Var, VarDecl,
    eval_expr,
)
from plcsynth.constraints import (
    Assertion, CauseEffectColumn, Combinator, ConstraintList, Mode,
    MissingRenameTarget, RenameCollision, SchemaError, TruthTableRow,
    compile_spec, dumps_constraints, instantiate_template, load_constraints,
    loads_constraints, save_constraints, validate_constraint_list,
)
from plcsynth.engine import Unsatisfiable, check


def iface2():
    return BlockInterface((VarDecl("a", Direction.INPUT),
                           VarDecl("b", Direction.INPUT),
                           VarDecl("y", Direction.OUTPUT)))


def clist(constraints, interface=None, mode=Mode.GENERATE, name="blk"):
    return ConstraintList(name, mode, interface or iface2(), tuple(constraints))


def spec_output_value(spec, output, env):
    """Evaluate the compiled obligations as a partial function at one point."""
    values = set()
    for clause in spec.obligations.get(output, ()):
        if eval_expr(clause.guard, env):
            values.add(clause.value)
    if not values:
        return None
    assert len(values) == 1, f"contradictory spec at {env}"
    return values.pop()


class TestValidation:
    def test_row_with_unknown_input(self):
        cl = clist([TruthTableRow({"zz": True}, {"y": True})])
        with pytest.raises(TypeCheckError):
            validate_constraint_list(cl)

    def test_row_needs_one_output(self):
        cl = clist([TruthTableRow({"a": True}, {"y": None})])
        with pytest.raises(TypeCheckError):
            validate_constraint_list(cl)

    def test_cause_effect_output_direction(self):
        cl = clist([CauseEffectColumn("a", Combinator.ANY, {"b": False})])
        with pytest.raises(TypeCheckError):
            validate_constraint_list(cl)

    def test_assertion_undeclared_var(self):
        cl = clist([Assertion(Var("nope"))])
        with pytest.raises(TypeCheckError):
            validate_constraint_list(cl)

    @pytest.mark.parametrize("interface, constraint, reason", [
        (BlockInterface((*iface2().decls, VarDecl("t", Direction.TEMP))),
         TruthTableRow({"a": True}, {"y": True}), "cannot declare temps"),
        (iface2(), TruthTableRow({"a": True}, {"b": True}), "'b' is not an output"),
        (iface2(), CauseEffectColumn("y", Combinator.ANY, {}), "no marked cause cells"),
        (iface2(), CauseEffectColumn("y", Combinator.ALL, {"a": False, "y": True}),
         "'y' is not an input"),
    ], ids=["temps", "row-output", "empty-column", "column-cell"])
    def test_rejected_with_reason(self, interface, constraint, reason):
        with pytest.raises(TypeCheckError, match=reason):
            validate_constraint_list(clist([constraint], interface))


class TestCompileSpec:
    def test_rows_for_and_table(self):
        rows = [
            TruthTableRow({"a": True, "b": True}, {"y": True}),
            TruthTableRow({"a": False}, {"y": False}),
            TruthTableRow({"b": False}, {"y": False}),
        ]
        spec = compile_spec(clist(rows))
        for env in all_assignments(["a", "b"]):
            expected = env["a"] and env["b"]
            assert spec_output_value(spec, "y", env) == expected

    def test_cause_effect_any(self):
        col = CauseEffectColumn("y", Combinator.ANY, {"a": False, "b": True})
        spec = compile_spec(clist([col]))
        for env in all_assignments(["a", "b"]):
            expected = env["a"] or not env["b"]
            assert spec_output_value(spec, "y", env) == expected

    def test_cause_effect_all(self):
        col = CauseEffectColumn("y", Combinator.ALL, {"a": False, "b": True})
        spec = compile_spec(clist([col]))
        for env in all_assignments(["a", "b"]):
            expected = env["a"] and not env["b"]
            assert spec_output_value(spec, "y", env) == expected

    def test_empty_list_vacuous(self):
        spec = compile_spec(clist([]))
        assert spec.obligations == {}
        assert spec.assertions == ()

    def test_assertion_passthrough_with_origin(self):
        expr = Or(Var("b"), Not(Var("y")))
        spec = compile_spec(clist([TruthTableRow({}, {"y": True}), Assertion(expr)]))
        assert len(spec.assertions) == 1
        assert spec.assertions[0].expr == expr
        assert spec.assertions[0].origin == 1

    def test_dontcare_output_cell_sets_nothing(self):
        interface = BlockInterface((*iface2().decls, VarDecl("z", Direction.OUTPUT)))
        spec = compile_spec(clist([TruthTableRow({"a": True}, {"y": True, "z": None})],
                                  interface))
        assert list(spec.obligations) == ["y"]
        assert spec_output_value(spec, "y", {"a": True, "b": False}) is True

    def test_dontcare_inputs_widen_guard(self):
        row = TruthTableRow({"a": True, "b": None}, {"y": True})
        spec = compile_spec(clist([row]))
        assert spec_output_value(spec, "y", {"a": True, "b": False}) is True
        assert spec_output_value(spec, "y", {"a": True, "b": True}) is True
        assert spec_output_value(spec, "y", {"a": False, "b": True}) is None


class TestConsistency:
    """`engine.check` on row lists: it reports the lowest dead point (every
    input) and the constraints that clash there."""

    def test_direct_contradiction(self):
        cl = clist([TruthTableRow({"a": False}, {"y": False}),
                    TruthTableRow({"a": False}, {"y": True})])
        with pytest.raises(Unsatisfiable) as info:
            check(compile_spec(cl))
        assert info.value.origins == (0, 1)
        assert info.value.witness == {"a": False, "b": False}

    def test_dontcare_unification(self):
        cl = clist([TruthTableRow({"a": True, "b": None}, {"y": True}),
                    TruthTableRow({"a": None, "b": False}, {"y": False})])
        with pytest.raises(Unsatisfiable) as info:
            check(compile_spec(cl))
        assert info.value.origins == (0, 1)
        assert info.value.witness == {"a": True, "b": False}

    def test_disjoint_rows_no_conflict(self):
        cl = clist([TruthTableRow({"a": True}, {"y": True}),
                    TruthTableRow({"a": False}, {"y": False})])
        check(compile_spec(cl))

    def test_agreeing_overlap_no_conflict(self):
        cl = clist([TruthTableRow({"a": True}, {"y": True}),
                    TruthTableRow({"b": True}, {"y": True})])
        check(compile_spec(cl))

    def test_unique_function_when_total_and_consistent(self):
        rows = [TruthTableRow({"a": av, "b": bv}, {"y": av and bv})
                for av, bv in itertools.product([False, True], repeat=2)]
        spec = compile_spec(clist(rows))
        check(spec)
        for env in all_assignments(["a", "b"]):
            assert spec_output_value(spec, "y", env) == (env["a"] and env["b"])


class TestTemplates:
    def template(self):
        rows = [TruthTableRow({"a": True, "b": True}, {"y": True}),
                TruthTableRow({"a": False}, {"y": False})]
        return clist(rows)

    def test_identity_renaming(self):
        assert instantiate_template(self.template(), {}) == self.template()

    def test_full_renaming(self):
        result = instantiate_template(self.template(),
                                      {"a": "s1", "b": "s2", "y": "m1"})
        assert result.interface.inputs == ("s1", "s2")
        assert result.interface.outputs == ("m1",)
        assert result.constraints[0] == TruthTableRow(
            {"s1": True, "s2": True}, {"m1": True})

    def test_noninjective_rejected(self):
        with pytest.raises(RenameCollision):
            instantiate_template(self.template(), {"a": "x", "b": "x"})

    def test_collision_with_unmapped_rejected(self):
        with pytest.raises(RenameCollision):
            instantiate_template(self.template(), {"a": "b"})

    def test_missing_target_rejected(self):
        with pytest.raises(MissingRenameTarget):
            instantiate_template(self.template(), {"q": "r"})

    def test_columns_and_assertions_renamed(self):
        template = clist([CauseEffectColumn("y", Combinator.ALL, {"a": False, "b": True}),
                          Assertion(Or(Var("a"), Not(Var("y"))))])
        result = instantiate_template(template, {"a": "p", "y": "r"})
        assert result.constraints == (
            CauseEffectColumn("r", Combinator.ALL, {"p": False, "b": True}),
            Assertion(Or(Var("p"), Not(Var("r")))))

    def test_block_name_kept(self):
        # only interface variables are renamed, even where the block name
        # equals one of them
        template = clist(self.template().constraints, name="a")
        assert instantiate_template(template, {"a": "p"}).block_name == "a"

    def test_compile_commutes_with_renaming(self):
        renaming = {"a": "p", "b": "q", "y": "r"}
        renamed_spec = compile_spec(instantiate_template(self.template(), renaming))
        base_spec = compile_spec(self.template())
        for env in all_assignments(["a", "b"]):
            renamed_env = {renaming[k]: v for k, v in env.items()}
            assert (spec_output_value(renamed_spec, "r", renamed_env)
                    == spec_output_value(base_spec, "y", env))


MINIMAL_XML = """<?xml version="1.0" encoding="UTF-8"?>
<constraintList block="blk" mode="generate">
  <interface>
    <var name="a" dir="in" type="BOOL"/>
    <var name="y" dir="out" type="BOOL"/>
  </interface>
  <truthTable>
    <row in="a=1" out="y=1"/>
  </truthTable>
</constraintList>
"""


TABLE = """  <truthTable>
    <row in="a=1" out="y=1"/>
  </truthTable>
"""
CAUSE_EFFECT = """  <causeEffect output="y" combinator="any">
    <cause input="a" mark="x"/>
  </causeEffect>
"""


def with_sections(*sections):
    return MINIMAL_XML.replace("</constraintList>", "".join(sections) + "</constraintList>")


# one malformed document per reader rule
REJECTED = {
    "missing attribute": MINIMAL_XML.replace(' dir="in"', ""),
    "bad dir": MINIMAL_XML.replace('dir="in"', 'dir="sideways"'),
    "bad type": MINIMAL_XML.replace('dir="in" type="BOOL"', 'dir="in" type="INT"'),
    "bad combinator": with_sections(CAUSE_EFFECT.replace('"any"', '"most"')),
    "bad mark": with_sections(CAUSE_EFFECT.replace('mark="x"', 'mark="y"')),
    "duplicate cell": MINIMAL_XML.replace('in="a=1"', 'in="a=1;a=0"'),
    "duplicate cause": with_sections(CAUSE_EFFECT.replace(
        "  </causeEffect>", '    <cause input="a" mark="n"/>\n  </causeEffect>')),
    "empty causeEffect": with_sections('  <causeEffect output="y" combinator="any">\n'
                                       "  </causeEffect>\n"),
    "child in var": MINIMAL_XML.replace('type="BOOL"/>', 'type="BOOL"><x/></var>', 1),
    "child in row": MINIMAL_XML.replace('out="y=1"/>', 'out="y=1"><x/></row>'),
    "child in assertion": with_sections('  <assertion expr="a"><x/></assertion>\n'),
    "child in cause": with_sections(CAUSE_EFFECT.replace(
        'mark="x"/>', 'mark="x"><mystery><row/></mystery></cause>')),
    "text content": MINIMAL_XML.replace("<interface>", "<interface>hello"),
    "interface not first": MINIMAL_XML.replace(TABLE, "").replace(
        "  <interface>", TABLE + "  <interface>"),
    "second truthTable": with_sections(TABLE.replace("1", "0")),
    "causeEffect after assertion": with_sections('  <assertion expr="a"/>\n', CAUSE_EFFECT),
    "wrong root": MINIMAL_XML.replace("constraintList", "constraints"),
}


class TestXml:
    def test_minimal_file(self):
        cl = loads_constraints(MINIMAL_XML)
        assert cl.block_name == "blk"
        assert cl.mode is Mode.GENERATE
        assert cl.constraints == (TruthTableRow({"a": True}, {"y": True}),)

    def test_roundtrip_identity(self, tmp_path):
        rows = [TruthTableRow({"a": True, "b": None}, {"y": True}),
                TruthTableRow({"a": False, "b": False}, {"y": False})]
        ce = CauseEffectColumn("y", Combinator.ANY, {"a": False, "b": True})
        asrt = Assertion(Or(Var("a"), Not(Var("y"))))
        cl = clist(rows + [ce, asrt], mode=Mode.VERIFY)
        path = tmp_path / "c.xml"
        save_constraints(cl, path)
        assert load_constraints(path) == cl

    def test_save_is_canonical_bytes(self):
        cl = loads_constraints(MINIMAL_XML)
        assert dumps_constraints(cl) == dumps_constraints(cl)
        assert loads_constraints(dumps_constraints(cl)) == cl

    def test_dontcare_cells_preserved(self):
        cl = loads_constraints(MINIMAL_XML.replace('in="a=1"', 'in="a=-"'))
        row = cl.constraints[0]
        assert row.inputs == {"a": None}
        assert 'a=-' in dumps_constraints(cl)

    def test_undeclared_variable_schema_error(self):
        bad = MINIMAL_XML.replace('in="a=1"', 'in="zz=1"')
        with pytest.raises(SchemaError) as exc:
            loads_constraints(bad)
        assert "zz" in str(exc.value)

    def test_unknown_element_rejected_with_line(self):
        bad = MINIMAL_XML.replace("</constraintList>",
                                  "  <mystery/>\n</constraintList>")
        with pytest.raises(SchemaError) as exc:
            loads_constraints(bad)
        assert exc.value.line >= 2

    def test_unknown_attribute_rejected(self):
        bad = MINIMAL_XML.replace('<row in="a=1"', '<row weird="1" in="a=1"')
        with pytest.raises(SchemaError):
            loads_constraints(bad)

    def test_bad_mode_rejected(self):
        with pytest.raises(SchemaError):
            loads_constraints(MINIMAL_XML.replace('mode="generate"', 'mode="banana"'))

    def test_malformed_cell_rejected(self):
        with pytest.raises(SchemaError):
            loads_constraints(MINIMAL_XML.replace('in="a=1"', 'in="a=2"'))

    def test_misordered_sections_rejected(self):
        bad = """<?xml version="1.0" encoding="UTF-8"?>
<constraintList block="blk" mode="generate">
  <interface>
    <var name="a" dir="in" type="BOOL"/>
    <var name="y" dir="out" type="BOOL"/>
  </interface>
  <assertion expr="a"/>
  <truthTable><row in="a=1" out="y=1"/></truthTable>
</constraintList>
"""
        with pytest.raises(SchemaError):
            loads_constraints(bad)

    def test_deep_assertion_rejected(self):
        # 300 parentheses, and a flat 1,500-term chain (1,500 levels parsed)
        for expr in ("(" * 300 + "a" + ")" * 300, " OR ".join(["a"] * 1500)):
            deep = MINIMAL_XML.replace("</constraintList>", f'  <assertion expr="{expr}"/>\n'
                                       "</constraintList>")
            with pytest.raises(SchemaError, match="expression too deep"):
                loads_constraints(deep)

    @pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
    def test_rule_broken_rejected_with_line(self, text):
        with pytest.raises(SchemaError) as exc:
            loads_constraints(text)
        assert 1 <= exc.value.line <= text.count("\n")

    def test_malformed_xml_reports_line(self):
        with pytest.raises(SchemaError):
            loads_constraints("<constraintList block='b' mode='generate'>")

    def test_assertion_expression_parsed(self):
        xml = MINIMAL_XML.replace(
            "</constraintList>",
            '  <assertion expr="a OR NOT y"/>\n</constraintList>')
        cl = loads_constraints(xml)
        assert cl.constraints[-1] == Assertion(Or(Var("a"), Not(Var("y"))))

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=40)
    def test_random_lists_roundtrip(self, seed):
        rng = random.Random(seed)
        inputs = [f"i{k}" for k in range(rng.randint(1, 4))]
        outputs = [f"o{k}" for k in range(rng.randint(1, 2))]
        decls = ([VarDecl(n, Direction.INPUT) for n in inputs]
                 + [VarDecl(n, Direction.OUTPUT) for n in outputs])
        interface = BlockInterface(tuple(decls))
        tri = [True, False, None]
        constraints = []
        for _ in range(rng.randint(0, 4)):
            ins = {n: rng.choice(tri) for n in inputs if rng.random() < 0.8}
            outs = {n: rng.choice(tri) for n in outputs}
            if not any(v is not None for v in outs.values()):
                outs[rng.choice(outputs)] = True
            constraints.append(TruthTableRow(ins, outs))
        for _ in range(rng.randint(0, 2)):
            cells = {n: rng.random() < 0.5 for n in inputs if rng.random() < 0.6}
            if not cells:
                cells[inputs[0]] = False
            constraints.append(CauseEffectColumn(
                rng.choice(outputs), rng.choice(list(Combinator)), cells))
        for _ in range(rng.randint(0, 2)):
            constraints.append(Assertion(Or(Var(rng.choice(inputs)),
                                            Not(Var(rng.choice(outputs))))))
        if rng.random() < 0.5:
            rng.shuffle(constraints)
        cl = ConstraintList("blk", rng.choice(list(Mode)), interface,
                            tuple(constraints))
        # a list saves only in schema order (rows, columns, assertions), so
        # that its constraint numbers survive the round trip
        kinds = [(TruthTableRow, CauseEffectColumn, Assertion).index(type(c))
                 for c in constraints]
        if kinds == sorted(kinds):
            assert loads_constraints(dumps_constraints(cl)) == cl
        else:
            first = next(i for i in range(1, len(kinds)) if kinds[i] < kinds[i - 1])
            with pytest.raises(TypeCheckError, match=f"constraint {first}:"):
                dumps_constraints(cl)
