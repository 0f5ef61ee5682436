import io
import itertools
import math
import os
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import blocks_equivalent, deep_temps_st, output_table
from plcsynth.bench import (
    InsufficientSamples, bench_run, magnet_rule, scenario, signal_light_rule,
    stats,
)
from plcsynth.blocks import Lang
from plcsynth.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATED, _is_st, load_block, run
from plcsynth import constraints
from plcsynth.constraints import compile_spec, load_constraints
from plcsynth.engine import SynthConfig, Verified, equivalent, simplify, synthesize
from plcsynth.lang import emit, parse_il, parse_st

AND_XML = """<?xml version="1.0" encoding="UTF-8"?>
<constraintList block="AndGate" mode="generate">
  <interface>
    <var name="a" dir="in" type="BOOL"/>
    <var name="b" dir="in" type="BOOL"/>
    <var name="y" dir="out" type="BOOL"/>
  </interface>
  <truthTable>
    <row in="a=1;b=1" out="y=1"/>
    <row in="a=0" out="y=0"/>
    <row in="b=0" out="y=0"/>
  </truthTable>
</constraintList>
"""

IMPL_XML = """<?xml version="1.0" encoding="UTF-8"?>
<constraintList block="AndGate" mode="verify">
  <interface>
    <var name="a" dir="in" type="BOOL"/>
    <var name="b" dir="in" type="BOOL"/>
    <var name="y" dir="out" type="BOOL"/>
  </interface>
  <assertion expr="a OR NOT y"/>
</constraintList>
"""

OR_ST = """FUNCTION_BLOCK AndGate
VAR_INPUT
  a : BOOL;
  b : BOOL;
END_VAR
VAR_OUTPUT
  y : BOOL;
END_VAR
BEGIN
  y := a OR b;
END_FUNCTION_BLOCK
"""

CONFLICT_XML = """<?xml version="1.0" encoding="UTF-8"?>
<constraintList block="Bad" mode="generate">
  <interface>
    <var name="a" dir="in" type="BOOL"/>
    <var name="y" dir="out" type="BOOL"/>
  </interface>
  <truthTable>
    <row in="a=0" out="y=0"/>
    <row in="a=0" out="y=1"/>
  </truthTable>
</constraintList>
"""


def ab_list(body, state=()):
    """A constraint list over inputs a, b and output y (plus `state` vars)
    with the given XML after the interface."""
    decls = "".join(f'\n    <var name="{s}" dir="state" type="BOOL"/>' for s in state)
    return f"""<?xml version="1.0" encoding="UTF-8"?>
<constraintList block="Clash" mode="generate">
  <interface>
    <var name="a" dir="in" type="BOOL"/>
    <var name="b" dir="in" type="BOOL"/>
    <var name="y" dir="out" type="BOOL"/>{decls}
  </interface>
{body}
</constraintList>
"""


# contradictory lists: the dead point `check` and `synth` report, then the
# clauses they name there
CLASHES = {
    "conflict": (CONFLICT_XML, ["a=0", "constraint 0: y = 0 when NOT a",
                                "constraint 1: y = 1 when NOT a"]),
    "row-column": (ab_list("""  <truthTable> <row in="a=1" out="y=0"/> </truthTable>
  <causeEffect output="y" combinator="any"> <cause input="a" mark="x"/> </causeEffect>"""),
                   ["a=1 b=0", "constraint 0: y = 0 when a",
                    "constraint 1: y = 1 when a"]),
    "row-assertion": (ab_list("""  <truthTable> <row in="b=1" out="y=1"/> </truthTable>
  <assertion expr="NOT (a AND y)"/>"""),
                      ["a=1 b=1", "constraint 0: y = 1 when b",
                       "assertion 1: NOT (a AND y)"]),
}


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out)
    return code, out.getvalue()


@pytest.fixture
def project(tmp_path):
    (tmp_path / "and.xml").write_text(AND_XML)
    (tmp_path / "impl.xml").write_text(IMPL_XML)
    (tmp_path / "or.st").write_text(OR_ST)
    (tmp_path / "conflict.xml").write_text(CONFLICT_XML)
    return tmp_path


def test_cold_import_skips_urllib():
    # xml.sax.saxutils loads urllib.request, http.client, ssl and email;
    # only writing constraint XML needs them, so a fresh CLI process must
    # load none of them.  Nor does it load dataclasses or inspect: the
    # value classes are records, not dataclasses
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys; before = set(sys.modules); import plcsynth.cli; "
            "print(sorted(set(sys.modules) - before))")
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert "'plcsynth.cli'" in loaded
    assert [m for m in ("urllib.request", "http.client", "ssl", "email", "dataclasses", "inspect")
            if f"'{m}'" in loaded] == []


@pytest.mark.parametrize("argv", [
    ("verify", "--block", "or.st", "--constraints", "impl.xml"),
    ("synth", "--constraints", "and.xml", "--out", "and.st"),
], ids=["verify", "synth"])
def test_one_op_checks_its_constraint_file_once(project, monkeypatch, argv):
    # the list read from the file checks itself; compiling it does not
    # check it again
    real, calls = constraints.validate_constraint_list, []
    monkeypatch.setattr(constraints, "validate_constraint_list",
                        lambda cl: calls.append(cl) or real(cl))
    invoke(*(str(project / arg) if "." in arg else arg for arg in argv))
    assert len(calls) == 1


class TestSynth:
    def test_synth_writes_equivalent_block(self, project):
        out_path = project / "and.st"
        code, text = invoke("synth", "--constraints", str(project / "and.xml"),
                            "--out", str(out_path), "--seed", "1")
        assert code == EXIT_OK
        assert str(out_path) in text
        block = load_block(out_path)
        assert output_table(block, "y") == {
            bits: bits[0] and bits[1]
            for bits in itertools.product((False, True), repeat=2)}

    @pytest.mark.parametrize("out_name", ["and.il", "and.txt"])
    def test_synth_il_output(self, project, out_name):
        # --lang picks the written dialect, whatever the suffix
        out_path = project / out_name
        code, _ = invoke("synth", "--constraints", str(project / "and.xml"),
                         "--out", str(out_path), "--lang", "il")
        assert code == EXIT_OK
        block = parse_il(out_path.read_text())
        assert block.lang is Lang.IL
        assert output_table(block, "y") == {
            bits: bits[0] and bits[1]
            for bits in itertools.product((False, True), repeat=2)}

    def test_joint_counts_the_slots_it_writes(self, tmp_path):
        # y = (a AND b) OR c and z = (a AND b) XOR c: a joint template may
        # share a AND b, but each output's encoding holds it; the table
        # implies `y OR NOT z`, which ties y and z into one joint run
        rows = "".join(
            f'<row in="a={a};b={b};c={c}" out="y={int(a & b | c)};z={int(a & b ^ c)}"/>'
            for a, b, c in itertools.product((0, 1), repeat=3))
        counts = []
        for tie in ("", '<assertion expr="y OR NOT z"/>'):
            (tmp_path / "yz.xml").write_text(f"""<?xml version="1.0" encoding="UTF-8"?>
<constraintList block="yz" mode="generate">
  <interface>
    <var name="a" dir="in" type="BOOL"/> <var name="b" dir="in" type="BOOL"/>
    <var name="c" dir="in" type="BOOL"/>
    <var name="y" dir="out" type="BOOL"/> <var name="z" dir="out" type="BOOL"/>
  </interface>
  <truthTable>{rows}</truthTable>
  {tie}
</constraintList>
""")
            code, text = invoke("synth", "--constraints", str(tmp_path / "yz.xml"),
                                "--out", str(tmp_path / "yz.st"), "--seed", "1")
            assert code == EXIT_OK
            counts.append(int(SUMMARY.match(text.strip()).group(3)))
        assert counts == [4, 4]

    def test_joint_option_gone(self, project):
        # which outputs run jointly follows from the assertions alone
        code, _ = invoke("synth", "--constraints", str(project / "and.xml"), "--joint")
        assert code == EXIT_USAGE

    def test_conflicting_rows_exit_1(self, project):
        code, text = invoke("synth", "--constraints",
                            str(project / "conflict.xml"))
        assert code == EXIT_VIOLATED
        assert "unsatisfiable" in text

    def test_missing_file_exit_2(self, project):
        code, text = invoke("synth", "--constraints", str(project / "nope.xml"))
        assert code == EXIT_USAGE

    def test_bad_usage_exit_2(self):
        code, _ = invoke("synth")
        assert code == EXIT_USAGE

    def test_unknown_command_exit_2(self):
        code, _ = invoke("frobnicate")
        assert code == EXIT_USAGE


# the summary line the benchmark parses (perfbench/workloads.py)
SUMMARY = re.compile(r"^(synth|repair|simplify|extend): wrote (\S+) "
                     r"\(slots (\d+), iterations (\d+), [0-9.]+ ms\)$")


def magnet_xml():
    """The full table of one warehouse magnet, m2 = (s2 AND s3) OR NOT s4,
    over its row's four barriers."""
    rows = "".join(
        f'\n    <row in="{";".join(f"s{k}={int(v)}" for k, v in enumerate(bits, 1))}" '
        f'out="m2={int((bits[1] and bits[2]) or not bits[3])}"/>'
        for bits in itertools.product((False, True), repeat=4))
    decls = "".join(f'\n    <var name="s{k}" dir="in" type="BOOL"/>' for k in range(1, 5))
    return f"""<?xml version="1.0" encoding="UTF-8"?>
<constraintList block="Magnet" mode="generate">
  <interface>{decls}
    <var name="m2" dir="out" type="BOOL"/>
  </interface>
  <truthTable>{rows}
  </truthTable>
</constraintList>
"""


class TestProjectedRuns:
    def test_summary_and_written_bytes(self, tmp_path):
        # m2 reads three of the four barriers, so the runs keep only those;
        # the CLI prints the same summary line and writes the same block
        xml = tmp_path / "magnet.xml"
        xml.write_text(magnet_xml())
        synth_out, simplified = tmp_path / "m.st", tmp_path / "m.simplified.st"
        code, text = invoke("synth", "--constraints", str(xml), "--out", str(synth_out),
                            "--seed", "1")
        assert code == EXIT_OK
        constraint_list = load_constraints(xml)
        want = synthesize(constraint_list.interface, compile_spec(constraint_list),
                          SynthConfig(seed=1), name="Magnet")
        assert want.per_output[0].inputs == ("s2", "s3", "s4")
        assert SUMMARY.match(text.rstrip("\n")).groups() == (
            "synth", str(synth_out), str(want.slots_used), str(want.iterations))
        assert synth_out.read_bytes() == emit(want.block, Lang.ST).encode()
        code, text = invoke("simplify", "--block", str(synth_out), "--seed", "1")
        assert code == EXIT_OK
        want = simplify(want.block, SynthConfig(seed=1))
        assert SUMMARY.match(text.rstrip("\n")).groups() == (
            "simplify", str(simplified), str(want.slots_used), str(want.iterations))
        assert simplified.read_bytes() == emit(want.block, Lang.ST).encode()


class TestVerifyCli:
    @pytest.mark.parametrize("lang", ["st", "il"])
    def test_dialect_read_from_text(self, project, lang):
        # the file is written in the --lang dialect and read back in the
        # dialect of its text, whatever the suffix
        out_path = project / "and.txt"
        code, text = invoke("synth", "--constraints", str(project / "and.xml"),
                            "--out", str(out_path), "--lang", lang)
        assert code == EXIT_OK, text
        assert load_block(out_path).lang is Lang(lang)
        code, text = invoke("verify", "--block", str(out_path),
                            "--constraints", str(project / "and.xml"))
        assert (code, text) == (EXIT_OK, "Verified (bound 1)\n")

    @given(st.lists(st.sampled_from(["BEGIN", "BEGINNING", "/", "//", " ", "a", "_", "\n"]),
                    max_size=12).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_dialect_sniff_matches_line_pattern(self, text):
        # the line-anchored pattern the sniff replaces: a word BEGIN with
        # no `//` before it on its line
        pattern = re.compile(r"^(?:(?!//).)*\bBEGIN\b", re.MULTILINE)
        assert _is_st(text) == bool(pattern.search(text))

    def test_deep_expression_exit_2(self, project):
        deep = project / "deep.st"
        deep.write_text(OR_ST.replace("a OR b", "(" * 300 + "a AND b" + ")" * 300))
        code, text = invoke("verify", "--block", str(deep),
                            "--constraints", str(project / "and.xml"))
        assert code == EXIT_USAGE
        assert "expression too deep" in text

    @pytest.mark.parametrize("lang", ["st", "il"])
    def test_long_chain_exit_2(self, project, lang):
        # a flat 1,500-term AND chain is 1,500 levels deep once parsed
        body = ("BEGIN\n  y := " + " AND ".join(["a"] * 1500) + ";\n" if lang == "st"
                else "LD a\n" + "AND b\n" * 1499 + "ST y\n")
        chain = project / f"chain.{lang}"
        chain.write_text(OR_ST.replace("BEGIN\n  y := a OR b;\n", body))
        code, text = invoke("verify", "--block", str(chain),
                            "--constraints", str(project / "and.xml"))
        assert (code, "expression too deep" in text) == (EXIT_USAGE, True), text

    def test_verified_exit_0(self, project):
        invoke("synth", "--constraints", str(project / "and.xml"),
               "--out", str(project / "and.st"))
        code, text = invoke("verify", "--block", str(project / "and.st"),
                            "--constraints", str(project / "and.xml"))
        assert code == EXIT_OK
        assert "Verified" in text

    def test_violated_prints_counterexample(self, project):
        code, text = invoke("verify", "--block", str(project / "or.st"),
                            "--constraints", str(project / "impl.xml"))
        assert code == EXIT_VIOLATED
        lines = text.splitlines()
        assert lines[0] == "cycle 0: a=0 b=1"
        assert lines[1].startswith("violated: ")

    @pytest.mark.parametrize("flags, lines", [
        ((), ["init: s=0", "cycle 0: a=1 b=0", "cycle 1: a=0 b=0"]),
        (("--symbolic-init",), ["init: s=1", "cycle 0: a=0 b=0"]),
    ], ids=["false-init", "symbolic-init"])
    def test_stateful_counterexample_starts_with_init(self, tmp_path, flags, lines):
        # y reads the latch s, which a sets; within 2 cycles NOT y fails
        latch = tmp_path / "latch.st"
        latch.write_text(OR_ST.replace("BEGIN\n  y := a OR b;\n", "VAR\n  s : BOOL;\nEND_VAR\n"
                                       "BEGIN\n  y := s;\n  s := a OR s;\n"))
        spec = tmp_path / "latch.xml"
        spec.write_text(ab_list('  <assertion expr="NOT y"/>', state=["s"]))
        code, text = invoke("verify", "--block", str(latch), "--constraints", str(spec),
                            "--cycles", "2", *flags)
        assert (code, text) == (EXIT_VIOLATED, "".join(
            f"{line}\n" for line in [*lines, "violated: assertion 0: NOT y"]))

    def test_schema_error_exit_2(self, project):
        bad = project / "bad.xml"
        bad.write_text(AND_XML.replace("truthTable", "truthtable"))
        code, text = invoke("verify", "--block", str(project / "or.st"),
                            "--constraints", str(bad))
        assert code == EXIT_USAGE
        assert "error" in text


def and_chain_st(n, unused=False):
    """An ST block of n temps `t1 := b AND a; t_i := t_(i-1) AND a` and
    `y := t_n`, which computes a AND b n levels deep once inlined; with
    `unused`, it also declares an input c that nothing reads."""
    temps = "".join(f"  t{i} : BOOL;\n" for i in range(1, n + 1))
    body = "".join(f"  t{i} := t{i - 1} AND a;\n" for i in range(2, n + 1))
    text = OR_ST.replace("  b : BOOL;\n", "  b : BOOL;\n  c : BOOL;\n") if unused else OR_ST
    return text.replace("BEGIN\n  y := a OR b;\n", f"VAR_TEMP\n{temps}END_VAR\nBEGIN\n"
                        f"  t1 := b AND a;\n{body}  y := t{n};\n")


class TestDeepTempChain:
    # 1,200 temps inline to 1,200 levels, which the bounded checker once
    # encoded with one Python stack frame per level

    def test_verify(self, project):
        chain = project / "chain.st"
        chain.write_text(and_chain_st(1200))
        code, text = invoke("verify", "--block", str(chain),
                            "--constraints", str(project / "and.xml"))
        assert (code, text) == (EXIT_OK, "Verified (bound 1)\n")

    def test_translate(self, project):
        chain, out_path = project / "chain.st", project / "chain.il"
        chain.write_text(and_chain_st(1200))
        code, text = invoke("translate", "--block", str(chain), "--to", "il",
                            "--out", str(out_path))
        assert code == EXIT_OK, text
        assert output_table(parse_il(out_path.read_text()), "y") == {
            bits: bits[0] and bits[1]
            for bits in itertools.product((False, True), repeat=2)}

    def test_equivalent_to_itself(self):
        block = parse_st(and_chain_st(1200))
        assert isinstance(equivalent(block, block), Verified)


class TestRepairSimplifyExtend:
    @pytest.mark.parametrize("unused", [False, True], ids=["chain", "unused-input"])
    def test_simplify_deep_chain(self, project, unused):
        # 1,200 temps inline to 1,200 levels; simplify walked them with one
        # Python stack frame per level and exited 3
        chain, out_path = project / "chain.st", project / "chain.out.st"
        chain.write_text(and_chain_st(1200, unused))
        code, text = invoke("simplify", "--block", str(chain), "--out", str(out_path))
        assert code == EXIT_OK, text
        assert re.findall(r"\S+ := .*;", out_path.read_text()) == ["y := a AND b;"]

    def test_simplify_deep_temps_past_the_cube(self, project):
        # 13 inputs and a 1,200-level pin guard: the bounded checker's
        # replay once exited 3 with a RecursionError
        deep, out_path = project / "deep.st", project / "deep.out.st"
        deep.write_text(deep_temps_st(1200))
        code, text = invoke("simplify", "--block", str(deep), "--out", str(out_path))
        assert code == EXIT_OK, text
        assert re.findall(r"\S+ := .*;", out_path.read_text()) == ["y := a AND x1 OR x2 AND x3;"]

    def test_extend_deep_temps_contradiction(self, project):
        # an input-only assertion that fails at the all-false point, against
        # a 1,200-level pin guard: naming the clause there once exited 3
        deep, extra = project / "deep.st", project / "deep.xml"
        deep.write_text(deep_temps_st(1200))
        decls = "".join(f'\n    <var name="{name}" dir="in" type="BOOL"/>'
                        for name in ["a", *(f"x{i}" for i in range(1, 13))])
        extra.write_text(f"""<?xml version="1.0" encoding="UTF-8"?>
<constraintList block="Deep" mode="extend">
  <interface>{decls}
    <var name="y" dir="out" type="BOOL"/>
  </interface>
  <assertion expr="x5"/>
</constraintList>
""")
        code, text = invoke("extend", "--block", str(deep), "--constraints", str(extra),
                            "--out", str(project / "deep.out.st"))
        assert code == EXIT_VIOLATED, text
        assert text.splitlines()[1:] == ["  assertion 0: x5"]

    def test_repair_roundtrip(self, project):
        out_path = project / "fixed.st"
        code, _ = invoke("repair", "--block", str(project / "or.st"),
                         "--constraints", str(project / "and.xml"),
                         "--out", str(out_path))
        assert code == EXIT_OK
        block = load_block(out_path)
        assert output_table(block, "y") == {
            bits: bits[0] and bits[1]
            for bits in itertools.product((False, True), repeat=2)}

    def test_simplify_default_output_path(self, project):
        redundant = project / "red.st"
        redundant.write_text(OR_ST.replace("a OR b", "a AND b OR a AND NOT b"))
        code, text = invoke("simplify", "--block", str(redundant))
        assert code == EXIT_OK
        produced = project / "red.simplified.st"
        assert produced.exists()
        assert "y := a;" in produced.read_text()

    def test_extend(self, project):
        extra = project / "extra.xml"
        extra.write_text(AND_XML.replace(
            'mode="generate"', 'mode="extend"').replace(
            '<row in="a=1;b=1" out="y=1"/>\n    <row in="a=0" out="y=0"/>\n    <row in="b=0" out="y=0"/>',
            '<row in="a=1;b=1" out="y=0"/>'))
        code, _ = invoke("extend", "--block", str(project / "or.st"),
                         "--constraints", str(extra),
                         "--out", str(project / "ext.st"))
        assert code == EXIT_OK
        block = load_block(project / "ext.st")
        table = output_table(block, "y")
        assert table[(True, True)] is False
        assert table[(True, False)] is True
        assert table[(False, True)] is True

    @pytest.mark.parametrize("source, out_name", [
        (OR_ST, "or.il"),
        (OR_ST, "or.txt"),
        (OR_ST.replace(" a ", " was_END_VAR "), "was_END_VAR.il"),
    ], ids=["il", "txt", "was_END_VAR"])
    def test_translate_roundtrip(self, project, source, out_name):
        # --to picks the written dialect, whatever the suffix
        src = project / "src.st"
        src.write_text(source)
        out_path = project / out_name
        code, text = invoke("translate", "--block", str(src), "--to", "il",
                            "--out", str(out_path))
        assert code == EXIT_OK, text
        assert blocks_equivalent(load_block(src), parse_il(out_path.read_text()))

    @pytest.mark.parametrize("lang", ["st", "il"])
    def test_byte_order_mark_skipped(self, project, lang):
        # editors on Windows may start a UTF-8 file with a byte-order mark
        src = project / f"bom.{lang}"
        src.write_text("\ufeff" + emit(parse_st(OR_ST), Lang(lang)), encoding="utf-8")
        (project / "or.xml").write_text(ab_list('  <assertion expr="NOT a OR y"/>'))
        code, text = invoke("verify", "--block", str(src),
                            "--constraints", str(project / "or.xml"))
        assert (code, text) == (EXIT_OK, "Verified (bound 1)\n")
        out_path = project / "bom.out"
        code, text = invoke("translate", "--block", str(src),
                            "--to", "il" if lang == "st" else "st", "--out", str(out_path))
        assert code == EXIT_OK, text
        assert not out_path.read_bytes().startswith("\ufeff".encode("utf-8"))
        assert blocks_equivalent(parse_st(OR_ST), load_block(out_path))


class TestDeterminism:
    def test_synth_twice_byte_identical(self, project):
        first = project / "a1.st"
        second = project / "a2.st"
        for path in (first, second):
            code, _ = invoke("synth", "--constraints", str(project / "and.xml"),
                             "--out", str(path), "--seed", "9")
            assert code == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_repair_twice_byte_identical(self, project):
        first = project / "r1.st"
        second = project / "r2.st"
        for path in (first, second):
            invoke("repair", "--block", str(project / "or.st"),
                   "--constraints", str(project / "and.xml"),
                   "--out", str(path), "--seed", "4")
        assert first.read_bytes() == second.read_bytes()

    def test_translate_twice_byte_identical(self, project):
        first = project / "t1.il"
        second = project / "t2.il"
        for path in (first, second):
            invoke("translate", "--block", str(project / "or.st"),
                   "--to", "il", "--out", str(path))
        assert first.read_bytes() == second.read_bytes()


class TestCheck:
    def test_consistent_exit_0(self, project):
        code, text = invoke("check", "--constraints", str(project / "and.xml"))
        assert code == EXIT_OK
        assert "consistent" in text

    @pytest.mark.parametrize("case", CLASHES)
    def test_conflict_reported(self, tmp_path, case):
        xml, (point, *named) = CLASHES[case]
        path = tmp_path / "clash.xml"
        path.write_text(xml)
        code, text = invoke("check", "--constraints", str(path))
        assert code == EXIT_VIOLATED
        assert text == (f"unsatisfiable: spec is contradictory at input pattern: "
                        f"{point}\n" + "".join(f"  {line}\n" for line in named))
        assert invoke("synth", "--constraints", str(path),
                      "--out", str(tmp_path / "clash.st")) == (EXIT_VIOLATED, text)

    def test_stateful_list_exit_2(self, tmp_path):
        path = tmp_path / "latch.xml"
        path.write_text(ab_list('  <assertion expr="s OR NOT y"/>', state=["s"]))
        code, text = invoke("check", "--constraints", str(path))
        assert code == EXIT_USAGE
        assert "combinational blocks only" in text


class TestStats:
    def test_milliseconds_example_exact(self):
        result = stats([128.0, 130.0, 126.0])
        assert result.mean == 128.0
        assert result.stddev == 2.0

    def test_equal_samples_zero_spread(self):
        assert stats([42.0, 42.0]).stddev == 0.0

    def test_two_samples(self):
        result = stats([1.0, 3.0])
        assert result.mean == 2.0
        assert result.stddev == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            stats([1.0])

    def test_matches_textbook_oracle(self):
        rng = random.Random(8)
        for _ in range(100):
            samples = [rng.uniform(0.1, 500.0) for _ in range(rng.randint(2, 12))]
            got = stats(samples)
            assert got.mean == pytest.approx(statistics.fmean(samples), rel=1e-12)
            assert got.stddev == pytest.approx(statistics.stdev(samples), rel=1e-9)


class TestBenchScenarios:
    def test_magnet_rule_out_of_range_occupied(self):
        assert magnet_rule([False, False, True, True], 3) is True
        assert magnet_rule([False, False, True, False], 3) is False
        assert magnet_rule([True, True, False, False], 1) is True
        assert magnet_rule([False, True, False, False], 1) is True  # s3 vacant

    def test_signal_light_rule(self):
        assert signal_light_rule([False] * 8) is False
        assert signal_light_rule([False] * 7 + [True]) is True

    def test_scenario_shapes(self):
        row = scenario("row")
        assert len(row.interface.inputs) == 4
        assert len(row.interface.outputs) == 3
        light = scenario("signal-light")
        assert len(light.interface.inputs) == 8
        assert len(light.interface.outputs) == 1

    def test_magnet_bench_validates(self):
        report = bench_run(scenario("magnet"), 3, SynthConfig(seed=2))
        assert report.stats.n == 3
        assert all(t > 0 for t in report.stats.samples)
        assert set(report.per_component) == {"m2"}

    def test_row_bench_three_calls_per_repeat(self):
        report = bench_run(scenario("row"), 2, SynthConfig(seed=2))
        assert set(report.per_component) == {"m1", "m2", "m3"}
        for result in report.results:
            assert len(result.per_output) == 3

    def test_repeat_minimum(self):
        with pytest.raises(InsufficientSamples):
            bench_run(scenario("magnet"), 1)

    def test_bench_cli_output(self):
        code, text = invoke("bench", "--scenario", "magnet", "--repeat", "2",
                            "--seed", "3")
        assert code == EXIT_OK
        assert "scenario: magnet" in text
        assert "mean" in text and "stddev" in text

    def test_bench_single_repeat_usage_error(self):
        code, text = invoke("bench", "--scenario", "magnet", "--repeat", "1")
        assert code == EXIT_USAGE
        assert "error" in text

    def test_size_bound_exit_3(self, project):
        parity = AND_XML.replace(
            '<row in="a=1;b=1" out="y=1"/>\n    <row in="a=0" out="y=0"/>\n    <row in="b=0" out="y=0"/>',
            '<row in="a=0;b=0" out="y=0"/>\n    <row in="a=0;b=1" out="y=1"/>\n'
            '    <row in="a=1;b=0" out="y=1"/>\n    <row in="a=1;b=1" out="y=0"/>')
        path = project / "parity.xml"
        path.write_text(parity)
        code, text = invoke("synth", "--constraints", str(path),
                            "--max-slots", "0")
        assert code == EXIT_USAGE  # max_slots < 1 is a config error
        code, text = invoke("synth", "--constraints", str(path), "--out",
                            str(project / "p.st"))
        assert code == EXIT_OK
