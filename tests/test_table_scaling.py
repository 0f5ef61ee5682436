import importlib.util
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from plcsynth.blocks import eval_expr
from plcsynth.constraints import compile_spec, loads_constraints

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "table_scaling.py"


def load_script():
    spec = importlib.util.spec_from_file_location("table_scaling", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind, rows", [("or", 16), ("dc", 7)])
def test_tables_write_or_of_the_inputs(kind, rows):
    cl = loads_constraints(load_script().table_text(kind, 4))
    assert len(cl.constraints) == rows
    clauses = compile_spec(cl).obligations["y"]
    for bits in itertools.product((False, True), repeat=4):
        env = {f"x{k}": bit for k, bit in enumerate(bits)}
        assert {c.value for c in clauses if eval_expr(c.guard, env)} == {any(bits)}


def test_prints_a_median_per_stage_and_table():
    done = subprocess.run([sys.executable, str(SCRIPT), "--inputs", "4", "--runs", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()[1:]
    assert header.split() == ["table", "inputs", "rows", *load_script().STAGES]
    assert [line.split()[:3] for line in lines] == [["or", "4", "16"], ["dc", "4", "7"]]
    for line in lines:
        assert all(float(ms) >= 0 for ms in line.split()[3:])
