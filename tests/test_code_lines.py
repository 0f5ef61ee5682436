import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


def f(x):
    """One-line docstring."""
    # a comment line

    text = """a string
that is not a docstring"""
    return text


class C:
    """Class docstring."""
    y = 1
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_leaves_out_blank_comment_and_docstring_lines():
    # code: the import, def, both lines of the string, return, class, y
    assert load_script().count(SOURCE) == (18, 7)


def test_table_per_module_and_total(tmp_path):
    package = tmp_path / "src" / "plcsynth"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text("x = 1\n\n# done\n")
    assert load_script().table(tmp_path) == [
        "module            lines   code",
        "a.py                 18      7",
        "b.py                  3      1",
        "total                21      8",
    ]
