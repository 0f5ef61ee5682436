import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "op_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("op_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_counts_per_workload():
    # a changed digest and a key on one side only both differ
    ours = {"bmc|1|verify a": "d1", "bmc|1|verify b": "d2",
            "edit|1|simplify c": "d3", "edit|11|repair d": "d4"}
    theirs = {"bmc|1|verify a": "d1", "bmc|1|verify b": "d2",
              "edit|1|simplify c": "changed", "edit|12|extend e": "d5"}
    assert load_script().compare(ours, theirs) == [
        "bmc: 2 equal, 0 differ",
        "edit: 0 equal, 3 differ",
        "  edit|11|repair d",
        "  edit|12|extend e",
        "  edit|1|simplify c",
    ]
