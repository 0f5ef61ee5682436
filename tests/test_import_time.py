import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:       310 |        450 |     plcsynth.blocks
import time:      1200 |       9871 | plcsynth.cli
import time:        80 |         80 | plcsynth.cli_extra
"""


def load_script():
    spec = importlib.util.spec_from_file_location("import_time", ROOT / "scripts" / "import_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reads_the_module_cumulative_time():
    script = load_script()
    assert script.cumulative_us(IMPORTTIME) == 9871
    assert script.cumulative_us(IMPORTTIME, "plcsynth.blocks") == 450
    with pytest.raises(ValueError):
        script.cumulative_us(IMPORTTIME, "plcsynth.engine")


def test_measures_this_checkout():
    times = load_script().measure(ROOT, 1)
    assert len(times) == 1 and times[0] > 0
