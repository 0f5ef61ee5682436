import importlib.util
import json
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "kernel_replay.py"


def load_script():
    spec = importlib.util.spec_from_file_location("kernel_replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), "--root", str(ROOT), *args],
                          capture_output=True, text=True)


def test_digest_reads_verdicts_and_models_in_order():
    digest = load_script().answers_digest
    sat, unsat = (True, {1: False, 2: True}), (False, None)
    assert digest([sat, unsat]) == digest([(True, {2: True, 1: False}), unsat])
    assert len({digest([sat, unsat]), digest([unsat, sat]),
                digest([(True, {1: True, 2: True}), unsat])}) == 3


def test_replay_reproduces_recorded_answers(tmp_path):
    calls = tmp_path / "calls.pickle"
    assert run_script("--record", str(calls), "synth-small").returncode == 0
    recorded = pickle.loads(calls.read_bytes())
    done = run_script("--replay", str(calls))
    assert done.returncode == 0, done.stderr
    replayed = json.loads(done.stdout)
    assert replayed["solves"] == len(recorded["answers"]) > 0
    assert replayed["digest"] == load_script().answers_digest(recorded["answers"])
    assert replayed["load_s"] > 0 and replayed["solve_s"] > 0
    # a recorded answer the kernel does not give back fails the replay
    index = next(i for i, (sat, _) in enumerate(recorded["answers"]) if sat)
    model = recorded["answers"][index][1]
    model[1] = not model[1]
    calls.write_bytes(pickle.dumps(recorded))
    done = run_script("--replay", str(calls))
    assert done.returncode != 0 and "differs from the recorded one" in done.stderr
