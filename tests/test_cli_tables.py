"""The command line's closed sets: the config each command line sets, the
`--help` text of every command and the warehouse scenarios.  Each set is
declared once in the package, and these pin what the declarations give."""

import itertools
import sys
from pathlib import Path

import pytest

from plcsynth.bench import SCENARIO_NAMES, magnet_rule, scenario, signal_light_rule
from plcsynth.cli import _config, _parser, run
from plcsynth.engine import SynthConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# each option that sets a config field: the field, and the value it sets
# (`int`: the number that follows the option)
FIELD_OPTIONS = {"--seed": ("seed", int), "--max-slots": ("max_slots", int),
                 "--cycles": ("unwind_cycles", int), "--symbolic-init": ("symbolic_init", True)}


def expected_config(argv):
    """The config an argv asks for, read off the words themselves."""
    values = {}
    for word, following in zip(argv, [*argv[1:], None]):
        if word in FIELD_OPTIONS:
            name, value = FIELD_OPTIONS[word]
            values[name] = int(following) if value is int else value
    return SynthConfig(**values)


def catalogue_argvs():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return [entry.argv for name in workloads.WORKLOADS
            for seed in (1, 11) for entry in workloads.build(name, seed).catalogue]


def config_of(*argv):
    return _config(_parser().parse_args(list(argv)))


class TestConfig:
    def test_benchmark_catalogues(self):
        argvs = catalogue_argvs()
        assert {argv[0] for argv in argvs} >= {"synth", "repair", "simplify", "extend",
                                               "verify", "translate"}
        for argv in argvs:
            assert config_of(*argv) == expected_config(argv), argv

    def test_every_field_option(self):
        assert config_of("synth", "--constraints", "c.xml", "--seed", "4",
                         "--max-slots", "5") == SynthConfig(seed=4, max_slots=5)
        assert config_of("verify", "--block", "b.st", "--constraints", "c.xml",
                         "--cycles", "3") == SynthConfig(unwind_cycles=3)
        assert config_of("verify", "--block", "b.st", "--constraints", "c.xml",
                         "--symbolic-init") == SynthConfig(symbolic_init=True)
        assert config_of("simplify", "--block", "b.st", "--seed", "2") == SynthConfig(seed=2)

    def test_unset_options_keep_the_defaults(self):
        assert config_of("bench", "--scenario", "magnet") == SynthConfig()
        assert config_of("bench", "--scenario", "magnet", "--seed", "7") == SynthConfig(seed=7)
        assert config_of("synth", "--constraints", "c.xml") == SynthConfig()
        assert config_of("translate", "--block", "b.st", "--to", "il") == SynthConfig()

    def test_out_of_range_field(self):
        with pytest.raises(ValueError, match="unwind_cycles must be >= 1"):
            config_of("verify", "--block", "b.st", "--constraints", "c.xml", "--cycles", "0")


# `plcsynth [CMD] --help` at 80 columns
HELP = {
    '': """\
usage: plcsynth [-h]
                {synth,verify,repair,simplify,extend,translate,bench,check}
                ...

Synthesize, verify, repair, simplify and translate Boolean PLC blocks from
constraint lists.

positional arguments:
  {synth,verify,repair,simplify,extend,translate,bench,check}
    synth               generate a block from constraints
    verify              check a block against constraints
    repair              minimally edit a block to meet constraints
    simplify            minimize a block without changing behavior
    extend              add new behavior with minimal edits
    translate           convert a block to the other dialect
    bench               run a warehouse synthesis benchmark
    check               report where a constraint list contradicts itself

options:
  -h, --help            show this help message and exit
""",
    'synth': """\
usage: plcsynth synth [-h] --constraints CONSTRAINTS [--out OUT]
                      [--lang {st,il}] [--seed SEED] [--max-slots MAX_SLOTS]

options:
  -h, --help            show this help message and exit
  --constraints CONSTRAINTS
  --out OUT
  --lang {st,il}
  --seed SEED
  --max-slots MAX_SLOTS
""",
    'verify': """\
usage: plcsynth verify [-h] --block BLOCK --constraints CONSTRAINTS
                       [--cycles CYCLES] [--symbolic-init]

options:
  -h, --help            show this help message and exit
  --block BLOCK
  --constraints CONSTRAINTS
  --cycles CYCLES
  --symbolic-init
""",
    'repair': """\
usage: plcsynth repair [-h] --block BLOCK --constraints CONSTRAINTS
                       [--out OUT] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --block BLOCK
  --constraints CONSTRAINTS
  --out OUT
  --seed SEED
""",
    'simplify': """\
usage: plcsynth simplify [-h] --block BLOCK [--out OUT] [--seed SEED]

options:
  -h, --help     show this help message and exit
  --block BLOCK
  --out OUT
  --seed SEED
""",
    'extend': """\
usage: plcsynth extend [-h] --block BLOCK --constraints CONSTRAINTS
                       [--out OUT] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --block BLOCK
  --constraints CONSTRAINTS
  --out OUT
  --seed SEED
""",
    'translate': """\
usage: plcsynth translate [-h] --block BLOCK --to {st,il} [--out OUT]

options:
  -h, --help     show this help message and exit
  --block BLOCK
  --to {st,il}
  --out OUT
""",
    'bench': """\
usage: plcsynth bench [-h] --scenario {magnet,row,signal-light}
                      [--repeat REPEAT] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --scenario {magnet,row,signal-light}
  --repeat REPEAT
  --seed SEED
""",
    'check': """\
usage: plcsynth check [-h] --constraints CONSTRAINTS

options:
  -h, --help            show this help message and exit
  --constraints CONSTRAINTS
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([command, "--help"] if command else ["--help"]) == 0
    assert capsys.readouterr().out == HELP[command]


class TestScenarios:
    SLOTS = ("s1", "s2", "s3", "s4")
    FLAGS = ("up1", "up2", "up3", "up4", "low1", "low2", "low3", "low4")

    @pytest.mark.parametrize("name, inputs, outputs, block", [
        ("magnet", SLOTS, ("m2",), "magnet"),
        ("row", SLOTS, ("m1", "m2", "m3"), "row"),
        ("signal-light", FLAGS, ("light",), "signal_light"),
    ])
    def test_interface_and_table(self, name, inputs, outputs, block):
        spec = scenario(name)
        assert spec.name == name
        assert spec.interface.inputs == inputs
        assert spec.interface.outputs == outputs
        table = spec.build_constraints()
        assert table.block_name == block
        assert table.interface == spec.interface
        assert len(table.constraints) == 2 ** len(inputs)
        for bits, row in zip(itertools.product((False, True), repeat=len(inputs)),
                             table.constraints):
            assert row.inputs == dict(zip(inputs, bits))
            if name == "signal-light":
                want = {"light": signal_light_rule(bits)}
            else:
                want = {o: magnet_rule(bits, int(o[1:])) for o in outputs}
            assert row.outputs == want == spec.oracle(row.inputs)

    def test_names(self):
        assert SCENARIO_NAMES == ("magnet", "row", "signal-light")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario 'aisle'"):
            scenario("aisle")
