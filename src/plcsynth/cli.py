"""Command-line front end.

Operates on a file-based project: blocks live in `.st`/`.il` source files,
constraint lists in `.xml` files.  A block file is read in the dialect of
its text and written in the block's own dialect, whatever the suffix.
Exit codes: 0 success or Verified, 1 Violated or Unsatisfiable (a
contradictory constraint list, from `check` or any op), 2 usage or input
errors, 3 size-bound or internal errors.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .bench import SCENARIO_NAMES, BenchReport, bench_run, scenario
from .blocks import Block, Lang, TypeCheckError, replace
from .constraints import SchemaError, compile_spec, load_constraints
from .engine import (
    Counterexample, SizeBoundExceeded, SynthConfig, Unsatisfiable, Verified,
    check, equivalent, extend, repair, simplify, synthesize, verify,
)
from .lang import ParseError, emit, parse_il, parse_st, translate

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


_BEGIN_RE = re.compile(r"BEGIN\b")
_WORD_RE = re.compile(r"\w")


def _is_st(text: str) -> bool:
    """Whether the word `BEGIN` stands outside a comment, with no `//`
    before it on its line: after the header, ST has it and IL does not.
    The search keys on the literal, so it skips the header in one scan."""
    for found in _BEGIN_RE.finditer(text):
        at = found.start()
        line = text[text.rfind("\n", 0, at) + 1:at]
        if not _WORD_RE.match(line[-1:]) and "//" not in line:
            return True
    return False


def load_block(path) -> Block:
    """Parse a block file in the dialect its text is written in, whatever
    the path's suffix; a leading UTF-8 byte-order mark is skipped."""
    text = Path(path).read_text(encoding="utf-8-sig")
    return parse_st(text) if _is_st(text) else parse_il(text)


def write_block(block: Block, path) -> None:
    """Write the block in its own dialect, whatever the path's suffix."""
    Path(path).write_text(emit(block, block.lang), encoding="utf-8")


def _default_out(block_path: str, op: str, lang: Lang) -> Path:
    source = Path(block_path)
    return source.with_name(f"{source.stem}.{op}.{lang.value}")


def print_counterexample(cex: Counterexample, out) -> None:
    if cex.init_state:
        state = " ".join(f"{n}={int(v)}" for n, v in cex.init_state.items())
        print(f"init: {state}", file=out)
    for index, inputs in enumerate(cex.input_cycles):
        cells = " ".join(f"{n}={int(v)}" for n, v in inputs.items())
        print(f"cycle {index}: {cells}", file=out)
    print(f"violated: {cex.violated}", file=out)


def _summary(op: str, result, path) -> str:
    return (f"{op}: wrote {path} "
            f"(slots {result.slots_used}, iterations {result.iterations}, "
            f"{result.wall_time * 1000:.1f} ms)")


def _config(args) -> SynthConfig:
    """The config with the fields the command's options set: each such
    option's dest is the field's name, and an unset one is None."""
    return SynthConfig(**{name: getattr(args, name) for name in SynthConfig._fields
                          if getattr(args, name, None) is not None})


# editing commands: the word in their default output name, and their help
_EDITED = {"repair": ("repaired", "minimally edit a block to meet constraints"),
           "simplify": ("simplified", "minimize a block without changing behavior"),
           "extend": ("extended", "add new behavior with minimal edits")}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged, and
    # building it costs about as much as a short bounded verify
    parser = argparse.ArgumentParser(
        prog="plcsynth",
        description="Synthesize, verify, repair, simplify and translate "
                    "Boolean PLC blocks from constraint lists.")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a block from constraints")
    synth.add_argument("--constraints", required=True)
    synth.add_argument("--out")
    synth.add_argument("--lang", choices=["st", "il"], default="st")
    synth.add_argument("--seed", type=int)
    synth.add_argument("--max-slots", dest="max_slots", type=int)

    ver = sub.add_parser("verify", help="check a block against constraints")
    ver.add_argument("--block", required=True)
    ver.add_argument("--constraints", required=True)
    ver.add_argument("--cycles", dest="unwind_cycles", type=int, metavar="CYCLES")
    ver.add_argument("--symbolic-init", dest="symbolic_init", action="store_const",
                     const=True)

    for op, (_, text) in _EDITED.items():
        edit = sub.add_parser(op, help=text)
        edit.add_argument("--block", required=True)
        if op != "simplify":
            edit.add_argument("--constraints", required=True)
        edit.add_argument("--out")
        edit.add_argument("--seed", type=int)

    tr = sub.add_parser("translate", help="convert a block to the other dialect")
    tr.add_argument("--block", required=True)
    tr.add_argument("--to", required=True, choices=["st", "il"])
    tr.add_argument("--out")

    bench = sub.add_parser("bench", help="run a warehouse synthesis benchmark")
    bench.add_argument("--scenario", required=True, choices=list(SCENARIO_NAMES))
    bench.add_argument("--repeat", type=int, default=10)
    bench.add_argument("--seed", type=int)

    chk = sub.add_parser("check", help="report where a constraint list contradicts itself")
    chk.add_argument("--constraints", required=True)
    return parser


def _cmd_synth(args, out) -> int:
    constraint_list = load_constraints(args.constraints)
    spec = compile_spec(constraint_list)
    cfg = _config(args)
    result = synthesize(constraint_list.interface, spec, cfg,
                        name=constraint_list.block_name)
    lang = Lang(args.lang)
    block = replace(result.block, lang=lang)
    path = Path(args.out) if args.out else Path(f"{block.name}.{lang.value}")
    write_block(block, path)
    print(_summary("synth", result, path), file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    block = load_block(args.block)
    spec = compile_spec(load_constraints(args.constraints))
    result = verify(block, spec, _config(args))
    if isinstance(result, Verified):
        print(f"Verified (bound {result.bound})", file=out)
        return EXIT_OK
    print_counterexample(result.counterexample, out)
    return EXIT_VIOLATED


def _cmd_edit(args, out) -> int:
    """repair, simplify or extend the block: the engine function of that
    name, looked up when the command runs."""
    op = args.command
    block = load_block(args.block)
    operands = [block]
    if op == "repair":
        operands.append(compile_spec(load_constraints(args.constraints)))
    elif op == "extend":
        operands.append(load_constraints(args.constraints))
    result = globals()[op](*operands, _config(args))
    path = Path(args.out) if args.out else _default_out(args.block, _EDITED[op][0], block.lang)
    write_block(result.block, path)
    print(_summary(op, result, path), file=out)
    return EXIT_OK


def _cmd_translate(args, out) -> int:
    block = load_block(args.block)
    target = Lang(args.to)
    result = translate(block, target)
    outcome = equivalent(block, result, SynthConfig(unwind_cycles=2))
    if not isinstance(outcome, Verified):
        print("internal error: translation changed behavior", file=out)
        return EXIT_INTERNAL
    path = Path(args.out) if args.out else _default_out(args.block, "translated",
                                                        target)
    write_block(result, path)
    print(f"translate: wrote {path} ({block.lang.value} -> {target.value})",
          file=out)
    return EXIT_OK


def _format_seconds(value: float) -> str:
    return f"{value * 1000:.2f} ms" if value < 1.0 else f"{value:.3f} s"


def _print_bench(report: BenchReport, out) -> None:
    print(f"scenario: {report.scenario} (n={report.repeats})", file=out)
    print(f"  mean {_format_seconds(report.stats.mean)}  "
          f"stddev {_format_seconds(report.stats.stddev)}", file=out)
    for name, comp in sorted(report.per_component.items()):
        print(f"  component {name}: mean {_format_seconds(comp.mean)}  "
              f"stddev {_format_seconds(comp.stddev)}", file=out)


def _cmd_bench(args, out) -> int:
    spec = scenario(args.scenario)
    report = bench_run(spec, args.repeat, _config(args))
    _print_bench(report, out)
    return EXIT_OK


def _cmd_check(args, out) -> int:
    check(compile_spec(load_constraints(args.constraints)))
    print("consistent", file=out)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    **dict.fromkeys(_EDITED, _cmd_edit),
    "translate": _cmd_translate,
    "bench": _cmd_bench,
    "check": _cmd_check,
}


def run(argv, out=None) -> int:
    """Dispatch one subcommand; every termination path maps to an exit code."""
    out = out if out is not None else sys.stdout
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args, out)
    except Unsatisfiable as exc:
        print(f"unsatisfiable: {exc}", file=out)
        return EXIT_VIOLATED
    except (ParseError, SchemaError, TypeCheckError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_USAGE
    except SizeBoundExceeded as exc:
        print(f"error: {exc}", file=out)
        return EXIT_INTERNAL
    except Exception as exc:  # BenchValidationError, replay failures, bugs
        print(f"internal error: {exc}", file=out)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
