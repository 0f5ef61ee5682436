"""Workload inputs and the benchmark's expectations for every op.

Each workload is a fixed catalogue of ops, given as `plcsynth` command
lines, that a run repeats in whole passes.  The workload seed picks every
identifier (block, input, output and state names) and so every input
byte; it does not pick the synthesis seeds, the faults or the sizes.
Per-seed work of the CEGIS search varies up to 5x, so runs are only
comparable when they do the same work: each catalogue holds a fixed list
of synthesis seeds, and every pass runs all of it.

Every op carries a check that judges the op's exit code, printed lines
and written file with the reference code in `oracles`, never with the
program's own simulator or checker.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional
from xml.sax.saxutils import quoteattr

import oracles as orc
from oracles import conj, disj, neg, var

WORKLOADS = ("synth-small", "synth-light", "edit", "bmc")

_SUMMARY = re.compile(r"^(synth|repair|simplify|extend): wrote (\S+) "
                      r"\(slots (\d+), iterations (\d+), [0-9.]+ ms\)$")


@dataclass
class Outcome:
    """What one op produced: exit code, printed text, written file bytes."""
    rc: int
    stdout: str
    written: Optional[bytes]


@dataclass
class Entry:
    """One catalogue op.  `key` names its input (ops that differ only in
    `--seed` share it); `check` returns None when the outcome is right,
    else the reason."""
    key: str
    kind: str
    argv: list[str]
    out: Optional[str]
    check: Callable[[Outcome], Optional[str]]


@dataclass
class Workload:
    """Input files (path relative to the work directory -> text) and the
    op catalogue that reads them."""
    files: dict[str, str] = field(default_factory=dict)
    catalogue: list[Entry] = field(default_factory=list)


def summary(stdout: str) -> Optional[tuple[str, str, int, int]]:
    """(op, path, slots, iterations) of a synth/repair/simplify/extend line."""
    m = _SUMMARY.match(stdout.strip())
    if not m:
        return None
    return m.group(1), m.group(2), int(m.group(3)), int(m.group(4))


# --------------------------------------------------------------------------
# Names and files


class Names:
    """Seed-chosen identifiers: one site prefix per workload run."""

    _SITES = ("bay", "aisle", "dock", "rack", "lane", "zone", "hall", "yard")

    def __init__(self, rng: random.Random):
        self.site = f"{rng.choice(self._SITES)}{rng.randrange(100)}"

    def __call__(self, base: str) -> str:
        return f"{self.site}_{base}"


def constraint_xml(block: str, inputs: list[str], outputs: list[str],
                   rows: list[tuple[dict, dict]], states: list[str] = (),
                   assertion: Optional[tuple] = None, mode: str = "generate") -> str:
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f"<constraintList block={quoteattr(block)} mode={quoteattr(mode)}>",
           "  <interface>"]
    for names, code in ((inputs, "in"), (outputs, "out"), (states, "state")):
        out += [f'    <var name={quoteattr(n)} dir="{code}" type="BOOL"/>'
                for n in names]
    out.append("  </interface>")
    if rows:
        out.append("  <truthTable>")
        for cells_in, cells_out in rows:
            text_in = ";".join(f"{n}={int(v)}" for n, v in cells_in.items())
            text_out = ";".join(f"{n}={int(v)}" for n, v in cells_out.items())
            out.append(f"    <row in={quoteattr(text_in)} out={quoteattr(text_out)}/>")
        out.append("  </truthTable>")
    if assertion is not None:
        out.append(f"  <assertion expr={quoteattr(orc.format_st(assertion))}/>")
    out.append("</constraintList>")
    return "\n".join(out) + "\n"


def full_table(inputs: list[str], rule: Callable[[dict], dict]) -> list[tuple[dict, dict]]:
    return [(point, rule(point)) for point in orc.all_points(inputs)]


# --------------------------------------------------------------------------
# Checks shared by the combinational ops


def _read_written(outcome: Outcome, lang: str) -> orc.Block:
    if outcome.written is None:
        raise orc.OracleError("no output file written")
    return orc.read_block(outcome.written.decode("utf-8"), lang)


def check_block_op(op: str, lang: str, iface: orc.Block,
                   want: Callable[[dict], dict],
                   slots: Optional[Callable[[], int]] = None,
                   max_slots: Optional[int] = None,
                   original: Optional[orc.Block] = None) -> Callable[[Outcome], Optional[str]]:
    """Exit 0, one summary line, a written block with the expected
    interface whose outputs equal `want` on every input pattern, and a
    slot count that the written block itself bears out.  The printed count
    is the whole block's, or with `original` given (repair, extend) that
    of the outputs that differ from the original's.  It must equal
    `slots()` (proved minimal, computed on first use), and the written
    block may have at most `max_slots`."""
    minimum: list[int] = []

    def check(outcome: Outcome) -> Optional[str]:
        if outcome.rc != 0:
            return f"exit code {outcome.rc}: {outcome.stdout.strip()}"
        line = summary(outcome.stdout)
        if line is None or line[0] != op:
            return f"unexpected output {outcome.stdout.strip()!r}"
        try:
            block = _read_written(outcome, lang)
        except (orc.OracleError, UnicodeDecodeError) as exc:
            return f"unreadable block: {exc}"
        if not orc.same_interface(block, iface):
            return "written block has another interface"
        wrong = orc.check_function(block, want)
        if wrong is not None:
            return wrong
        before = dict(original.body) if original is not None else {}
        size = sum(orc.slot_count(e) for _, e in block.body)
        counted = sum(orc.slot_count(e) for t, e in block.body if before.get(t) != e)
        if counted != line[2]:
            return f"printed slots {line[2]}, the written block has {counted}"
        if slots is not None:
            if not minimum:
                minimum.append(slots())
            if line[2] != minimum[0]:
                return f"slots {line[2]}, minimum is {minimum[0]}"
        if max_slots is not None and size > max_slots:
            return f"written block has {size} slots, the original {max_slots}"
        return None

    return check


def _iface(name: str, inputs: list[str], outputs: list[str]) -> orc.Block:
    decls = tuple((n, "in") for n in inputs) + tuple((n, "out") for n in outputs)
    return orc.Block(name, decls, ())


# --------------------------------------------------------------------------
# Warehouse tables (synth-small, synth-light)


def _row_rule(slots: list[str], magnets: dict[int, str]) -> Callable[[dict], dict]:
    def rule(point: dict) -> dict:
        occupied = [point[s] for s in slots]
        return {name: orc.magnet_rule(occupied, k) for k, name in magnets.items()}
    return rule


def _min_slots_total(inputs: list[str], rule: Callable[[dict], dict]) -> int:
    total = 0
    for output in rule(dict.fromkeys(inputs, False)):
        total += orc.min_slots(
            lambda bits, o=output: rule(dict(zip(inputs, bits)))[o], len(inputs))
    return total


def _synth_entries(files: dict, key: str, block: str, inputs: list[str],
                   outputs: list[str], rule: Callable[[dict], dict], lang: str,
                   seeds: range) -> list[Entry]:
    xml = f"in/{key}.xml"
    files[xml] = constraint_xml(block, inputs, outputs, full_table(inputs, rule))
    out = f"out/{key}.{lang}"
    check = check_block_op("synth", lang, _iface(block, inputs, outputs), rule,
                           slots=lambda: _min_slots_total(inputs, rule))
    return [Entry(key, "synth", ["synth", "--constraints", xml, "--out", out,
                                 "--lang", lang, "--seed", str(seed)], out, check)
            for seed in seeds]


SMALL_SEEDS = range(4)
# Signal-light seeds 0-8 take 4 s to 40 s each.  Seeds 2 and 6 (about 8 s
# and 4 s) fit two whole passes in a 20 s run, so each op is timed twice.
LIGHT_SEEDS = (2, 6)
EDIT_SEEDS = range(2)


def synth_small(names: Names) -> Workload:
    """Magnet and row full tables: many short CEGIS runs."""
    work = Workload()
    slots = [names(f"s{i}") for i in range(1, 5)]
    tables = []
    for k in (1, 2, 3):
        magnet = {k: names(f"m{k}")}
        tables.append(_synth_entries(work.files, f"magnet{k}", names(f"magnet{k}"),
                                     slots, [magnet[k]], _row_rule(slots, magnet),
                                     "st", SMALL_SEEDS))
    row = {k: names(f"m{k}") for k in (1, 2, 3)}
    tables.append(_synth_entries(work.files, "row", names("row"), slots,
                                 list(row.values()), _row_rule(slots, row), "il",
                                 SMALL_SEEDS))
    work.catalogue = [entry for by_seed in zip(*tables) for entry in by_seed]
    return work


def synth_light(names: Names) -> Workload:
    """The 8-input signal-light table: few long, search-bound CEGIS runs."""
    work = Workload()
    flags = [names(f"up{i}") for i in range(1, 5)] + \
        [names(f"low{i}") for i in range(1, 5)]
    lamp = names("lamp")

    def rule(point: dict) -> dict:
        return {lamp: orc.signal_light_rule([point[f] for f in flags])}

    work.catalogue = _synth_entries(work.files, "light", names("signal_light"),
                                    flags, [lamp], rule, "st", LIGHT_SEEDS)
    return work


# --------------------------------------------------------------------------
# Minimal-edit ops (edit)

# Correct row: m1 = s1 s2 + !s3, m2 = s2 s3 + !s4, m3 = s3 s4.
_ROW = {1: ("or", ("and", "s1", "s2"), ("not", "s3")),
        2: ("or", ("and", "s2", "s3"), ("not", "s4")),
        3: ("and", "s3", "s4")}

# Planted faults: each replaces some magnets' expressions.
_REPAIRS = {
    "op": {2: ("or", ("or", "s2", "s3"), ("not", "s4"))},
    "negation": {3: ("and", "s3", ("not", "s4"))},
    "operand": {1: ("or", ("and", "s1", "s3"), ("not", "s3"))},
    "two": {1: ("or", ("or", "s1", "s2"), ("not", "s3")),
            2: ("or", ("and", "s2", "s3"), "s4")},
}

# Bloated but equivalent rows.
_BLOATED = {
    "tautology": {1: ("and", _ROW[1], ("or", "s4", ("not", "s4"))),
                  2: ("or", ("not", ("not", ("and", "s2", "s3"))), ("not", "s4")),
                  3: ("and", ("and", "s3", "s4"), "s3")},
    "expanded": {1: ("or", ("or", ("and", ("and", "s1", "s2"), "s3"),
                             ("and", ("and", "s1", "s2"), ("not", "s3"))),
                       ("not", "s3")),
                 2: ("not", ("and", ("not", ("and", "s2", "s3")), "s4")),
                 3: ("and", ("xor", "s3", False), ("or", "s4", False))},
}

# Override rows added to a correct block: (magnets, inputs, outputs).
_EXTENDS = {
    "row_s4": ((1, 2, 3), {"s4": 1}, {3: 0}),
    "row_s1": ((1, 2, 3), {"s1": 0}, {1: 0}),
    "row_s1s2": ((1, 2, 3), {"s1": 1, "s2": 1}, {1: 0}),
    "row_s2": ((1, 2, 3), {"s2": 0}, {2: 0}),
    "row_s3": ((1, 2, 3), {"s3": 0}, {3: 1}),
    "magnet_s1": ((2,), {"s1": 1}, {2: 1}),
    "magnet_s1s4": ((2,), {"s1": 0, "s4": 1}, {2: 0}),
}


def _expr(shape, rename: Callable[[str], str]) -> tuple:
    if isinstance(shape, bool):
        return ("c", shape)
    if isinstance(shape, str):
        return var(rename(shape))
    return (shape[0],) + tuple(_expr(s, rename) for s in shape[1:])


def edit(names: Names) -> Workload:
    """Repair, simplify and extend: the minimal-edit search."""
    work = Workload()
    slots = [names(f"s{i}") for i in range(1, 5)]
    row = {k: names(f"m{k}") for k in (1, 2, 3)}
    good = _row_rule(slots, row)
    work.files["in/row_table.xml"] = constraint_xml(
        names("row"), slots, list(row.values()), full_table(slots, good), mode="repair")

    def row_block(key: str, magnets, exprs: dict) -> orc.Block:
        """The input block of op `key`, also written as its input file."""
        decls = tuple((s, "in") for s in slots) + tuple((row[k], "out") for k in magnets)
        body = tuple((row[k], _expr(exprs[k], names)) for k in magnets)
        block = orc.Block(names("row" if len(magnets) > 1 else "magnet"), decls, body)
        work.files[f"in/{key}.st"] = orc.write_st(block)
        return block

    def add(key: str, kind: str, extra: list[str], check) -> None:
        src, out = f"in/{key}.st", f"out/{key}.st"
        work.catalogue += [Entry(key, kind, [kind, "--block", src] + extra +
                                 ["--out", out, "--seed", str(seed)], out, check)
                           for seed in EDIT_SEEDS]

    iface = _iface(names("row"), slots, list(row.values()))
    for fault, changed in _REPAIRS.items():
        key = f"repair_{fault}"
        original = row_block(key, (1, 2, 3), {**_ROW, **changed})
        add(key, "repair", ["--constraints", "in/row_table.xml"],
            check_block_op("repair", "st", iface, good, original=original))
    for style, exprs in _BLOATED.items():
        key = f"simplify_{style}"
        bloated = row_block(key, (1, 2, 3), exprs)
        add(key, "simplify", [],
            check_block_op("simplify", "st", iface, good,
                           slots=lambda: _min_slots_total(slots, good),
                           max_slots=sum(orc.slot_count(e) for _, e in bloated.body)))
    for override, (magnets, cells_in, cells_out) in _EXTENDS.items():
        key = f"extend_{override}"
        outs = {k: row[k] for k in magnets}
        original = row_block(key, magnets, _ROW)
        rows = [({names(n): bool(v) for n, v in cells_in.items()},
                 {row[k]: bool(v) for k, v in cells_out.items()})]
        work.files[f"in/{key}.xml"] = constraint_xml(
            names("row" if len(magnets) > 1 else "magnet"), slots,
            list(outs.values()), rows, mode="extend")
        add(key, "extend", ["--constraints", f"in/{key}.xml"],
            check_block_op("extend", "st",
                           _iface(names("row"), slots, list(outs.values())),
                           _overridden(_row_rule(slots, outs), rows),
                           original=original))
    return work


def _overridden(base: Callable[[dict], dict],
                rows: list[tuple[dict, dict]]) -> Callable[[dict], dict]:
    """New rows win where they fire; elsewhere the original behaviour."""
    def rule(point: dict) -> dict:
        want = base(point)
        for cells_in, cells_out in rows:
            if all(point[n] == v for n, v in cells_in.items()):
                want.update(cells_out)
        return want
    return rule


# --------------------------------------------------------------------------
# Stateful token rings (bmc)


def _ring_names(names: Names, key: str, w: int) -> dict:
    return {"adv": names(f"{key}_adv"), "at0": names(f"{key}_at0"),
            "e0": names(f"{key}_e0"),
            "t": [None] + [names(f"{key}_t{i}") for i in range(1, w)]}


def _tokens(n: dict, w: int) -> list[tuple]:
    return [neg(var(n["e0"]))] + [var(n["t"][i]) for i in range(1, w)]


def _at_most_one(tokens: list[tuple]) -> tuple:
    pairs = [neg(conj(a, b)) for i, a in enumerate(tokens) for b in tokens[i + 1:]]
    expr = pairs[0]
    for p in pairs[1:]:
        expr = conj(expr, p)
    return expr


def token_ring(names: Names, key: str, w: int,
               dup_at: Optional[int] = None) -> tuple[orc.Block, tuple]:
    """A w-position ring passing one token on each `adv`.  State e0 is the
    inverted token bit of position 0, so the all-false start state holds
    one token at 0.  `dup_at=j` plants a fault: position j keeps its token
    when passing it on."""
    n = _ring_names(names, key, w)
    adv = var(n["adv"])
    tok = _tokens(n, w)
    last = names(f"{key}_last")
    body = [(last, tok[w - 1])]
    for i in range(w - 1, 0, -1):
        stay = tok[i] if i == dup_at else conj(tok[i], neg(adv))
        body.append((n["t"][i], disj(stay, conj(tok[i - 1], adv))))
    body.append((n["e0"], neg(disj(conj(tok[0], neg(adv)), conj(var(last), adv)))))
    body.append((n["at0"], neg(var(n["e0"]))))
    decls = ((n["adv"], "in"), (n["at0"], "out"), (n["e0"], "state")) + \
        tuple((n["t"][i], "state") for i in range(1, w)) + ((last, "temp"),)
    return orc.Block(names(key), decls, tuple(body)), _at_most_one(tok)


def arbitrated_ring(names: Names, key: str, w: int,
                    unguarded: Optional[int] = None) -> tuple[orc.Block, tuple]:
    """A ring that re-establishes at most one token from any state: each
    position's candidate token is dropped when a lower position also has
    one.  `unguarded=j` plants a fault: position j skips that arbitration."""
    n = _ring_names(names, key, w)
    adv = var(n["adv"])
    tok = _tokens(n, w)
    cand = [names(f"{key}_c{i}") for i in range(w)]
    seen = [None] + [names(f"{key}_h{i}") for i in range(1, w)]
    body = [(cand[i], disj(conj(tok[i], neg(adv)), conj(tok[i - 1], adv)))
            for i in range(w)]
    body.append((seen[1], var(cand[0])))
    body += [(seen[i], disj(var(seen[i - 1]), var(cand[i - 1]))) for i in range(2, w)]
    body.append((n["e0"], neg(var(cand[0]))))
    for i in range(1, w):
        guarded = var(cand[i]) if i == unguarded else conj(var(cand[i]), neg(var(seen[i])))
        body.append((n["t"][i], guarded))
    body.append((n["at0"], neg(var(n["e0"]))))
    decls = ((n["adv"], "in"), (n["at0"], "out"), (n["e0"], "state")) + \
        tuple((n["t"][i], "state") for i in range(1, w)) + \
        tuple((c, "temp") for c in cand) + tuple((h, "temp") for h in seen[1:])
    return orc.Block(names(key), decls, tuple(body)), _at_most_one(tok)


_CEX_LINE = re.compile(r"^(init|cycle \d+): ?(.*)$")


def _parse_cells(text: str) -> dict[str, bool]:
    cells = {}
    for cell in text.split():
        name, _, value = cell.partition("=")
        cells[name] = value == "1"
    return cells


def check_verify(block: orc.Block, assertion: tuple, cycles: int,
                 symbolic_init: bool) -> Callable[[Outcome], Optional[str]]:
    """The verdict, and for Violated a counterexample that is as short as
    the explicit-state search says and that replays on the reference
    simulator."""
    expected: list = []

    def check(outcome: Outcome) -> Optional[str]:
        if not expected:
            expected.append(orc.shortest_violation(block, assertion, symbolic_init))
        depth = expected[0]
        lines = outcome.stdout.splitlines()
        if depth is None or depth > cycles:
            if outcome.rc != 0 or lines != [f"Verified (bound {cycles})"]:
                return f"expected Verified (bound {cycles}), got {outcome.stdout.strip()!r}"
            return None
        if outcome.rc != 1 or not lines or not lines[-1].startswith("violated: assertion 0:"):
            return f"expected a violation at depth {depth}, got {outcome.stdout.strip()!r}"
        init: dict[str, bool] = {}
        trace = []
        for line in lines[:-1]:
            m = _CEX_LINE.match(line)
            if not m:
                return f"unreadable counterexample line {line!r}"
            if m.group(1) == "init":
                init = _parse_cells(m.group(2))
            else:
                trace.append(_parse_cells(m.group(2)))
        states = block.names("state")
        if sorted(init) != sorted(states) or (not symbolic_init and any(init.values())):
            return f"bad initial state {init}"
        if len(trace) != depth:
            return f"counterexample has {len(trace)} cycles, shortest is {depth}"
        if any(sorted(c) != sorted(block.names("in")) for c in trace):
            return "counterexample cycle lacks inputs"
        if not orc.replay_violation(block, assertion, init, trace):
            return "counterexample does not replay"
        return None

    return check


def check_translate(source: orc.Block, out: str) -> Callable[[Outcome], Optional[str]]:
    def check(outcome: Outcome) -> Optional[str]:
        if outcome.rc != 0 or outcome.stdout.strip() != f"translate: wrote {out} (st -> il)":
            return f"unexpected output {outcome.stdout.strip()!r} (exit {outcome.rc})"
        try:
            block = _read_written(outcome, "il")
        except (orc.OracleError, UnicodeDecodeError) as exc:
            return f"unreadable block: {exc}"
        if not orc.equivalent_cycle(source, block):
            return "translated block behaves differently"
        return None

    return check


# (key, family, width, fault, cycles, symbolic_init); translate ops follow.
_BMC = [
    ("ring6", token_ring, 6, None, 14, False),
    ("ring5", token_ring, 5, None, 12, False),
    ("ring10_dup9", token_ring, 10, 9, 12, False),
    ("ring6_dup5", token_ring, 6, 5, 12, False),
    ("ring6_any", token_ring, 6, None, 6, True),
    ("arb6", arbitrated_ring, 6, None, 6, True),
    ("arb6_skip3", arbitrated_ring, 6, 3, 6, True),
]
_TRANSLATE = ("ring6", "arb6")


def bmc(names: Names) -> Workload:
    """Bounded verification and translation of stateful token rings."""
    work = Workload()
    blocks = {}
    for key, family, w, fault, cycles, symbolic in _BMC:
        block, assertion = family(names, key, w, fault)
        blocks[key] = block
        src, xml = f"in/{key}.st", f"in/{key}.xml"
        work.files[src] = orc.write_st(block)
        work.files[xml] = constraint_xml(
            block.name, block.names("in"), block.names("out"), [],
            states=block.names("state"), assertion=assertion, mode="verify")
        argv = ["verify", "--block", src, "--constraints", xml, "--cycles", str(cycles)]
        if symbolic:
            argv.append("--symbolic-init")
        work.catalogue.append(Entry(key, "verify", argv, None,
                                    check_verify(block, assertion, cycles, symbolic)))
    for key in _TRANSLATE:
        src, out = f"in/{key}.st", f"out/{key}.il"
        argv = ["translate", "--block", src, "--to", "il", "--out", out]
        work.catalogue.append(Entry(f"translate_{key}", "translate", argv, out,
                                    check_translate(blocks[key], out)))
    return work


GENERATORS = {"synth-small": synth_small, "synth-light": synth_light,
              "edit": edit, "bmc": bmc}


def build(workload: str, seed: int) -> Workload:
    """The workload's inputs and op catalogue for a seed."""
    return GENERATORS[workload](Names(random.Random(f"{workload}:{seed}")))
