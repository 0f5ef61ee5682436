"""Reference semantics the benchmark checks the program's outputs against.

Nothing here imports plcsynth.  Written blocks are read back with this
module's own ST and IL readers, evaluated with its own expression evaluator
and scan-cycle simulator, and compared with its own warehouse rules, a
slot lower bound proved by enumeration, and an explicit-state search for
the shortest assertion violation of stateful blocks.

Expressions are tuples: ("v", name), ("c", bool), ("not", e) and
("and" | "or" | "xor", left, right).
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence


class OracleError(Exception):
    """An output the benchmark could not read back or that breaks a rule."""


# --------------------------------------------------------------------------
# Expressions


def var(name: str) -> tuple:
    return ("v", name)


def neg(e: tuple) -> tuple:
    return ("not", e)


def conj(a: tuple, b: tuple) -> tuple:
    return ("and", a, b)


def disj(a: tuple, b: tuple) -> tuple:
    return ("or", a, b)


def evaluate(e: tuple, env: Mapping[str, bool]) -> bool:
    kind = e[0]
    if kind == "v":
        return env[e[1]]
    if kind == "c":
        return e[1]
    if kind == "not":
        return not evaluate(e[1], env)
    a = evaluate(e[1], env)
    b = evaluate(e[2], env)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    return a != b


def format_st(e: tuple) -> str:
    """Fully parenthesized ST text; the reader below accepts it back."""
    kind = e[0]
    if kind == "v":
        return e[1]
    if kind == "c":
        return "TRUE" if e[1] else "FALSE"
    if kind == "not":
        return f"NOT {format_st(e[1])}" if e[1][0] in ("v", "c") \
            else f"NOT ({format_st(e[1])})"
    return f"({format_st(e[1])} {kind.upper()} {format_st(e[2])})"


def slot_count(e: tuple) -> int:
    """Slots of the straight-line encoding of one output expression: every
    distinct operator and constant subterm takes one slot, since a slot's
    result can be read again; variables are free operands except when the
    whole expression is a single variable."""
    if e[0] == "v":
        return 1
    subterms = set()

    def collect(node: tuple) -> None:
        if node[0] != "v" and node not in subterms:
            subterms.add(node)
            for child in node[1:] if node[0] != "c" else ():
                collect(child)

    collect(e)
    return len(subterms)


# --------------------------------------------------------------------------
# Blocks and their readers


@dataclass(frozen=True)
class Block:
    name: str
    decls: tuple[tuple[str, str], ...]  # (name, "in" | "out" | "state" | "temp")
    body: tuple[tuple[str, tuple], ...]

    def names(self, direction: str) -> list[str]:
        return [n for n, d in self.decls if d == direction]


_SECTIONS = {"VAR_INPUT": "in", "VAR_OUTPUT": "out", "VAR": "state",
             "VAR_TEMP": "temp"}
_TOKEN = re.compile(r"\s*(:=|[A-Za-z_][A-Za-z0-9_]*|[():;])")


def _tokens(text: str) -> list[str]:
    out: list[str] = []
    for line in text.splitlines():
        line = line.split("//", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos:].strip() == "":
                break
            m = _TOKEN.match(line, pos)
            if not m:
                raise OracleError(f"unreadable text at {line[pos:]!r}")
            out.append(m.group(1))
            pos = m.end()
    return out


class _Reader:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def take(self, want: Optional[str] = None) -> str:
        tok = self.peek()
        if want is not None and tok != want:
            raise OracleError(f"expected {want!r}, got {tok!r}")
        if not tok:
            raise OracleError("unexpected end of text")
        self.pos += 1
        return tok

    def sections(self) -> list[tuple[str, str]]:
        decls = []
        while self.peek() in _SECTIONS:
            direction = _SECTIONS[self.take()]
            while self.peek() != "END_VAR":
                name = self.take()
                self.take(":")
                self.take("BOOL")
                self.take(";")
                decls.append((name, direction))
            self.take("END_VAR")
        return decls

    # expr := xor (OR xor)*; xor := and (XOR and)*; and := un (AND un)*
    def expr(self) -> tuple:
        e = self._xor()
        while self.peek() == "OR":
            self.take()
            e = ("or", e, self._xor())
        return e

    def _xor(self) -> tuple:
        e = self._and()
        while self.peek() == "XOR":
            self.take()
            e = ("xor", e, self._and())
        return e

    def _and(self) -> tuple:
        e = self._unary()
        while self.peek() == "AND":
            self.take()
            e = ("and", e, self._unary())
        return e

    def _unary(self) -> tuple:
        tok = self.take()
        if tok == "NOT":
            return ("not", self._unary())
        if tok == "(":
            e = self.expr()
            self.take(")")
            return e
        if tok in ("TRUE", "FALSE"):
            return ("c", tok == "TRUE")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise OracleError(f"bad operand {tok!r}")
        return ("v", tok)


def read_st(text: str) -> Block:
    r = _Reader(_tokens(text))
    r.take("FUNCTION_BLOCK")
    name = r.take()
    decls = r.sections()
    r.take("BEGIN")
    body = []
    while r.peek() != "END_FUNCTION_BLOCK":
        target = r.take()
        r.take(":=")
        body.append((target, r.expr()))
        r.take(";")
    r.take("END_FUNCTION_BLOCK")
    if r.peek():
        raise OracleError("text after END_FUNCTION_BLOCK")
    return Block(name, tuple(decls), tuple(body))


_IL_OPS = {"AND": "and", "OR": "or", "XOR": "xor"}


def _il_operand(word: Optional[str]) -> tuple:
    if word is None:
        raise OracleError("missing IL operand")
    if word in ("TRUE", "FALSE"):
        return ("c", word == "TRUE")
    return ("v", word)


def read_il(text: str) -> Block:
    lines = [ln.split("//", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head = lines[0].split()
    if len(head) != 2 or head[0] != "FUNCTION_BLOCK":
        raise OracleError(f"bad IL header {lines[0]!r}")
    i = 1
    section_lines = []
    while i < len(lines) and lines[i].split()[0] in _SECTIONS:
        while True:
            section_lines.append(lines[i])
            i += 1
            if section_lines[-1] == "END_VAR":
                break
    decls = _Reader(_tokens("\n".join(section_lines))).sections()
    body = []
    acc: Optional[tuple] = None
    groups: list[tuple[str, bool, tuple]] = []
    for line in lines[i:]:
        if line == "END_FUNCTION_BLOCK":
            break
        parts = line.split()
        op, arg = parts[0], (parts[1] if len(parts) > 1 else None)
        if op in ("LD", "LDN"):
            acc = _il_operand(arg)
            if op == "LDN":
                acc = ("not", acc)
        elif op == "ST":
            body.append((arg, acc))
        elif op == "NOT":
            acc = ("not", acc)
        elif op == ")":
            kind, negated, saved = groups.pop()
            acc = (kind, saved, ("not", acc) if negated else acc)
        elif op.endswith("("):
            base = op[:-1]
            negated = base.endswith("N") and base[:-1] in _IL_OPS
            kind = _IL_OPS[base[:-1] if negated else base]
            groups.append((kind, negated, acc))
            acc = _il_operand(arg) if arg is not None else None
        else:
            negated = op.endswith("N") and op[:-1] in _IL_OPS
            kind = _IL_OPS.get(op[:-1] if negated else op)
            if kind is None or acc is None:
                raise OracleError(f"bad IL instruction {line!r}")
            operand = _il_operand(arg)
            acc = (kind, acc, ("not", operand) if negated else operand)
    else:
        raise OracleError("IL text lacks END_FUNCTION_BLOCK")
    if groups:
        raise OracleError("unclosed IL group")
    return Block(head[1], tuple(decls), tuple(body))


def read_block(text: str, lang: str) -> Block:
    return read_il(text) if lang == "il" else read_st(text)


def write_st(block: Block) -> str:
    """ST source for a block the benchmark generates as program input."""
    lines = [f"FUNCTION_BLOCK {block.name}"]
    keywords = {d: k for k, d in _SECTIONS.items()}
    for direction in ("in", "out", "state", "temp"):
        names = block.names(direction)
        if names:
            lines.append(keywords[direction])
            lines += [f"  {n} : BOOL;" for n in names]
            lines.append("END_VAR")
    lines.append("BEGIN")
    lines += [f"  {t} := {format_st(e)};" for t, e in block.body]
    lines.append("END_FUNCTION_BLOCK")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Scan-cycle simulation


def run_cycle(block: Block, state: Mapping[str, bool],
              inputs: Mapping[str, bool]) -> dict[str, bool]:
    """Final environment of one scan cycle: inputs, previous state and
    outputs at false, then each statement in order."""
    env = dict(inputs)
    env.update(state)
    for name in block.names("out"):
        env[name] = False
    for target, e in block.body:
        env[target] = evaluate(e, env)
    return env


def all_points(names: Sequence[str]):
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def same_interface(a: Block, b: Block) -> bool:
    def visible(blk: Block):
        return sorted((n, d) for n, d in blk.decls if d != "temp")
    return visible(a) == visible(b)


def equivalent_cycle(a: Block, b: Block) -> bool:
    """One scan cycle of both blocks agrees on outputs and next state for
    every input and state pattern (hence on every trace)."""
    if not same_interface(a, b):
        return False
    visible = a.names("out") + a.names("state")
    for state in all_points(a.names("state")):
        for inputs in all_points(a.names("in")):
            ea = run_cycle(a, state, inputs)
            eb = run_cycle(b, state, inputs)
            if any(ea[n] != eb[n] for n in visible):
                return False
    return True


def check_function(block: Block, want: Callable[[dict], dict]) -> Optional[str]:
    """None when the combinational block's outputs equal `want` on every
    input pattern, else a description of the first disagreement."""
    for inputs in all_points(block.names("in")):
        env = run_cycle(block, {}, inputs)
        for name, value in want(inputs).items():
            if env[name] != value:
                return f"{name} wrong at {inputs}"
    return None


# --------------------------------------------------------------------------
# Warehouse rules


def magnet_rule(occupied: Sequence[bool], k: int) -> bool:
    """Magnet k sits between slots k and k+1 of a four-slot row; it holds
    when both neighbours are occupied or the slot after next is vacant.
    Slots past the row's end count as occupied."""
    occ = list(occupied) + [True, True]
    return (occ[k - 1] and occ[k]) or not occ[k + 1]


def signal_light_rule(flags: Sequence[bool]) -> bool:
    """The lamp lights when any of the row status flags is raised."""
    return any(flags)


# --------------------------------------------------------------------------
# Slot lower bounds


def _truth_table(fn: Callable[[tuple], bool], n: int) -> int:
    table = 0
    for index, bits in enumerate(itertools.product((False, True), repeat=n)):
        if fn(bits):
            table |= 1 << index
    return table


def _essential_inputs(table: int, n: int) -> int:
    count = 0
    for i in range(n):
        stride = 1 << (n - 1 - i)  # itertools.product varies the last name fastest
        for index in range(1 << n):
            if not index & stride and ((table >> index) & 1) != ((table >> (index | stride)) & 1):
                count += 1
                break
    return count


def _one_slot(pool: Sequence[int], n_inputs: int, mask: int) -> set[int]:
    """Functions one more slot can compute from the pool."""
    out = {0, mask}
    out.update(pool[:n_inputs])
    for a in pool:
        out.add(~a & mask)
        for b in pool:
            out.add(a & b)
            out.add(a | b)
            out.add(a ^ b)
    return out


def min_slots(fn: Callable[[tuple], bool], n: int) -> int:
    """Proven lower bound on the slots of any single-output program.

    A program whose output depends on e inputs needs at least e - 1 binary
    slots.  For n <= 4 every program of one or two slots is enumerated, so
    a function outside that set needs three or more."""
    table = _truth_table(fn, n)
    bound = max(1, _essential_inputs(table, n) - 1)
    if n <= 4 and bound < 3:
        mask = (1 << (1 << n)) - 1
        inputs = [_truth_table(lambda bits, i=i: bits[i], n) for i in range(n)]
        first = _one_slot(inputs, n, mask)
        if table in first:
            return 1
        if any(table in _one_slot(inputs + [f], n, mask) for f in first):
            return 2
        return 3
    return bound


# --------------------------------------------------------------------------
# Explicit-state search for assertion violations


def shortest_violation(block: Block, assertion: tuple,
                       symbolic_init: bool) -> Optional[int]:
    """Least number of cycles after which the assertion fails on a cycle's
    final environment, by breadth-first search over states from the
    all-false state, or from every state when symbolic_init; None when no
    reachable cycle fails."""
    states = block.names("state")
    inputs = block.names("in")
    starts = ([tuple(False for _ in states)] if not symbolic_init
              else list(itertools.product((False, True), repeat=len(states))))
    seen = set(starts)
    frontier = deque((start, 0) for start in starts)
    while frontier:
        state, depth = frontier.popleft()
        env_state = dict(zip(states, state))
        for point in all_points(inputs):
            env = run_cycle(block, env_state, point)
            if not evaluate(assertion, env):
                return depth + 1
            nxt = tuple(env[s] for s in states)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
    return None


def replay_violation(block: Block, assertion: tuple, init: dict[str, bool],
                     cycles: Sequence[dict[str, bool]]) -> bool:
    """True when the assertion holds after every cycle but the last and
    fails after the last."""
    state = dict(init)
    for index, inputs in enumerate(cycles):
        env = run_cycle(block, state, inputs)
        holds = evaluate(assertion, env)
        if holds == (index == len(cycles) - 1):
            return False
        state = {s: env[s] for s in block.names("state")}
    return bool(cycles)
