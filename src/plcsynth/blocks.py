"""Domain model for Boolean PLC blocks and the reference scan-cycle simulator.

A block is a declared interface plus a straight-line list of Boolean
assignments.  One scan cycle reads the inputs, executes the statements top
to bottom and publishes the outputs and the next state from the final
environment.  The simulator in this module is the ground truth everything
else in the package is checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

MAX_IDENTIFIER_LENGTH = 64
MAX_EXPR_DEPTH = 64

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Words with a fixed meaning in the textual dialects.  They are rejected as
# identifiers so that every valid block can be printed and re-parsed.
RESERVED_WORDS = frozenset({
    "FUNCTION_BLOCK", "END_FUNCTION_BLOCK",
    "VAR_INPUT", "VAR_OUTPUT", "VAR", "VAR_TEMP", "END_VAR",
    "BEGIN", "NOT", "AND", "OR", "XOR", "TRUE", "FALSE", "BOOL",
})

# A valuation of a subset of the interface variables.
Assignment = dict


class UnboundVariable(Exception):
    """A variable was read that is not bound in the environment."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class UnassignedTemp(Exception):
    """A temp variable was read before any assignment in the cycle."""

    def __init__(self, name: str, cycle: Optional[int] = None):
        where = f" in cycle {cycle}" if cycle is not None else ""
        super().__init__(f"temp variable '{name}' read before assignment{where}")
        self.name = name
        self.cycle = cycle


class TypeCheckError(Exception):
    """A block, expression or constraint does not respect its interface."""


def validate_identifier(text: str) -> str:
    if not text or len(text) > MAX_IDENTIFIER_LENGTH or not _IDENT_RE.match(text):
        raise TypeCheckError(f"invalid identifier {text!r}")
    if text in RESERVED_WORDS:
        raise TypeCheckError(f"identifier {text!r} is a reserved word")
    return text


class Direction(str, Enum):
    INPUT = "input"
    OUTPUT = "output"
    STATE = "state"
    TEMP = "temp"


class Lang(str, Enum):
    ST = "st"
    IL = "il"


@dataclass(frozen=True)
class VarDecl:
    name: str
    direction: Direction
    dtype: str = "BOOL"

    def __post_init__(self):
        validate_identifier(self.name)
        if self.dtype != "BOOL":
            raise TypeCheckError(f"unsupported type {self.dtype!r} for '{self.name}'")


@dataclass(frozen=True)
class BlockInterface:
    decls: tuple[VarDecl, ...]

    def __post_init__(self):
        object.__setattr__(self, "decls", tuple(self.decls))
        seen = set()
        for decl in self.decls:
            if decl.name in seen:
                raise TypeCheckError(f"duplicate declaration of '{decl.name}'")
            seen.add(decl.name)

    def names(self, direction: Optional[Direction] = None) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls
                     if direction is None or d.direction is direction)

    @property
    def inputs(self) -> tuple[str, ...]:
        return self.names(Direction.INPUT)

    @property
    def outputs(self) -> tuple[str, ...]:
        return self.names(Direction.OUTPUT)

    @property
    def state_vars(self) -> tuple[str, ...]:
        return self.names(Direction.STATE)

    @property
    def temps(self) -> tuple[str, ...]:
        return self.names(Direction.TEMP)

    def direction_of(self, name: str) -> Direction:
        for decl in self.decls:
            if decl.name == name:
                return decl.direction
        raise TypeCheckError(f"undeclared variable '{name}'")

    def __contains__(self, name: str) -> bool:
        return any(d.name == name for d in self.decls)


# --------------------------------------------------------------------------
# Boolean expressions


class BoolExpr:
    """Base of the Boolean expression variants (Const/Var/Not/And/Or/Xor)."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(BoolExpr):
    value: bool


@dataclass(frozen=True)
class Var(BoolExpr):
    name: str


@dataclass(frozen=True)
class Not(BoolExpr):
    operand: BoolExpr


@dataclass(frozen=True)
class And(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Or(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Xor(BoolExpr):
    left: BoolExpr
    right: BoolExpr


TRUE = Const(True)
FALSE = Const(False)


def expr_size(expr: BoolExpr) -> int:
    """Node count of the expression tree."""
    if isinstance(expr, (Const, Var)):
        return 1
    if isinstance(expr, Not):
        return 1 + expr_size(expr.operand)
    return 1 + expr_size(expr.left) + expr_size(expr.right)


def expr_depth(expr: BoolExpr) -> int:
    """Levels of the expression, 1 for a leaf.  Iterative, and each node
    object is measured once, so a long chain needs no Python stack and a
    shared subterm (a DAG built by the engine) is not walked per path."""
    depth: dict[int, int] = {}  # by node identity; leaves are 1, not stored
    stack = [(expr, False)]  # (node, whether its operands are measured)
    while stack:
        node, ready = stack.pop()
        if isinstance(node, (Const, Var)) or id(node) in depth:
            continue
        if isinstance(node, Not):
            if ready:
                depth[id(node)] = 1 + depth.get(id(node.operand), 1)
            else:
                stack += ((node, True), (node.operand, False))
        elif ready:
            left, right = depth.get(id(node.left), 1), depth.get(id(node.right), 1)
            depth[id(node)] = 1 + (left if left > right else right)
        else:
            stack += ((node, True), (node.left, False), (node.right, False))
    return depth.get(id(expr), 1)


def expr_vars(expr: BoolExpr) -> set[str]:
    """Names of all variables occurring in the expression."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or, Xor)):
            stack.append(node.left)
            stack.append(node.right)
    return out


def rename_vars(expr: BoolExpr, mapping: Mapping[str, str]) -> BoolExpr:
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return Var(mapping.get(expr.name, expr.name))
    if isinstance(expr, Not):
        return Not(rename_vars(expr.operand, mapping))
    return type(expr)(rename_vars(expr.left, mapping),
                      rename_vars(expr.right, mapping))


def eval_expr(expr: BoolExpr, env: Mapping[str, bool]) -> bool:
    """Evaluate an expression under a total environment for its variables."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise UnboundVariable(expr.name) from None
    if isinstance(expr, Not):
        return not eval_expr(expr.operand, env)
    if isinstance(expr, And):
        return eval_expr(expr.left, env) and eval_expr(expr.right, env)
    if isinstance(expr, Or):
        return eval_expr(expr.left, env) or eval_expr(expr.right, env)
    if isinstance(expr, Xor):
        return eval_expr(expr.left, env) != eval_expr(expr.right, env)
    raise TypeError(f"not a BoolExpr: {expr!r}")


# --------------------------------------------------------------------------
# Blocks


@dataclass(frozen=True)
class Statement:
    target: str
    rhs: BoolExpr


@dataclass(frozen=True)
class Block:
    name: str
    interface: BlockInterface
    body: tuple[Statement, ...]
    lang: Lang = Lang.ST

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        validate_identifier(self.name)
        iface = self.interface
        assigned_temps: set[str] = set()
        for stmt in self.body:
            if stmt.target not in iface:
                raise TypeCheckError(f"assignment to undeclared variable '{stmt.target}'")
            if iface.direction_of(stmt.target) is Direction.INPUT:
                raise TypeCheckError(f"assignment to input variable '{stmt.target}'")
            if expr_depth(stmt.rhs) > MAX_EXPR_DEPTH:
                raise TypeCheckError(f"expression assigned to '{stmt.target}' is too deep")
            for name in expr_vars(stmt.rhs):
                if name not in iface:
                    raise TypeCheckError(f"undeclared variable '{name}'")
                if iface.direction_of(name) is Direction.TEMP and name not in assigned_temps:
                    raise TypeCheckError(
                        f"temp variable '{name}' read before assignment")
            if iface.direction_of(stmt.target) is Direction.TEMP:
                assigned_temps.add(stmt.target)


def default_state(block: Block) -> Assignment:
    """Initial state per the all-false convention."""
    return {name: False for name in block.interface.state_vars}


def _check_covers(given: Mapping[str, bool], names: Sequence[str], what: str) -> None:
    for name in names:
        if name not in given:
            raise UnboundVariable(name)
    for name in given:
        if name not in names:
            raise TypeCheckError(f"unexpected {what} variable '{name}'")


def cycle_environment(block: Block, state: Mapping[str, bool],
                      inputs: Mapping[str, bool]) -> dict[str, bool]:
    """Run one scan cycle and return the final environment.

    The environment starts from the inputs, the previous state and all
    outputs at false; each assignment updates it immediately.  Temps are
    absent until assigned and raise UnassignedTemp when read early.
    """
    iface = block.interface
    _check_covers(inputs, iface.inputs, "input")
    _check_covers(state, iface.state_vars, "state")
    env: dict[str, bool] = dict(inputs)
    env.update(state)
    for name in iface.outputs:
        env[name] = False
    for stmt in block.body:
        try:
            env[stmt.target] = eval_expr(stmt.rhs, env)
        except UnboundVariable as exc:
            if exc.name in iface.temps:
                raise UnassignedTemp(exc.name) from None
            raise
    return env


def run_cycle(block: Block, state: Mapping[str, bool],
              inputs: Mapping[str, bool]) -> tuple[Assignment, Assignment]:
    """One scan cycle: returns (outputs, next_state)."""
    env = cycle_environment(block, state, inputs)
    outputs = {name: env[name] for name in block.interface.outputs}
    next_state = {name: env[name] for name in block.interface.state_vars}
    return outputs, next_state


@dataclass(frozen=True)
class CycleResult:
    inputs: Assignment
    outputs: Assignment
    state_after: Assignment


@dataclass(frozen=True)
class Trace:
    cycles: tuple[CycleResult, ...]


def simulate(block: Block, input_trace: Iterable[Mapping[str, bool]],
             init_state: Optional[Mapping[str, bool]] = None) -> Trace:
    """Fold run_cycle over an input trace; init_state defaults to all-false."""
    state: Assignment = dict(init_state) if init_state is not None else default_state(block)
    _check_covers(state, block.interface.state_vars, "state")
    cycles = []
    for index, inputs in enumerate(input_trace):
        try:
            outputs, state = run_cycle(block, state, inputs)
        except UnassignedTemp as exc:
            raise UnassignedTemp(exc.name, cycle=index) from None
        cycles.append(CycleResult(dict(inputs), outputs, dict(state)))
    return Trace(tuple(cycles))
