"""Domain model for Boolean PLC blocks and the reference scan-cycle simulator.

A block is a declared interface plus a straight-line list of Boolean
assignments.  One scan cycle reads the inputs, executes the statements top
to bottom and publishes the outputs and the next state from the final
environment.  The simulator in this module is the ground truth everything
else in the package is checked against.

Every value class of the package (declarations, expressions, blocks,
constraints, results, configs) is an immutable `Record`: its fields are
its annotations, it compares and hashes by its fields, and `replace`
derives a changed copy.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

MAX_IDENTIFIER_LENGTH = 64
MAX_EXPR_DEPTH = 64

T = TypeVar("T")

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


class FrozenInstanceError(AttributeError):
    """A field of a record was assigned or deleted."""


class Record:
    """Base of the immutable value classes.

    A subclass's fields are the annotations of it and its bases, bases
    first, in order; only their names are read.  A class attribute of a
    field's name is its default.  `_fields` names the fields, as does
    `__match_args__` for class patterns, and `_values` gets a record's
    field values as one tuple.  Each class
    declaring fields or a `__post_init__` gets one generated `__init__`
    that takes the fields by position or keyword, sets them and then calls
    `__post_init__`, if the class has one; the others inherit theirs.  Two
    records are equal when they are of the same class with equal fields, a
    record hashes as the tuple of its fields, and its repr is
    `Name(field=value, ...)`.  Assigning or deleting an attribute raises
    FrozenInstanceError; a `__post_init__` that normalizes a field
    rewrites it with `object.__setattr__`.

    `__init__` sets each field with `object.__setattr__`, as the frozen
    dataclass does; a write into `__dict__` would be quicker, but on
    CPython 3.11 reading `__dict__` detaches an instance's attributes from
    its class's shared layout, and every later field read is then slower.
    """

    __slots__ = ()
    _fields = ()
    _values = staticmethod(lambda record: ())

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names: list[str] = []
        for base in reversed(cls.__mro__):
            names.extend(n for n in vars(base).get("__annotations__", ()) if n not in names)
        cls._fields = cls.__match_args__ = tuple(names)
        if len(names) > 1:
            cls._values = attrgetter(*names)
        elif names:
            value = attrgetter(names[0])  # a bare value, not a 1-tuple
            cls._values = staticmethod(lambda record: (value(record),))
        if "__annotations__" not in vars(cls) and "__post_init__" not in vars(cls):
            return
        namespace = {f"_default_{n}": getattr(cls, n) for n in names if hasattr(cls, n)}
        namespace["_setattr"] = object.__setattr__
        params = "".join(f", {n}=_default_{n}" if hasattr(cls, n) else f", {n}" for n in names)
        lines = [f"def __init__(self{params}):",
                 *(f"    _setattr(self, {n!r}, {n})" for n in names)]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        exec("\n".join(lines), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={value!r}"
                            for name, value in zip(self._fields, self._values(self))])
        return f"{self.__class__.__qualname__}({fields})"


R = TypeVar("R", bound=Record)


def replace(record: R, **changes) -> R:
    """A copy of the record with the given fields changed; it is built
    afresh, so its `__post_init__` checks it."""
    fields = {name: getattr(record, name) for name in record._fields}
    return record.__class__(**{**fields, **changes})


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


class VarDecl(Record):
    """One declared variable: name, direction and type (only BOOL)."""
    name: str
    direction: Direction
    dtype: str = "BOOL"

    def __post_init__(self):
        validate_identifier(self.name)
        if self.dtype != "BOOL":
            raise TypeCheckError(f"unsupported type {self.dtype!r} for '{self.name}'")


class BlockInterface(Record):
    """A block's declared variables, in declaration order, names unique."""
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


class BoolExpr(Record):
    """Base of the Boolean expression variants (Const/Var/Not/And/Or/Xor)."""

    __slots__ = ()


class Const(BoolExpr):
    """A Boolean constant."""
    value: bool


class Var(BoolExpr):
    """A reference to a declared variable."""
    name: str


class Not(BoolExpr):
    """Negation of its operand."""
    operand: BoolExpr


class And(BoolExpr):
    """Conjunction of its two operands."""
    left: BoolExpr
    right: BoolExpr


class Or(BoolExpr):
    """Disjunction of its two operands."""
    left: BoolExpr
    right: BoolExpr


class Xor(BoolExpr):
    """Exclusive or of its two operands."""
    left: BoolExpr
    right: BoolExpr


TRUE = Const(True)
FALSE = Const(False)


def fold_expr(expr: BoolExpr | int, var: Callable[[str], T], const: Callable[[bool], T],
              ops: Mapping[type, Callable[..., T]], memo: Optional[dict[int, T]] = None) -> T:
    """Fold an expression DAG bottom-up: `var(name)` and `const(value)`
    give the leaves' values, `ops[Not](a)` and `ops[And|Or|Xor](a, b)` an
    operator node's value from its operands' values.

    Post-order, left operand before right, and iterative, so a chain of any
    depth needs no Python stack.  Each node object is computed once: `memo`
    maps node identity to value, and a caller may pass one to share across
    calls as long as it keeps the nodes behind its keys alive.  A Var
    operand is read in place, so `var` may run more than once per node; an
    int is a value already and is never memoized.  No callback may return
    None.  A node that is not a BoolExpr raises TypeError."""
    if type(expr) is int:
        return expr
    if memo is None:
        memo = {}
    else:
        hit = memo.get(id(expr))
        if hit is not None:
            return hit
    get, negate = memo.get, ops[Not]
    stack = [expr]  # a path down from `expr`, each node an operand of the one below
    while stack:
        node = stack[-1]
        kind = type(node)
        if kind is Var:
            value = var(node.name)
        elif kind is Const:
            value = const(node.value)
        elif kind is Not:
            sub = node.operand
            a = var(sub.name) if (t := type(sub)) is Var else sub if t is int else get(id(sub))
            if a is None:
                stack.append(sub)
                continue
            value = negate(a)
        elif kind is And or kind is Or or kind is Xor:
            sub = node.left
            a = var(sub.name) if (t := type(sub)) is Var else sub if t is int else get(id(sub))
            if a is None:
                stack.append(sub)
                continue
            sub = node.right
            b = var(sub.name) if (t := type(sub)) is Var else sub if t is int else get(id(sub))
            if b is None:
                stack.append(sub)
                continue
            value = ops[kind](a, b)
        else:
            raise TypeError(f"not a BoolExpr: {node!r}")
        memo[id(node)] = value
        stack.pop()
    return memo[id(expr)]


def _one(_) -> int:
    return 1


def _binary(op: Callable) -> dict[type, Callable]:
    return {And: op, Or: op, Xor: op}


_SIZE = {Not: (1).__add__, **_binary(lambda a, b: a + b + 1)}
_DEPTH = {Not: (1).__add__, **_binary(lambda a, b: 1 + max(a, b))}
_VARS = {Not: lambda a: a, **_binary(frozenset.union)}
_REBUILD = {Not: Not, And: And, Or: Or, Xor: Xor}


def expr_size(expr: BoolExpr) -> int:
    """Node count of the expression as a tree: a shared subterm counts
    once per path to it, but is computed once."""
    return fold_expr(expr, _one, _one, _SIZE)


def expr_depth(expr: BoolExpr) -> int:
    """Levels of the expression, 1 for a leaf."""
    return fold_expr(expr, _one, _one, _DEPTH)


def expr_vars(expr: BoolExpr) -> set[str]:
    """Names of all variables occurring in the expression."""
    return set(fold_expr(expr, lambda name: frozenset((name,)), lambda _: frozenset(), _VARS))


def rename_vars(expr: BoolExpr, mapping: Mapping[str, str]) -> BoolExpr:
    return fold_expr(expr, lambda name: Var(mapping.get(name, name)), Const, _REBUILD)


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


class Statement(Record):
    """The assignment `target := rhs`."""
    target: str
    rhs: BoolExpr


class Block(Record):
    """A function block: interface, straight-line body run once per scan
    cycle, and the dialect it is written in."""
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


class CycleResult(Record):
    """One scan cycle of a simulation: its inputs, its outputs and the
    state after it."""
    inputs: Assignment
    outputs: Assignment
    state_after: Assignment


class Trace(Record):
    """The scan cycles of one simulation, in order."""
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
