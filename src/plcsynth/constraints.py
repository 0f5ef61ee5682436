"""Constraint lists: the user-facing block specifications.

A constraint list pairs a block interface with truth-table rows,
cause-and-effect columns and free assertions, plus the requested mode.
This module persists lists as XML, compiles them into the uniform
guard/value obligation form used by the engine, words compiled clauses
for messages and instantiates templates by renaming.  Whether a list
contradicts itself is asked of the compiled spec (`engine.check`).
"""

from __future__ import annotations

import xml.parsers.expat
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from pathlib import Path
from typing import Mapping, Optional, Union
from xml.sax.saxutils import quoteattr

from .blocks import (
    And, BlockInterface, BoolExpr, Const, Direction, Not, Or, TypeCheckError,
    Var, VarDecl, expr_vars, rename_vars, validate_identifier,
)
from .lang import format_expression, parse_expression

# Truth-table cell: True, False, or None for don't-care.
TriValue = Optional[bool]


class Mode(str, Enum):
    GENERATE = "generate"
    VERIFY = "verify"
    REPAIR = "repair"
    SIMPLIFY = "simplify"
    EXTEND = "extend"
    TRANSLATE = "translate"


class Combinator(str, Enum):
    ANY = "any"
    ALL = "all"


class SchemaError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class RenameCollision(Exception):
    pass


class MissingRenameTarget(Exception):
    pass


@dataclass(frozen=True)
class TruthTableRow:
    inputs: dict[str, TriValue]
    outputs: dict[str, TriValue]


@dataclass(frozen=True)
class CauseEffectColumn:
    output: str
    combinator: Combinator
    cells: dict[str, bool]  # input name -> negated?


@dataclass(frozen=True)
class Assertion:
    expr: BoolExpr


Constraint = Union[TruthTableRow, CauseEffectColumn, Assertion]


@dataclass(frozen=True)
class ConstraintList:
    block_name: str
    mode: Mode
    interface: BlockInterface
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))


def validate_constraint_list(cl: ConstraintList) -> None:
    """Check every constraint against the interface; raises TypeCheckError."""
    validate_identifier(cl.block_name)
    iface = cl.interface
    inputs = set(iface.inputs)
    outputs = set(iface.outputs)
    if iface.temps:
        raise TypeCheckError("constraint-list interfaces cannot declare temps")
    for index, constraint in enumerate(cl.constraints):
        where = f"constraint {index}"
        if isinstance(constraint, TruthTableRow):
            for name in constraint.inputs:
                if name not in inputs:
                    raise TypeCheckError(f"{where}: '{name}' is not an input")
            for name in constraint.outputs:
                if name not in outputs:
                    raise TypeCheckError(f"{where}: '{name}' is not an output")
            if not any(v is not None for v in constraint.outputs.values()):
                raise TypeCheckError(f"{where}: row constrains no output")
        elif isinstance(constraint, CauseEffectColumn):
            if constraint.output not in outputs:
                raise TypeCheckError(f"{where}: '{constraint.output}' is not an output")
            if not constraint.cells:
                raise TypeCheckError(f"{where}: no marked cause cells")
            for name in constraint.cells:
                if name not in inputs:
                    raise TypeCheckError(f"{where}: '{name}' is not an input")
        elif isinstance(constraint, Assertion):
            for name in expr_vars(constraint.expr):
                if name not in iface:
                    raise TypeCheckError(f"{where}: undeclared variable '{name}'")
        else:
            raise TypeCheckError(f"{where}: unknown constraint kind {constraint!r}")


# --------------------------------------------------------------------------
# Compilation into the uniform obligation form


@dataclass(frozen=True)
class ObligationClause:
    """Implication: whenever `guard` holds over the inputs, the output
    named by the enclosing map must equal `value`."""
    guard: BoolExpr
    value: bool
    origin: int  # index into the source constraint list


@dataclass(frozen=True)
class AssertionClause:
    expr: BoolExpr
    origin: int


@dataclass(frozen=True)
class SpecFormula:
    interface: BlockInterface
    obligations: dict[str, tuple[ObligationClause, ...]]
    assertions: tuple[AssertionClause, ...]


def describe_obligation(output: str, clause: ObligationClause) -> str:
    want = "1" if clause.value else "0"
    return (f"constraint {clause.origin}: {output} = {want} "
            f"when {format_expression(clause.guard)}")


def describe_assertion(clause: AssertionClause) -> str:
    return f"assertion {clause.origin}: {format_expression(clause.expr)}"


def _cell_literal(name: str, value: bool) -> BoolExpr:
    return Var(name) if value else Not(Var(name))


def compile_spec(cl: ConstraintList) -> SpecFormula:
    """Lower rows and cause/effect columns to per-output implication
    clauses; assertions pass through unchanged."""
    validate_constraint_list(cl)
    obligations: dict[str, list[ObligationClause]] = {}
    assertions: list[AssertionClause] = []
    for index, constraint in enumerate(cl.constraints):
        if isinstance(constraint, TruthTableRow):
            cells = [_cell_literal(n, v) for n, v in constraint.inputs.items()
                     if v is not None]
            guard = reduce(And, cells) if cells else Const(True)
            for output, value in constraint.outputs.items():
                if value is None:
                    continue
                obligations.setdefault(output, []).append(
                    ObligationClause(guard, value, index))
        elif isinstance(constraint, CauseEffectColumn):
            combine = Or if constraint.combinator is Combinator.ANY else And
            expr = reduce(combine, (_cell_literal(n, not negated)
                                    for n, negated in constraint.cells.items()))
            clauses = obligations.setdefault(constraint.output, [])
            clauses.append(ObligationClause(expr, True, index))
            clauses.append(ObligationClause(Not(expr), False, index))
        else:
            assertions.append(AssertionClause(constraint.expr, index))
    return SpecFormula(cl.interface,
                       {k: tuple(v) for k, v in obligations.items()},
                       tuple(assertions))


# --------------------------------------------------------------------------
# Templates


def instantiate_template(template: ConstraintList,
                         renaming: Mapping[str, str]) -> ConstraintList:
    """Rename interface variables throughout the list.

    The renaming must map existing names injectively; unmapped names are
    kept and must not collide with renamed ones.
    """
    iface = template.interface
    for old in renaming:
        if old not in iface:
            raise MissingRenameTarget(f"'{old}' is not declared in the template")
    new_names = [renaming.get(d.name, d.name) for d in iface.decls]
    if len(set(new_names)) != len(new_names):
        dupes = sorted({n for n in new_names if new_names.count(n) > 1})
        raise RenameCollision(f"renamed interface collides on {dupes}")
    mapping = dict(renaming)

    def rn(name: str) -> str:
        return mapping.get(name, name)

    decls = tuple(VarDecl(rn(d.name), d.direction, d.dtype) for d in iface.decls)
    constraints: list[Constraint] = []
    for constraint in template.constraints:
        if isinstance(constraint, TruthTableRow):
            constraints.append(TruthTableRow(
                {rn(n): v for n, v in constraint.inputs.items()},
                {rn(n): v for n, v in constraint.outputs.items()}))
        elif isinstance(constraint, CauseEffectColumn):
            constraints.append(CauseEffectColumn(
                rn(constraint.output), constraint.combinator,
                {rn(n): neg for n, neg in constraint.cells.items()}))
        else:
            constraints.append(Assertion(rename_vars(constraint.expr, mapping)))
    result = ConstraintList(rn(template.block_name), template.mode,
                            BlockInterface(decls), tuple(constraints))
    validate_constraint_list(result)
    return result


# --------------------------------------------------------------------------
# XML persistence
#
# <constraintList block="NAME" mode="...">
#   <interface> <var name="ID" dir="in|out|state" type="BOOL"/>* </interface>
#   <truthTable> <row in="a=1;b=0;c=-" out="y=1;z=-"/>* </truthTable>?
#   <causeEffect output="ID" combinator="any|all"> <cause .../>+ </causeEffect>*
#   <assertion expr="ST-EXPRESSION"/>*
# </constraintList>

_DIR_CODES = {"in": Direction.INPUT, "out": Direction.OUTPUT, "state": Direction.STATE}
_CODES_FOR_DIR = {d: c for c, d in _DIR_CODES.items()}


@dataclass
class _Element:
    name: str
    attrs: dict[str, str]
    line: int
    children: list["_Element"]


def _parse_xml(text: str) -> _Element:
    parser = xml.parsers.expat.ParserCreate()
    root: list[_Element] = []
    stack: list[_Element] = []

    def start(name, attrs):
        element = _Element(name, dict(attrs), parser.CurrentLineNumber, [])
        if stack:
            stack[-1].children.append(element)
        else:
            root.append(element)
        stack.append(element)

    def end(name):
        stack.pop()

    def chardata(data):
        if data.strip():
            raise SchemaError(parser.CurrentLineNumber,
                              f"unexpected text content {data.strip()!r}")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chardata
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        raise SchemaError(exc.lineno or 1, f"malformed XML: {exc}") from None
    return root[0]


def _require_attrs(element: _Element, required: tuple[str, ...],
                   optional: tuple[str, ...] = ()) -> None:
    for name in required:
        if name not in element.attrs:
            raise SchemaError(element.line,
                              f"<{element.name}> missing attribute '{name}'")
    for name in element.attrs:
        if name not in required and name not in optional:
            raise SchemaError(element.line,
                              f"<{element.name}> has unknown attribute '{name}'")


def _parse_cells(text: str, line: int) -> dict[str, TriValue]:
    cells: dict[str, TriValue] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or value not in ("0", "1", "-"):
            raise SchemaError(line, f"malformed cell {chunk!r} (want name=0|1|-)")
        if name in cells:
            raise SchemaError(line, f"duplicate cell for '{name}'")
        cells[name] = None if value == "-" else value == "1"
    return cells


def _load_interface(element: _Element) -> BlockInterface:
    _require_attrs(element, ())
    decls = []
    for child in element.children:
        if child.name != "var":
            raise SchemaError(child.line, f"unknown element <{child.name}> in <interface>")
        _require_attrs(child, ("name", "dir", "type"))
        if child.children:
            raise SchemaError(child.line, "<var> cannot have children")
        if child.attrs["type"] != "BOOL":
            raise SchemaError(child.line, f"unsupported type {child.attrs['type']!r}")
        direction = _DIR_CODES.get(child.attrs["dir"])
        if direction is None:
            raise SchemaError(child.line, f"bad dir {child.attrs['dir']!r}")
        try:
            decls.append(VarDecl(child.attrs["name"], direction))
        except TypeCheckError as exc:
            raise SchemaError(child.line, str(exc)) from None
    try:
        return BlockInterface(tuple(decls))
    except TypeCheckError as exc:
        raise SchemaError(element.line, str(exc)) from None


def loads_constraints(text: str) -> ConstraintList:
    root = _parse_xml(text)
    if root.name != "constraintList":
        raise SchemaError(root.line, f"expected <constraintList>, got <{root.name}>")
    _require_attrs(root, ("block", "mode"))
    try:
        mode = Mode(root.attrs["mode"])
    except ValueError:
        raise SchemaError(root.line, f"bad mode {root.attrs['mode']!r}") from None

    children = list(root.children)
    if not children or children[0].name != "interface":
        raise SchemaError(root.line, "<interface> must be the first element")
    interface = _load_interface(children[0])

    constraints: list[Constraint] = []
    # schema order: truthTable? causeEffect* assertion*
    stage = 0
    seen_table = False
    for child in children[1:]:
        if child.name == "truthTable":
            if seen_table or stage > 0:
                raise SchemaError(child.line, "misplaced <truthTable>")
            seen_table = True
            _require_attrs(child, ())
            for row in child.children:
                if row.name != "row":
                    raise SchemaError(row.line, f"unknown element <{row.name}> in <truthTable>")
                _require_attrs(row, ("out",), ("in",))
                if row.children:
                    raise SchemaError(row.line, "<row> cannot have children")
                constraints.append(TruthTableRow(
                    _parse_cells(row.attrs.get("in", ""), row.line),
                    _parse_cells(row.attrs["out"], row.line)))
        elif child.name == "causeEffect":
            if stage > 1:
                raise SchemaError(child.line, "misplaced <causeEffect>")
            stage = 1
            _require_attrs(child, ("output", "combinator"))
            try:
                combinator = Combinator(child.attrs["combinator"])
            except ValueError:
                raise SchemaError(child.line,
                                  f"bad combinator {child.attrs['combinator']!r}") from None
            cells: dict[str, bool] = {}
            for cause in child.children:
                if cause.name != "cause":
                    raise SchemaError(cause.line,
                                      f"unknown element <{cause.name}> in <causeEffect>")
                _require_attrs(cause, ("input", "mark"))
                if cause.attrs["mark"] not in ("x", "n"):
                    raise SchemaError(cause.line, f"bad mark {cause.attrs['mark']!r}")
                if cause.attrs["input"] in cells:
                    raise SchemaError(cause.line,
                                      f"duplicate cause for '{cause.attrs['input']}'")
                cells[cause.attrs["input"]] = cause.attrs["mark"] == "n"
            if not cells:
                raise SchemaError(child.line, "<causeEffect> needs at least one <cause>")
            constraints.append(CauseEffectColumn(child.attrs["output"], combinator, cells))
        elif child.name == "assertion":
            stage = 2
            _require_attrs(child, ("expr",))
            if child.children:
                raise SchemaError(child.line, "<assertion> cannot have children")
            try:
                expr = parse_expression(child.attrs["expr"])
            except Exception as exc:
                raise SchemaError(child.line, f"bad expression: {exc}") from None
            constraints.append(Assertion(expr))
        else:
            raise SchemaError(child.line, f"unknown element <{child.name}>")

    result = ConstraintList(root.attrs["block"], mode, interface, tuple(constraints))
    try:
        validate_constraint_list(result)
    except TypeCheckError as exc:
        raise SchemaError(root.line, str(exc)) from None
    return result


def load_constraints(path) -> ConstraintList:
    text = Path(path).read_text(encoding="utf-8")
    return loads_constraints(text)


def _cells_attr(cells: Mapping[str, TriValue]) -> str:
    return ";".join(f"{name}={'-' if v is None else ('1' if v else '0')}"
                    for name, v in cells.items())


def dumps_constraints(cl: ConstraintList) -> str:
    """Canonical XML text; rows are grouped into one truthTable element,
    then cause/effect columns, then assertions, per the schema order."""
    validate_constraint_list(cl)
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(f"<constraintList block={quoteattr(cl.block_name)} "
               f"mode={quoteattr(cl.mode.value)}>")
    out.append("  <interface>")
    for decl in cl.interface.decls:
        out.append(f"    <var name={quoteattr(decl.name)} "
                   f"dir={quoteattr(_CODES_FOR_DIR[decl.direction])} "
                   f"type={quoteattr(decl.dtype)}/>")
    out.append("  </interface>")
    rows = [c for c in cl.constraints if isinstance(c, TruthTableRow)]
    if rows:
        out.append("  <truthTable>")
        for row in rows:
            attrs = ""
            if row.inputs:
                attrs += f" in={quoteattr(_cells_attr(row.inputs))}"
            attrs += f" out={quoteattr(_cells_attr(row.outputs))}"
            out.append(f"    <row{attrs}/>")
        out.append("  </truthTable>")
    for constraint in cl.constraints:
        if isinstance(constraint, CauseEffectColumn):
            out.append(f"  <causeEffect output={quoteattr(constraint.output)} "
                       f"combinator={quoteattr(constraint.combinator.value)}>")
            for name, negated in constraint.cells.items():
                out.append(f"    <cause input={quoteattr(name)} "
                           f"mark={quoteattr('n' if negated else 'x')}/>")
            out.append("  </causeEffect>")
    for constraint in cl.constraints:
        if isinstance(constraint, Assertion):
            out.append(f"  <assertion expr="
                       f"{quoteattr(format_expression(constraint.expr))}/>")
    out.append("</constraintList>")
    return "\n".join(out) + "\n"


def save_constraints(cl: ConstraintList, path) -> None:
    Path(path).write_text(dumps_constraints(cl), encoding="utf-8")
