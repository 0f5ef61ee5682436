"""Constraint lists: the user-facing block specifications.

A constraint list pairs a block interface with truth-table rows,
cause-and-effect columns and free assertions, plus the requested mode.
Each constraint's index in the list is the number reports give it.
A list checks its constraints against its interface when it is built, as
the package's other records check themselves, so compiling, renaming and
writing take it as checked.  This module compiles lists into the uniform
guard/value obligation form used by the engine, words compiled clauses
for messages and instantiates templates by renaming.  Whether a list
contradicts itself is asked of the compiled spec (`engine.check`).

It also persists lists as XML.  One table, `_SCHEMA`, declares every
element's attributes and children; the reader checks each element
against it as the element opens and closes, so reading and writing only
translate values, the coded ones through `_CODES`.  The schema puts
rows, then columns, then assertions, so only a list in that order is
saved: another would come back renumbered.
"""

from __future__ import annotations

import re
import xml.parsers.expat
from enum import Enum
from functools import reduce
from pathlib import Path
from typing import Mapping, Optional, Union

from .blocks import (
    And, BlockInterface, BoolExpr, Const, Direction, Not, Or, Record,
    TypeCheckError, Var, VarDecl, expr_vars, rename_vars, validate_identifier,
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


class TruthTableRow(Record):
    """Where the non-None input cells hold, each non-None output cell
    gives its output's value."""
    inputs: dict[str, TriValue]
    outputs: dict[str, TriValue]


class CauseEffectColumn(Record):
    """The output equals the OR (combinator any) or AND (all) of its
    marked cause cells, each an input or, when negated, its NOT."""
    output: str
    combinator: Combinator
    cells: dict[str, bool]  # input name -> negated?


class Assertion(Record):
    """An expression over the interface that must hold after every cycle."""
    expr: BoolExpr


Constraint = Union[TruthTableRow, CauseEffectColumn, Assertion]


class ConstraintList(Record):
    """A named constraint list: the op it is for, the interface and the
    constraints in source order, each indexed by its position.  A list
    checks itself when built (`validate_constraint_list`)."""
    block_name: str
    mode: Mode
    interface: BlockInterface
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        validate_constraint_list(self)


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


class ObligationClause(Record):
    """Implication: whenever `guard` holds over the inputs, the output
    named by the enclosing map must equal `value`."""
    guard: BoolExpr
    value: bool
    origin: int  # index into the source constraint list


class AssertionClause(Record):
    """An assertion's expression and its index in the source constraint
    list."""
    expr: BoolExpr
    origin: int


class SpecFormula(Record):
    """A compiled constraint list: its interface, per output the
    obligation clauses, and the assertion clauses, each in source order."""
    interface: BlockInterface
    obligations: dict[str, tuple[ObligationClause, ...]]
    assertions: tuple[AssertionClause, ...]


def describe_clause(output: Optional[str],
                    clause: ObligationClause | AssertionClause) -> str:
    """A clause as reports name it: an obligation of `output`, or an
    assertion when `output` is None."""
    if output is None:
        return f"assertion {clause.origin}: {format_expression(clause.expr)}"
    want = "1" if clause.value else "0"
    return (f"constraint {clause.origin}: {output} = {want} "
            f"when {format_expression(clause.guard)}")


def _cell_literal(name: str, value: bool) -> BoolExpr:
    return Var(name) if value else Not(Var(name))


def compile_spec(cl: ConstraintList) -> SpecFormula:
    """Lower rows and cause/effect columns to per-output implication
    clauses; assertions pass through unchanged.

    A row's guard is `reduce(And, cells)` over its set input cells in row
    order, built from shared nodes: a trie of the rows' cell prefixes
    holds one And node per distinct prefix, over one literal node per
    (input, value).  A full table over n inputs thus holds 2^(n+1) - 4 And
    nodes, not n - 1 per row, and `engine._mask`, which memoizes by node
    identity, computes each prefix's truth table once.  Each guard is `==`
    to, and prints as, the one built from fresh nodes."""
    root: dict = {}  # a cell -> (the guard of the prefix it ends, the trie below it)
    obligations: dict[str, list[ObligationClause]] = {}
    assertions: list[AssertionClause] = []
    for index, constraint in enumerate(cl.constraints):
        if isinstance(constraint, TruthTableRow):
            guard, trie = Const(True), root
            for cell in constraint.inputs.items():
                if cell[1] is not None:
                    if cell not in root:
                        root[cell] = (_cell_literal(*cell), {})
                    if cell not in trie:
                        trie[cell] = (And(guard, root[cell][0]), {})
                    guard, trie = trie[cell]
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
    return ConstraintList(template.block_name, template.mode,
                          BlockInterface(decls), tuple(constraints))


# --------------------------------------------------------------------------
# XML persistence

# The schema, one entry per element: its required attributes, its optional
# attributes and its children in schema order, each child's count marked
# as in a DTD (`?` at most one, `*` any number, `+` at least one, no mark
# exactly one).  "#document" stands for the document around the root.
_SCHEMA = {
    "#document": ((), (), "constraintList"),
    "constraintList": (("block", "mode"), (), "interface truthTable? causeEffect* assertion*"),
    "interface": ((), (), "var*"),
    "var": (("name", "dir", "type"), (), ""),
    "truthTable": ((), (), "row*"),
    "row": (("out",), ("in",), ""),
    "causeEffect": (("output", "combinator"), (), "cause+"),
    "cause": (("input", "mark"), (), ""),
    "assertion": (("expr",), (), ""),
}
# each element's children as a regex over their tags, each tag followed by
# a comma: "interface truthTable?" becomes "(?:interface,) (?:truthTable,)?",
# whose blank the verbose flag ignores
_MODELS = {tag: re.compile(re.sub(r"\w+", r"(?:\g<0>,)", content), re.VERBOSE)
           for tag, (_, _, content) in _SCHEMA.items()}
# the elements that must hold a child: the only ones checked on closing
# without children, which keeps the check off the hot path of leaves
_NEED_CHILDREN = {tag for tag, model in _MODELS.items() if not model.fullmatch("")}

# The coded values, per attribute and for a row's cells: each XML code and
# the value it stands for.
_CODES = {
    "mode": {mode.value: mode for mode in Mode},
    "dir": {"in": Direction.INPUT, "out": Direction.OUTPUT, "state": Direction.STATE},
    "combinator": {combinator.value: combinator for combinator in Combinator},
    "mark": {"x": False, "n": True},  # negated?
    "cell": {"0": False, "1": True, "-": None},
}
_NAMES = {attr: {value: code for code, value in codes.items()}
          for attr, codes in _CODES.items()}


class _Element(Record):
    """One parsed XML element: tag, attributes (coded ones decoded),
    source line and children."""
    name: str
    attrs: dict[str, object]
    line: int
    children: list["_Element"]


def _parse_xml(text: str) -> _Element:
    """The root element, checked against `_SCHEMA` as each element opens
    (its tag and attributes) and closes (its children's order and counts)."""
    parser = xml.parsers.expat.ParserCreate()
    document = _Element("#document", {}, 1, [])
    stack = [document]

    def start(name, attrs):
        line = parser.CurrentLineNumber
        if name not in _SCHEMA:
            raise SchemaError(line, f"unknown element <{name}>")
        required, optional, _ = _SCHEMA[name]
        for attr in required:
            if attr not in attrs:
                raise SchemaError(line, f"<{name}> missing attribute '{attr}'")
        for attr, value in attrs.items():
            if attr not in required and attr not in optional:
                raise SchemaError(line, f"<{name}> has unknown attribute '{attr}'")
            if attr in _CODES:
                if value not in _CODES[attr]:
                    raise SchemaError(line, f"bad {attr} {value!r}")
                attrs[attr] = _CODES[attr][value]
        element = _Element(name, attrs, line, [])
        stack[-1].children.append(element)
        stack.append(element)

    def end(name):
        element = stack.pop()
        if not element.children and name not in _NEED_CHILDREN:
            return
        tags = "".join([child.name + "," for child in element.children])
        if not _MODELS[name].fullmatch(tags):
            # blame the first child past the longest valid prefix, else the element
            matched = _MODELS[name].match(tags)
            rest = element.children[tags.count(",", 0, matched.end() if matched else 0):]
            raise SchemaError((rest + [element])[0].line,
                              f"<{name}> must hold {_SCHEMA[name][2] or 'no elements'}")

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
    end("#document")
    return document.children[0]


def _cells(row: _Element, attr: str) -> dict[str, TriValue]:
    """The cells of a row's `in` or `out` attribute, each `name=0|1|-`."""
    cells: dict[str, TriValue] = {}
    for chunk in filter(str.strip, row.attrs.get(attr, "").split(";")):
        name, _, value = chunk.partition("=")
        name, value = name.strip(), value.strip()
        if value not in _CODES["cell"]:
            raise SchemaError(row.line, f"malformed cell {chunk.strip()!r} (want name=0|1|-)")
        if name in cells:
            raise SchemaError(row.line, f"duplicate cell for '{name}'")
        cells[name] = _CODES["cell"][value]
    return cells


def _at_line(line: int, make, *args):
    """`make(*args)`, with a TypeCheckError raised as a SchemaError at `line`."""
    try:
        return make(*args)
    except TypeCheckError as exc:
        raise SchemaError(line, str(exc)) from None


def loads_constraints(text: str) -> ConstraintList:
    """The constraint list in XML `text`; raises SchemaError with a line."""
    root = _parse_xml(text)
    interface, *sections = root.children
    decls = [_at_line(var.line, VarDecl, var.attrs["name"], var.attrs["dir"], var.attrs["type"])
             for var in interface.children]
    constraints: list[Constraint] = []
    for section in sections:
        if section.name == "truthTable":
            constraints += [TruthTableRow(_cells(row, "in"), _cells(row, "out"))
                            for row in section.children]
        elif section.name == "causeEffect":
            cells: dict[str, bool] = {}
            for cause in section.children:
                if cause.attrs["input"] in cells:
                    raise SchemaError(cause.line,
                                      f"duplicate cause for '{cause.attrs['input']}'")
                cells[cause.attrs["input"]] = cause.attrs["mark"]
            constraints.append(CauseEffectColumn(section.attrs["output"],
                                                 section.attrs["combinator"], cells))
        else:
            try:
                expr = parse_expression(section.attrs["expr"])
            except Exception as exc:
                raise SchemaError(section.line, f"bad expression: {exc}") from None
            constraints.append(Assertion(expr))
    return _at_line(root.line, ConstraintList, root.attrs["block"], root.attrs["mode"],
                    _at_line(interface.line, BlockInterface, tuple(decls)), tuple(constraints))


def load_constraints(path) -> ConstraintList:
    """The constraint list in the XML file at `path`; raises SchemaError."""
    return loads_constraints(Path(path).read_text(encoding="utf-8"))


def _cells_attr(cells: Mapping[str, TriValue]) -> str:
    """Cells as a row's `in` or `out` attribute reads them."""
    return ";".join(f"{name}={_NAMES['cell'][value]}" for name, value in cells.items())


_KINDS = (TruthTableRow, CauseEffectColumn, Assertion)  # in schema order


def dumps_constraints(cl: ConstraintList) -> str:
    """Canonical XML text, one element per line, the constraints in list
    order.  A list's indices are the constraint numbers that reports print,
    and the schema puts rows, then columns, then assertions; so a list out
    of that order, which would come back renumbered, raises TypeCheckError."""
    # imported here: xml.sax.saxutils loads urllib.request, http.client,
    # ssl and email, which no other command needs
    from xml.sax.saxutils import quoteattr

    def lines(tag, attrs, children=()):
        head = tag + "".join(f" {attr}={quoteattr(_NAMES[attr][v] if attr in _NAMES else v)}"
                             for attr, v in attrs.items() if v is not None)
        body = ["  " + line for child in children for line in lines(*child)]
        return [f"<{head}>", *body, f"</{tag}>"] if body else [f"<{head}/>"]

    variables = [("var", {"name": d.name, "dir": d.direction, "type": d.dtype})
                 for d in cl.interface.decls]
    sections: list = [("interface", {}, variables)]
    kinds = [_KINDS.index(type(constraint)) for constraint in cl.constraints]
    for index, constraint in enumerate(cl.constraints):
        if index and kinds[index] < kinds[index - 1]:
            raise TypeCheckError(f"constraint {index}: out of schema order "
                                 "(rows, then cause/effect columns, then assertions)")
        if isinstance(constraint, TruthTableRow):
            if sections[-1][0] != "truthTable":
                sections.append(("truthTable", {}, []))
            sections[-1][2].append(("row", {"in": _cells_attr(constraint.inputs) or None,
                                            "out": _cells_attr(constraint.outputs)}))
        elif isinstance(constraint, CauseEffectColumn):
            sections.append(("causeEffect", {"output": constraint.output,
                                             "combinator": constraint.combinator},
                             [("cause", {"input": name, "mark": negated})
                              for name, negated in constraint.cells.items()]))
        else:
            sections.append(("assertion", {"expr": format_expression(constraint.expr)}))
    text = lines("constraintList", {"block": cl.block_name, "mode": cl.mode}, sections)
    return "\n".join(['<?xml version="1.0" encoding="UTF-8"?>', *text]) + "\n"


def save_constraints(cl: ConstraintList, path) -> None:
    """Write `cl` to the file at `path` as `dumps_constraints` text."""
    Path(path).write_text(dumps_constraints(cl), encoding="utf-8")
