"""Concrete syntax for the two textual block dialects.

Structured Text (ST) is the Pascal-like assignment language; Instruction
List (IL) is the accumulator language with LD/ST and deferred operator
groups, one instruction per line.  Both dialects share one tokenizer
(blanks, tabs and `//` comments) and one parser for the `FUNCTION_BLOCK`
header and its VAR sections; they differ only in the body.  Emission is
canonical and byte-deterministic, and parsing an emitted block yields the
same interface and expression trees back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .blocks import (
    MAX_EXPR_DEPTH, RESERVED_WORDS, And, Block, BlockInterface, BoolExpr,
    Const, Direction, Lang, Not, Or, Statement, TypeCheckError, Var, VarDecl,
    Xor, expr_depth, expr_vars,
)

_SECTION_KEYWORDS = {
    "VAR_INPUT": Direction.INPUT,
    "VAR_OUTPUT": Direction.OUTPUT,
    "VAR": Direction.STATE,
    "VAR_TEMP": Direction.TEMP,
}

_SECTION_FOR_DIRECTION = {d: kw for kw, d in _SECTION_KEYWORDS.items()}


@dataclass(frozen=True)
class SourceSpan:
    """A 1-based line and column in source text and the length of the
    text there."""
    line: int
    column: int
    length: int

    def __post_init__(self):
        if self.line < 1 or self.column < 1:
            raise ValueError("source positions are 1-based")


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{span.line}:{span.column}: {message}{hint}")
        self.span = span
        self.message = message
        self.expected = tuple(expected)


class AccumulatorUndefined(ParseError):
    """A combining or store instruction ran before any load."""


class UnbalancedParen(ParseError):
    """A deferred operator group was closed without being open, or left open."""


# --------------------------------------------------------------------------
# Tokenizer (shared by both dialects)


class _Token(NamedTuple):
    kind: str  # IDENT, KEYWORD, SYMBOL, EOF
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.text)))


# blanks, then an identifier, a symbol or an unexpected character
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|(:=|[():;])|(\S))")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    lines = text.splitlines()
    for line_no, line in enumerate(lines, 1):
        for match in _TOKEN_RE.finditer(line.split("//", 1)[0]):
            word, symbol, stray = match.groups()
            column = match.start(match.lastindex) + 1
            if stray:
                raise ParseError(SourceSpan(line_no, column, 1),
                                 f"unexpected character {stray!r}")
            kind = "SYMBOL" if symbol else "KEYWORD" if word in RESERVED_WORDS else "IDENT"
            tokens.append(_Token(kind, word or symbol, line_no, column))
    tokens.append(_Token("EOF", "", max(1, len(lines)),
                         len(lines[-1]) + 1 if lines else 1))
    return tokens


def _unexpected(tok: _Token, *expected: str) -> ParseError:
    shown = tok.text if tok.kind != "EOF" else "end of input"
    return ParseError(tok.span, f"unexpected {shown!r}", expected=expected)


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # NOTs and open parentheses around the next unary

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, text: str) -> Optional[_Token]:
        tok = self.tokens[self.pos]
        if tok.text != text:  # `text` is never empty, so never EOF's
            return None
        self.pos += 1
        return tok

    def expect(self, text: str, what: Optional[str] = None) -> _Token:
        tok = self.accept(text)
        if tok is None:
            raise _unexpected(self.peek(), what or repr(text))
        return tok

    def take_line(self) -> list[_Token]:
        """The next token and the ones after it on its source line."""
        start, tokens = self.pos, self.tokens
        line = tokens[start].line
        while tokens[self.pos].kind != "EOF" and tokens[self.pos].line == line:
            self.pos += 1
        return tokens[start:self.pos]

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise _unexpected(tok, what)
        return self.next()


# --------------------------------------------------------------------------
# Expression grammar: expr := unary (binop unary)*, by precedence climbing
#                       over `_BINARY`; every binary operator is left-associative
#                     unary := NOT unary | ( expr ) | TRUE | FALSE | ident

# the binary operators by their ST keyword, loosest first; their precedence,
# their printed names and their IL mnemonics are read off this table
_BINARY = {"OR": Or, "XOR": Xor, "AND": And}
_PRECEDENCE = {op: level for level, op in enumerate([*_BINARY.values(), Not], 1)}


def _parse_expr(ts: _TokenStream, min_level: int = 1) -> BoolExpr:
    """The longest expression whose binary operators all bind at least as
    tightly as `min_level`."""
    expr = _parse_unary(ts)
    while (op := _BINARY.get(ts.peek().text)) and _PRECEDENCE[op] >= min_level:
        ts.next()
        expr = op(expr, _parse_expr(ts, _PRECEDENCE[op] + 1))
    return expr


def _parse_unary(ts: _TokenStream) -> BoolExpr:
    tok = ts.accept("NOT") or ts.accept("(")
    if tok:
        ts.nesting += 1  # each level recurses: refuse deep ones before the stack does
        if ts.nesting > MAX_EXPR_DEPTH:
            raise ParseError(tok.span, "expression too deep")
        expr = Not(_parse_unary(ts)) if tok.text == "NOT" else _parse_expr(ts)
        if tok.text == "(":
            ts.expect(")")
        ts.nesting -= 1
        return expr
    if ts.accept("TRUE"):
        return Const(True)
    if ts.accept("FALSE"):
        return Const(False)
    tok = ts.peek()
    if tok.kind == "IDENT":
        ts.next()
        return Var(tok.text)
    raise _unexpected(tok, "NOT", "(", "TRUE", "FALSE", "identifier")


def parse_expression(text: str, interface: Optional[BlockInterface] = None) -> BoolExpr:
    """Parse a standalone ST expression; type-check it when an interface is given."""
    ts = _TokenStream(_tokenize(text))
    expr = _parse_expr(ts)
    tok = ts.peek()
    if tok.kind != "EOF":
        raise ParseError(tok.span, f"unexpected {tok.text!r} after expression")
    if expr_depth(expr) > MAX_EXPR_DEPTH:
        raise ParseError(SourceSpan(1, 1, 1), "expression too deep")
    if interface is not None:
        for name in expr_vars(expr):
            if name not in interface:
                raise TypeCheckError(f"undeclared variable '{name}'")
    return expr


# --------------------------------------------------------------------------
# Shared by both dialects: the header, statements and the block's end


def _parse_header(ts: _TokenStream) -> tuple[str, BlockInterface]:
    """`FUNCTION_BLOCK name` and the VAR sections that follow it."""
    ts.expect("FUNCTION_BLOCK", "'FUNCTION_BLOCK'")
    name = ts.expect_ident("block name").text
    decls: list[VarDecl] = []
    while ts.peek().text in _SECTION_KEYWORDS:
        direction = _SECTION_KEYWORDS[ts.next().text]
        while not ts.accept("END_VAR"):
            name_tok = ts.expect_ident("variable name or END_VAR")
            ts.expect(":")
            ts.expect("BOOL", "'BOOL'")
            ts.expect(";")
            try:
                decls.append(VarDecl(name_tok.text, direction))
            except TypeCheckError as exc:
                raise ParseError(name_tok.span, str(exc)) from None
    try:
        return name, BlockInterface(tuple(decls))
    except TypeCheckError as exc:
        raise ParseError(ts.peek().span, str(exc)) from None


def _statement(target: _Token, rhs: BoolExpr) -> Statement:
    if expr_depth(rhs) > MAX_EXPR_DEPTH:
        raise ParseError(target.span, "expression too deep")
    return Statement(target.text, rhs)


def _finish(ts: _TokenStream, name: str, interface: BlockInterface,
            body: list[Statement], lang: Lang) -> Block:
    """The block, once END_FUNCTION_BLOCK has been read and nothing follows."""
    trailing = ts.peek()
    if trailing.kind != "EOF":
        raise ParseError(trailing.span, f"unexpected {trailing.text!r} after block")
    return Block(name, interface, tuple(body), lang)


# --------------------------------------------------------------------------
# Structured Text


def parse_st(text: str) -> Block:
    """Parse a FUNCTION_BLOCK in the ST subset into a type-checked Block."""
    ts = _TokenStream(_tokenize(text))
    name, interface = _parse_header(ts)
    ts.expect("BEGIN", "'BEGIN'")
    body: list[Statement] = []
    while not ts.accept("END_FUNCTION_BLOCK"):
        target = ts.expect_ident("assignment target or END_FUNCTION_BLOCK")
        ts.expect(":=")
        rhs = _parse_expr(ts)
        ts.expect(";")
        body.append(_statement(target, rhs))
    return _finish(ts, name, interface, body, Lang.ST)


# --------------------------------------------------------------------------
# Instruction List

# each binary operator by its mnemonic and by the negating one (ANDN: AND NOT)
_IL_COMBINE = {name + suffix: op for name, op in _BINARY.items() for suffix in ("", "N")}


def parse_il(text: str) -> Block:
    """Parse an IL block: the header, then one instruction per line."""
    ts = _TokenStream(_tokenize(text))
    name, interface = _parse_header(ts)
    body: list[Statement] = []
    acc: Optional[BoolExpr] = None
    stack: list[tuple[type, bool, BoolExpr, _Token]] = []
    while not ts.accept("END_FUNCTION_BLOCK"):
        line = ts.take_line()
        if not line:
            raise _unexpected(ts.peek(), "instruction or END_FUNCTION_BLOCK")
        acc = _il_step(line, acc, stack, body)
    if stack:
        raise UnbalancedParen(stack[-1][3].span, "unclosed deferred operator group")
    return _finish(ts, name, interface, body, Lang.IL)


def _operand_expr(operand: Optional[_Token], head: _Token) -> BoolExpr:
    if operand is None:
        raise ParseError(head.span, "missing operand")
    if operand.text in ("TRUE", "FALSE"):
        return Const(operand.text == "TRUE")
    if operand.kind != "IDENT":
        raise ParseError(operand.span, f"bad operand {operand.text!r}")
    return Var(operand.text)


def _il_step(line: list[_Token], acc: Optional[BoolExpr], stack: list,
             body: list[Statement]) -> Optional[BoolExpr]:
    """Run one instruction (the tokens of one line) on the accumulator."""
    head, rest = line[0], line[1:]
    mnemonic = head.text
    deferred = bool(rest) and rest[0].text == "("
    if deferred:
        mnemonic, rest = mnemonic + "(", rest[1:]
    if len(rest) > 1:
        raise _unexpected(rest[1], "end of instruction")
    operand = rest[0] if rest else None
    if mnemonic in ("LD", "LDN"):
        value = _operand_expr(operand, head)
        return Not(value) if mnemonic == "LDN" else value
    if mnemonic in (")", "NOT") and operand is not None:
        raise ParseError(operand.span, f"{mnemonic} takes no operand")
    if mnemonic == ")" and not stack:
        raise UnbalancedParen(head.span, "')' without open group")
    if mnemonic not in (")", "NOT", "ST") and mnemonic.rstrip("(") not in _IL_COMBINE:
        raise ParseError(head.span, f"unknown mnemonic {mnemonic!r}")
    if acc is None:
        raise AccumulatorUndefined(head.span, "empty deferred operator group"
                                   if mnemonic == ")" else f"{mnemonic} before any load")
    if deferred:
        stack.append((_IL_COMBINE[head.text], head.text.endswith("N"), acc, head))
        return None if operand is None else _operand_expr(operand, head)
    if mnemonic == ")":
        op, negate, saved, _ = stack.pop()
        return op(saved, Not(acc) if negate else acc)
    if mnemonic == "NOT":
        return Not(acc)
    if mnemonic == "ST":
        if operand is None or operand.kind != "IDENT":
            raise ParseError(head.span, "ST needs a variable operand")
        body.append(_statement(operand, acc))
        return acc
    value = _operand_expr(operand, head)
    return _IL_COMBINE[mnemonic](acc, Not(value) if mnemonic.endswith("N") else value)


# --------------------------------------------------------------------------
# Emission

_BINARY_NAMES = {op: name for name, op in _BINARY.items()}


def format_expression(expr: BoolExpr) -> str:
    """Canonical ST rendering: single spaces, parentheses only where needed."""
    return _format(expr, 0, False)


def _format(expr: BoolExpr, parent_prec: int, is_right: bool) -> str:
    if isinstance(expr, Const):
        return "TRUE" if expr.value else "FALSE"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Not):
        return "NOT " + _format(expr.operand, _PRECEDENCE[Not], False)
    prec = _PRECEDENCE[type(expr)]
    text = (_format(expr.left, prec, False) + f" {_BINARY_NAMES[type(expr)]} "
            + _format(expr.right, prec, True))
    if prec < parent_prec or (prec == parent_prec and is_right):
        return "(" + text + ")"
    return text


def _emit_sections(interface: BlockInterface) -> list[str]:
    lines: list[str] = []
    current: Optional[Direction] = None
    for decl in interface.decls:
        if decl.direction is not current:
            if current is not None:
                lines.append("END_VAR")
            lines.append(_SECTION_FOR_DIRECTION[decl.direction])
            current = decl.direction
        lines.append(f"  {decl.name} : BOOL;")
    if current is not None:
        lines.append("END_VAR")
    return lines


def _emit_st(block: Block) -> str:
    lines = [f"FUNCTION_BLOCK {block.name}"]
    lines += _emit_sections(block.interface)
    lines.append("BEGIN")
    for stmt in block.body:
        lines.append(f"  {stmt.target} := {format_expression(stmt.rhs)};")
    lines.append("END_FUNCTION_BLOCK")
    return "\n".join(lines) + "\n"


def _compile_il_expr(expr: BoolExpr) -> list[str]:
    """Accumulator instruction sequence whose final value is `expr`.

    The sequence always starts with LD or LDN; non-leaf right operands use
    deferred operator groups, which reproduces the tree exactly on re-parse.
    """
    if isinstance(expr, Var):
        return [f"LD {expr.name}"]
    if isinstance(expr, Const):
        return [f"LD {'TRUE' if expr.value else 'FALSE'}"]
    if isinstance(expr, Not):
        if isinstance(expr.operand, Var):
            return [f"LDN {expr.operand.name}"]
        return _compile_il_expr(expr.operand) + ["NOT"]
    mnemonic = _BINARY_NAMES[type(expr)]
    code = _compile_il_expr(expr.left)
    right = expr.right
    if isinstance(right, Var):
        code.append(f"{mnemonic} {right.name}")
    elif isinstance(right, Const):
        code.append(f"{mnemonic} {'TRUE' if right.value else 'FALSE'}")
    elif isinstance(right, Not) and isinstance(right.operand, Var):
        code.append(f"{mnemonic}N {right.operand.name}")
    else:
        sub = _compile_il_expr(right)
        first = sub[0]
        if first.startswith("LD "):
            code.append(f"{mnemonic}( {first[3:]}")
            code.extend(sub[1:])
        else:
            code.append(f"{mnemonic}(")
            code.extend(sub)
        code.append(")")
    return code


def _emit_il(block: Block) -> str:
    lines = [f"FUNCTION_BLOCK {block.name}"]
    lines += _emit_sections(block.interface)
    for stmt in block.body:
        lines += _compile_il_expr(stmt.rhs)
        lines.append(f"ST {stmt.target}")
    lines.append("END_FUNCTION_BLOCK")
    return "\n".join(lines) + "\n"


def emit(block: Block, target_lang: Lang) -> str:
    """Deterministic canonical source text for the block in the target dialect."""
    target_lang = Lang(target_lang)
    if target_lang is Lang.ST:
        return _emit_st(block)
    return _emit_il(block)


def parse(text: str, lang: Lang) -> Block:
    return parse_st(text) if Lang(lang) is Lang.ST else parse_il(text)


def translate(block: Block, target_lang: Lang) -> Block:
    """Re-express the block in the target dialect; externally visible
    behavior is unchanged (the body is re-derived from the emitted text)."""
    target_lang = Lang(target_lang)
    return parse(emit(block, target_lang), target_lang)
