"""Recursive descent parser for generator expressions.

Grammar, in precedence order from loosest to tightest:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | "x" | IDENT "(" expr ")" | "(" expr ")"

``^`` is right associative and binds tighter than unary minus, so
``-x^2`` is ``-(x^2)`` and ``2*3^2`` is ``18``.  The only identifiers are
``x`` and the function names ``exp``, ``log``, ``sqrt``; anything else is
a ParseError at the identifier's position.  So is input nested more
than 100 levels deep (parentheses, function calls, unary minus and the
exponents of a ^ chain each add a level) or whose tree would be more
than 200 levels high (a sum of 200 terms is 200 levels high).  Every
ParseError carries the 0-based offset of the offending token (the input
length for premature end of input).
"""

from __future__ import annotations

import re

from ..errors import ParseError
from .ast import Binary, Constant, Expr, Unary, Variable

FUNCTIONS = ("exp", "log", "sqrt")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[-+*/^()])
    """,
    re.VERBOSE,
)

# Bounds that keep arbitrary input from exhausting the Python stack;
# anything legitimate sits far below them.  The parser recurses through
# ``factor`` once per level of nesting (a parenthesis, a function call, a
# unary minus or the exponent of a ^), some five frames a level; every
# walker of the tree it returns recurses once per level of its height.
_MAX_DEPTH = 100
_MAX_HEIGHT = 200


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind == "eof":
            raise ParseError("unexpected end of input", tok.pos)
        if tok.kind != "sym" or tok.text != sym:
            raise ParseError(f"expected {sym!r}", tok.pos)
        return self.advance()

    def _node(self, node: Expr, height: int, tok: _Token):
        """(node, height), a subtree with the number of levels on its
        longest path, refused above _MAX_HEIGHT."""
        if height > _MAX_HEIGHT:
            raise ParseError("expression nested too deeply", tok.pos)
        return node, height

    # Each rule returns (node, height).

    def expr(self):
        node, height = self.term()
        while self.peek().kind == "sym" and self.peek().text in ("+", "-"):
            tok = self.advance()
            right, h = self.term()
            node, height = self._node(Binary(tok.text, node, right), max(height, h) + 1, tok)
        return node, height

    def term(self):
        node, height = self.factor()
        while self.peek().kind == "sym" and self.peek().text in ("*", "/"):
            tok = self.advance()
            right, h = self.factor()
            node, height = self._node(Binary(tok.text, node, right), max(height, h) + 1, tok)
        return node, height

    def factor(self):
        # every recursive descent passes through here: the one guard on
        # nesting, which a failed parse never needs to unwind
        tok = self.peek()
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", tok.pos)
        self.depth += 1
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            operand, h = self.factor()
            node = self._node(Unary("neg", operand), h + 1, tok)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base, height = self.atom()
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "^":
            self.advance()
            exponent, h = self.factor()
            return self._node(Binary("^", base, exponent), max(height, h) + 1, tok)
        return base, height

    def atom(self):
        tok = self.peek()
        if tok.kind == "eof":
            raise ParseError("unexpected end of input", tok.pos)
        if tok.kind == "number":
            self.advance()
            try:
                return Constant(float(tok.text)), 1
            except ValueError:  # a literal past the largest float
                raise ParseError(f"constant {tok.text!r} is not finite", tok.pos) from None
        if tok.kind == "ident":
            if tok.text == "x":
                self.advance()
                return Variable(), 1
            if tok.text in FUNCTIONS:
                self.advance()
                self.expect_sym("(")
                inner, h = self.expr()
                self.expect_sym(")")
                return self._node(Unary(tok.text, inner), h + 1, tok)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            inner = self.expr()
            self.expect_sym(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str) -> Expr:
    """Parse expression text, raising ParseError with a 0-based offset."""
    parser = _Parser(text)
    node, _ = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.pos)
    return node
