"""Recursive-descent parser for polynomial expressions in x and y.

Grammar, where INT is a nonnegative integer literal and INT/INT a rational
literal (there is no general division operator):

    expr := term (('+' | '-') term)*      term := factor ('*' factor)*
    factor := '-' factor | power          power := atom ('^' INT)?
    atom := INT | INT/INT | 'x' | 'y' | '(' expr ')'

So unary minus binds one level above ^, wherever it stands: -y^2, x*-y^2 and
x - -y^2 all negate y^2.  A stacked exponent such as x^2^3 is rejected
(parenthesize the base), and so is implicit multiplication, so that format()
round-trips unambiguously.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .poly import BivarPoly


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_Tok = namedtuple("_Tok", "kind value pos")


# ASCII only: str.isdigit also accepts digits such as '²', which int() rejects,
# and '٣', which int() reads as 3
_DIGITS = "0123456789"


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            toks.append(_Tok("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if name not in ("x", "y"):
                raise ParseError(f"unsupported variable name {name!r}", i)
            toks.append(_Tok("var", name, i))
            i = j
            continue
        if ch in "+-*^()/":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", None, n))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self, kind=None) -> _Tok:
        t = self.toks[self.i]
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.value!r}", t.pos)
        self.i += 1
        return t

    def parse_expr(self) -> BivarPoly:
        acc = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term(self) -> BivarPoly:
        acc = self.parse_factor()
        while True:
            nxt = self.peek()
            if nxt.kind == "*":
                self.take()
                acc = acc * self.parse_factor()
            elif nxt.kind in ("var", "int", "("):
                raise ParseError(
                    "implicit multiplication is not supported; insert '*'", nxt.pos
                )
            else:
                return acc

    def parse_factor(self) -> BivarPoly:
        if self.peek().kind == "-":
            self.take()
            return -self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> BivarPoly:
        base = self.parse_atom()
        if self.peek().kind != "^":
            return base
        pos = self.take().pos
        if self.peek().kind != "int":
            raise ParseError("exponent must be a nonnegative integer literal", pos)
        exp = self.take().value
        if self.peek().kind == "^":
            raise ParseError("stacked exponents on a literal are ambiguous; parenthesize", pos)
        return base**exp

    def parse_atom(self) -> BivarPoly:
        t = self.peek()
        if t.kind == "int":
            self.take()
            # rational literal INT/INT
            if self.peek().kind == "/":
                self.take()
                den = self.take("int")
                if den.value == 0:
                    raise ParseError("zero denominator", den.pos)
                return BivarPoly.const(Fraction(t.value, den.value))
            return BivarPoly.const(t.value)
        if t.kind == "var":
            self.take()
            return BivarPoly.x() if t.value == "x" else BivarPoly.y()
        if t.kind == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected token {t.value!r}", t.pos)


def parse(text: str) -> BivarPoly:
    toks = _tokenize(text)
    p = _Parser(toks)
    out = p.parse_expr()
    end = p.peek()
    if end.kind != "end":
        raise ParseError(f"trailing input {end.value!r}", end.pos)
    return out
