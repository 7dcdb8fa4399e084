"""Parsing and printing of rational-function expressions.

Grammar (whitespace-insensitive)::

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" INT)?
    atom   := INT | NAME | "(" expr ")"

Exponents are literal non-negative integers of at most MAX_EXPONENT, so
no input asks for an unbounded power.  An integer literal holds at most
MAX_DIGITS digits, well inside what int() converts.  Parentheses and unary
minus signs together nest at most MAX_NESTING deep, which keeps the
recursive descent inside the interpreter's recursion limit.  Every error
carries the 0-based position of the offending token.  The printer
emits the same grammar, so parse(format(s)) == s for every scalar s whose
coefficients fit in MAX_DIGITS digits; it prints integers of any size.
"""

from __future__ import annotations

from fractions import Fraction

from .chart import Chart
from .poly import Poly
from .scalar import Scalar


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"at position {position}: {message}")


_OPS = set("+-*/^()")

MAX_NESTING = 100
MAX_EXPONENT = 32
MAX_DIGITS = 1000


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.tokens = _tokenize(text)
        self.chart = chart
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def enter(self, position: int) -> None:
        """Open one nesting level at the token at `position`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", position)

    def expect_op(self, op: str) -> None:
        kind, text, position = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", position)
        self.advance()

    def parse(self) -> Scalar:
        value = self.expr()
        kind, text, position = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", position)
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> Scalar:
        value = self.unary()
        while True:
            kind, text, position = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                if text == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero():
                        raise ParseError("division by zero", position)
                    value = value / rhs
            else:
                return value

    def unary(self) -> Scalar:
        kind, text, position = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            self.enter(position)
            value = -self.unary()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> Scalar:
        base = self.atom()
        kind, text, position = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, position = self.peek()
            if kind != "int":
                raise ParseError(
                    "exponent must be a non-negative integer literal", position
                )
            digits = text.lstrip("0") or "0"
            # compare lengths first: int() refuses very long literals
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent larger than {MAX_EXPONENT}", position)
            self.advance()
            return base ** int(digits)
        return base

    def atom(self) -> Scalar:
        kind, text, position = self.advance()
        if kind == "int":
            # compare lengths first: int() refuses very long literals
            if len(text) > MAX_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_DIGITS} digits", position
                )
            return Scalar.const(self.chart.dim, int(text))
        if kind == "name":
            try:
                index = self.chart.index(text)
            except KeyError:
                raise ParseError(f"unknown coordinate {text!r}", position) from None
            return Scalar.variable(self.chart.dim, index)
        if kind == "op" and text == "(":
            self.enter(position)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input",
                         position)


def parse_scalar(text: str, chart: Chart) -> Scalar:
    """Parse an expression in the chart's coordinates into an exact Scalar."""
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 0)
    return _Parser(text, chart).parse()


# str() converts an int of this many digits under any int_max_str_digits limit
_CHUNK_DIGITS = 500
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """str(n) for an int of any size, converted in chunks of _CHUNK_DIGITS."""
    if n < 0:
        return "-" + _decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _monomial(exponent: tuple[int, ...], names: tuple[str, ...]) -> str:
    parts = []
    for name, e in zip(names, exponent):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(poly: Poly, chart: Chart) -> str:
    """Render a polynomial; output re-parses to the same value."""
    if poly.is_zero():
        return "0"
    names = chart.names
    pieces: list[tuple[bool, str]] = []
    for exponent, coeff in poly.terms_sorted():
        monomial = _monomial(exponent, names)
        magnitude = abs(coeff)
        if not monomial:
            body = _format_fraction(magnitude)
        elif magnitude == 1:
            body = monomial
        else:
            body = f"{_format_fraction(magnitude)}*{monomial}"
        pieces.append((coeff < 0, body))
    negative, body = pieces[0]
    out = ("-" if negative else "") + body
    for negative, body in pieces[1:]:
        out += f" - {body}" if negative else f" + {body}"
    return out


def format_scalar(scalar: Scalar, chart: Chart) -> str:
    """Render a scalar; output re-parses to the same value."""
    if scalar.den.is_constant():
        return format_poly(scalar.num, chart)
    return f"({format_poly(scalar.num, chart)})/({format_poly(scalar.den, chart)})"
