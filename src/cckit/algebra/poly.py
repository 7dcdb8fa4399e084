"""Sparse multivariate polynomials over Q.

A polynomial is a map from exponent vectors (tuples of non-negative ints,
one slot per chart coordinate) to nonzero rational coefficients.  The
constructor drops zero coefficients, so dict equality is polynomial
equality, and stores an integral coefficient as an ``int`` and any other
as a :class:`~fractions.Fraction`.  Most coefficients are integers, so
products and sums mostly run on machine ints; since ``2 == Fraction(2)``
with equal hashes, the choice never shows in equality or printing.

Monomials are ordered graded-lexicographically (total degree first, then
lexicographic on the exponent vector), which fixes leading terms and the
printing order.

The environment variable ``CCKIT_MAX_TERMS`` caps the number of stored
terms per polynomial; exceeding it raises :class:`TermLimitExceeded` so a
runaway computation fails with a size diagnostic instead of consuming the
machine.  A non-positive or unset value disables the cap.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

Exponent = tuple[int, ...]
Coeff = int | Fraction

_ENV_VAR = "CCKIT_MAX_TERMS"

_ZERO = 0


class TermLimitExceeded(RuntimeError):
    """A polynomial grew past the CCKIT_MAX_TERMS cap."""


def _read_term_limit(strict: bool) -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        if strict:
            raise TermLimitExceeded(
                f"{_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
        return None
    return value if value > 0 else None


_term_limit: int | None = _read_term_limit(strict=False)


def refresh_term_limit() -> int | None:
    """Re-read CCKIT_MAX_TERMS; raises TermLimitExceeded on a non-integer."""
    global _term_limit
    _term_limit = _read_term_limit(strict=True)
    return _term_limit


def grlex_key(exponent: Exponent) -> tuple[int, Exponent]:
    return (sum(exponent), exponent)


def add_terms(into: dict, terms: dict, factor: Coeff = 1) -> None:
    """into += factor * terms, in place, dropping the entries that cancel.

    Both are sparse maps from a key (an exponent, a matrix column) to a
    nonzero coefficient.  The factor is compared with 1 once per call, so
    the common plain sum multiplies nothing.
    """
    if not factor:
        return
    if factor == 1:
        for key, coeff in terms.items():
            value = into.get(key, _ZERO) + coeff
            if value:
                into[key] = value
            else:
                del into[key]
    else:
        for key, coeff in terms.items():
            value = into.get(key, _ZERO) + factor * coeff
            if value:
                into[key] = value
            else:
                del into[key]


class Poly:
    """Immutable sparse polynomial with rational coefficients.

    Every stored coefficient is an ``int`` or a non-integral ``Fraction``.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponent, Coeff] | None = None):
        clean: dict[Exponent, Coeff] = {}
        if terms:
            for exponent, coeff in terms.items():
                if coeff:
                    if type(coeff) is not int and coeff.denominator == 1:
                        coeff = coeff.numerator
                    clean[exponent] = coeff
        limit = _term_limit
        if limit is not None and len(clean) > limit:
            raise TermLimitExceeded(
                f"polynomial holds {len(clean)} terms, exceeding "
                f"{_ENV_VAR}={limit}"
            )
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def const(cls, nvars: int, value: Coeff) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range")
        exponent = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exponent: 1})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(
            next(iter(self.terms))
        ))

    def constant_value(self) -> Fraction:
        """The constant as a Fraction, so that 1 / value stays exact."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values())))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[Exponent, Coeff]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exponent = max(self.terms, key=grlex_key)
        return exponent, self.terms[exponent]

    def terms_sorted(self) -> list[tuple[Exponent, Coeff]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def content_signed(self) -> Fraction:
        """gcd of coefficients, carrying the sign of the leading coefficient.

        Zero polynomial has content 1 so division by the content is always
        legal.
        """
        if not self.terms:
            return Fraction(1)
        num = reduce(gcd, (abs(c.numerator) for c in self.terms.values()))
        den = reduce(lcm, (c.denominator for c in self.terms.values()))
        magnitude = Fraction(num, den)
        _, lead = self.leading()
        return magnitude if lead > 0 else -magnitude

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live on different charts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        add_terms(terms, other.terms)
        return Poly(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if not self.terms or not other.terms:
            return Poly.zero(self.nvars)
        terms: dict[Exponent, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exponent = tuple(a + b for a, b in zip(e1, e2))
                value = terms.get(exponent, _ZERO) + c1 * c2
                if value:
                    terms[exponent] = value
                else:
                    del terms[exponent]
        return Poly(self.nvars, terms)

    def scale(self, factor: Coeff) -> "Poly":
        if not factor:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent on a polynomial")
        result = Poly.one(self.nvars)
        for _ in range(exponent):
            result = result * self
        return result

    def shift_down(self, shift: Exponent) -> "Poly":
        """Divide by the monomial with the given exponent vector (must divide)."""
        terms = {}
        for exponent, coeff in self.terms.items():
            reduced = tuple(a - b for a, b in zip(exponent, shift))
            if any(e < 0 for e in reduced):
                raise ValueError("monomial does not divide every term")
            terms[reduced] = coeff
        return Poly(self.nvars, terms)

    def exponent_floor(self) -> Exponent:
        """Componentwise minimum over all exponent vectors (the monomial gcd)."""
        if not self.terms:
            return (0,) * self.nvars
        floors = None
        for exponent in self.terms:
            if floors is None:
                floors = list(exponent)
            else:
                for i, e in enumerate(exponent):
                    if e < floors[i]:
                        floors[i] = e
        return tuple(floors)  # type: ignore[arg-type]

    def exact_div(self, divisor: "Poly", step_cap: int | None = None) -> "Poly | None":
        """Exact quotient self / divisor, or None when it does not divide.

        With a step_cap the search may give up early and return None even
        for a true divisor; callers that rely on None meaning "really not
        divisible" must pass step_cap=None.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly.zero(self.nvars)
        lead_exp, lead_coeff = divisor.leading()
        remainder = dict(self.terms)
        quotient: dict[Exponent, Coeff] = {}
        steps = 0
        while remainder:
            steps += 1
            if step_cap is not None and steps > step_cap:
                return None
            top = max(remainder, key=grlex_key)
            shift = tuple(a - b for a, b in zip(top, lead_exp))
            if any(e < 0 for e in shift):
                return None
            top_coeff = remainder[top]
            if (
                type(top_coeff) is int
                and type(lead_coeff) is int
                and not top_coeff % lead_coeff
            ):
                factor = top_coeff // lead_coeff
            else:
                factor = Fraction(top_coeff, lead_coeff)
            quotient[shift] = factor
            for exponent, coeff in divisor.terms.items():
                target = tuple(a + b for a, b in zip(exponent, shift))
                value = remainder.get(target, _ZERO) - factor * coeff
                if value:
                    remainder[target] = value
                else:
                    remainder.pop(target, None)
        return Poly(self.nvars, quotient)

    # -- calculus ----------------------------------------------------------

    def partial(self, index: int) -> "Poly":
        if not 0 <= index < self.nvars:
            raise IndexError(f"variable index {index} out of range")
        terms: dict[Exponent, Coeff] = {}
        for exponent, coeff in self.terms.items():
            e = exponent[index]
            if not e:
                continue
            lowered = tuple(
                v - 1 if i == index else v for i, v in enumerate(exponent)
            )
            terms[lowered] = terms.get(lowered, _ZERO) + coeff * e
        return Poly(self.nvars, terms)

    def eval_at(self, point: tuple[Coeff, ...]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point dimension does not match")
        values = tuple(Fraction(v) for v in point)
        total = Fraction(0)
        for exponent, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exponent):
                if e:
                    term *= value**e
            total += term
        return total

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        body = " + ".join(
            f"{coeff}*{exponent}" for exponent, coeff in self.terms_sorted()
        )
        return f"Poly({body})"


def common_denominator(nvars: int, dens: list[Poly]) -> tuple[Poly, list[Poly]]:
    """A common multiple of nonzero denominators and the exact multipliers.

    Returns (common, multipliers) with common == den * multiplier for each
    den, in order.  The common multiple is built by exact division: a
    denominator already dividing it is skipped, one it divides replaces
    it, and any other multiplies it.  Without a multivariate gcd this is
    not the least common multiple, but it is 1 when every denominator is
    constant and equals den when all nonconstant denominators equal den.
    """
    common = Poly.one(nvars)
    for den in dens:
        if den.is_constant() or den == common or common.exact_div(den) is not None:
            continue
        if common.is_constant() or den.exact_div(common) is not None:
            common = den
        else:
            common = common * den
    multipliers = []
    for den in dens:
        if den.is_constant():
            multipliers.append(common.scale(1 / den.constant_value()))
            continue
        if den == common:
            multipliers.append(Poly.one(nvars))
            continue
        multiplier = common.exact_div(den)
        if multiplier is None:
            raise ArithmeticError(
                "common denominator is not divisible by one of its factors"
            )
        multipliers.append(multiplier)
    return common, multipliers
