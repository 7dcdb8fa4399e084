"""Sparse multivariate polynomials over Q.

A polynomial is a map from monomials to nonzero rational coefficients.
The constructor drops zero coefficients, so dict equality is polynomial
equality, and stores an integral coefficient as an ``int`` and any other
as a :class:`~fractions.Fraction`.  Most coefficients are integers, so
products and sums mostly run on machine ints; since ``2 == Fraction(2)``
with equal hashes, the choice never shows in equality or printing.

Monomials are ordered graded-lexicographically (total degree first, then
lexicographic on the exponent vector), which fixes leading terms and the
printing order.

Each monomial is stored packed into one int (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  With n variables the key has n + 1 fields of
``FIELD_BITS`` bits: the total degree in the most significant field, then
the exponents, first variable most significant.  The top bit of every
field is a guard bit and stays clear, so every field, the total degree
included, is at most ``MAX_DEGREE``.  Then

* int order is grlex order, so the leading term is ``max`` of the keys;
* the key of a product of monomials is the sum of their keys;
* m divides t exactly when ``((t | G) - m) & G == G`` for the mask G of
  all guard bits: a field of t smaller than that of m borrows its guard
  bit, and no borrow crosses a field;
* a partial derivative or a monomial division subtracts a key.

The total degree is checked where a key is made: when an exponent tuple
is packed, and in ``*``, which compares the sum of the two leading
degrees with ``MAX_DEGREE``.  Going over raises :class:`TermLimitExceeded`.

The packed dict is ``Poly.packed``; the arithmetic and the hot callers
read and build it.  ``Poly.terms`` is a read-only view of the same dict
keyed by exponent tuples, for the code that reads or builds polynomials
through tuples (the parser and printer, the tests).  ``Poly(nvars,
terms)`` takes either form: tuple keys are validated and packed, int keys
are taken as packed.

The environment variable ``CCKIT_MAX_TERMS`` caps the number of stored
terms per polynomial; exceeding it raises :class:`TermLimitExceeded` so a
runaway computation fails with a size diagnostic instead of consuming the
machine.  A non-positive or unset value disables the cap.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

Exponent = tuple[int, ...]
Coeff = int | Fraction

_ENV_VAR = "CCKIT_MAX_TERMS"

_ZERO = 0

FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


class TermLimitExceeded(RuntimeError):
    """A polynomial grew past the CCKIT_MAX_TERMS cap or the degree bound."""


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


def _degree_error(degree: int) -> TermLimitExceeded:
    return TermLimitExceeded(
        f"monomial of total degree {degree} exceeds the degree bound {MAX_DEGREE}"
    )


def pack_exponent(exponent: Exponent, nvars: int) -> int:
    """The packed key of an exponent tuple; ValueError on a malformed one."""
    if len(exponent) != nvars:
        raise ValueError(
            f"exponent {exponent!r} has {len(exponent)} entries, expected {nvars}"
        )
    key = degree = 0
    for e in exponent:
        if e < 0:
            raise ValueError(f"exponent {exponent!r} has a negative entry")
        key = (key << FIELD_BITS) | e
        degree += e
    if degree > MAX_DEGREE:
        raise _degree_error(degree)
    return (degree << (FIELD_BITS * nvars)) | key


def unpack_exponent(key: int, nvars: int) -> Exponent:
    return tuple(
        (key >> (FIELD_BITS * shift)) & _FIELD_MASK
        for shift in range(nvars - 1, -1, -1)
    )


@lru_cache(maxsize=None)
def guard_mask(nvars: int) -> int:
    """The guard bits of all n + 1 fields."""
    return sum(1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(nvars + 1))


@lru_cache(maxsize=None)
def variable_keys(nvars: int) -> tuple[int, ...]:
    """The packed key of each variable x_i."""
    degree_one = 1 << (FIELD_BITS * nvars)
    return tuple(
        degree_one | 1 << (FIELD_BITS * (nvars - 1 - i)) for i in range(nvars)
    )


def add_terms(into: dict, terms: dict, factor: Coeff = 1) -> None:
    """into += factor * terms, in place, dropping the entries that cancel.

    Both are sparse maps from a key (a packed monomial, a matrix column) to a
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


class TermView(Mapping):
    """The terms of a polynomial keyed by exponent tuples, read-only."""

    __slots__ = ("_packed", "_nvars")

    def __init__(self, packed: dict[int, Coeff], nvars: int):
        self._packed = packed
        self._nvars = nvars

    def __getitem__(self, exponent: Exponent) -> Coeff:
        try:
            key = pack_exponent(exponent, self._nvars)
        except (TypeError, ValueError, TermLimitExceeded):
            raise KeyError(exponent) from None
        return self._packed[key]

    def __iter__(self):
        nvars = self._nvars
        return (unpack_exponent(key, nvars) for key in self._packed)

    def __len__(self) -> int:
        return len(self._packed)

    def __repr__(self) -> str:
        return f"TermView({dict(self.items())!r})"


class Poly:
    """Immutable sparse polynomial with rational coefficients.

    Every stored coefficient is an ``int`` or a non-integral ``Fraction``.
    `terms` maps either exponent tuples or packed keys to coefficients,
    as told by the type of its first key.
    """

    __slots__ = ("nvars", "packed")

    def __init__(
        self, nvars: int, terms: Mapping[Exponent | int, Coeff] | None = None
    ):
        clean: dict[int, Coeff] = {}
        if terms:
            items = terms.items()
            if type(next(iter(terms))) is not int:
                items = [(pack_exponent(e, nvars), c) for e, c in items]
            for key, coeff in items:
                if coeff:
                    if type(coeff) is not int and coeff.denominator == 1:
                        coeff = coeff.numerator
                    clean[key] = coeff
        limit = _term_limit
        if limit is not None and len(clean) > limit:
            raise TermLimitExceeded(
                f"polynomial holds {len(clean)} terms, exceeding "
                f"{_ENV_VAR}={limit}"
            )
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "packed", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> TermView:
        return TermView(self.packed, self.nvars)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls(nvars, {0: 1})

    @classmethod
    def const(cls, nvars: int, value: Coeff) -> "Poly":
        return cls(nvars, {0: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range")
        return cls(nvars, {variable_keys(nvars)[index]: 1})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        packed = self.packed
        return not packed or (len(packed) == 1 and 0 in packed)

    def constant_value(self) -> Fraction:
        """The constant as a Fraction, so that 1 / value stays exact."""
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.packed[0])

    def total_degree(self) -> int:
        if not self.packed:
            return 0
        return max(self.packed) >> (FIELD_BITS * self.nvars)

    def leading(self) -> tuple[Exponent, Coeff]:
        if not self.packed:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.packed)
        return unpack_exponent(key, self.nvars), self.packed[key]

    def terms_sorted(self) -> list[tuple[Exponent, Coeff]]:
        nvars = self.nvars
        return [
            (unpack_exponent(key, nvars), coeff)
            for key, coeff in sorted(self.packed.items(), reverse=True)
        ]

    def content_signed(self) -> Fraction:
        """gcd of coefficients, carrying the sign of the leading coefficient.

        Zero polynomial has content 1 so division by the content is always
        legal.
        """
        packed = self.packed
        if not packed:
            return Fraction(1)
        num = reduce(gcd, (abs(c.numerator) for c in packed.values()))
        den = reduce(lcm, (c.denominator for c in packed.values()))
        magnitude = Fraction(num, den)
        return magnitude if packed[max(packed)] > 0 else -magnitude

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live on different charts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.packed)
        add_terms(terms, other.packed)
        return Poly(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {k: -c for k, c in self.packed.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        left, right = self.packed, other.packed
        if not left or not right:
            return Poly.zero(self.nvars)
        degree = (max(left) + max(right)) >> (FIELD_BITS * self.nvars)
        if degree > MAX_DEGREE:
            raise _degree_error(degree)
        terms: dict[int, Coeff] = {}
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                key = k1 + k2
                value = terms.get(key, _ZERO) + c1 * c2
                if value:
                    terms[key] = value
                else:
                    del terms[key]
        return Poly(self.nvars, terms)

    def scale(self, factor: Coeff) -> "Poly":
        if not factor:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {k: c * factor for k, c in self.packed.items()})

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent on a polynomial")
        result = Poly.one(self.nvars)
        for _ in range(exponent):
            result = result * self
        return result

    def shift_down(self, shift: int) -> "Poly":
        """Divide by the monomial with packed key `shift` (must divide)."""
        guards = guard_mask(self.nvars)
        terms = {}
        for key, coeff in self.packed.items():
            if ((key | guards) - shift) & guards != guards:
                raise ValueError("monomial does not divide every term")
            terms[key - shift] = coeff
        return Poly(self.nvars, terms)

    def exponent_floor(self, *others: "Poly") -> int:
        """The packed monomial gcd of the terms of self and others.

        That is the componentwise minimum of their exponents.  The scan
        stops as soon as it reaches 0, the key of the monomial 1.
        """
        nvars = self.nvars
        guards = guard_mask(nvars)
        floor = None
        for poly in (self, *others):
            for key in poly.packed:
                if floor is None:
                    floor = key
                elif ((key | guards) - floor) & guards != guards:
                    floor = _field_min(floor, key, nvars)
                if not floor:
                    return 0
        return floor or 0

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
        guards = guard_mask(self.nvars)
        lead = max(divisor.packed)
        lead_coeff = divisor.packed[lead]
        remainder = dict(self.packed)
        quotient: dict[int, Coeff] = {}
        steps = 0
        while remainder:
            steps += 1
            if step_cap is not None and steps > step_cap:
                return None
            top = max(remainder)
            if ((top | guards) - lead) & guards != guards:
                return None
            shift = top - lead
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
            for key, coeff in divisor.packed.items():
                target = key + shift
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
        offset = FIELD_BITS * (self.nvars - 1 - index)
        lower = variable_keys(self.nvars)[index]
        terms: dict[int, Coeff] = {}
        for key, coeff in self.packed.items():
            e = (key >> offset) & _FIELD_MASK
            if e:
                terms[key - lower] = coeff * e
        return Poly(self.nvars, terms)

    def eval_at(self, point: tuple[Coeff, ...]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point dimension does not match")
        values = tuple(Fraction(v) for v in point)
        total = Fraction(0)
        for key, coeff in self.packed.items():
            term = coeff
            for value, e in zip(values, unpack_exponent(key, self.nvars)):
                if e:
                    term *= value**e
            total += term
        return total

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.packed == other.packed

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        body = " + ".join(
            f"{coeff}*{exponent}" for exponent, coeff in self.terms_sorted()
        )
        return f"Poly({body})"


def _field_min(a: int, b: int, nvars: int) -> int:
    """The packed componentwise minimum of two packed monomials."""
    key = degree = 0
    for shift in range(nvars - 1, -1, -1):
        e = min((a >> (FIELD_BITS * shift)) & _FIELD_MASK,
                (b >> (FIELD_BITS * shift)) & _FIELD_MASK)
        key = (key << FIELD_BITS) | e
        degree += e
    return (degree << (FIELD_BITS * nvars)) | key


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
