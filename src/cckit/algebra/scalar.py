"""Rational-function scalars: quotients of sparse polynomials over Q.

Equality is cross-multiplication, so values are correct whether or not a
quotient happens to be in lowest terms.  Construction applies only cheap
normalizations (joint monomial-gcd strip, denominator content and sign,
constant-denominator folding, one step-capped exact-division attempt);
there is no full multivariate GCD.

`Scalar.__add__` stays pairwise: unequal denominators are multiplied,
with no divisibility test.  A sum of many terms goes through
`sum_over_common_denominator`, which builds one quotient over a
divisibility-built common denominator; `over_common_denominator` brings
any list of values over that denominator.  Putting that test into
`__add__` itself would also change the quotients of the linear solve behind
`dualize` (on the 5-dim acc5b, one Lambda component from 44/80 to 14/32
terms), so that belongs with the closed-form dual, not with a change to
the sum.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, add_terms, common_denominator


class PoleError(ZeroDivisionError):
    """Evaluation point lies on the zero locus of a denominator."""


class ScalarDivisionError(ZeroDivisionError):
    """Division of scalars by the zero scalar."""


def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.is_zero():
        return num, Poly.one(num.nvars)
    if den.is_constant():
        c = den.constant_value()
        return (num, den) if c == 1 else (num.scale(1 / c), Poly.one(num.nvars))
    shift = num.exponent_floor(den)
    if shift:
        num = num.shift_down(shift)
        den = den.shift_down(shift)
    content = den.content_signed()
    if content != 1:
        inv = 1 / content
        num = num.scale(inv)
        den = den.scale(inv)
    if den.is_constant():
        # content normalization forces a constant denominator to be 1
        return num, den
    if num == den:
        return Poly.one(num.nvars), Poly.one(num.nvars)
    quotient = num.exact_div(den, step_cap=2 * len(num.packed) + 16)
    if quotient is not None:
        return quotient, Poly.one(num.nvars)
    return num, den


class Scalar:
    """Immutable quotient num/den of polynomials with den != 0."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.nvars)
        if num.nvars != den.nvars:
            raise ValueError("numerator and denominator on different charts")
        if den.is_zero():
            raise ScalarDivisionError("zero denominator")
        num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Scalar is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Scalar":
        return cls(Poly.zero(nvars))

    @classmethod
    def one(cls, nvars: int) -> "Scalar":
        return cls(Poly.one(nvars))

    @classmethod
    def const(cls, nvars: int, value: Fraction | int) -> "Scalar":
        return cls(Poly.const(nvars, value))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Scalar":
        return cls(Poly.variable(nvars, index))

    # -- queries ---------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    # -- arithmetic --------------------------------------------------------------

    def _coerce(self, other: object) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.nvars != self.nvars:
                raise ValueError("scalars live on different charts")
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.const(self.nvars, other)
        return None

    def __add__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.den == rhs.den:
            return Scalar(self.num + rhs.num, self.den)
        return Scalar(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        # -num/den of a reduced quotient is reduced: the monomial strip, the
        # content and the capped division all give the same result up to sign
        out = object.__new__(Scalar)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Scalar(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero():
            raise ScalarDivisionError("division by the zero scalar")
        return Scalar(self.num * rhs.den, self.den * rhs.num)

    def __rtruediv__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs / self

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            if self.is_zero():
                raise ScalarDivisionError("negative power of zero")
            return Scalar(self.den, self.num) ** (-exponent)
        return Scalar(self.num**exponent, self.den**exponent)

    # -- calculus ---------------------------------------------------------------

    def partial(self, index: int) -> "Scalar":
        if self.den.is_constant():
            return Scalar(self.num.partial(index), self.den)
        num = self.num.partial(index) * self.den - self.num * self.den.partial(index)
        return Scalar(num, self.den * self.den)

    def eval_at(self, point: tuple[Fraction | int, ...]) -> Fraction:
        den = self.den.eval_at(point)
        if not den:
            raise PoleError(f"denominator vanishes at {point}")
        return self.num.eval_at(point) / den

    # -- comparison ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.num * rhs.den == rhs.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if self.den.is_constant():
            return f"Scalar({self.num!r})"
        return f"Scalar({self.num!r} / {self.den!r})"


def over_common_denominator(
    nvars: int, values: list[Scalar]
) -> tuple[Poly, list[Poly]]:
    """(den, nums) with values[i] == nums[i] / den for every i.

    Values that already share one denominator keep it and their
    numerators.  Otherwise den is `common_denominator` of the
    denominators, and each numerator is scaled by its exact multiplier,
    except where that multiplier is 1.
    """
    dens = [value.den for value in values]
    if dens and all(den == dens[0] for den in dens[1:]):
        return dens[0], [value.num for value in values]
    den, multipliers = common_denominator(nvars, dens)
    nums = [
        value.num
        if multiplier.is_constant() and multiplier.constant_value() == 1
        else value.num * multiplier
        for value, multiplier in zip(values, multipliers)
    ]
    return den, nums


def sum_over_common_denominator(nvars: int, terms: list[Scalar]) -> Scalar:
    """The sum of `terms` as one quotient over their common denominator.

    A pairwise sum multiplies two denominators even when one divides the
    other, so p/d + q/d^2 lands over d^3 and the powers pile up term by
    term.  Here the terms are brought over one denominator by
    `over_common_denominator` (d^2 in that example) and their numerators
    are summed into one polynomial: one Scalar is built per sum.  A single
    term comes back as it is.
    """
    if len(terms) == 1:
        return terms[0]
    if not terms:
        return Scalar.zero(nvars)
    den, nums = over_common_denominator(nvars, terms)
    total = dict(nums[0].packed)
    for num in nums[1:]:
        add_terms(total, num.packed)
    return Scalar(Poly(nvars, total), den)
