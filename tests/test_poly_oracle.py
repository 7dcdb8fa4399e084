"""sympy as a differential oracle for the packed-key polynomial kernel.

The polynomials have 3, 5 or 7 variables, and some of their monomials sit
at the top of a field: one exponent, or the total degree, equal to the
largest value the packed layout holds.  sympy's sparse ring with grlex
order gives the product, the quotient and remainder of one division, the
partial derivatives, the leading monomial and the term order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cckit.algebra import Poly
from cckit.algebra.poly import MAX_DEGREE

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import grlex  # noqa: E402

NVARS = (3, 5, 7)
RINGS = {n: sympy.ring(f"x0:{n}", sympy.QQ, grlex) for n in NVARS}

coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def exponents(draw, nvars: int, top: int):
    """Small entries, or one entry raised so the total degree is `top`."""
    entries = draw(st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars))
    at = draw(st.none() | st.integers(0, nvars - 1))
    if at is not None:
        entries[at] = 0
        entries[at] = top - sum(entries)
    return tuple(entries)


def polys(nvars: int, top: int = MAX_DEGREE, nonzero: bool = False):
    terms = st.dictionaries(
        exponents(nvars, top), coefficients, min_size=int(nonzero), max_size=5
    )
    return terms.map(lambda t: Poly(nvars, t)).filter(
        lambda p: not (nonzero and p.is_zero())
    )


def to_sympy(p: Poly):
    ring = RINGS[p.nvars][0]
    return ring({e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms.items()})


def fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def from_sympy(element) -> dict[tuple[int, ...], Fraction]:
    return {e: fraction(c) for e, c in element.terms()}


def assert_same(p: Poly, element) -> None:
    """Equal term dicts, and equal packed keys, total-degree field included."""
    expected = from_sympy(element)
    assert p.terms == expected
    assert p == Poly(p.nvars, expected)


nvars = st.sampled_from(NVARS)


class TestAgainstSympy:
    @given(st.data(), nvars)
    @settings(max_examples=80, deadline=None)
    def test_product(self, data, n):
        # the two halves of the degree bound: a product may reach it exactly
        a = data.draw(polys(n, MAX_DEGREE // 2))
        b = data.draw(polys(n, MAX_DEGREE - MAX_DEGREE // 2))
        assert_same(a * b, to_sympy(a) * to_sympy(b))

    @given(st.data(), nvars)
    @settings(max_examples=60, deadline=None)
    def test_exact_division(self, data, n):
        a = data.draw(polys(n, MAX_DEGREE // 2))
        b = data.draw(polys(n, MAX_DEGREE // 2, nonzero=True))
        c = data.draw(polys(n, 16))
        for dividend in (a * b, a, a * b + c):
            quotient, remainder = to_sympy(dividend).div(to_sympy(b))
            result = dividend.exact_div(b)
            if remainder:
                assert result is None
            else:
                assert result is not None
                assert_same(result, quotient)

    @given(st.data(), nvars)
    @settings(max_examples=60, deadline=None)
    def test_partial(self, data, n):
        p = data.draw(polys(n))
        gens = RINGS[n][1:]
        for i in range(n):
            assert_same(p.partial(i), to_sympy(p).diff(gens[i]))

    @given(st.data(), nvars)
    @settings(max_examples=60, deadline=None)
    def test_leading_term_and_order(self, data, n):
        p = data.draw(polys(n, nonzero=True))
        element = to_sympy(p)
        exponent, coeff = p.leading()
        assert exponent == element.LM
        assert coeff == fraction(element.LC)
        assert [e for e, _ in p.terms_sorted()] == [e for e, _ in element.terms()]


class TestTermView:
    """`Poly.terms` reads the packed dict through exponent tuples."""

    @given(st.data(), nvars)
    @settings(max_examples=60, deadline=None)
    def test_view_matches_the_plain_dict(self, data, n):
        plain = data.draw(st.dictionaries(exponents(n, MAX_DEGREE), coefficients))
        p = Poly(n, plain)
        nonzero = {e: c for e, c in plain.items() if c}
        view = p.terms
        assert len(view) == len(nonzero) == len(p.packed)
        assert view == nonzero and nonzero == view
        for exponent, coeff in nonzero.items():
            assert exponent in view
            assert view[exponent] == coeff
        assert Poly(n, view) == p
        assert dict(view.items()) == nonzero

    def test_lookup_of_a_missing_or_malformed_key(self):
        view = Poly(3, {(1, 0, 2): 4}).terms
        for key in [(0, 0, 0), (1, 0), (1, 0, 2, 0), (1, -1, 2), (MAX_DEGREE, 1, 0)]:
            assert key not in view
            with pytest.raises(KeyError):
                view[key]

    def test_view_is_read_only(self):
        view = Poly(3, {(1, 0, 2): 4}).terms
        with pytest.raises(TypeError):
            view[(1, 0, 2)] = 5
