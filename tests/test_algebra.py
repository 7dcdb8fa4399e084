"""Polynomials, rational scalars, the parser, and the printer."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cckit import Chart, ParseError, Poly, Scalar, dualize, format_scalar, parse_scalar
from cckit.algebra import (
    add_terms,
    common_denominator,
    grlex_key,
    over_common_denominator,
    refresh_term_limit,
)
from cckit.cli.files import load_structure
from cckit.algebra.poly import MAX_DEGREE, TermLimitExceeded
from cckit.algebra.scalar import PoleError, ScalarDivisionError

CHART3 = Chart(("x", "y", "z"))
DATA_DIR = Path(__file__).resolve().parent / "data"

coeffs = st.integers(min_value=-6, max_value=6).map(Fraction)
exponents = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)
)


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        e = draw(exponents)
        c = draw(coeffs)
        terms[e] = terms.get(e, Fraction(0)) + c
    return Poly(3, {e: c for e, c in terms.items() if c})


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero()))
    return Scalar(num, den)


# ints, integral Fractions and non-integral Fractions, as callers may pass them
rational_coeffs = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)


@st.composite
def rational_polys(draw):
    terms = draw(st.dictionaries(exponents, rational_coeffs, max_size=4))
    return Poly(3, terms)


@st.composite
def rational_scalars(draw):
    num = draw(rational_polys())
    den = draw(rational_polys().filter(lambda p: not p.is_zero()))
    return Scalar(num, den)


def assert_canonical_coefficients(value):
    """Every coefficient under value is an int or a non-integral Fraction."""
    if isinstance(value, Poly):
        for coeff in value.terms.values():
            assert type(coeff) is int or (
                type(coeff) is Fraction and coeff.denominator != 1
            ), f"{coeff!r} stored as {type(coeff).__name__}"
    elif isinstance(value, Scalar):
        assert_canonical_coefficients(value.num)
        assert_canonical_coefficients(value.den)
    else:
        for component in value.comps.values():
            assert_canonical_coefficients(component)


def fraction_product(a, b):
    """The product's term map, convolved in Fraction arithmetic only."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exponent = tuple(x + y for x, y in zip(e1, e2))
            product = Fraction(c1) * Fraction(c2)
            terms[exponent] = terms.get(exponent, Fraction(0)) + product
    return {e: c for e, c in terms.items() if c}


class TestChart:
    def test_properties(self):
        assert CHART3.dim == 3
        assert CHART3.half == 1
        assert CHART3.index("y") == 1
        with pytest.raises(KeyError):
            CHART3.index("w")

    @pytest.mark.parametrize(
        "names",
        [("x", "y"), ("x",), ("x", "y", "x"), ("x", "2y", "z"), ()],
    )
    def test_rejects_bad_charts(self, names):
        with pytest.raises(ValueError):
            Chart(names)


class TestPoly:
    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == Poly.zero(3)
        assert a - b == a + (-b)
        assert a * Poly.one(3) == a

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_eval_is_a_homomorphism(self, a, b):
        point = (Fraction(2), Fraction(-1), Fraction(3))
        assert (a * b).eval_at(point) == a.eval_at(point) * b.eval_at(point)
        assert (a + b).eval_at(point) == a.eval_at(point) + b.eval_at(point)

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_partial_satisfies_product_rule(self, a, b):
        for i in range(3):
            lhs = (a * b).partial(i)
            rhs = a.partial(i) * b + a * b.partial(i)
            assert lhs == rhs

    @given(polys(), polys().filter(lambda p: not p.is_zero()))
    @settings(max_examples=60, deadline=None)
    def test_exact_div_inverts_multiplication(self, a, b):
        quotient = (a * b).exact_div(b)
        assert quotient == a

    def test_exact_div_rejects_non_divisor(self):
        x = Poly.variable(3, 0)
        y = Poly.variable(3, 1)
        assert (x * x + y).exact_div(x) is None
        assert (x + Poly.one(3)).exact_div(x * x) is None

    @given(st.lists(polys().filter(lambda p: not p.is_zero()), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_common_denominator_multipliers_are_exact(self, dens):
        common, multipliers = common_denominator(3, dens)
        assert len(multipliers) == len(dens)
        for den, multiplier in zip(dens, multipliers):
            assert den * multiplier == common

    def test_common_denominator_reuses_shared_factors(self):
        x = parse_scalar("1 + x", CHART3).num
        y = parse_scalar("1 + y", CHART3).num
        one = Poly.one(3)
        assert common_denominator(3, []) == (one, [])
        assert common_denominator(3, [one, Poly.const(3, 2)])[0] == one
        assert common_denominator(3, [x, one, x]) == (x, [one, x, one])
        assert common_denominator(3, [x, x * y, y])[0] == x * y
        assert common_denominator(3, [x, y])[0] == x * y

    def test_grlex_order(self):
        # total degree first, then lexicographic on exponent tuples
        assert grlex_key((2, 0, 0)) > grlex_key((1, 1, 0)) or grlex_key(
            (2, 0, 0)
        ) < grlex_key((1, 1, 0))
        p = parse_scalar("x^2 + x*y + y^2 + x + 1", CHART3).num
        monomials = [e for e, _ in p.terms_sorted()]
        assert monomials == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 0), (0, 0, 0)]

    def test_content_signed(self):
        p = parse_scalar("4*x - 6*y", CHART3).num
        assert p.content_signed() == Fraction(2)
        assert (-p).content_signed() == Fraction(-2)
        q = parse_scalar("x/2 + y/3", CHART3).num
        assert q.content_signed() == Fraction(1, 6)


class TestCoefficients:
    """Integral coefficients are stored as ints, all others as Fractions."""

    @given(rational_polys(), rational_polys(), rational_coeffs)
    @settings(max_examples=100, deadline=None)
    def test_poly_operations_keep_canonical_coefficients(self, a, b, factor):
        results = [a, b, a + b, a - b, -a, a * b, a.scale(factor), a.scale(Fraction(2))]
        results += [a.partial(i) for i in range(3)]
        for p in (a, b):
            results.append(p.scale(1 / p.content_signed()))
        if not b.is_zero():
            product = a * b
            results.append(product.exact_div(b))
            for cap in (1, 2, 2 * len(product.terms) + 16):
                quotient = product.exact_div(b, step_cap=cap)
                if quotient is not None:
                    assert quotient == a
                    results.append(quotient)
            quotient = (a + Poly.one(3)).exact_div(b)
            if quotient is not None:
                results.append(quotient)
        for result in results:
            assert_canonical_coefficients(result)

    @given(rational_scalars(), rational_scalars())
    @settings(max_examples=60, deadline=None)
    def test_scalar_operations_keep_canonical_coefficients(self, a, b):
        results = [a, b, a + b, a - b, -a, a * b]
        results += [a.partial(i) for i in range(3)]
        if not b.is_zero():
            results.append(a / b)
        for result in results:
            assert_canonical_coefficients(result)

    def test_dual_components_keep_canonical_coefficients(self, duals):
        structures = [con for _, con in duals.values()]
        panel = load_structure(str(DATA_DIR / "panel_pair_dim5.json"))
        structures.append(dualize(panel))
        assert len(structures) == 5
        for con in structures:
            assert_canonical_coefficients(con.E)
            assert_canonical_coefficients(con.Lam)

    def test_integral_values_are_ints(self):
        p = Poly(3, {(1, 0, 0): Fraction(4), (0, 0, 0): Fraction(1, 2)})
        assert type(p.terms[(1, 0, 0)]) is int
        assert type(Poly.const(3, Fraction(-3)).terms[(0, 0, 0)]) is int
        assert type(Poly.one(3).constant_value()) is Fraction
        assert type(Poly.zero(3).constant_value()) is Fraction
        assert type(Poly.one(3).eval_at((1, 2, 3))) is Fraction

    @given(rational_polys(), rational_polys().filter(lambda p: not p.is_zero()))
    @settings(max_examples=100, deadline=None)
    def test_product_matches_a_fraction_convolution(self, a, b):
        product = a * b
        assert product.terms == fraction_product(a, b)
        assert product.exact_div(b) == a

    def test_exact_div_when_the_leading_coefficient_does_not_divide(self):
        x = Poly.variable(3, 0)
        one = Poly.one(3)
        two_x = x.scale(2)
        # x^2 + x = (x/2) * (2x + 2): the first top coefficient 1 is not
        # a multiple of the leading coefficient 2
        quotient = (x * x + x).exact_div(two_x + one.scale(2))
        assert quotient == x.scale(Fraction(1, 2))
        assert quotient.terms[(1, 0, 0)] == Fraction(1, 2)
        assert (x * x + one).exact_div(two_x) is None
        # 3x^2 + 3x + 1/2 = (3x/2 + 3/4) * (2x + 1) + (-1/4)
        assert (x * x.scale(3) + x.scale(3) + one.scale(Fraction(1, 2))).exact_div(
            two_x + one
        ) is None
        # (3x + 1)(2x + 1) = 6x^2 + 5x + 1, with the integer path at each step
        assert (x * x.scale(6) + x.scale(5) + one).exact_div(two_x + one) == (
            x.scale(3) + one
        )

    @given(rational_scalars())
    @settings(max_examples=100, deadline=None)
    def test_negation_matches_a_rebuilt_quotient(self, s):
        negated = -s
        rebuilt = Scalar(-s.num, s.den)
        assert negated.num.terms == rebuilt.num.terms
        assert negated.den.terms == rebuilt.den.terms


class TestSharedSteps:
    """The one coefficient merge and the one common-denominator routine."""

    @given(
        rational_polys(),
        rational_polys(),
        st.one_of(st.sampled_from([1, -1, Fraction(1), Fraction(-1)]), rational_coeffs),
    )
    @settings(max_examples=100, deadline=None)
    def test_add_terms_matches_sum_and_scale(self, a, b, factor):
        plain = dict(a.terms)
        add_terms(plain, b.terms)
        assert plain == (a + b).terms
        scaled = dict(a.terms)
        add_terms(scaled, b.terms, factor)
        assert scaled == (a + b.scale(factor)).terms
        assert all(plain.values()) and all(scaled.values())

    @given(st.lists(rational_scalars(), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_over_common_denominator(self, values):
        den, nums = over_common_denominator(3, values)
        assert len(nums) == len(values)
        for num, value in zip(nums, values):
            assert Scalar(num, den) == value
        dens = [value.den for value in values]
        if dens and all(d == dens[0] for d in dens):
            assert den == dens[0]
        else:
            assert den == common_denominator(3, dens)[0]

    def test_shared_denominator_is_kept(self):
        values = [parse_scalar(text, CHART3) for text in ("x/(1 + y)", "-2/(1 + y)")]
        den, nums = over_common_denominator(3, values)
        assert den == values[0].den
        assert nums == [value.num for value in values]


class TestScalar:
    @given(scalars(), scalars(), scalars())
    @settings(max_examples=50, deadline=None)
    def test_field_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Scalar.zero(3)

    @given(scalars().filter(lambda s: not s.is_zero()))
    @settings(max_examples=50, deadline=None)
    def test_multiplicative_inverse(self, a):
        assert a / a == Scalar.one(3)
        assert (Scalar.one(3) / a) * a == Scalar.one(3)

    @given(scalars(), scalars())
    @settings(max_examples=50, deadline=None)
    def test_quotient_rule(self, a, b):
        if b.is_zero():
            return
        q = a / b
        for i in range(3):
            lhs = q.partial(i) * b * b
            rhs = a.partial(i) * b - a * b.partial(i)
            assert lhs == rhs

    def test_division_by_zero(self):
        with pytest.raises(ScalarDivisionError):
            Scalar.one(3) / Scalar.zero(3)

    def test_negative_power_is_rejected(self):
        # as for Poly: the parser admits no negative exponent, so no caller
        # needs the reciprocal
        with pytest.raises(ValueError):
            parse_scalar("x/(y + 1)", CHART3) ** -1
        assert parse_scalar("x/(y + 1)", CHART3) ** 0 == Scalar.one(3)

    def test_eval_pole(self):
        s = parse_scalar("1/(x - 1)", CHART3)
        with pytest.raises(PoleError):
            s.eval_at((Fraction(1), Fraction(0), Fraction(0)))
        assert s.eval_at((Fraction(3), Fraction(0), Fraction(0))) == Fraction(1, 2)

    def test_monomial_cancellation(self):
        s = parse_scalar("(x^2*y + x*y^2)/(x*y)", CHART3)
        assert s == parse_scalar("x + y", CHART3)
        assert s.is_polynomial()

    def test_reduction_normalizes_denominator_sign(self):
        s = parse_scalar("y/(-x + 1)", CHART3)
        t = parse_scalar("(-y)/(x - 1)", CHART3)
        assert s == t
        assert format_scalar(s, CHART3) == format_scalar(t, CHART3)


class TestParser:
    CASES = [
        ("0", "0"),
        ("x + y", "x + y"),
        ("x - - y", "x + y"),
        ("3/2*x", "3/2*x"),
        ("x^2*y - z", "x^2*y - z"),
        ("(x + y)^2", "x^2 + 2*x*y + y^2"),
        ("2*(x - 1) + 2", "2*x"),
        ("1/(1 + y)", "(1)/(y + 1)"),
        ("x/(y*z) + 1", "(y*z + x)/(y*z)"),
        ("-x^2", "-x^2"),
        ("(-x)^2", "x^2"),
    ]

    @pytest.mark.parametrize("text,expected", CASES)
    def test_frozen_rendering(self, text, expected):
        assert format_scalar(parse_scalar(text, CHART3), CHART3) == expected

    @given(scalars())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, s):
        rendered = format_scalar(s, CHART3)
        assert parse_scalar(rendered, CHART3) == s

    @pytest.mark.parametrize(
        "text",
        ["x +", "2x", "x ^ y", "x^-2", "w + 1", "(x", "x//y", "", "x^(2)"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text, CHART3)

    def test_division_by_syntactic_zero(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("x/(y - y)", CHART3)
        assert "position" in str(err.value)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_scalar("x + * y", CHART3)
        assert "position 4" in str(err.value)


class TestTermLimit:
    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("CCKIT_MAX_TERMS", "3")
        refresh_term_limit()
        try:
            with pytest.raises(TermLimitExceeded):
                parse_scalar("x^2 + x*y + y^2 + x + 1", CHART3)
            parse_scalar("x + y", CHART3)
        finally:
            monkeypatch.delenv("CCKIT_MAX_TERMS")
            refresh_term_limit()

    def test_bad_value_raises_on_refresh(self, monkeypatch):
        monkeypatch.setenv("CCKIT_MAX_TERMS", "many")
        try:
            with pytest.raises(TermLimitExceeded):
                refresh_term_limit()
        finally:
            monkeypatch.delenv("CCKIT_MAX_TERMS")
            refresh_term_limit()


class TestExponentKeys:
    """Exponent tuples are validated once, where they are packed."""

    @pytest.mark.parametrize(
        "exponent", [(1, 0), (0, 0, 0, 1), (1, -1, 0), (-1, 0, 0)],
        ids=["short", "long", "negative", "negative first"],
    )
    def test_malformed_key_is_rejected(self, exponent):
        with pytest.raises(ValueError, match="exponent"):
            Poly(3, {exponent: 1})

    def test_short_key_no_longer_truncates_a_product(self):
        # zip over a 2-entry and a 3-entry key used to read this as x
        with pytest.raises(ValueError, match="2 entries, expected 3"):
            Poly(3, {(1, 0): 1}) * Poly(3, {(0, 0, 1): 1})

    def test_degree_bound_on_packing(self):
        top = Poly(3, {(0, MAX_DEGREE, 0): 1})
        assert top.total_degree() == MAX_DEGREE
        assert top.terms[(0, MAX_DEGREE, 0)] == 1
        with pytest.raises(TermLimitExceeded, match=f"{MAX_DEGREE + 1}"):
            Poly(3, {(1, MAX_DEGREE, 0): 1})

    def test_degree_bound_on_products(self):
        x = Poly.variable(3, 0)
        half = Poly(3, {(0, 0, MAX_DEGREE // 2): 1})
        assert (half * half * x).total_degree() == MAX_DEGREE
        with pytest.raises(TermLimitExceeded) as err:
            half * half * x * x
        assert f"total degree {MAX_DEGREE + 1}" in str(err.value)
        assert f"bound {MAX_DEGREE}" in str(err.value)
        with pytest.raises(TermLimitExceeded):
            ((x**32) ** 32) ** 32
