"""Forms, multivectors, Cartan calculus, and the Schouten bracket."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cckit import (
    Chart,
    CovariantPair,
    DiffForm,
    GeneratorPair,
    Multivector,
    Scalar,
    dualize,
    exterior_derivative,
    interior_product,
    lie_derivative_form,
    lie_derivative_scalar,
    pair_bracket,
    pairing,
    parse_scalar,
    schouten_bracket,
    wedge,
)
from cckit.exterior import (
    DegreeError,
    KindMismatch,
    _contract,
    _merge,
    coordinate_form,
    coordinate_vector,
    scalar_form,
    scalar_multivector,
    schouten_identity_residual,
    zero_form,
)

from conftest import random_form, random_multivector, random_poly

CHART = Chart(("x", "y", "z"))


def s(text: str) -> Scalar:
    return parse_scalar(text, CHART)


def form1(**named) -> DiffForm:
    comps = {(CHART.index(k),): s(v) for k, v in named.items()}
    return DiffForm(CHART, 1, comps)


class TestWedge:
    def test_frozen_triple_product(self):
        omega = form1(z="1", x="-y")
        factor = wedge(form1(x="1", z="1"), form1(y="1"))
        top = wedge(omega, factor)
        assert top.comps == {(0, 1, 2): s("1 + y")}

    def test_anticommutativity_on_one_forms(self):
        rng = random.Random(3)
        for _ in range(5):
            a = random_form(rng, CHART, 1)
            b = random_form(rng, CHART, 1)
            assert wedge(a, b) == -wedge(b, a)
            assert wedge(a, a).is_zero()

    def test_associativity(self):
        rng = random.Random(4)
        for _ in range(5):
            a = random_form(rng, CHART, 1)
            b = random_form(rng, CHART, 1)
            c = random_form(rng, CHART, 1)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            wedge(coordinate_form(CHART, 0), coordinate_vector(CHART, 1))


class TestExteriorDerivative:
    def test_frozen_example(self):
        beta = DiffForm(CHART, 1, {(2,): s("x^2*y")})
        assert exterior_derivative(beta).comps == {
            (0, 2): s("2*x*y"),
            (1, 2): s("x^2"),
        }

    def test_d_squared_is_zero(self):
        rng = random.Random(9)
        for degree in (0, 1, 2):
            for _ in range(4):
                beta = random_form(rng, CHART, degree, poly_degree=2)
                assert exterior_derivative(exterior_derivative(beta)).is_zero()

    def test_leibniz_for_wedge(self):
        rng = random.Random(10)
        for _ in range(5):
            a = random_form(rng, CHART, 1, poly_degree=2)
            b = random_form(rng, CHART, 1, poly_degree=2)
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b) - wedge(
                a, exterior_derivative(b)
            )
            assert lhs == rhs


class TestInteriorProduct:
    def test_front_slot_order(self):
        # contraction inserts the first factor of the polyvector first
        top = wedge(
            wedge(coordinate_form(CHART, 0), coordinate_form(CHART, 1)),
            coordinate_form(CHART, 2),
        )
        bivec = wedge(coordinate_vector(CHART, 0), coordinate_vector(CHART, 1))
        assert interior_product(bivec, top) == coordinate_form(CHART, 2)

    def test_sign_when_skipping_a_slot(self):
        top = wedge(
            wedge(coordinate_form(CHART, 0), coordinate_form(CHART, 1)),
            coordinate_form(CHART, 2),
        )
        bivec = wedge(coordinate_vector(CHART, 1), coordinate_vector(CHART, 2))
        assert interior_product(bivec, top) == coordinate_form(CHART, 0)
        bivec_signed = wedge(
            coordinate_vector(CHART, 0), coordinate_vector(CHART, 2)
        )
        assert interior_product(bivec_signed, top) == -coordinate_form(CHART, 1)

    def test_degree_error(self):
        bivec = wedge(coordinate_vector(CHART, 0), coordinate_vector(CHART, 1))
        with pytest.raises(DegreeError):
            interior_product(bivec, coordinate_form(CHART, 0))

    def test_pairing_is_evaluation(self):
        rng = random.Random(13)
        for _ in range(5):
            beta = random_form(rng, CHART, 2)
            x = random_multivector(rng, CHART, 1)
            y = random_multivector(rng, CHART, 1)
            assert pairing(beta, x, y) == -pairing(beta, y, x)
            direct = interior_product(x, beta)
            assert pairing(beta, x, y) == pairing(direct, y)


class TestLieDerivative:
    def test_scalar_is_directional_derivative(self):
        x = coordinate_vector(CHART, 0).scale(s("y"))
        assert lie_derivative_scalar(x, s("x^2")) == s("2*x*y")

    def test_form_matches_component_route(self):
        # L_X beta in components: X.(beta_i) + beta_j d(X^j)_i
        rng = random.Random(17)
        for _ in range(6):
            x = random_multivector(rng, CHART, 1, poly_degree=2)
            beta = random_form(rng, CHART, 1, poly_degree=2)
            cartan = lie_derivative_form(x, beta)
            comps = {}
            for i in range(3):
                total = Scalar.zero(3)
                beta_i = beta.comps.get((i,), Scalar.zero(3))
                total = total + lie_derivative_scalar(x, beta_i)
                for j in range(3):
                    beta_j = beta.comps.get((j,), Scalar.zero(3))
                    xj = x.comps.get((j,), Scalar.zero(3))
                    total = total + beta_j * xj.partial(i)
                if not total.is_zero():
                    comps[(i,)] = total
            assert cartan == DiffForm(CHART, 1, comps)

    def test_commutes_with_d(self):
        rng = random.Random(19)
        for _ in range(4):
            x = random_multivector(rng, CHART, 1)
            beta = random_form(rng, CHART, 1, poly_degree=2)
            assert lie_derivative_form(
                x, exterior_derivative(beta)
            ) == exterior_derivative(lie_derivative_form(x, beta))


class TestSchoutenBracket:
    def test_vector_fields_give_lie_bracket(self):
        rng = random.Random(23)
        for _ in range(6):
            x = random_multivector(rng, CHART, 1, poly_degree=2)
            y = random_multivector(rng, CHART, 1, poly_degree=2)
            bracket = schouten_bracket(x, y)
            comps = {}
            for k in range(3):
                total = Scalar.zero(3)
                for j in range(3):
                    xj = x.comps.get((j,), Scalar.zero(3))
                    yj = y.comps.get((j,), Scalar.zero(3))
                    yk = y.comps.get((k,), Scalar.zero(3))
                    xk = x.comps.get((k,), Scalar.zero(3))
                    total = total + xj * yk.partial(j) - yj * xk.partial(j)
                if not total.is_zero():
                    comps[(k,)] = total
            assert bracket == Multivector(CHART, 1, comps)

    def test_function_vector_bracket(self):
        f = scalar_multivector(CHART, s("x*y"))
        x = coordinate_vector(CHART, 0)
        assert schouten_bracket(f, x) == scalar_multivector(CHART, s("y"))

    def test_graded_symmetry(self):
        rng = random.Random(29)
        for dp in (1, 2):
            for dq in (1, 2):
                p = random_multivector(rng, CHART, dp)
                q = random_multivector(rng, CHART, dq)
                sign = -1 if (dp * dq) % 2 else 1
                mirrored = schouten_bracket(q, p)
                if sign < 0:
                    mirrored = -mirrored
                assert schouten_bracket(p, q) == mirrored

    def test_graded_leibniz(self):
        rng = random.Random(31)
        for _ in range(4):
            dp, dq, dr = 1, 1, 1
            p = random_multivector(rng, CHART, dp)
            q = random_multivector(rng, CHART, dq)
            r = random_multivector(rng, CHART, dr)
            lhs = schouten_bracket(p, wedge(q, r))
            sign = -1 if ((dp - 1) * dq) % 2 else 1
            rhs = wedge(schouten_bracket(p, q), r) + wedge(
                q, schouten_bracket(p, r)
            ).scale(Scalar.const(3, sign))
            assert lhs == rhs

    def test_defining_identity_residual(self):
        rng = random.Random(37)
        for dp, dq in ((1, 1), (1, 2), (2, 1), (2, 2)):
            p = random_multivector(rng, CHART, dp)
            q = random_multivector(rng, CHART, dq)
            beta = random_form(rng, CHART, dp + dq - 1, poly_degree=2)
            assert schouten_identity_residual(p, q, beta).is_zero()

    def test_jacobi(self):
        rng = random.Random(41)
        for degrees in ((1, 1, 1), (1, 1, 2), (2, 1, 2)):
            dp, dq, dr = degrees
            p = random_multivector(rng, CHART, dp)
            q = random_multivector(rng, CHART, dq)
            r = random_multivector(rng, CHART, dr)
            total = (
                schouten_bracket(p, schouten_bracket(q, r)).scale(
                    Scalar.const(3, (-1) ** (dp * (dr - 1)))
                )
                + schouten_bracket(q, schouten_bracket(r, p)).scale(
                    Scalar.const(3, (-1) ** (dq * (dp - 1)))
                )
                + schouten_bracket(r, schouten_bracket(p, q)).scale(
                    Scalar.const(3, (-1) ** (dr * (dq - 1)))
                )
            )
            assert total.is_zero()


def extraction_bracket(p: Multivector, q: Multivector) -> Multivector:
    """The Schouten bracket by component extraction, a test-only oracle.

    Component J is i_[P,Q] dx^J, read off the defining identity
    i_[P,Q] beta = (-1)^(q(p+1)) i_P d i_Q beta + (-1)^p i_Q d i_P beta
    - i_(P wedge Q) d beta, whose last term drops for beta = dx^J.  This
    was the engine's formula before the odd-variable one.
    """
    chart = p.chart
    dp, dq = p.degree, q.degree
    degree = dp + dq - 1
    if degree < 0:
        return Multivector(chart, 0)
    sign_p = -1 if (dq * (dp + 1)) % 2 else 1
    sign_q = -1 if dp % 2 else 1
    comps = {}
    for index in combinations(range(chart.dim), degree):
        basis = DiffForm(chart, degree, {index: Scalar.one(chart.dim)})
        total = Scalar.zero(chart.dim)
        if dp >= 1:
            value = _contract(p, exterior_derivative(_contract(q, basis))).scalar()
            total = total + (value if sign_p > 0 else -value)
        if dq >= 1:
            value = _contract(q, exterior_derivative(_contract(p, basis))).scalar()
            total = total + (value if sign_q > 0 else -value)
        if not total.is_zero():
            comps[index] = total
    return Multivector(chart, degree, comps)


def representation(t: Multivector) -> dict:
    return {k: (v.num.terms, v.den.terms) for k, v in t.comps.items()}


CHART5 = Chart(("x", "y", "u", "v", "z"))


def rational5() -> CovariantPair:
    """A regular 5-dim pair whose dual has the denominator (1 + y)^2."""

    def s5(text: str) -> Scalar:
        return parse_scalar(text, CHART5)

    omega = DiffForm(CHART5, 1, {(0,): s5("-y"), (2,): s5("x"), (4,): s5("1")})
    Omega = DiffForm(CHART5, 2, {
        (0, 1): s5("1"), (0, 2): s5("1"), (1, 4): s5("-1"), (2, 3): s5("1 + y"),
    })
    return CovariantPair(omega, Omega)


class TestSchoutenAgainstExtraction:
    """The odd-variable bracket equals the extraction formula exactly."""

    @pytest.mark.parametrize("chart", (CHART, CHART5), ids=("dim3", "dim5"))
    def test_polynomial_components(self, chart):
        rng = random.Random(43)
        for dp in range(4):
            for dq in range(4):
                p = random_multivector(rng, chart, dp)
                q = random_multivector(rng, chart, dq)
                assert schouten_bracket(p, q) == extraction_bracket(p, q), (dp, dq)

    @pytest.mark.parametrize("chart", (CHART, CHART5), ids=("dim3", "dim5"))
    def test_rational_components_with_distinct_denominators(self, chart):
        rng = random.Random(47)
        x, y, z = chart.names[0], chart.names[1], chart.names[-1]
        # with a third denominator the extraction oracle takes over a minute
        # in dimension 5 (its sums of reduced quotients swell past 5000 terms)
        dens = [parse_scalar(text, chart) for text in (f"1 + {x}*{y}", f"1 + {z}^2")]

        def rational(t: Multivector) -> Multivector:
            return Multivector(chart, t.degree, {
                k: v / rng.choice(dens) if rng.random() < 0.6 else v
                for k, v in t.comps.items()
            })

        for dp in range(4):
            for dq in range(4):
                p = rational(random_multivector(rng, chart, dp))
                q = rational(random_multivector(rng, chart, dq))
                assert schouten_bracket(p, q) == extraction_bracket(p, q), (dp, dq)

    @pytest.mark.parametrize("name", ("acc3", "contact5", "rational5"))
    def test_dual_pairs(self, name, duals):
        con = dualize(rational5()) if name == "rational5" else duals[name][1]
        e, lam = con.E, con.Lam
        for p, q in ((e, lam), (lam, lam), (lam, e), (e, e)):
            bracket, expected = schouten_bracket(p, q), extraction_bracket(p, q)
            assert bracket == expected
            # the same numerator and denominator, so reports print the same
            assert representation(bracket) == representation(expected)


class TestDegreeZeroEdges:
    def test_zero_form_wedge(self):
        one = scalar_form(CHART, s("1"))
        beta = form1(x="y")
        assert wedge(one, beta) == beta

    def test_lie_derivative_of_scalar_form(self):
        x = coordinate_vector(CHART, 1)
        f = scalar_form(CHART, s("x*y^2"))
        assert lie_derivative_form(x, f).scalar() == s("2*x*y")

    def test_empty_form_is_zero(self):
        assert zero_form(CHART, 2).is_zero()
        assert not form1(x="1").is_zero()


# -- one quotient per output component ----------------------------------------


def _accumulated(items) -> dict:
    """The former accumulation: each term added to its component pairwise."""
    comps = {}
    for key, term in items:
        comps[key] = comps[key] + term if key in comps else term
    return comps


def pairwise_add(a, b):
    """a + b summed pairwise with Scalar.__add__, a test-only oracle."""
    items = [*a.comps.items(), *b.comps.items()]
    return type(a)(a.chart, a.degree, _accumulated(items))


def pairwise_wedge(a, b):
    """wedge(a, b) summed pairwise with Scalar.__add__, a test-only oracle."""
    items = []
    for left, f in a.comps.items():
        for right, g in b.comps.items():
            merged = _merge(left, right)
            if merged is not None:
                sign, key = merged
                items.append((key, f * g if sign > 0 else -(f * g)))
    return type(a)(a.chart, a.degree + b.degree, _accumulated(items))


def pairwise_d(beta):
    """d beta summed pairwise with Scalar.__add__, a test-only oracle."""
    items = []
    for index, value in beta.comps.items():
        for i in range(beta.chart.dim):
            if i not in index:
                sign, key = _merge((i,), index)
                derivative = value.partial(i)
                items.append((key, derivative if sign > 0 else -derivative))
    return DiffForm(beta.chart, beta.degree + 1, _accumulated(items))


def pairwise_contract(a, b):
    """_contract(a, b) summed pairwise with Scalar.__add__, a test-only oracle."""
    items = []
    for full, coeff in b.comps.items():
        for sub in combinations(full, a.degree):
            value = a.comps.get(sub)
            if value is not None:
                rest = tuple(i for i in full if i not in sub)
                inversions = sum(1 for j in sub for r in rest if r < j)
                term = value * coeff
                items.append((rest, -term if inversions % 2 else term))
    return type(b)(b.chart, b.degree - a.degree, _accumulated(items))


def pairwise_lie_scalar(x, f):
    """X.f summed pairwise with Scalar.__add__, a test-only oracle."""
    total = Scalar.zero(x.chart.dim)
    for (k,), coeff in x.comps.items():
        total = total + coeff * f.partial(k)
    return total


# nested (d, d^2, d e) and unrelated (d, e) denominators
DENOMINATORS = ["1", "1 + y", "(1 + y)^2", "(1 + y)*(1 + z^2)", "1 + z^2", "1 + x*y"]


@st.composite
def rational_tensors(draw, kind, degree):
    comps = {}
    for key in combinations(range(CHART.dim), degree):
        if draw(st.booleans()):
            num = draw(st.sampled_from(["1", "x", "-2*y + z", "x*z - 1", "y^2"]))
            den = draw(st.sampled_from(DENOMINATORS))
            comps[key] = s(f"({num})/({den})")
    return kind(CHART, degree, comps)


def rational_scalars():
    return st.builds(
        lambda num, den: s(f"({num})/({den})"),
        st.sampled_from(["x", "y*z + 1", "x^2 - z"]),
        st.sampled_from(DENOMINATORS),
    )


class TestOneQuotientPerComponent:
    """Each output component equals the pairwise sum as a value."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_add(self, data):
        degree = data.draw(st.integers(0, 2))
        a = data.draw(rational_tensors(DiffForm, degree))
        b = data.draw(rational_tensors(DiffForm, degree))
        assert a + b == pairwise_add(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_wedge(self, data):
        kind = data.draw(st.sampled_from([DiffForm, Multivector]))
        a = data.draw(rational_tensors(kind, data.draw(st.integers(0, 2))))
        b = data.draw(rational_tensors(kind, data.draw(st.integers(1, 2))))
        assert wedge(a, b) == pairwise_wedge(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_exterior_derivative(self, data):
        beta = data.draw(rational_tensors(DiffForm, data.draw(st.integers(0, 2))))
        assert exterior_derivative(beta) == pairwise_d(beta)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_contract(self, data):
        p = data.draw(st.integers(0, 2))
        kinds = data.draw(
            st.sampled_from([(Multivector, DiffForm), (DiffForm, Multivector)])
        )
        a = data.draw(rational_tensors(kinds[0], p))
        b = data.draw(rational_tensors(kinds[1], data.draw(st.integers(p, 3))))
        assert _contract(a, b) == pairwise_contract(a, b)

    @settings(max_examples=25, deadline=None)
    @given(rational_tensors(Multivector, 1), rational_scalars())
    def test_lie_derivative_scalar(self, x, f):
        assert lie_derivative_scalar(x, f) == pairwise_lie_scalar(x, f)

    def test_nested_denominators_are_not_multiplied(self):
        # pairwise, x/(y+1) + z/(y+1)^2 lands over (y+1)^3
        total = form1(x="x/(y + 1)") + form1(x="z/(y + 1)^2")
        assert total.comps[(0,)] == s("(x*y + x + z)/(y + 1)^2")
        assert total.comps[(0,)].den == s("(y + 1)^2").num

    def test_acc3_pair_bracket_stays_over_the_dual_denominator_squared(self, duals):
        # pairwise sums gave (y+1)^14, (y+1)^18, (y+1)^10 and (y+1)^8 here
        cov, con = duals["acc3"]

        def pair(alpha, h):
            return GeneratorPair(form1(**alpha), s(h))

        g1 = pair({"x": "x*y + z", "y": "x^2", "z": "y*z"}, "x*z + y^2")
        g2 = pair({"x": "z^2", "y": "x + y*z", "z": "1 + x"}, "y*z - x")
        out = pair_bracket(cov, con, g1, g2)
        square = s("(y + 1)^2").num
        assert sorted(out.alpha.comps) == [(0,), (1,), (2,)]
        assert all(value.den == square for value in out.alpha.comps.values())
        assert out.h.den == square


class TestSignedComponent:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_inversion_parity_or_zero_on_a_repeat(self, data):
        chart = Chart(("a", "b", "c", "d", "e"))
        kind = data.draw(st.sampled_from([DiffForm, Multivector]))
        degree = data.draw(st.integers(0, chart.dim))
        comps = {
            key: Scalar.const(chart.dim, data.draw(st.integers(1, 9)))
            for key in combinations(range(chart.dim), degree)
            if data.draw(st.booleans())
        }
        tensor = kind(chart, degree, comps)
        index = tuple(
            data.draw(
                st.lists(
                    st.integers(0, chart.dim - 1),
                    min_size=degree,
                    max_size=degree,
                    unique=data.draw(st.booleans()),
                )
            )
        )
        zero = Scalar.zero(chart.dim)
        if len(set(index)) < degree:
            expected = zero
        else:
            inversions = sum(1 for a, b in combinations(index, 2) if a > b)
            stored = comps.get(tuple(sorted(index)), zero)
            expected = -stored if inversions % 2 else stored
        assert tensor.component(index) == expected
