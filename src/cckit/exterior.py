"""Differential forms, multivector fields, and the graded calculus on a chart.

Components are stored sparsely on strictly increasing index tuples.  The
contraction convention is pinned once and used everywhere:

    i_{X wedge Y} beta = i_Y (i_X beta),   so   (i_{X wedge Y} beta) = beta(X, Y),

i.e. the first wedge factor fills the first slot.  The same front-slot rule
is used for contracting forms into multivectors, which makes
i_alpha Lambda the sharp map with components (alpha#)^k = sum_j alpha_j L^jk.

Every operation builds each output component once, as one quotient over
the common denominator of its terms: the sum, the wedge product, d and
the contractions (and so sharp, pairings and X.f) collect their terms per
output index and sum them with `sum_over_common_denominator`.  Adding the
terms one at a time would multiply denominators that divide each other,
so p/d + q/d^2 would land over d^3 instead of d^2.

The Schouten-Nijenhuis bracket of a p-vector P and a q-vector Q is computed
by the odd-variable (superfunction) formula of C.-M. Marle, "The
Schouten-Nijenhuis bracket and interior products", J. Geom. Phys. 23
(1997):

    [P,Q] = (-1)^((p+1)q) sum_i ( (d_{x_i} Q) wedge (d_{xi_i} P)
                                  - (-1)^((p-1)(q-1)) (d_{x_i} P) wedge (d_{xi_i} Q) )

where d_{x_i} differentiates every component and the left derivative
d_{xi_i} is the front-slot contraction of dx^i.  It is evaluated on
polynomial numerators over one common denominator per argument, so here
too each output component is a single quotient (see `schouten_bracket`).
Its defining identity

    i_[P,Q] beta = (-1)^(q(p+1)) i_P d i_Q beta + (-1)^p i_Q d i_P beta
                   - i_(P wedge Q) d beta

is kept, through contractions and d alone, as the independent residual
`schouten_identity_residual`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebra import (
    Chart,
    Poly,
    Scalar,
    add_terms,
    common_denominator,
    over_common_denominator,
    sum_over_common_denominator,
)

Index = tuple[int, ...]


class ChartMismatch(ValueError):
    pass


class KindMismatch(TypeError):
    pass


class DegreeError(ValueError):
    pass


def _merge(left: Index, right: Index) -> tuple[int, Index] | None:
    """Merge two strictly increasing disjoint tuples; None when they overlap.

    Returns (sign, merged) where sign is the parity of the shuffle sorting
    left + right.
    """
    if not left:
        return 1, right
    if not right:
        return 1, left
    merged: list[int] = []
    inversions = 0
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            j += 1
            inversions += nl - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    return (-1 if inversions % 2 else 1), tuple(merged)


def _summed(nvars: int, terms: dict[Index, list[Scalar]]) -> dict[Index, Scalar]:
    """One quotient per index: the terms collected for it, summed at once."""
    return {
        index: sum_over_common_denominator(nvars, values)
        for index, values in terms.items()
    }


class _Tensor:
    """Shared storage for antisymmetric covariant/contravariant tensors."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps: dict[Index, Scalar] | None = None):
        if degree < 0:
            raise DegreeError("negative degree")
        clean: dict[Index, Scalar] = {}
        if comps:
            for index, value in comps.items():
                index = tuple(index)
                if len(index) != degree:
                    raise DegreeError(
                        f"component index {index} does not match degree {degree}"
                    )
                if any(not 0 <= i < chart.dim for i in index):
                    raise IndexError(f"component index {index} out of range")
                if any(a >= b for a, b in zip(index, index[1:])):
                    raise ValueError(f"component index {index} is not increasing")
                if not value.is_zero():
                    clean[index] = value
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- access -----------------------------------------------------------

    def component(self, index: tuple[int, ...]) -> Scalar:
        """Signed component for an arbitrary (not necessarily sorted) index."""
        sign, key = 1, ()
        for i in index:
            merged = _merge(key, (i,))
            if merged is None:
                return Scalar.zero(self.chart.dim)
            step, key = merged
            sign *= step
        value = self.comps.get(key)
        if value is None:
            return Scalar.zero(self.chart.dim)
        return value if sign > 0 else -value

    def is_zero(self) -> bool:
        return not self.comps

    def scalar(self) -> Scalar:
        if self.degree != 0:
            raise DegreeError(
                f"only a degree-0 {type(self).__name__} collapses to a scalar"
            )
        return self.comps.get((), Scalar.zero(self.chart.dim))

    # -- arithmetic --------------------------------------------------------

    def _compatible(self, other: "_Tensor") -> None:
        if type(self) is not type(other):
            raise KindMismatch(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.chart != other.chart:
            raise ChartMismatch("tensors live on different charts")
        if self.degree != other.degree:
            raise DegreeError(
                f"cannot combine degrees {self.degree} and {other.degree}"
            )

    def __add__(self, other: "_Tensor") -> "_Tensor":
        self._compatible(other)
        terms = {index: [value] for index, value in self.comps.items()}
        for index, value in other.comps.items():
            terms.setdefault(index, []).append(value)
        return type(self)(self.chart, self.degree, _summed(self.chart.dim, terms))

    def __neg__(self) -> "_Tensor":
        return type(self)(
            self.chart, self.degree, {i: -v for i, v in self.comps.items()}
        )

    def __sub__(self, other: "_Tensor") -> "_Tensor":
        return self + (-other)

    def scale(self, factor: Scalar | int) -> "_Tensor":
        if isinstance(factor, int):
            factor = Scalar.const(self.chart.dim, factor)
        return type(self)(
            self.chart, self.degree, {i: factor * v for i, v in self.comps.items()}
        )

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        if self.chart != other.chart or self.degree != other.degree:
            return False
        keys = set(self.comps) | set(other.comps)
        zero = Scalar.zero(self.chart.dim)
        return all(
            self.comps.get(k, zero) == other.comps.get(k, zero) for k in keys
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(deg={self.degree}, "
            f"{{{', '.join(map(str, sorted(self.comps)))}}})"
        )


class DiffForm(_Tensor):
    """Differential p-form with rational-function components."""


class Multivector(_Tensor):
    """Antisymmetric contravariant p-vector field."""


def zero_form(chart: Chart, degree: int) -> DiffForm:
    return DiffForm(chart, degree)


def scalar_form(chart: Chart, value: Scalar) -> DiffForm:
    return DiffForm(chart, 0, {(): value})


def scalar_multivector(chart: Chart, value: Scalar) -> Multivector:
    return Multivector(chart, 0, {(): value})


def coordinate_form(chart: Chart, index: int) -> DiffForm:
    """The basis 1-form dx^index."""
    return DiffForm(chart, 1, {(index,): Scalar.one(chart.dim)})


def coordinate_vector(chart: Chart, index: int) -> Multivector:
    """The basis vector field along coordinate `index`."""
    return Multivector(chart, 1, {(index,): Scalar.one(chart.dim)})


def wedge(a: _Tensor, b: _Tensor) -> _Tensor:
    """Exterior product of two forms or two multivectors."""
    if type(a) is not type(b):
        raise KindMismatch("wedge requires two forms or two multivectors")
    if a.chart != b.chart:
        raise ChartMismatch("tensors live on different charts")
    degree = a.degree + b.degree
    terms: dict[Index, list[Scalar]] = {}
    for left, f in a.comps.items():
        for right, g in b.comps.items():
            merged = _merge(left, right)
            if merged is None:
                continue
            sign, key = merged
            term = f * g
            terms.setdefault(key, []).append(term if sign > 0 else -term)
    return type(a)(a.chart, degree, _summed(a.chart.dim, terms))


def exterior_derivative(beta: DiffForm) -> DiffForm:
    """d beta, one degree up (components differentiate, indices shuffle in)."""
    if not isinstance(beta, DiffForm):
        raise KindMismatch("exterior derivative applies to differential forms")
    chart = beta.chart
    terms: dict[Index, list[Scalar]] = {}
    for index, value in beta.comps.items():
        for i in range(chart.dim):
            if i in index:
                continue
            derivative = value.partial(i)
            if derivative.is_zero():
                continue
            sign, key = _merge((i,), index)
            terms.setdefault(key, []).append(
                derivative if sign > 0 else -derivative
            )
    return DiffForm(chart, beta.degree + 1, _summed(chart.dim, terms))


def _contract(a: _Tensor, b: _Tensor) -> _Tensor:
    """Front-slot contraction of `a` into `b`; zero when deg a > deg b.

    `a` and `b` must be of opposite kinds; the result has the kind of `b`
    and degree deg b - deg a.
    """
    if type(a) is type(b):
        raise KindMismatch("contraction pairs a multivector with a form")
    if a.chart != b.chart:
        raise ChartMismatch("tensors live on different charts")
    p, q = a.degree, b.degree
    if p > q:
        return type(b)(b.chart, 0)
    terms: dict[Index, list[Scalar]] = {}
    for full, coeff in b.comps.items():
        for sub in combinations(full, p):
            value = a.comps.get(sub)
            if value is None:
                continue
            sub_set = set(sub)
            rest = tuple(i for i in full if i not in sub_set)
            # the sign of the shuffle carrying (sub + rest) back to full
            sign, _ = _merge(sub, rest)
            term = value * coeff
            terms.setdefault(rest, []).append(term if sign > 0 else -term)
    return type(b)(b.chart, q - p, _summed(b.chart.dim, terms))


def interior_product(a: _Tensor, b: _Tensor) -> _Tensor:
    """i_a b for opposite kinds, front-slot convention; deg a <= deg b."""
    if type(a) is type(b):
        raise KindMismatch("interior product pairs a multivector with a form")
    if a.degree > b.degree:
        raise DegreeError(
            f"cannot contract degree {a.degree} into degree {b.degree}"
        )
    return _contract(a, b)


def pairing(beta: DiffForm, *vectors: Multivector) -> Scalar:
    """beta(X_1, ..., X_p) with the first argument in the first slot."""
    if not isinstance(beta, DiffForm):
        raise KindMismatch("pairing evaluates a form on vector fields")
    if len(vectors) != beta.degree:
        raise DegreeError(
            f"form of degree {beta.degree} takes {beta.degree} arguments, "
            f"got {len(vectors)}"
        )
    if not vectors:
        return beta.scalar()
    block: Multivector | None = None
    for vector in vectors:
        if vector.degree != 1:
            raise DegreeError("pairing arguments must be vector fields")
        block = vector if block is None else wedge(block, vector)
    return _contract(block, beta).scalar()


def lie_derivative_form(x: Multivector, beta: DiffForm) -> DiffForm:
    """Cartan formula: L_X beta = i_X d beta + d i_X beta."""
    if x.degree != 1:
        raise DegreeError("Lie derivative along a vector field only")
    first = _contract(x, exterior_derivative(beta))
    if beta.degree == 0:
        return first
    return first + exterior_derivative(_contract(x, beta))


def lie_derivative_scalar(x: Multivector, f: Scalar) -> Scalar:
    """Directional derivative X.f."""
    if x.degree != 1:
        raise DegreeError("directional derivative along a vector field only")
    return sum_over_common_denominator(
        x.chart.dim, [coeff * f.partial(k) for (k,), coeff in x.comps.items()]
    )


_Terms = dict[tuple[int, ...], Fraction]


def _numerators(t: Multivector) -> tuple[Poly, dict[Index, Poly]]:
    """(den, numerators): the components of t over one common denominator."""
    den, nums = over_common_denominator(t.chart.dim, list(t.comps.values()))
    return den, dict(zip(t.comps, nums))


def _partials(nums: dict[Index, Poly], den: Poly) -> list[dict[Index, Poly]]:
    """Per coordinate i, the numerators over den^2 of the i-partials of nums/den.

    (num/den)' = (den num' - den' num)/den^2, each partial taken once.  A
    constant common denominator is 1, and there the numerator is num'.
    """
    constant = den.is_constant()
    out = []
    for i in range(den.nvars):
        d_den = den.partial(i)
        comps: dict[Index, Poly] = {}
        for index, num in nums.items():
            d_num = num.partial(i)
            if not constant:
                d_num = den * d_num
                if not d_den.is_zero():
                    d_num = d_num - d_den * num
            if not d_num.is_zero():
                comps[index] = d_num
        out.append(comps)
    return out


def _odd_partials(
    nums: dict[Index, Poly], dim: int
) -> list[list[tuple[int, Index, Poly]]]:
    """For each i, the left derivative along xi_i as (sign, index, numerator).

    Taking xi_i out of slot k of an increasing index moves it to the front
    past k odd variables, so the sign is (-1)^k: the front-slot contraction
    of dx^i.
    """
    out: list[list[tuple[int, Index, Poly]]] = [[] for _ in range(dim)]
    for index, num in nums.items():
        for k, i in enumerate(index):
            out[i].append((-1 if k % 2 else 1, index[:k] + index[k + 1:], num))
    return out


def _add_wedges(
    sums: dict[Index, _Terms],
    sign: int,
    partials: list[dict[Index, Poly]],
    odd: list[list[tuple[int, Index, Poly]]],
) -> None:
    """Add sign * sum_i partials[i] wedge odd[i] into the term maps `sums`."""
    for even, contracted in zip(partials, odd):
        for left, d_num in even.items():
            for odd_sign, right, num in contracted:
                merged = _merge(left, right)
                if merged is None:
                    continue
                merge_sign, key = merged
                add_terms(
                    sums.setdefault(key, {}),
                    (d_num * num).packed,
                    sign * odd_sign * merge_sign,
                )


def schouten_bracket(p: Multivector, q: Multivector) -> Multivector:
    """Schouten-Nijenhuis bracket, degree deg p + deg q - 1.

    On vector fields it is the Lie bracket; on (f, X) it returns X.f.

    Evaluates the odd-variable formula of the module docstring on
    polynomial numerators.  With P = P~/a and Q = Q~/b over common
    denominators, (d_i Q) wedge (d_xi_i P) has denominator a b^2 and
    (d_i P) wedge (d_xi_i Q) has a^2 b, so with m the common multiple of a
    and b every output component is one Scalar over a b m: a^3 when a = b,
    a^2 b^2 when neither divides the other, 1 on polynomial input.  The
    denominator is built before any partial or wedge, so one over
    CCKIT_MAX_TERMS fails before the bulk of the numerator work.
    """
    if not isinstance(p, Multivector) or not isinstance(q, Multivector):
        raise KindMismatch("the bracket takes two multivector fields")
    if p.chart != q.chart:
        raise ChartMismatch("tensors live on different charts")
    chart = p.chart
    dim = chart.dim
    dp, dq = p.degree, q.degree
    degree = dp + dq - 1
    if degree < 0:
        return Multivector(chart, 0)
    if p.is_zero() or q.is_zero():
        return Multivector(chart, degree)
    a, p_nums = _numerators(p)
    b, q_nums = _numerators(q)
    m, (m_over_a, m_over_b) = common_denominator(dim, [a, b])
    den = a * b * m
    sign = -1 if ((dp + 1) * dq) % 2 else 1
    inner = -1 if ((dp - 1) * (dq - 1)) % 2 else 1
    over_ab2: dict[Index, _Terms] = {}
    over_a2b: dict[Index, _Terms] = {}
    _add_wedges(over_ab2, sign, _partials(q_nums, b), _odd_partials(p_nums, dim))
    _add_wedges(
        over_a2b, -sign * inner, _partials(p_nums, a), _odd_partials(q_nums, dim)
    )
    comps: dict[Index, Scalar] = {}
    for key in sorted(over_ab2.keys() | over_a2b.keys()):
        num = m_over_b * Poly(dim, over_ab2.get(key)) + m_over_a * Poly(
            dim, over_a2b.get(key)
        )
        if not num.is_zero():
            comps[key] = Scalar(num, den)
    return Multivector(chart, degree, comps)


def schouten_identity_residual(
    p: Multivector, q: Multivector, beta: DiffForm
) -> Scalar:
    """Residual of the defining identity against a general (p+q-1)-form.

    i_[P,Q] beta - ((-1)^(q(p+1)) i_P d i_Q beta + (-1)^p i_Q d i_P beta
                    - i_(P wedge Q) d beta)
    """
    dp, dq = p.degree, q.degree
    if beta.degree != dp + dq - 1:
        raise DegreeError("test form must have degree deg P + deg Q - 1")
    chart = p.chart
    zero = Scalar.zero(chart.dim)
    lhs = _contract(schouten_bracket(p, q), beta).scalar()
    sign_p = -1 if (dq * (dp + 1)) % 2 else 1
    sign_q = -1 if dp % 2 else 1
    # each interior term drops outright when its inner contraction would
    # land in negative degree (deg P = 0 or deg Q = 0)
    term_p = (
        _contract(p, exterior_derivative(_contract(q, beta))).scalar()
        if dp >= 1
        else zero
    )
    term_q = (
        _contract(q, exterior_derivative(_contract(p, beta))).scalar()
        if dq >= 1
        else zero
    )
    term_w = _contract(wedge(p, q), exterior_derivative(beta)).scalar()
    rhs = (
        (term_p if sign_p > 0 else -term_p)
        + (term_q if sign_q > 0 else -term_q)
        - term_w
    )
    return lhs - rhs
