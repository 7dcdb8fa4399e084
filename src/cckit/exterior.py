"""Differential forms, multivector fields, and the graded calculus on a chart.

Components are stored sparsely on strictly increasing index tuples.  The
contraction convention is pinned once and used everywhere:

    i_{X wedge Y} beta = i_Y (i_X beta),   so   (i_{X wedge Y} beta) = beta(X, Y),

i.e. the first wedge factor fills the first slot.  The same front-slot rule
is used for contracting forms into multivectors, which makes
i_alpha Lambda the sharp map with components (alpha#)^k = sum_j alpha_j L^jk.

The Schouten-Nijenhuis bracket of multivectors is produced from its
defining identity

    i_[P,Q] beta = (-1)^(q(p+1)) i_P d i_Q beta + (-1)^p i_Q d i_P beta
                   - i_(P wedge Q) d beta

by extracting components against basis forms dx^J (for which the d beta
term drops); the full three-term identity stays available as a residual
for independent checks with general beta.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import Chart, Scalar

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


def sort_index(index: tuple[int, ...]) -> tuple[int, Index] | None:
    """Sort an index tuple, tracking the permutation sign; None on repeats."""
    sign = 1
    items = list(index)
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None
    return sign, tuple(items)


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
        sorted_index = sort_index(tuple(index))
        if sorted_index is None:
            return Scalar.zero(self.chart.dim)
        sign, key = sorted_index
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
        comps = dict(self.comps)
        for index, value in other.comps.items():
            if index in comps:
                comps[index] = comps[index] + value
            else:
                comps[index] = value
        return type(self)(self.chart, self.degree, comps)

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


def zero_multivector(chart: Chart, degree: int) -> Multivector:
    return Multivector(chart, degree)


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


def basis_form(chart: Chart, index: Index) -> DiffForm:
    return DiffForm(chart, len(index), {tuple(index): Scalar.one(chart.dim)})


def wedge(a: _Tensor, b: _Tensor) -> _Tensor:
    """Exterior product of two forms or two multivectors."""
    if type(a) is not type(b):
        raise KindMismatch("wedge requires two forms or two multivectors")
    if a.chart != b.chart:
        raise ChartMismatch("tensors live on different charts")
    degree = a.degree + b.degree
    comps: dict[Index, Scalar] = {}
    for left, f in a.comps.items():
        for right, g in b.comps.items():
            merged = _merge(left, right)
            if merged is None:
                continue
            sign, key = merged
            term = f * g
            if sign < 0:
                term = -term
            if key in comps:
                comps[key] = comps[key] + term
            else:
                comps[key] = term
    return type(a)(a.chart, degree, comps)


def exterior_derivative(beta: DiffForm) -> DiffForm:
    """d beta, one degree up (components differentiate, indices shuffle in)."""
    if not isinstance(beta, DiffForm):
        raise KindMismatch("exterior derivative applies to differential forms")
    chart = beta.chart
    comps: dict[Index, Scalar] = {}
    for index, value in beta.comps.items():
        for i in range(chart.dim):
            if i in index:
                continue
            derivative = value.partial(i)
            if derivative.is_zero():
                continue
            sign, key = _merge((i,), index)
            term = derivative if sign > 0 else -derivative
            if key in comps:
                comps[key] = comps[key] + term
            else:
                comps[key] = term
    return DiffForm(chart, beta.degree + 1, comps)


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
    comps: dict[Index, Scalar] = {}
    for full, coeff in b.comps.items():
        for sub in combinations(full, p):
            value = a.comps.get(sub)
            if value is None:
                continue
            sub_set = set(sub)
            rest = tuple(i for i in full if i not in sub_set)
            # parity of the shuffle carrying (sub + rest) back to full:
            # cross inversions between the two sorted blocks
            inversions = 0
            for s in sub:
                inversions += sum(1 for r in rest if r < s)
            term = value * coeff
            if inversions % 2:
                term = -term
            if rest in comps:
                comps[rest] = comps[rest] + term
            else:
                comps[rest] = term
    return type(b)(b.chart, q - p, comps)


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


def form_on_vector(beta: DiffForm, vector: Multivector) -> Scalar:
    if beta.degree != 1 or vector.degree != 1:
        raise DegreeError("form_on_vector pairs a 1-form with a vector field")
    return _contract(vector, beta).scalar()


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
    total = Scalar.zero(x.chart.dim)
    for (k,), coeff in x.comps.items():
        total = total + coeff * f.partial(k)
    return total


def schouten_bracket(p: Multivector, q: Multivector) -> Multivector:
    """Schouten-Nijenhuis bracket, degree deg p + deg q - 1.

    On vector fields it is the Lie bracket; on (f, X) it returns X.f.
    """
    if not isinstance(p, Multivector) or not isinstance(q, Multivector):
        raise KindMismatch("the bracket takes two multivector fields")
    if p.chart != q.chart:
        raise ChartMismatch("tensors live on different charts")
    chart = p.chart
    dp, dq = p.degree, q.degree
    degree = dp + dq - 1
    if degree < 0:
        return Multivector(chart, 0)
    sign_p = -1 if (dq * (dp + 1)) % 2 else 1
    sign_q = -1 if dp % 2 else 1
    comps: dict[Index, Scalar] = {}
    for index in combinations(range(chart.dim), degree):
        basis = basis_form(chart, index)
        total = Scalar.zero(chart.dim)
        if dp >= 1:  # else i_Q basis has negative degree: contributes zero
            inner = _contract(q, basis)
            outer = _contract(p, exterior_derivative(inner))
            value = outer.scalar()
            total = total + (value if sign_p > 0 else -value)
        if dq >= 1:
            inner = _contract(p, basis)
            outer = _contract(q, exterior_derivative(inner))
            value = outer.scalar()
            total = total + (value if sign_q > 0 else -value)
        if not total.is_zero():
            comps[index] = total
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
