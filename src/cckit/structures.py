"""Almost-cosymplectic-contact pairs and their contravariant duals.

A covariant pair on a (2n+1)-chart is (omega, Omega): a 1-form and a
2-form.  The pair is regular when the density omega wedge Omega^n has a
nonzero top component, and almost-cosymplectic-contact when additionally
d Omega = 0.  A regular pair determines a unique dual (E, Lambda): the
vector field with i_E omega = 1, i_E Omega = 0 and the bivector with
Lambda#(omega) = 0 inverting Omega on the image of the projection
p1 X = X - omega(X) E, i.e.

    Lambda# o Omega_flat = p1      and      Omega_flat o Lambda# = q1,

with q1 beta = beta - beta(E) omega the dual projection.  The dual is
produced by one exact linear solve; antisymmetry of Lambda is asserted
afterwards, never imposed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .algebra import Chart, LinearSolveError, Scalar, solve_unique
from .exterior import (
    DiffForm,
    Multivector,
    _contract,
    coordinate_form,
    coordinate_vector,
    exterior_derivative,
    lie_derivative_form,
    pairing,
    schouten_bracket,
    wedge,
)
from .report import CheckEntry, ConditionReport


class StructureError(ValueError):
    pass


class NotRegular(StructureError):
    """The density omega wedge Omega^n vanishes identically."""


class DualityError(StructureError):
    """The linear solve violated an invariant of the duality system."""


class StructureClass(Enum):
    COSYMPLECTIC = "cosymplectic"
    CONTACT = "contact"
    ALMOST_COSYMPLECTIC_CONTACT = "almost_cosymplectic_contact"
    PRE_COSYMPLECTIC_ONLY = "pre_cosymplectic_only"
    NOT_REGULAR = "not_regular"


@dataclass(frozen=True)
class CovariantPair:
    omega: DiffForm
    Omega: DiffForm

    def __post_init__(self) -> None:
        if self.omega.degree != 1 or self.Omega.degree != 2:
            raise StructureError("covariant pair is a (1-form, 2-form)")
        if self.omega.chart != self.Omega.chart:
            raise StructureError("pair members live on different charts")

    @property
    def chart(self) -> Chart:
        return self.omega.chart

    # Derived data, computed on first use and kept for the life of the pair.

    @cached_property
    def density(self) -> Scalar:
        """Top component of omega wedge Omega^n."""
        power = self.omega
        for _ in range(self.chart.half):
            power = wedge(power, self.Omega)
        return power.component(tuple(range(self.chart.dim)))

    @cached_property
    def d_omega(self) -> DiffForm:
        return exterior_derivative(self.omega)

    @cached_property
    def d_Omega(self) -> DiffForm:
        return exterior_derivative(self.Omega)

    @cached_property
    def structure_class(self) -> "StructureClass":
        """Precedence: regularity, then d omega = 0, then Omega = d omega, then d Omega = 0."""
        if self.density.is_zero():
            return StructureClass.NOT_REGULAR
        if self.d_omega.is_zero() and self.d_Omega.is_zero():
            return StructureClass.COSYMPLECTIC
        if self.Omega == self.d_omega:
            return StructureClass.CONTACT
        if self.d_Omega.is_zero():
            return StructureClass.ALMOST_COSYMPLECTIC_CONTACT
        return StructureClass.PRE_COSYMPLECTIC_ONLY


@dataclass(frozen=True)
class ContravariantPair:
    E: Multivector
    Lam: Multivector

    def __post_init__(self) -> None:
        if self.E.degree != 1 or self.Lam.degree != 2:
            raise StructureError("contravariant pair is a (vector, bivector)")
        if self.E.chart != self.Lam.chart:
            raise StructureError("pair members live on different charts")

    @property
    def chart(self) -> Chart:
        return self.E.chart

    @cached_property
    def sharps(self) -> list[Multivector]:
        """The columns Lambda# dx^j, one per coordinate j, built once."""
        chart = self.chart
        return [sharp(self, coordinate_form(chart, j)) for j in range(chart.dim)]


def regularity_density(pair: CovariantPair) -> Scalar:
    """Top component of omega wedge Omega^n."""
    return pair.density


def classify(pair: CovariantPair) -> StructureClass:
    """Precedence: regularity, then d omega = 0, then Omega = d omega, then d Omega = 0."""
    return pair.structure_class


def is_almost_cosymplectic_contact(pair: CovariantPair) -> bool:
    """Regular with d Omega = 0 (includes cosymplectic and contact pairs)."""
    return classify(pair) in (
        StructureClass.COSYMPLECTIC,
        StructureClass.CONTACT,
        StructureClass.ALMOST_COSYMPLECTIC_CONTACT,
    )


def dualize(pair: CovariantPair) -> ContravariantPair:
    """Solve for the unique dual (E, Lambda) of a regular pair.

    Raises NotRegular when the density vanishes identically and
    DualityError when the solve or the antisymmetry assertion fails.
    """
    if regularity_density(pair).is_zero():
        raise NotRegular("density omega wedge Omega^n vanishes identically")
    chart = pair.chart
    dim = chart.dim
    zero = Scalar.zero(dim)
    one = Scalar.one(dim)
    omega_row = [pair.omega.component((j,)) for j in range(dim)]
    rows = [
        [pair.Omega.component((a, j)) for j in range(dim)] for a in range(dim)
    ]
    rows.append(omega_row)

    rhs_e = [zero] * dim + [one]
    try:
        (e_column,) = solve_unique(rows, [rhs_e])
    except LinearSolveError as error:
        raise DualityError(f"Reeb solve failed: {error}") from error
    e_field = Multivector(
        chart, 1, {(k,): e_column[k] for k in range(dim)}
    )

    lam_rhs = []
    for k in range(dim):
        column = [
            (one if a == k else zero) - omega_row[a] * e_column[k]
            for a in range(dim)
        ]
        column.append(zero)
        lam_rhs.append(column)
    try:
        lam_columns = solve_unique(rows, lam_rhs)
    except LinearSolveError as error:
        raise DualityError(f"bivector solve failed: {error}") from error

    for j in range(dim):
        if not lam_columns[j][j].is_zero():
            raise DualityError("bivector solution has a nonzero diagonal entry")
        for k in range(j + 1, dim):
            if lam_columns[k][j] != -lam_columns[j][k]:
                raise DualityError("bivector solution is not antisymmetric")
    lam = Multivector(
        chart,
        2,
        {
            (j, k): lam_columns[k][j]
            for j in range(dim)
            for k in range(j + 1, dim)
        },
    )
    return ContravariantPair(e_field, lam)


def sharp(con: ContravariantPair, alpha: DiffForm) -> Multivector:
    """Lambda#(alpha): the vector field with components sum_j alpha_j L^jk."""
    if alpha.degree != 1:
        raise StructureError("sharp applies to 1-forms")
    return _contract(alpha, con.Lam)


def flat(cov: CovariantPair, x: Multivector) -> DiffForm:
    """Omega_flat(X) = i_X Omega."""
    if x.degree != 1:
        raise StructureError("flat applies to vector fields")
    return _contract(x, cov.Omega)


def lambda_pair(con: ContravariantPair, a: DiffForm, b: DiffForm) -> Scalar:
    """Lambda(a, b) = b(Lambda# a)."""
    return pairing(b, sharp(con, a))


def project(
    cov: CovariantPair,
    con: ContravariantPair,
    tensor: DiffForm | Multivector,
    which: str,
) -> DiffForm | Multivector:
    """Split along the Reeb direction.

    p1 X = X - omega(X) E, p2 X = omega(X) E on vector fields;
    q1 beta = beta - beta(E) omega, q2 beta = beta(E) omega on 1-forms.
    """
    if which in ("p1", "p2"):
        if not isinstance(tensor, Multivector) or tensor.degree != 1:
            raise StructureError(f"projection {which} applies to vector fields")
        weight = pairing(cov.omega, tensor)
        reeb_part = con.E.scale(weight)
        return reeb_part if which == "p2" else tensor - reeb_part
    if which in ("q1", "q2"):
        if not isinstance(tensor, DiffForm) or tensor.degree != 1:
            raise StructureError(f"projection {which} applies to 1-forms")
        weight = pairing(tensor, con.E)
        omega_part = cov.omega.scale(weight)
        return omega_part if which == "q2" else tensor - omega_part
    raise StructureError(f"unknown projection {which!r}")


def decompose_vector(
    cov: CovariantPair, con: ContravariantPair, x: Multivector
) -> tuple[DiffForm, Scalar]:
    """X = Lambda#(alpha) + h E with alpha = Omega_flat(p1 X), h = omega(X).

    The returned alpha is canonical: alpha(E) = 0.
    """
    if x.degree != 1:
        raise StructureError("decomposition applies to vector fields")
    h = pairing(cov.omega, x)
    alpha = flat(cov, project(cov, con, x, "p1"))
    return alpha, h


def decompose_form(
    cov: CovariantPair, con: ContravariantPair, beta: DiffForm
) -> tuple[Multivector, Scalar]:
    """beta = Omega_flat(Y) + f omega with Y = Lambda#(beta), f = beta(E)."""
    if beta.degree != 1:
        raise StructureError("decomposition applies to 1-forms")
    f = pairing(beta, con.E)
    y = sharp(con, beta)
    return y, f


def second_pair(pair: CovariantPair) -> CovariantPair:
    """The companion pair (omega, Omega + d omega)."""
    return CovariantPair(pair.omega, pair.Omega + pair.d_omega)


def two_form_through_sharp(con: ContravariantPair, two_form: DiffForm) -> Multivector:
    """The bivector (j, k) -> two_form(Lambda# dx^j, Lambda# dx^k)."""
    if two_form.degree != 2:
        raise StructureError("expected a 2-form")
    chart = con.chart
    sharps = con.sharps
    comps: dict[tuple[int, ...], Scalar] = {}
    for j in range(chart.dim):
        for k in range(j + 1, chart.dim):
            value = pairing(two_form, sharps[j], sharps[k])
            if not value.is_zero():
                comps[(j, k)] = value
    return Multivector(chart, 2, comps)


def verify_duality(cov: CovariantPair, con: ContravariantPair) -> ConditionReport:
    """Exact residuals for the four defining properties of the dual pair."""
    chart = cov.chart
    unit = pairing(cov.omega, con.E) - Scalar.one(chart.dim)
    kernel = _contract(con.E, cov.Omega)
    omega_sharp = sharp(con, cov.omega)
    sharp_flat = []
    flat_sharp = []
    for a in range(chart.dim):
        basis_vector = coordinate_vector(chart, a)
        sharp_flat.append(
            sharp(con, flat(cov, basis_vector))
            - project(cov, con, basis_vector, "p1")
        )
        flat_sharp.append(
            flat(cov, con.sharps[a])
            - project(cov, con, coordinate_form(chart, a), "q1")
        )
    entries = (
        CheckEntry.of("normalization omega(E) = 1", unit),
        CheckEntry.of("kernel condition i_E Omega = 0", kernel),
        CheckEntry.of("isotropy Lambda#(omega) = 0", omega_sharp),
        CheckEntry.of("inverse on image: Lambda# o Omega_flat = p1", sharp_flat),
        CheckEntry.of("inverse on image: Omega_flat o Lambda# = q1", flat_sharp),
    )
    return ConditionReport("duality certificate", entries)


def verify_contravariant_identities(
    cov: CovariantPair, con: ContravariantPair
) -> ConditionReport:
    """Bracket identities satisfied by the dual of a closed regular pair.

    [E, Lambda] = -E wedge Lambda#(L_E omega) and
    [Lambda, Lambda] = 2 E wedge (d omega pulled through Lambda# twice),
    plus the cosymplectic/contact specializations when they apply.
    """
    chart = cov.chart
    closedness = cov.d_Omega
    tau = lie_derivative_form(con.E, cov.omega)
    e_lam_bracket = schouten_bracket(con.E, con.Lam)
    lam_lam_bracket = schouten_bracket(con.Lam, con.Lam)
    e_lam = e_lam_bracket + wedge(con.E, sharp(con, tau))
    pulled = two_form_through_sharp(con, cov.d_omega)
    lam_lam = lam_lam_bracket - wedge(con.E, pulled).scale(2)
    entries = [
        CheckEntry.of("closedness d Omega = 0", closedness),
        CheckEntry.of(
            "[E, Lambda] + E ^ Lambda#(L_E omega) = 0", e_lam
        ),
        CheckEntry.of(
            "[Lambda, Lambda] - 2 E ^ (d omega)(Lambda#., Lambda#.) = 0", lam_lam
        ),
    ]
    kind = classify(cov)
    if kind == StructureClass.COSYMPLECTIC:
        entries.append(
            CheckEntry.of(
                "cosymplectic specialization [E, Lambda] = 0", e_lam_bracket
            )
        )
        entries.append(
            CheckEntry.of(
                "cosymplectic specialization [Lambda, Lambda] = 0", lam_lam_bracket
            )
        )
    elif kind == StructureClass.CONTACT:
        entries.append(
            CheckEntry.of("contact specialization [E, Lambda] = 0", e_lam_bracket)
        )
        entries.append(
            CheckEntry.of(
                "contact specialization [Lambda, Lambda] + 2 E ^ Lambda = 0",
                lam_lam_bracket + wedge(con.E, con.Lam).scale(2),
            )
        )
    return ConditionReport("contravariant bracket identities", tuple(entries))
