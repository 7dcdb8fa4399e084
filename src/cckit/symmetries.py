"""Infinitesimal symmetries of an almost-cosymplectic-contact structure.

Every vector field on the chart splits as X = Lambda#(alpha) + h E for a
generator pair g = (alpha, h); alpha is unique up to adding multiples of
omega, so pairs are compared through (Lambda# alpha, h).  The module
provides

* the bilinear bracket on generator pairs that mirrors the commutator:
  X_[[g1; g2]] = [X_g1, X_g2] exactly;
* residual-based certification of symmetry of omega, Omega, E, Lambda and
  the four mixed pairs, in both generator-condition form and direct
  Lie-derivative form, with exact equivalence between the two;
* reduced bracket formulas valid on each symmetry class (each computed
  from all of its displayed variants, which must agree);
* structural identities: the anchored Leibniz rule, derivation laws, the
  averaged Lie-derivative form of the bracket, and the commutation of
  Lie transport with the sharp map;
* an exact polynomial generator search (nullspace over Q).

The closed-kernel conditions are evaluated on the canonical representative
alpha - alpha(E) omega; this is the exact form of L_X Omega and keeps every
verdict independent of the representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from itertools import product

from .algebra import (
    Chart,
    Scalar,
    add_terms,
    grlex_key,
    over_common_denominator,
    rational_nullspace,
    sum_over_common_denominator,
)
from .algebra.poly import Poly, pack_exponent, variable_keys
from .exterior import (
    DiffForm,
    Multivector,
    _contract,
    coordinate_form,
    exterior_derivative,
    lie_derivative_form,
    lie_derivative_scalar,
    pairing,
    scalar_form,
    schouten_bracket,
    wedge,
    zero_form,
)
from .report import CheckEntry, ConditionReport
from .structures import (
    ContravariantPair,
    CovariantPair,
    StructureError,
    is_almost_cosymplectic_contact,
    lambda_pair,
    project,
    sharp,
    two_form_through_sharp,
)


class SymmetryTarget(Enum):
    omega = "omega"
    Omega = "Omega"
    E = "E"
    Lambda = "Lambda"
    cov_pair = "cov_pair"
    contra_pair = "contra_pair"
    E_Omega = "E_Omega"
    Lambda_Omega = "Lambda_Omega"
    E_omega = "E_omega"
    Lambda_omega = "Lambda_omega"


class BracketMode(Enum):
    omega_sym = "omega_sym"
    Omega_sym = "Omega_sym"
    E_sym = "E_sym"
    full_sym = "full_sym"


class PreconditionError(StructureError):
    """Inputs fail the symmetry-class preconditions of an operation."""

    def __init__(self, message: str, reports: tuple[ConditionReport, ...] = ()):
        super().__init__(message)
        self.reports = reports


class InternalIdentityError(StructureError):
    """Two displays of the same reduced formula disagreed (engine invariant)."""


@dataclass(frozen=True)
class GeneratorPair:
    """A (1-form, function) pair generating the vector field alpha# + h E."""

    alpha: DiffForm
    h: Scalar

    def __post_init__(self) -> None:
        if self.alpha.degree != 1:
            raise StructureError("generator pair carries a 1-form")
        if self.alpha.chart.dim != self.h.nvars:
            raise StructureError("pair members live on different charts")

    @property
    def chart(self) -> Chart:
        return self.alpha.chart

    def __add__(self, other: "GeneratorPair") -> "GeneratorPair":
        return GeneratorPair(self.alpha + other.alpha, self.h + other.h)

    def __sub__(self, other: "GeneratorPair") -> "GeneratorPair":
        return GeneratorPair(self.alpha - other.alpha, self.h - other.h)

    def __neg__(self) -> "GeneratorPair":
        return GeneratorPair(-self.alpha, -self.h)

    def scale(self, factor: Scalar | int | Fraction) -> "GeneratorPair":
        if not isinstance(factor, Scalar):
            factor = Scalar.const(self.chart.dim, factor)
        return GeneratorPair(self.alpha.scale(factor), factor * self.h)


def zero_pair(chart: Chart) -> GeneratorPair:
    return GeneratorPair(zero_form(chart, 1), Scalar.zero(chart.dim))


class _Setting:
    """The (cov, con) context: derived data shared by the symmetry computations.

    tau is built once; the first-order symbols of a linear builder are
    built on first use and kept, so a search over many targets and degrees
    builds each set once.
    """

    def __init__(self, cov: CovariantPair, con: ContravariantPair):
        self.cov = cov
        self.con = con
        self.tau = lie_derivative_form(con.E, cov.omega)  # L_E omega = i_E d omega
        self._symbols: dict = {}

    def symbols(self, builder) -> dict[tuple[int, ...], tuple[Poly, list[list[Poly]]]]:
        """`_first_order_symbols(self, builder)`, built on the first call."""
        if builder not in self._symbols:
            self._symbols[builder] = _first_order_symbols(self, builder)
        return self._symbols[builder]


def _setting(cov: CovariantPair, con: ContravariantPair) -> _Setting:
    """The context of (cov, con), kept on con and rebuilt for another cov.

    It lives as long as the con object does; a copy or an equal dual
    built anew starts without one.
    """
    if cov.chart != con.chart:
        raise StructureError("covariant and contravariant pairs on different charts")
    s = vars(con).get("_symmetry_setting")
    if s is None or s.cov is not cov:
        s = vars(con)["_symmetry_setting"] = _Setting(cov, con)
    return s


def _grad(f: Scalar, chart: Chart) -> DiffForm:
    return exterior_derivative(scalar_form(chart, f))


def pair_to_vector(
    cov: CovariantPair, con: ContravariantPair, g: GeneratorPair
) -> Multivector:
    """X_g = Lambda#(alpha) + h E."""
    return sharp(con, g.alpha) + con.E.scale(g.h)


def pairs_equivalent(
    cov: CovariantPair,
    con: ContravariantPair,
    g1: GeneratorPair,
    g2: GeneratorPair,
) -> bool:
    """Equality modulo the omega-multiple ambiguity of the 1-form slot."""
    return sharp(con, g1.alpha) == sharp(con, g2.alpha) and g1.h == g2.h


def pair_bracket(
    cov: CovariantPair, con: ContravariantPair, g1: GeneratorPair, g2: GeneratorPair
) -> GeneratorPair:
    """The bilinear bracket on generator pairs.

    Mirrors the commutator: X of the result equals [X_g1, X_g2] exactly.
    Requires d Omega = 0 (the identities behind the formula need it).
    """
    if not is_almost_cosymplectic_contact(cov):
        raise StructureError(
            "pair bracket requires a regular pair with d Omega = 0"
        )
    s = _setting(cov, con)
    return _bracket_formula(s, g1, g2)


def _bracket_formula(s: _Setting, g1: GeneratorPair, g2: GeneratorPair) -> GeneratorPair:
    """The transverse terms plus h1 R(g2) - h2 R(g1).

    R(g) = (L_E alpha - alpha(E) L_E omega, E.h + Lambda(L_E omega, alpha))
    is the Reeb transport of g.
    """
    core = _transverse_terms(s, g1, g2)
    h1, h2 = g1.h, g2.h
    alpha_out = (
        core.alpha
        + _reeb_form(s, g2.alpha).scale(h1)
        - _reeb_form(s, g1.alpha).scale(h2)
    )
    h_out = sum_over_common_denominator(
        s.cov.chart.dim,
        [
            core.h,
            h1 * _reeb_scalar_residual(s, g2),
            -(h2 * _reeb_scalar_residual(s, g1)),
        ],
    )
    return GeneratorPair(alpha_out, h_out)


def _transverse_terms(
    s: _Setting, g1: GeneratorPair, g2: GeneratorPair
) -> GeneratorPair:
    """The bracket terms without Reeb transport (the E_sym reduced bracket)."""
    a1, h1 = g1.alpha, g1.h
    a2, h2 = g2.alpha, g2.h
    a1s = sharp(s.con, a1)
    a2s = sharp(s.con, a2)
    a1_e = pairing(a1, s.con.E)
    a2_e = pairing(a2, s.con.E)
    alpha = (
        _grad(pairing(a2, a1s), s.cov.chart)  # d Lambda(alpha1, alpha2)
        - _contract(a2s, exterior_derivative(a1))
        + _contract(a1s, exterior_derivative(a2))
        + _contract(a2s, s.cov.d_omega).scale(a1_e)
        - _contract(a1s, s.cov.d_omega).scale(a2_e)
    )
    h = sum_over_common_denominator(
        s.cov.chart.dim,
        [
            lie_derivative_scalar(a1s, h2),
            -lie_derivative_scalar(a2s, h1),
            -pairing(s.cov.d_omega, a1s, a2s),
        ],
    )
    return GeneratorPair(alpha, h)


# ---------------------------------------------------------------------------
# condition residuals (all linear in (alpha, h))
# ---------------------------------------------------------------------------


def _omega_residual(s: _Setting, g: GeneratorPair) -> DiffForm:
    """L_X omega computed in pair data: i_{alpha#} d omega + h i_E d omega + dh."""
    a_sharp = sharp(s.con, g.alpha)
    return (
        _contract(a_sharp, s.cov.d_omega)
        + _contract(s.con.E, s.cov.d_omega).scale(g.h)
        + _grad(g.h, s.cov.chart)
    )


def _reeb_scalar_residual(s: _Setting, g: GeneratorPair) -> Scalar:
    """E.h + Lambda(L_E omega, alpha): the Reeb component of the omega residual."""
    return sum_over_common_denominator(
        s.cov.chart.dim,
        [lie_derivative_scalar(s.con.E, g.h), lambda_pair(s.con, s.tau, g.alpha)],
    )


def _image_vector_residual(s: _Setting, g: GeneratorPair) -> Multivector:
    """Lambda# of the omega residual: the component seen on the image of p1."""
    return sharp(s.con, _omega_residual(s, g))


def _canonical_alpha(s: _Setting, alpha: DiffForm) -> DiffForm:
    return project(s.cov, s.con, alpha, "q1")


def _closed_kernel_residual(s: _Setting, g: GeneratorPair) -> DiffForm:
    """d of the canonical representative; this equals L_X Omega exactly."""
    return exterior_derivative(_canonical_alpha(s, g.alpha))


def _reeb_form(s: _Setting, alpha: DiffForm) -> DiffForm:
    """L_E alpha - alpha(E) L_E omega: the 1-form slot of the Reeb transport."""
    a_e = pairing(alpha, s.con.E)
    return lie_derivative_form(s.con.E, alpha) - s.tau.scale(a_e)


def _reeb_vector_residual(s: _Setting, g: GeneratorPair) -> Multivector:
    """(L_E alpha - alpha(E) L_E omega)#: the vector part of [X, E]."""
    return sharp(s.con, _reeb_form(s, g.alpha))


def _two_sharp_residual(s: _Setting, g: GeneratorPair) -> Multivector:
    """(d alpha - alpha(E) d omega) pulled through (Lambda#, Lambda#)."""
    a_e = pairing(g.alpha, s.con.E)
    two_form = exterior_derivative(g.alpha) - s.cov.d_omega.scale(a_e)
    return two_form_through_sharp(s.con, two_form)


def _lambda_headline_residual(s: _Setting, g: GeneratorPair) -> Multivector:
    """[alpha#, Lambda] - E ^ (dh + h L_E omega)#: equals [X, Lambda]."""
    chart = s.cov.chart
    a_sharp = sharp(s.con, g.alpha)
    correction = sharp(s.con, _grad(g.h, chart) + s.tau.scale(g.h))
    return schouten_bracket(a_sharp, s.con.Lam) - wedge(s.con.E, correction)


# Each generator condition once: name -> (label, residual builder).
_CONDITIONS = {
    "one_form": (
        "1-form residual i_{alpha#} d omega + h i_E d omega + dh", _omega_residual
    ),
    "reeb_scalar": (
        "Reeb component E.h + Lambda(L_E omega, alpha)", _reeb_scalar_residual
    ),
    "image": (
        "Lambda#-image component of the 1-form residual", _image_vector_residual
    ),
    "closed_kernel": (
        "closedness of the canonical representative d(alpha - alpha(E) omega)",
        _closed_kernel_residual,
    ),
    "reeb_vector": (
        "vector part (L_E alpha - alpha(E) L_E omega)#", _reeb_vector_residual
    ),
    "lambda_headline": (
        "bivector residual [alpha#, Lambda] - E ^ (dh + h L_E omega)#",
        _lambda_headline_residual,
    ),
    "two_sharp": (
        "(d alpha - alpha(E) d omega) through (Lambda#, Lambda#)",
        _two_sharp_residual,
    ),
}

# field -> (label, residual of X against the field); the residuals look the
# calculus functions up when called, so rebinding them here (as a tracer
# does) takes effect.  The covariant fields come first: this is the order
# of the four-field report of theorem_equivalence_check.
_DIRECT_CHECKS = {
    "omega": ("L_X omega", lambda cov, con, x: lie_derivative_form(x, cov.omega)),
    "Omega": ("L_X Omega", lambda cov, con, x: lie_derivative_form(x, cov.Omega)),
    "E": ("[X, E]", lambda cov, con, x: schouten_bracket(x, con.E)),
    "Lambda": ("[X, Lambda]", lambda cov, con, x: schouten_bracket(x, con.Lam)),
}

# target -> (the conditions that cut it out, in report order; the fields
# whose direct Lie derivatives certify it)
_TARGETS = {
    SymmetryTarget.omega: (("one_form", "reeb_scalar", "image"), ("omega",)),
    SymmetryTarget.Omega: (("closed_kernel",), ("Omega",)),
    SymmetryTarget.E: (("reeb_vector", "reeb_scalar"), ("E",)),
    SymmetryTarget.Lambda: (("lambda_headline", "image", "two_sharp"), ("Lambda",)),
    SymmetryTarget.cov_pair: (
        ("closed_kernel", "reeb_scalar", "image"), ("omega", "Omega")
    ),
    SymmetryTarget.contra_pair: (
        ("reeb_vector", "reeb_scalar", "image", "two_sharp"), ("E", "Lambda")
    ),
    SymmetryTarget.E_Omega: (("closed_kernel", "reeb_scalar"), ("E", "Omega")),
    SymmetryTarget.Lambda_Omega: (("closed_kernel", "image"), ("Lambda", "Omega")),
    SymmetryTarget.E_omega: (("reeb_vector", "reeb_scalar", "image"), ("E", "omega")),
    SymmetryTarget.Lambda_omega: (
        ("reeb_scalar", "image", "two_sharp"), ("Lambda", "omega")
    ),
}


class PairChecks:
    """The condition and direct entries of one pair, each evaluated once.

    X_g is built on first use, and x may stand in for g when only direct
    reports are asked for.  One instance serves one call or one CLI pair:
    nothing is kept on the pair or on the (cov, con) context.
    """

    def __init__(
        self,
        cov: CovariantPair,
        con: ContravariantPair,
        g: GeneratorPair | None = None,
        x: Multivector | None = None,
    ):
        self.cov, self.con, self.g = cov, con, g
        if x is not None:
            self.x = x
        self._evaluated: dict[str, CheckEntry] = {}

    @cached_property
    def x(self) -> Multivector:
        return pair_to_vector(self.cov, self.con, self.g)

    def _report(self, title: str, names) -> ConditionReport:
        """The named conditions and fields (no name is both), new ones evaluated."""
        for name in names:
            if name not in self._evaluated:
                if name in _CONDITIONS:
                    label, builder = _CONDITIONS[name]
                    residual = builder(_setting(self.cov, self.con), self.g)
                else:
                    label, builder = _DIRECT_CHECKS[name]
                    residual = builder(self.cov, self.con, self.x)
                self._evaluated[name] = CheckEntry.of(label, residual)
        return ConditionReport(title, tuple(self._evaluated[name] for name in names))

    def conditions(self, target: SymmetryTarget) -> ConditionReport:
        names, _ = _TARGETS[target]
        return self._report(f"generator conditions for target {target.value}", names)

    def direct(self, target: SymmetryTarget | None = None) -> ConditionReport:
        """The target's direct Lie derivatives of X, or all four fields'."""
        if target is None:
            return self._report("direct symmetry of all four fields", _DIRECT_CHECKS)
        _, fields = _TARGETS[target]
        return self._report(f"direct symmetry of {target.value}", fields)

    def equivalence(self) -> "EquivalenceReport":
        return EquivalenceReport(
            self.conditions(SymmetryTarget.cov_pair),
            self.conditions(SymmetryTarget.contra_pair),
            self.direct(),
        )


def check_generator_conditions(
    cov: CovariantPair,
    con: ContravariantPair,
    g: GeneratorPair,
    target: SymmetryTarget,
) -> ConditionReport:
    """Condition-form certification that X_g preserves the target.

    Degenerate data (alpha(E) != 0, d alpha != 0) shows up as condition
    failures, never as exceptions.
    """
    return PairChecks(cov, con, g).conditions(target)


def check_symmetry_direct(
    cov: CovariantPair,
    con: ContravariantPair,
    x: Multivector,
    target: SymmetryTarget,
) -> ConditionReport:
    """Direct Lie-derivative certification that X preserves the target."""
    if x.degree != 1:
        raise StructureError("symmetry candidate must be a vector field")
    return PairChecks(cov, con, x=x).direct(target)


@dataclass(frozen=True)
class EquivalenceReport:
    """Covariant conditions vs contravariant conditions vs direct transport."""

    covariant: ConditionReport
    contravariant: ConditionReport
    direct: ConditionReport

    @property
    def verdicts(self) -> tuple[bool, bool, bool]:
        return (self.covariant.ok, self.contravariant.ok, self.direct.ok)

    @property
    def agree(self) -> bool:
        a, b, c = self.verdicts
        return a == b == c

    def summary(self, label: str) -> CheckEntry:
        """One entry: the routes agree, with their verdicts in parentheses."""
        shown = "/".join("pass" if v else "fail" for v in self.verdicts)
        return CheckEntry.verdict(f"{label} ({shown})", self.agree)


def theorem_equivalence_check(
    cov: CovariantPair, con: ContravariantPair, g: GeneratorPair
) -> EquivalenceReport:
    """Three certification routes for full-structure symmetry must agree.

    Conditions for (omega, Omega), conditions for (E, Lambda), and the
    four direct Lie derivatives of X_g give the same verdict; any
    disagreement is a hard failure surfaced through `agree`.
    """
    return PairChecks(cov, con, g).equivalence()


def commutator_residual(
    cov: CovariantPair, con: ContravariantPair,
    g1: GeneratorPair, g2: GeneratorPair, bracket: GeneratorPair,
) -> Multivector:
    """X of the bracket [[g1; g2]] minus [X_g1, X_g2]: zero when they agree."""
    return pair_to_vector(cov, con, bracket) - schouten_bracket(
        pair_to_vector(cov, con, g1), pair_to_vector(cov, con, g2)
    )


# ---------------------------------------------------------------------------
# reduced brackets
# ---------------------------------------------------------------------------


def _require(s: _Setting, g: GeneratorPair, target: SymmetryTarget, role: str) -> None:
    report = PairChecks(s.cov, s.con, g).conditions(target)
    if not report.ok:
        raise PreconditionError(
            f"{role} is not a generator for target {target.value}: "
            + "; ".join(entry.label for entry in report.failures()),
            (report,),
        )


_MODE_TARGET = {
    BracketMode.omega_sym: SymmetryTarget.omega,
    BracketMode.Omega_sym: SymmetryTarget.Omega,
    BracketMode.E_sym: SymmetryTarget.E,
    BracketMode.full_sym: SymmetryTarget.cov_pair,
}


def reduced_bracket(
    cov: CovariantPair,
    con: ContravariantPair,
    g1: GeneratorPair,
    g2: GeneratorPair,
    mode: BracketMode,
) -> GeneratorPair:
    """Bracket computed through the reduced formula of a symmetry class.

    Inputs must satisfy the class conditions (PreconditionError otherwise).
    Every displayed variant of the reduced formula is evaluated; variants
    must agree exactly, and the result matches pair_bracket modulo the
    omega-ambiguity of the 1-form slot.
    """
    s = _setting(cov, con)
    target = _MODE_TARGET[mode]
    _require(s, g1, target, "first pair")
    _require(s, g2, target, "second pair")

    chart = s.cov.chart
    e_field = s.con.E
    if mode in (BracketMode.Omega_sym, BracketMode.full_sym):
        g1 = GeneratorPair(_canonical_alpha(s, g1.alpha), g1.h)
        g2 = GeneratorPair(_canonical_alpha(s, g2.alpha), g2.h)
    a1, h1 = g1.alpha, g1.h
    a2, h2 = g2.alpha, g2.h
    a1s = sharp(s.con, a1)
    a2s = sharp(s.con, a2)
    a1_e = pairing(a1, e_field)
    a2_e = pairing(a2, e_field)
    d_lam12 = _grad(pairing(a2, a1s), chart)

    if mode == BracketMode.Omega_sym:
        return GeneratorPair(d_lam12, _bracket_formula(s, g1, g2).h)

    core = _transverse_terms(s, g1, g2)
    if mode == BracketMode.omega_sym:
        alpha_one = _bracket_formula(s, g1, g2).alpha
        alpha_two = (
            d_lam12
            - _contract(a2s, exterior_derivative(a1))
            + _contract(a1s, exterior_derivative(a2))
            - _grad(h2, chart).scale(a1_e)
            + _grad(h1, chart).scale(a2_e)
            + lie_derivative_form(e_field, a2).scale(h1)
            - lie_derivative_form(e_field, a1).scale(h2)
        )
        h_two = (
            pairing(s.cov.d_omega, a1s, a2s)
            + h1 * pairing(s.cov.d_omega, e_field, a2s)
            - h2 * pairing(s.cov.d_omega, e_field, a1s)
        )
        if alpha_one != alpha_two or core.h != h_two:
            raise InternalIdentityError("omega_sym displays disagree")
        return GeneratorPair(alpha_one, core.h)

    if mode == BracketMode.E_sym:
        alpha_two = (
            -d_lam12
            - lie_derivative_form(a2s, a1)
            + lie_derivative_form(a1s, a2)
            + lie_derivative_form(a2s, s.cov.omega).scale(a1_e)
            - lie_derivative_form(a1s, s.cov.omega).scale(a2_e)
        )
        if core.alpha != alpha_two:
            raise InternalIdentityError("E_sym displays disagree")
        return core

    # full_sym: three displays of the function slot
    h_two = (
        pairing(s.cov.d_omega, a1s, a2s)
        + h2 * lambda_pair(s.con, s.tau, a1)
        - h1 * lambda_pair(s.con, s.tau, a2)
    )
    h_three = (
        pairing(s.cov.d_omega, a1s, a2s)
        + h1 * lie_derivative_scalar(e_field, h2)
        - h2 * lie_derivative_scalar(e_field, h1)
    )
    if core.h != h_two or core.h != h_three:
        raise InternalIdentityError("full_sym displays disagree")
    return GeneratorPair(d_lam12, core.h)


def closure_check_Omega(
    cov: CovariantPair,
    con: ContravariantPair,
    g1: GeneratorPair,
    g2: GeneratorPair,
) -> ConditionReport:
    """The reduced bracket of two closed-form pairs stays closed-kernel.

    Precondition: both 1-forms are literally closed (raised otherwise).
    The output 1-form is d Lambda(alpha1, alpha2); the report certifies
    its Reeb pairing vanishes and that it is closed, i.e. the output pair
    stays inside closed-kernel forms times functions.
    """
    s = _setting(cov, con)
    for role, g in (("first pair", g1), ("second pair", g2)):
        if not exterior_derivative(g.alpha).is_zero():
            raise PreconditionError(f"{role} carries a non-closed 1-form")
    out_alpha = _grad(lambda_pair(con, g1.alpha, g2.alpha), cov.chart)
    entries = (
        CheckEntry.of(
            "Reeb pairing E . Lambda(alpha1, alpha2) of the output 1-form",
            pairing(out_alpha, con.E),
        ),
        CheckEntry.of(
            "exterior derivative of the output 1-form",
            exterior_derivative(out_alpha),
        ),
    )
    return ConditionReport("closure of closed-kernel generators", entries)


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def _slot_entries(
    con: ContravariantPair, difference: GeneratorPair, identity: str
) -> tuple[CheckEntry, CheckEntry]:
    """Both slots of a pair identity, the 1-form slot compared through Lambda#."""
    return (
        CheckEntry.of(f"vector slot of the {identity}", sharp(con, difference.alpha)),
        CheckEntry.of(f"function slot of the {identity}", difference.h),
    )


def leibniz_defect(
    cov: CovariantPair,
    con: ContravariantPair,
    g1: GeneratorPair,
    g2: GeneratorPair,
    f: Scalar,
) -> GeneratorPair:
    """[[g1; f g2]] - f [[g1; g2]] - (X_g1.f) g2, computed exactly.

    The exact expansion makes this vanish identically: the product-rule
    term of d Lambda(alpha1, f alpha2) cancels against the df-term inside
    i_{alpha1#} d(f alpha2), so the bracket obeys the anchored Leibniz
    rule on the nose.
    """
    scaled = g2.scale(f)
    x1 = pair_to_vector(cov, con, g1)
    x1_f = lie_derivative_scalar(x1, f)
    lhs = pair_bracket(cov, con, g1, scaled)
    rhs = pair_bracket(cov, con, g1, g2).scale(f) + g2.scale(x1_f)
    return lhs - rhs


def leibniz_rule_report(
    cov: CovariantPair,
    con: ContravariantPair,
    g1: GeneratorPair,
    g2: GeneratorPair,
    f: Scalar,
) -> ConditionReport:
    """Certify the anchored Leibniz rule: the defect is trivial as a pair."""
    defect = leibniz_defect(cov, con, g1, g2, f)
    entries = (
        CheckEntry.of("defect 1-form slot (literal)", defect.alpha),
        CheckEntry.of("defect vector part (Lambda# of the 1-form slot)",
                      sharp(con, defect.alpha)),
        CheckEntry.of("defect function slot", defect.h),
    )
    return ConditionReport("anchored Leibniz rule", entries)


def leibniz_correction_report(
    cov: CovariantPair,
    con: ContravariantPair,
    g1: GeneratorPair,
    g2: GeneratorPair,
    f: Scalar,
) -> ConditionReport:
    """Compare the defect against the candidate correction Lambda(a1,a2) df.

    The engine's exact defect is identically zero, so this check holds
    exactly when the candidate term itself is trivial (Lambda(alpha1,
    alpha2) df a multiple of omega); it fails on generic inputs.
    """
    chart = cov.chart
    defect = leibniz_defect(cov, con, g1, g2, f)
    lam12 = lambda_pair(con, g1.alpha, g2.alpha)
    candidate = _grad(f, chart).scale(lam12)
    entries = (
        CheckEntry.of(
            "defect minus Lambda(alpha1, alpha2) df (vector comparison)",
            sharp(con, defect.alpha - candidate),
        ),
        CheckEntry.of("defect function slot", defect.h),
    )
    return ConditionReport(
        "defect against the candidate correction term", entries
    )


@dataclass(frozen=True)
class HamiltonJacobiLift:
    pair: GeneratorPair
    reeb_derivative: Scalar

    @property
    def admissible(self) -> bool:
        return self.reeb_derivative.is_zero()


def hamilton_jacobi_lift(
    cov: CovariantPair, con: ContravariantPair, h: Scalar
) -> HamiltonJacobiLift:
    """The pair (dh, -h) together with the admissibility residual E.h."""
    chart = cov.chart
    pair = GeneratorPair(_grad(h, chart), -h)
    return HamiltonJacobiLift(pair, lie_derivative_scalar(con.E, h))


def poisson_bracket(con: ContravariantPair, h1: Scalar, h2: Scalar) -> Scalar:
    """{h1, h2} = Lambda(dh1, dh2)."""
    chart = con.chart
    return lambda_pair(con, _grad(h1, chart), _grad(h2, chart))


def lie_derivative_pair(
    cov: CovariantPair, con: ContravariantPair, x: Multivector, g: GeneratorPair
) -> GeneratorPair:
    """Componentwise transport (L_X alpha, X.h)."""
    if x.degree != 1:
        raise StructureError("transport along a vector field only")
    return GeneratorPair(
        lie_derivative_form(x, g.alpha), lie_derivative_scalar(x, g.h)
    )


def derivation_check_D(
    cov: CovariantPair,
    con: ContravariantPair,
    g1: GeneratorPair,
    g2: GeneratorPair,
    g3: GeneratorPair,
) -> ConditionReport:
    """[[g1; .]] acts as a derivation of the bracket on Omega-symmetry pairs.

    All three pairs must satisfy the Omega generator conditions; the
    identity is compared through (Lambda# alpha, h).
    """
    s = _setting(cov, con)
    for role, g in (("first pair", g1), ("second pair", g2), ("third pair", g3)):
        _require(s, g, SymmetryTarget.Omega, role)
    lhs = pair_bracket(cov, con, g1, pair_bracket(cov, con, g2, g3))
    rhs = pair_bracket(cov, con, pair_bracket(cov, con, g1, g2), g3) + pair_bracket(
        cov, con, g2, pair_bracket(cov, con, g1, g3)
    )
    return ConditionReport(
        "bracket derivation identity",
        _slot_entries(con, lhs - rhs, "derivation identity"),
    )


def derivation_check_LX(
    cov: CovariantPair,
    con: ContravariantPair,
    x: Multivector,
    g1: GeneratorPair,
    g2: GeneratorPair,
) -> ConditionReport:
    """Transport along a structure symmetry is a derivation of the bracket.

    Preconditions (X preserves omega and Omega; g1, g2 generate full
    symmetries) are reported individually rather than raised.
    """
    full = SymmetryTarget.cov_pair
    entries = [
        check_symmetry_direct(cov, con, x, full).summary(
            "X preserves omega and Omega"
        )
    ]
    for role, g in (("first", g1), ("second", g2)):
        entries.append(
            check_generator_conditions(cov, con, g, full).summary(
                f"{role} pair generates a full symmetry"
            )
        )
    for role, g in (("first", g1), ("second", g2)):
        transported = lie_derivative_pair(cov, con, x, g)
        entries.append(
            check_generator_conditions(cov, con, transported, full).summary(
                f"transported {role} pair stays a full symmetry"
            )
        )
    lhs = lie_derivative_pair(cov, con, x, pair_bracket(cov, con, g1, g2))
    rhs = pair_bracket(
        cov, con, lie_derivative_pair(cov, con, x, g1), g2
    ) + pair_bracket(cov, con, g1, lie_derivative_pair(cov, con, x, g2))
    entries.extend(_slot_entries(con, lhs - rhs, "derivation identity"))
    return ConditionReport("transport derivation identity", tuple(entries))


def antisymmetrization_identity(
    cov: CovariantPair,
    con: ContravariantPair,
    g1: GeneratorPair,
    g2: GeneratorPair,
) -> ConditionReport:
    """[[g1; g2]] = (L_X1 g2 - L_X2 g1) / 2 on full-symmetry generators."""
    s = _setting(cov, con)
    _require(s, g1, SymmetryTarget.cov_pair, "first pair")
    _require(s, g2, SymmetryTarget.cov_pair, "second pair")
    x1 = pair_to_vector(cov, con, g1)
    x2 = pair_to_vector(cov, con, g2)
    averaged = (
        lie_derivative_pair(cov, con, x1, g2)
        - lie_derivative_pair(cov, con, x2, g1)
    ).scale(Fraction(1, 2))
    return ConditionReport(
        "averaged-transport form of the bracket",
        _slot_entries(
            con,
            pair_bracket(cov, con, g1, g2) - averaged,
            "averaged-transport identity",
        ),
    )


def _sharp_transport_residual(
    con: ContravariantPair, x: Multivector, beta: DiffForm
) -> Multivector:
    """(L_X beta)# - L_X(beta#)."""
    return sharp(con, lie_derivative_form(x, beta)) - schouten_bracket(
        x, sharp(con, beta)
    )


def musical_commutation_check(
    cov: CovariantPair,
    con: ContravariantPair,
    x: Multivector,
    beta: DiffForm,
) -> ConditionReport:
    """Residual (L_X beta)# - L_X(beta#) and its bracket-route cross-check.

    The residual equals -i_beta [X, Lambda]; it vanishes for every beta
    exactly when [X, Lambda] = 0.
    """
    if beta.degree != 1:
        raise StructureError("commutation check takes a 1-form")
    residual = _sharp_transport_residual(con, x, beta)
    cross = residual + _contract(beta, schouten_bracket(x, con.Lam))
    entries = (
        CheckEntry.of("(L_X beta)# - L_X(beta#)", residual),
        CheckEntry.of(
            "agreement with the bracket route -i_beta [X, Lambda]", cross
        ),
    )
    return ConditionReport("transport commutes with sharp", entries)


def musical_commutation_iff_report(
    cov: CovariantPair, con: ContravariantPair, x: Multivector
) -> ConditionReport:
    """Residuals on all basis 1-forms vanish exactly when [X, Lambda] = 0."""
    chart = cov.chart
    basis_residuals = [
        _sharp_transport_residual(con, x, coordinate_form(chart, index))
        for index in range(chart.dim)
    ]
    all_vanish = all(residual.is_zero() for residual in basis_residuals)
    bracket = schouten_bracket(x, con.Lam)
    entries = (
        CheckEntry.verdict(
            "residuals on all basis 1-forms vanish iff [X, Lambda] = 0",
            all_vanish == bracket.is_zero(),
            basis_residuals,
        ),
    )
    return ConditionReport("sharp-commutation equivalence", entries)


# ---------------------------------------------------------------------------
# polynomial generator search
# ---------------------------------------------------------------------------


def _monomials_up_to(chart: Chart, max_degree: int) -> list[tuple[int, ...]]:
    exponents = product(range(max_degree + 1), repeat=chart.dim)
    return sorted((e for e in exponents if sum(e) <= max_degree), key=grlex_key)


def _unit_slots(chart: Chart, coeff: Scalar) -> list[GeneratorPair]:
    """The dim + 1 pairs coeff dx^i for each i < dim, then the function coeff."""
    dim = chart.dim
    units = [
        GeneratorPair(DiffForm(chart, 1, {(i,): coeff}), Scalar.zero(dim))
        for i in range(dim)
    ]
    return units + [GeneratorPair(zero_form(chart, 1), coeff)]


def _first_order_symbols(
    s: _Setting, builder
) -> dict[tuple[int, ...], tuple[Poly, list[list[Poly]]]]:
    """One condition R on the unit slots, over one denominator per component.

    R is a first-order linear differential operator in (alpha, h), so for
    a polynomial c and a unit slot sigma

        R(c sigma) = c R(sigma) + sum_k (d_k c) S_k(sigma),
        S_k(sigma) = R(x_k sigma) - x_k R(sigma)

    holds exactly.  Maps each residual component (a scalar residual as
    component ()) to (den, numerators), where numerators[slot] is
    [N_0, N_1, ..., N_dim] with R(sigma) = N_0 / den and
    S_k(sigma) = N_(k+1) / den.  Costs (dim + 1)^2 calls of the builder.
    """
    chart = s.cov.chart
    dim = chart.dim
    variables = [Scalar.variable(dim, k) for k in range(dim)]
    # the components of R(c sigma) for c = 1, x_0, ..., x_(dim-1) in turn,
    # each over all dim + 1 slots; a scalar residual is component ()
    evaluated = []
    for coeff in [Scalar.one(dim)] + variables:
        for g in _unit_slots(chart, coeff):
            residual = builder(s, g)
            evaluated.append(
                {(): residual} if isinstance(residual, Scalar) else residual.comps
            )
    zero = Scalar.zero(dim)
    symbols = {}
    for key in dict.fromkeys(k for comps in evaluated for k in comps):
        den, nums = over_common_denominator(
            dim, [comps.get(key, zero) for comps in evaluated]
        )
        per_slot_nums = []
        for slot in range(dim + 1):
            base, *scaled = nums[slot::dim + 1]
            per_slot_nums.append(
                [base] + [n - base * x.num for n, x in zip(scaled, variables)]
            )
        symbols[key] = (den, per_slot_nums)
    return symbols


def _shifted_numerator(
    numerators: list[Poly], exponent: tuple[int, ...], key: int | None = None
) -> dict[int, Fraction]:
    """The numerator of R(x^e sigma): x^e N_0 + sum_k e_k x^(e - 1_k) N_k.

    Pure exponent shifts of the symbol numerators, as a packed term dict;
    coefficients that cancel are dropped.  `key` is the packed form of
    `exponent`, for callers that pack their monomials once.
    """
    dim = len(exponent)
    if key is None:
        key = pack_exponent(exponent, dim)
    parts = [(key, 1, numerators[0])]
    for k, (e_k, unit) in enumerate(zip(exponent, variable_keys(dim))):
        if e_k:
            parts.append((key - unit, e_k, numerators[k + 1]))
    out: dict[int, Fraction] = {}
    for shift, factor, poly in parts:
        for term, coeff in poly.packed.items():
            term += shift
            value = coeff if factor == 1 else factor * coeff
            out[term] = out[term] + value if term in out else value
    return {term: coeff for term, coeff in out.items() if coeff}


def _symbol_rows(
    s: _Setting, target: SymmetryTarget, monomials: list[tuple[int, ...]]
) -> list[dict[int, Fraction]]:
    """Sparse Q-rows of the target conditions on the monomial basis pairs.

    Column m * (dim + 1) + i is monomial m in alpha_i, or in h when
    i == dim.  Over its symbol denominator a residual component vanishes
    exactly when every coefficient of its numerator does: one row per
    (condition, component, numerator monomial).
    """
    dim = s.cov.chart.dim
    width = dim + 1
    packed = [(exponent, pack_exponent(exponent, dim)) for exponent in monomials]
    rows: dict[tuple, dict[int, Fraction]] = {}
    names, _ = _TARGETS[target]
    for name in names:
        symbols = s.symbols(_CONDITIONS[name][1])
        for key, (_, per_slot) in symbols.items():
            for m, (exponent, packed_key) in enumerate(packed):
                for slot, numerators in enumerate(per_slot):
                    column = m * width + slot
                    shifted = _shifted_numerator(numerators, exponent, packed_key)
                    for term, coeff in shifted.items():
                        rows.setdefault((name, key, term), {})[column] = coeff
    return list(rows.values())


def _vector_field(s: _Setting, g: GeneratorPair) -> Multivector:
    return pair_to_vector(s.cov, s.con, g)


def _is_trivial(
    s: _Setting, entries: list[tuple[tuple[int, ...], int, int, Fraction]]
) -> bool:
    """Whether the pair with these entries has X_g = 0.

    Each entry is (exponent, its packed key, slot, coefficient).  X_g is
    linear in (alpha, h) with no derivative, so each component's numerator
    is the sum of the coefficients times the shifted symbol numerators of
    the entries.
    """
    for _, per_slot in s.symbols(_vector_field).values():
        total: dict[int, Fraction] = {}
        for exponent, key, slot, coefficient in entries:
            add_terms(
                total, _shifted_numerator(per_slot[slot], exponent, key), coefficient
            )
        if total:
            return False
    return True


def find_generator_pairs(
    cov: CovariantPair,
    con: ContravariantPair,
    target: SymmetryTarget,
    max_degree: int,
    *,
    include_trivial: bool = False,
) -> list[GeneratorPair]:
    """All polynomial pairs of coefficient degree <= max_degree for a target.

    Every target condition R is a first-order linear differential operator
    in (alpha, h), so its value on a monomial pair x^e sigma follows from
    its first-order symbols R(sigma) and S_k(sigma) on the dim + 1 unit
    slots: (dim + 1)^2 builder calls per condition, whatever the degree,
    and exact exponent shifts of fixed numerators per column.  The
    solution space is the Q-nullspace of the resulting exact matrix; the
    returned pairs are the basis read off its reduced row echelon form,
    which is unique.  Pairs generating the zero vector field are filtered
    unless include_trivial is set, through the symbols of X_g.

    The symbols are kept on the (cov, con) context, so repeated searches
    with the same con object build each symbol set once.
    """
    s = _setting(cov, con)
    chart = cov.chart
    dim = chart.dim
    monomials = _monomials_up_to(chart, max_degree)
    keys = [pack_exponent(exponent, dim) for exponent in monomials]
    rows = _symbol_rows(s, target, monomials)

    # column m * (dim + 1) + i is monomial m in alpha_i, or in h when i == dim
    width = dim + 1
    found: list[GeneratorPair] = []
    for vector in rational_nullspace(rows, width * len(monomials)):
        entries = []
        for column, coefficient in vector.items():
            m, slot = divmod(column, width)
            entries.append((monomials[m], keys[m], slot, coefficient))
        if not include_trivial and _is_trivial(s, entries):
            continue
        slot_terms: list[dict[int, Fraction]] = [{} for _ in range(width)]
        for _, key, slot, coefficient in entries:
            slot_terms[slot][key] = coefficient
        alpha = DiffForm(
            chart, 1, {(i,): Scalar(Poly(dim, slot_terms[i])) for i in range(dim)}
        )
        found.append(GeneratorPair(alpha, Scalar(Poly(dim, slot_terms[dim]))))
    return found
