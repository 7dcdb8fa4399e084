"""Generator pairs, the pair bracket, symmetry certification, and search."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cckit import (
    BracketMode,
    Chart,
    CheckEntry,
    ConditionReport,
    DiffForm,
    GeneratorPair,
    Multivector,
    PreconditionError,
    Scalar,
    StructureClass,
    SymmetryTarget,
    antisymmetrization_identity,
    check_generator_conditions,
    check_symmetry_direct,
    classify,
    closure_check_Omega,
    derivation_check_D,
    derivation_check_LX,
    dualize,
    exterior_derivative,
    find_generator_pairs,
    get_example,
    hamilton_jacobi_lift,
    lambda_pair,
    leibniz_correction_report,
    leibniz_defect,
    leibniz_rule_report,
    lie_derivative_form,
    lie_derivative_pair,
    lie_derivative_scalar,
    musical_commutation_check,
    musical_commutation_iff_report,
    pair_bracket,
    pair_to_vector,
    pairs_equivalent,
    parse_scalar,
    poisson_bracket,
    reduced_bracket,
    schouten_bracket,
    sharp,
    theorem_equivalence_check,
    zero_pair,
)
from cckit import symmetries
from cckit.algebra import Poly, common_denominator, rational_nullspace
from cckit.cli import run
from cckit.cli.suite import _equivalence
from cckit.exterior import coordinate_vector, scalar_form, zero_form
from cckit.structures import CovariantPair, StructureError
from cckit.symmetries import (
    _CONDITIONS,
    _DIRECT_CHECKS,
    _TARGETS,
    EquivalenceReport,
    _first_order_symbols,
    _setting,
    _shifted_numerator,
)

from conftest import FIXTURES_DIR, random_pair, random_poly

CHART3 = Chart(("x", "y", "z"))


def s3(text: str) -> Scalar:
    return parse_scalar(text, CHART3)


def form3(spec: dict) -> DiffForm:
    return DiffForm(CHART3, 1, {k: s3(v) for k, v in spec.items()})


def pair3(spec: dict, h: str) -> GeneratorPair:
    return GeneratorPair(form3(spec), s3(h))


def acc3_hand_generators() -> list[GeneratorPair]:
    # the polynomial full-structure symmetries of acc3 up to degree 2
    return [
        pair3({(1,): "1"}, "1"),
        pair3({(1,): "-1"}, "y"),
        pair3({(1,): "-(y^2 + 2*y)"}, "y^2"),
    ]


def count_condition_calls(monkeypatch) -> dict[str, int]:
    """Wrap every condition builder so that its calls are counted."""
    calls = dict.fromkeys(_CONDITIONS, 0)
    for condition, (label, builder) in list(_CONDITIONS.items()):

        def counting(s, g, builder=builder, condition=condition):
            calls[condition] += 1
            return builder(s, g)

        monkeypatch.setitem(_CONDITIONS, condition, (label, counting))
    return calls


def count_direct_calls(monkeypatch) -> dict[str, int]:
    """Wrap every direct Lie-derivative residual so that its calls are counted."""
    calls = dict.fromkeys(_DIRECT_CHECKS, 0)
    for field, (label, residual) in list(_DIRECT_CHECKS.items()):

        def counting(cov, con, x, residual=residual, field=field):
            calls[field] += 1
            return residual(cov, con, x)

        monkeypatch.setitem(_DIRECT_CHECKS, field, (label, counting))
    return calls


def evaluated_once(targets) -> tuple[dict[str, int], dict[str, int]]:
    """The condition and field counts that evaluate each name of the targets once."""
    names = {name for target in targets for name in _TARGETS[target][0]}
    fields = {field for target in targets for field in _TARGETS[target][1]}
    return (
        {name: int(name in names) for name in _CONDITIONS},
        {field: int(field in fields) for field in _DIRECT_CHECKS},
    )


PAIR_TARGETS = (SymmetryTarget.cov_pair, SymmetryTarget.contra_pair)


class TestGeneratorPair:
    def test_arithmetic(self):
        g = pair3({(0,): "x"}, "y")
        k = pair3({(0,): "1"}, "z")
        assert (g + k).alpha == form3({(0,): "x + 1"})
        assert (g - k).h == s3("y - z")
        assert (-g).h == s3("-y")
        assert g.scale(2).alpha == form3({(0,): "2*x"})
        assert g.scale(Fraction(1, 2)).h == s3("y/2")
        assert g.scale(s3("z")).h == s3("y*z")

    def test_validation(self):
        with pytest.raises(StructureError):
            GeneratorPair(DiffForm(CHART3, 2, {(0, 1): s3("1")}), s3("0"))
        with pytest.raises(StructureError):
            GeneratorPair(form3({(0,): "1"}), Scalar.one(5))

    def test_trivial_vectors(self, duals):
        cov, con = duals["acc3"]
        reeb_pair = GeneratorPair(zero_form(CHART3, 1), Scalar.one(3))
        assert pair_to_vector(cov, con, reeb_pair) == con.E
        silent = GeneratorPair(cov.omega, Scalar.zero(3))
        assert pair_to_vector(cov, con, silent).is_zero()
        assert pairs_equivalent(cov, con, silent, zero_pair(CHART3))
        assert not pairs_equivalent(cov, con, reeb_pair, zero_pair(CHART3))


class TestPairBracket:
    def test_antisymmetry(self, duals):
        rng = random.Random(51)
        for name in ("cosym3", "contact3", "acc3"):
            cov, con = duals[name]
            for _ in range(4):
                g1 = random_pair(rng, cov.chart)
                g2 = random_pair(rng, cov.chart)
                forward = pair_bracket(cov, con, g1, g2)
                backward = pair_bracket(cov, con, g2, g1)
                assert forward.alpha == -backward.alpha
                assert forward.h == -backward.h

    def test_rational_bilinearity(self, duals):
        cov, con = duals["acc3"]
        rng = random.Random(53)
        g1 = random_pair(rng, CHART3)
        g2 = random_pair(rng, CHART3)
        g3 = random_pair(rng, CHART3)
        combo = g2.scale(Fraction(3, 2)) + g3
        lhs = pair_bracket(cov, con, g1, combo)
        rhs = pair_bracket(cov, con, g1, g2).scale(Fraction(3, 2)) + pair_bracket(
            cov, con, g1, g3
        )
        assert lhs.alpha == rhs.alpha and lhs.h == rhs.h

    def test_compatibility_with_vector_bracket(self, duals):
        # the anchor map sends the pair bracket to the Lie bracket
        rng = random.Random(59)
        for name in ("cosym3", "contact3", "acc3"):
            cov, con = duals[name]
            for _ in range(5):
                g1 = random_pair(rng, cov.chart)
                g2 = random_pair(rng, cov.chart)
                anchored = pair_to_vector(
                    cov, con, pair_bracket(cov, con, g1, g2)
                )
                direct = schouten_bracket(
                    pair_to_vector(cov, con, g1), pair_to_vector(cov, con, g2)
                )
                assert anchored == direct

    def test_compatibility_in_dimension_five(self, duals):
        cov, con = duals["contact5"]
        rng = random.Random(61)
        g1 = random_pair(rng, cov.chart)
        g2 = random_pair(rng, cov.chart)
        anchored = pair_to_vector(cov, con, pair_bracket(cov, con, g1, g2))
        direct = schouten_bracket(
            pair_to_vector(cov, con, g1), pair_to_vector(cov, con, g2)
        )
        assert anchored == direct

    def test_requires_closed_two_form(self):
        omega = form3({(2,): "1"})
        big = DiffForm(
            CHART3, 2, {(0, 1): s3("1"), (1, 2): s3("x")}
        )
        pair = CovariantPair(omega, big)
        assert classify(pair) is StructureClass.PRE_COSYMPLECTIC_ONLY
        con = dualize(pair)
        with pytest.raises(StructureError):
            pair_bracket(pair, con, zero_pair(CHART3), zero_pair(CHART3))


class TestLeibnizRule:
    def test_defect_vanishes_identically(self, duals):
        rng = random.Random(67)
        for name in ("cosym3", "acc3"):
            cov, con = duals[name]
            for _ in range(4):
                g1 = random_pair(rng, CHART3)
                g2 = random_pair(rng, CHART3)
                f = random_poly(rng, 3, 2)
                defect = leibniz_defect(cov, con, g1, g2, f)
                assert defect.alpha.is_zero()
                assert defect.h.is_zero()

    def test_rule_report_certifies(self, duals):
        cov, con = duals["acc3"]
        rng = random.Random(71)
        report = leibniz_rule_report(
            cov,
            con,
            random_pair(rng, CHART3),
            random_pair(rng, CHART3),
            random_poly(rng, 3, 2),
        )
        assert report.ok

    def test_candidate_correction_is_not_the_defect(self, duals):
        # the correction term Lambda(alpha1, alpha2) df is generically
        # nonzero while the exact defect is zero, so the comparison fails
        cov, con = duals["cosym3"]
        g1 = pair3({(0,): "1"}, "0")
        g2 = pair3({(1,): "1"}, "0")
        f = s3("x")
        candidate = lambda_pair(con, g1.alpha, g2.alpha)
        assert not candidate.is_zero()
        assert leibniz_defect(cov, con, g1, g2, f).alpha.is_zero()
        report = leibniz_correction_report(cov, con, g1, g2, f)
        assert not report.ok

    def test_candidate_residual_is_minus_its_sharp(self, duals):
        # the defect is zero, so the vector comparison leaves exactly
        # -(Lambda(alpha1, alpha2) df)#: a different candidate leaves another
        cov, con = duals["acc3"]
        g1 = pair3({(0,): "y", (1,): "x*z"}, "z")
        g2 = pair3({(1,): "x", (2,): "1"}, "x + y")
        f = s3("x*y + z")
        candidate = lambda_pair(con, g1.alpha, g2.alpha)
        df = exterior_derivative(scalar_form(CHART3, f))
        expected = -sharp(con, df.scale(candidate))
        assert not expected.is_zero()
        report = leibniz_correction_report(cov, con, g1, g2, f)
        residual = report.entry(
            "defect minus Lambda(alpha1, alpha2) df (vector comparison)"
        ).residual
        assert residual == expected

    def test_correction_report_holds_when_term_degenerates(self, duals):
        # with alpha2 = 0 the candidate term collapses and both sides agree
        cov, con = duals["acc3"]
        g1 = pair3({(1,): "1"}, "0")
        g2 = GeneratorPair(zero_form(CHART3, 1), s3("y"))
        assert leibniz_correction_report(cov, con, g1, g2, s3("x")).ok


class TestRepresentativeFreedom:
    def test_omega_shifts_are_invisible(self, duals):
        # alpha and alpha + f omega give the same vector field and the
        # same condition residuals for every target
        cov, con = duals["acc3"]
        rng = random.Random(73)
        for _ in range(3):
            g = random_pair(rng, CHART3)
            f = random_poly(rng, 3, 1)
            shifted = GeneratorPair(g.alpha + cov.omega.scale(f), g.h)
            assert pair_to_vector(cov, con, g) == pair_to_vector(
                cov, con, shifted
            )
            assert pairs_equivalent(cov, con, g, shifted)
            for target in SymmetryTarget:
                base = check_generator_conditions(cov, con, g, target)
                moved = check_generator_conditions(cov, con, shifted, target)
                for left, right in zip(base.entries, moved.entries):
                    assert left.residual == right.residual


ONE_FORM = "1-form residual i_{alpha#} d omega + h i_E d omega + dh"
REEB = "Reeb component E.h + Lambda(L_E omega, alpha)"
IMAGE = "Lambda#-image component of the 1-form residual"
KERNEL = "closedness of the canonical representative d(alpha - alpha(E) omega)"
REEB_VECTOR = "vector part (L_E alpha - alpha(E) L_E omega)#"
HEADLINE = "bivector residual [alpha#, Lambda] - E ^ (dh + h L_E omega)#"
TWO_SHARP = "(d alpha - alpha(E) d omega) through (Lambda#, Lambda#)"
L_OMEGA, L_BIG_OMEGA, X_E, X_LAMBDA = (
    "L_X omega", "L_X Omega", "[X, E]", "[X, Lambda]"
)

# target -> (condition labels, direct labels), as printed by the CLI
REPORT_LABELS = {
    SymmetryTarget.omega: ((ONE_FORM, REEB, IMAGE), (L_OMEGA,)),
    SymmetryTarget.Omega: ((KERNEL,), (L_BIG_OMEGA,)),
    SymmetryTarget.E: ((REEB_VECTOR, REEB), (X_E,)),
    SymmetryTarget.Lambda: ((HEADLINE, IMAGE, TWO_SHARP), (X_LAMBDA,)),
    SymmetryTarget.cov_pair: ((KERNEL, REEB, IMAGE), (L_OMEGA, L_BIG_OMEGA)),
    SymmetryTarget.contra_pair: (
        (REEB_VECTOR, REEB, IMAGE, TWO_SHARP), (X_E, X_LAMBDA)
    ),
    SymmetryTarget.E_Omega: ((KERNEL, REEB), (X_E, L_BIG_OMEGA)),
    SymmetryTarget.Lambda_Omega: ((KERNEL, IMAGE), (X_LAMBDA, L_BIG_OMEGA)),
    SymmetryTarget.E_omega: ((REEB_VECTOR, REEB, IMAGE), (X_E, L_OMEGA)),
    SymmetryTarget.Lambda_omega: ((REEB, IMAGE, TWO_SHARP), (X_LAMBDA, L_OMEGA)),
}


class TestConditionChecks:
    def test_report_labels_are_frozen(self, duals):
        cov, con = duals["acc3"]
        g = pair3({(0,): "1"}, "-x")
        x = pair_to_vector(cov, con, g)
        assert set(REPORT_LABELS) == set(SymmetryTarget)
        for target, (condition_labels, direct_labels) in REPORT_LABELS.items():
            conditions = check_generator_conditions(cov, con, g, target)
            assert conditions.title == f"generator conditions for target {target.value}"
            assert tuple(e.label for e in conditions.entries) == condition_labels
            direct = check_symmetry_direct(cov, con, x, target)
            assert direct.title == f"direct symmetry of {target.value}"
            assert tuple(e.label for e in direct.entries) == direct_labels

    def test_hand_generators_certify_on_acc3(self, duals):
        cov, con = duals["acc3"]
        for g in acc3_hand_generators():
            for target in SymmetryTarget:
                assert check_generator_conditions(cov, con, g, target).ok
                x = pair_to_vector(cov, con, g)
                assert check_symmetry_direct(cov, con, x, target).ok

    def test_reeb_pair_fails_on_acc3_with_frozen_residual(self, duals):
        cov, con = duals["acc3"]
        reeb_pair = GeneratorPair(zero_form(CHART3, 1), Scalar.one(3))
        report = check_generator_conditions(
            cov, con, reeb_pair, SymmetryTarget.omega
        )
        assert not report.ok
        tau = lie_derivative_form(con.E, cov.omega)
        assert tau.comps == {(1,): s3("-1/(1 + y)")}
        literal, reeb_scalar, image = report.entries
        assert not literal.ok and literal.residual == tau
        assert reeb_scalar.ok
        assert not image.ok

    def test_reeb_pair_generates_on_special_classes(self, duals):
        reeb_pair = GeneratorPair(zero_form(CHART3, 1), Scalar.one(3))
        for name in ("cosym3", "contact3"):
            cov, con = duals[name]
            report = check_generator_conditions(
                cov, con, reeb_pair, SymmetryTarget.cov_pair
            )
            assert report.ok
            assert check_symmetry_direct(
                cov, con, con.E, SymmetryTarget.contra_pair
            ).ok

    def test_condition_and_direct_agree_per_target(self, duals):
        rng = random.Random(79)
        for name in ("contact3", "acc3"):
            cov, con = duals[name]
            for _ in range(4):
                g = random_pair(rng, CHART3)
                x = pair_to_vector(cov, con, g)
                for target in SymmetryTarget:
                    conditions = check_generator_conditions(cov, con, g, target)
                    direct = check_symmetry_direct(cov, con, x, target)
                    assert conditions.ok == direct.ok, target


class TestEquivalenceTheorem:
    def test_three_routes_agree_on_random_pairs(self, duals):
        rng = random.Random(83)
        for name in ("cosym3", "contact3", "acc3"):
            cov, con = duals[name]
            for _ in range(4):
                report = theorem_equivalence_check(
                    cov, con, random_pair(rng, CHART3)
                )
                assert report.agree

    def test_positive_and_negative_instances(self, duals):
        cov, con = duals["acc3"]
        good = theorem_equivalence_check(cov, con, acc3_hand_generators()[0])
        assert good.verdicts == (True, True, True) and good.agree
        reeb_pair = GeneratorPair(zero_form(CHART3, 1), Scalar.one(3))
        bad = theorem_equivalence_check(cov, con, reeb_pair)
        assert bad.verdicts == (False, False, False)
        assert bad.agree

    def test_each_condition_is_evaluated_once(self, duals, monkeypatch):
        # the Reeb-scalar and image conditions belong to both pair targets
        calls = count_condition_calls(monkeypatch)
        cov, con = duals["acc3"]
        theorem_equivalence_check(cov, con, acc3_hand_generators()[0])
        assert calls == {
            "one_form": 0,
            "reeb_scalar": 1,
            "image": 1,
            "closed_kernel": 1,
            "reeb_vector": 1,
            "lambda_headline": 0,
            "two_sharp": 1,
        }

    @pytest.mark.parametrize("target", list(SymmetryTarget))
    def test_cli_symmetry_evaluates_each_residual_once(self, monkeypatch, target):
        conditions = count_condition_calls(monkeypatch)
        fields = count_direct_calls(monkeypatch)
        code = run([
            "symmetry", "-s", str(FIXTURES_DIR / "contact3.json"),
            "-p", str(FIXTURES_DIR / "hj_x.json"), "-t", target.value,
        ])
        assert code in (0, 1)
        reports = (target, *PAIR_TARGETS) if target in PAIR_TARGETS else (target,)
        assert (conditions, fields) == evaluated_once(reports)

    def test_suite_trial_evaluates_each_residual_once(self, duals, monkeypatch):
        # trial 0 checks the three routes and then the first target, omega
        conditions = count_condition_calls(monkeypatch)
        fields = count_direct_calls(monkeypatch)
        cov, con = duals["acc3"]
        entries = list(_equivalence(random.Random(5), cov, con, 1, 2))
        assert len(entries) == 2
        targets = (*PAIR_TARGETS, SymmetryTarget.omega)
        assert (conditions, fields) == evaluated_once(targets)

    def test_summary_shows_each_route_and_fails_on_disagreement(self):
        passing = ConditionReport("passing", (CheckEntry.verdict("holds", True),))
        failing = ConditionReport("failing", (CheckEntry.verdict("holds", False),))
        entry = EquivalenceReport(passing, failing, passing).summary("routes agree")
        assert entry == CheckEntry.verdict("routes agree (pass/fail/pass)", False)

    def test_direct_report_is_both_pair_targets_in_turn(self, duals):
        rng = random.Random(89)
        for name in ("acc3", "contact5"):
            cov, con = duals[name]
            for _ in range(3):
                g = random_pair(rng, cov.chart)
                x = pair_to_vector(cov, con, g)
                expected = tuple(
                    entry
                    for target in (SymmetryTarget.cov_pair, SymmetryTarget.contra_pair)
                    for entry in check_symmetry_direct(cov, con, x, target).entries
                )
                direct = theorem_equivalence_check(cov, con, g).direct
                assert [e.label for e in direct.entries] == [e.label for e in expected]
                assert direct.entries == expected


class TestReducedBrackets:
    def test_all_modes_match_pair_bracket_on_full_generators(self, duals):
        cov, con = duals["acc3"]
        hands = acc3_hand_generators()
        for mode in BracketMode:
            for i in range(len(hands)):
                for j in range(i + 1, len(hands)):
                    reduced = reduced_bracket(
                        cov, con, hands[i], hands[j], mode
                    )
                    plain = pair_bracket(cov, con, hands[i], hands[j])
                    assert pairs_equivalent(cov, con, reduced, plain), mode

    @pytest.mark.parametrize("name", ["cosym3", "contact3", "acc3"])
    def test_every_mode_on_the_degree_one_basis_of_its_target(self, duals, name):
        cov, con = duals[name]
        targets = {
            BracketMode.omega_sym: SymmetryTarget.omega,
            BracketMode.Omega_sym: SymmetryTarget.Omega,
            BracketMode.E_sym: SymmetryTarget.E,
            BracketMode.full_sym: SymmetryTarget.cov_pair,
        }
        for mode, target in targets.items():
            basis = find_generator_pairs(cov, con, target, 1)
            for g1, g2 in combinations(basis, 2):
                reduced = reduced_bracket(cov, con, g1, g2, mode)
                plain = pair_bracket(cov, con, g1, g2)
                assert pairs_equivalent(cov, con, reduced, plain), mode

    def test_omega_mode_on_cosymplectic(self, duals):
        # on a cosymplectic pair the omega conditions ask only dh = 0
        cov, con = duals["cosym3"]
        rng = random.Random(89)
        g1 = GeneratorPair(form3({(0,): "y", (1,): "x*z"}), Scalar.one(3))
        g2 = GeneratorPair(form3({(2,): "x"}), Scalar.const(3, -2))
        reduced = reduced_bracket(cov, con, g1, g2, BracketMode.omega_sym)
        plain = pair_bracket(cov, con, g1, g2)
        assert pairs_equivalent(cov, con, reduced, plain)

    def test_Omega_mode_canonicalizes_inputs(self, duals):
        cov, con = duals["acc3"]
        g1 = pair3({(1,): "1"}, "x*y")
        g2 = pair3({(1,): "1"}, "z")
        reduced = reduced_bracket(cov, con, g1, g2, BracketMode.Omega_sym)
        plain = pair_bracket(cov, con, g1, g2)
        assert pairs_equivalent(cov, con, reduced, plain)
        # the output 1-form is exactly d Lambda(alpha1, alpha2)
        assert exterior_derivative(reduced.alpha).is_zero()

    def test_precondition_failures_are_raised_with_reports(self, duals):
        cov, con = duals["acc3"]
        reeb_pair = GeneratorPair(zero_form(CHART3, 1), Scalar.one(3))
        good = acc3_hand_generators()[0]
        with pytest.raises(PreconditionError) as info:
            reduced_bracket(cov, con, reeb_pair, good, BracketMode.omega_sym)
        assert info.value.reports
        assert not info.value.reports[0].ok


class TestClosure:
    def test_closed_kernel_pairs_stay_closed(self, duals):
        cov, con = duals["acc3"]
        g1 = pair3({(0,): "1"}, "x*z")
        g2 = pair3({(1,): "1"}, "y")
        report = closure_check_Omega(cov, con, g1, g2)
        assert report.ok

    def test_closure_across_catalog(self, duals):
        for name in ("cosym3", "contact3", "acc3"):
            cov, con = duals[name]
            g1 = GeneratorPair(
                DiffForm(CHART3, 1, {(0,): Scalar.one(3)}), s3("z")
            )
            g2 = GeneratorPair(
                DiffForm(CHART3, 1, {(1,): Scalar.one(3)}), s3("x")
            )
            assert closure_check_Omega(cov, con, g1, g2).ok

    def test_non_closed_input_is_rejected(self, duals):
        cov, con = duals["acc3"]
        curled = pair3({(0,): "y"}, "0")
        assert not exterior_derivative(curled.alpha).is_zero()
        with pytest.raises(PreconditionError):
            closure_check_Omega(cov, con, curled, zero_pair(CHART3))


class TestHamiltonJacobi:
    def test_frozen_coordinate_bracket(self, duals):
        cov, con = duals["contact3"]
        assert poisson_bracket(con, s3("x"), s3("y")) == s3("-1")
        assert poisson_bracket(con, s3("y"), s3("x")) == s3("1")
        assert poisson_bracket(con, s3("x"), s3("x")).is_zero()

    def test_lift_admissibility(self, duals):
        cov, con = duals["contact3"]
        lifted = hamilton_jacobi_lift(cov, con, s3("x"))
        assert lifted.admissible
        assert lifted.pair.alpha == form3({(0,): "1"})
        assert lifted.pair.h == s3("-x")
        stuck = hamilton_jacobi_lift(cov, con, s3("z"))
        assert not stuck.admissible
        assert stuck.reeb_derivative == s3("1")

    def test_bracket_of_lifts_is_a_lift(self, duals):
        cov, con = duals["contact3"]
        functions = [s3("x"), s3("y"), s3("x*y"), s3("x^2 - y^2")]
        for h1 in functions:
            for h2 in functions:
                g1 = hamilton_jacobi_lift(cov, con, h1).pair
                g2 = hamilton_jacobi_lift(cov, con, h2).pair
                result = pair_bracket(cov, con, g1, g2)
                lifted = hamilton_jacobi_lift(
                    cov, con, poisson_bracket(con, h1, h2)
                ).pair
                assert result.alpha == lifted.alpha
                assert result.h == lifted.h

    def test_gradient_pairs_close_on_cosymplectic(self, duals):
        # with no Reeb twist the bracket of (dh, 0) pairs is (d{h1,h2}, 0)
        cov, con = duals["cosym3"]
        h1, h2 = s3("x^2"), s3("y")
        g1 = GeneratorPair(exterior_derivative(scalar_form(CHART3, h1)), s3("0"))
        g2 = GeneratorPair(exterior_derivative(scalar_form(CHART3, h2)), s3("0"))
        result = pair_bracket(cov, con, g1, g2)
        bracket = poisson_bracket(con, h1, h2)
        assert bracket == s3("-2*x")
        assert result.alpha == exterior_derivative(scalar_form(CHART3, bracket))
        assert result.h.is_zero()

    def test_omega_residual_reductions(self, duals):
        # cosymplectic: the 1-form residual collapses to dh;
        # contact: it collapses to (alpha - alpha(E) omega) + dh
        from cckit import project

        rng = random.Random(43)
        cov, con = duals["cosym3"]
        for _ in range(3):
            g = random_pair(rng, CHART3)
            entry = check_generator_conditions(
                cov, con, g, SymmetryTarget.omega
            ).entries[0]
            dh = exterior_derivative(scalar_form(CHART3, g.h))
            assert entry.residual == dh
        cov, con = duals["contact3"]
        for _ in range(3):
            g = random_pair(rng, CHART3)
            entry = check_generator_conditions(
                cov, con, g, SymmetryTarget.omega
            ).entries[0]
            dh = exterior_derivative(scalar_form(CHART3, g.h))
            assert entry.residual == project(cov, con, g.alpha, "q1") + dh


class TestTransport:
    def test_componentwise_transport(self, duals):
        cov, con = duals["acc3"]
        x = coordinate_vector(CHART3, 0)
        g = pair3({(1,): "x"}, "x*y")
        moved = lie_derivative_pair(cov, con, x, g)
        assert moved.alpha == form3({(1,): "1"})
        assert moved.h == s3("y")

    def test_transport_along_reeb(self, duals):
        cov, con = duals["cosym3"]
        g = GeneratorPair(cov.omega, s3("x"))
        moved = lie_derivative_pair(cov, con, con.E, g)
        assert moved.alpha.is_zero() and moved.h.is_zero()

    def test_degree_guard(self, duals):
        cov, con = duals["acc3"]
        with pytest.raises(StructureError):
            lie_derivative_pair(cov, con, con.Lam, zero_pair(CHART3))


class TestDerivationIdentities:
    def test_bracket_is_a_derivation_on_closed_kernel_pairs(self, duals):
        cov, con = duals["acc3"]
        g1 = pair3({(1,): "1"}, "x")
        g2 = pair3({(1,): "1"}, "z")
        g3 = pair3({(1,): "1"}, "1")
        assert derivation_check_D(cov, con, g1, g2, g3).ok

    def test_derivation_requires_Omega_conditions(self, duals):
        cov, con = duals["cosym3"]
        curled = pair3({(0,): "y"}, "0")
        with pytest.raises(PreconditionError):
            derivation_check_D(
                cov, con, curled, zero_pair(CHART3), zero_pair(CHART3)
            )

    def test_transport_derivation_with_symmetry(self, duals):
        cov, con = duals["acc3"]
        hands = acc3_hand_generators()
        x = pair_to_vector(cov, con, hands[0])
        report = derivation_check_LX(cov, con, x, hands[1], hands[2])
        assert report.ok

    def test_transport_derivation_reports_broken_preconditions(self, duals):
        # a non-symmetry X is reported entry by entry, not raised
        cov, con = duals["acc3"]
        hands = acc3_hand_generators()
        x = coordinate_vector(CHART3, 1)
        report = derivation_check_LX(cov, con, x, hands[0], hands[1])
        assert not report.ok
        assert not report.entry("X preserves omega and Omega").ok


class TestAveragedTransport:
    def test_bracket_equals_averaged_transport(self, duals):
        cov, con = duals["acc3"]
        hands = acc3_hand_generators()
        for i in range(len(hands)):
            for j in range(i + 1, len(hands)):
                assert antisymmetrization_identity(
                    cov, con, hands[i], hands[j]
                ).ok

    def test_requires_full_generators(self, duals):
        cov, con = duals["acc3"]
        reeb_pair = GeneratorPair(zero_form(CHART3, 1), Scalar.one(3))
        with pytest.raises(PreconditionError):
            antisymmetrization_identity(
                cov, con, reeb_pair, acc3_hand_generators()[0]
            )


class TestMusicalCommutation:
    def test_symmetry_commutes_with_sharp(self, duals):
        cov, con = duals["acc3"]
        x = pair_to_vector(cov, con, acc3_hand_generators()[0])
        rng = random.Random(97)
        for _ in range(3):
            beta = form3(
                {(0,): "y", (1,): "x^2", (2,): "z"}
            )
            report = musical_commutation_check(cov, con, x, beta)
            assert report.ok

    def test_generic_vector_fails_but_cross_route_agrees(self, duals):
        cov, con = duals["acc3"]
        x = coordinate_vector(CHART3, 1)
        beta = form3({(0,): "1"})
        report = musical_commutation_check(cov, con, x, beta)
        residual, cross = report.entries
        assert not residual.ok
        assert cross.ok

    def test_equivalence_with_bivector_bracket(self, duals):
        cov, con = duals["acc3"]
        preserved = pair_to_vector(cov, con, acc3_hand_generators()[1])
        assert musical_commutation_iff_report(cov, con, preserved).ok
        generic = coordinate_vector(CHART3, 1)
        assert musical_commutation_iff_report(cov, con, generic).ok
        assert not schouten_bracket(generic, con.Lam).is_zero()


def coefficient_rows(
    nvars: int, entries: list[tuple[int, Scalar]]
) -> list[dict[int, Fraction]]:
    """Sparse Q-rows of sum_j x_j v_j = 0 for the (column j, v_j) entries.

    Over a common denominator the sum vanishes exactly when every
    coefficient of its numerator does: one row per numerator monomial.
    """
    _, multipliers = common_denominator(nvars, [value.den for _, value in entries])
    rows: dict[tuple[int, ...], dict[int, Fraction]] = {}
    for (column, value), multiplier in zip(entries, multipliers):
        for exponent, coeff in (value.num * multiplier).terms.items():
            rows.setdefault(exponent, {})[column] = coeff
    return list(rows.values())


def in_q_span(vectors: list[Multivector], target: Multivector) -> bool:
    """Whether target is a Q-linear combination of vectors.

    Columns are the vectors and then target, with the rows of each
    component as in the generator search; target lies in the span exactly
    when some nullspace vector has a nonzero last entry.
    """
    columns = vectors + [target]
    rows = []
    for key in {key for v in columns for key in v.comps}:
        rows.extend(
            coefficient_rows(
                target.chart.dim,
                [(c, v.comps[key]) for c, v in enumerate(columns) if key in v.comps],
            )
        )
    last = len(columns) - 1
    return any(last in vec for vec in rational_nullspace(rows, len(columns)))


def per_monomial_rows(s, target, monomials) -> list[dict[int, Fraction]]:
    """Test oracle for the search rows, independent of the first-order symbols.

    Every condition builder is evaluated in full on every monomial basis
    pair, one column per (monomial, slot), as `_symbol_rows` numbers them.
    """
    chart = s.cov.chart
    dim = chart.dim
    basis_pairs: list[GeneratorPair] = []
    for exponent in monomials:
        coeff = Scalar(Poly(dim, {exponent: Fraction(1)}))
        for i in range(dim):
            basis_pairs.append(
                GeneratorPair(DiffForm(chart, 1, {(i,): coeff}), Scalar.zero(dim))
            )
        basis_pairs.append(GeneratorPair(zero_form(chart, 1), coeff))

    names, _ = _TARGETS[target]
    builders = [_CONDITIONS[name][1] for name in names]
    comps_per_pair = [
        [
            {(): residual} if isinstance(residual, Scalar) else residual.comps
            for residual in (builder(s, g) for builder in builders)
        ]
        for g in basis_pairs
    ]
    slots = dict.fromkeys(
        (c_index, key)
        for comps in comps_per_pair
        for c_index, residual_comps in enumerate(comps)
        for key in residual_comps
    )
    rows: list[dict[int, Fraction]] = []
    for c_index, key in slots:
        rows.extend(
            coefficient_rows(
                dim,
                [
                    (column, comps[c_index][key])
                    for column, comps in enumerate(comps_per_pair)
                    if key in comps[c_index]
                ],
            )
        )
    return rows


def term_dicts(pairs: list[GeneratorPair]) -> list:
    """Every numerator and denominator term dict of a basis, in order."""
    return [
        (
            [(k, v.num.terms, v.den.terms) for k, v in sorted(g.alpha.comps.items())],
            g.h.num.terms,
            g.h.den.terms,
        )
        for g in pairs
    ]


class TestGeneratorSearch:
    def test_acc3_degree_two_basis(self, duals):
        cov, con = duals["acc3"]
        found = find_generator_pairs(cov, con, SymmetryTarget.cov_pair, 2)
        assert len(found) == 3
        for g in found:
            report = theorem_equivalence_check(cov, con, g)
            assert report.verdicts == (True, True, True)
        # the span contains the three hand generators
        vectors = [pair_to_vector(cov, con, g) for g in found]
        for hand in acc3_hand_generators():
            assert check_generator_conditions(
                cov, con, hand, SymmetryTarget.cov_pair
            ).ok
            assert in_q_span(vectors, pair_to_vector(cov, con, hand))

    def test_trivial_solutions_are_filtered(self, duals):
        cov, con = duals["acc3"]
        everything = find_generator_pairs(
            cov, con, SymmetryTarget.cov_pair, 2, include_trivial=True
        )
        assert len(everything) == 7
        trivial = [
            g
            for g in everything
            if pair_to_vector(cov, con, g).is_zero()
        ]
        assert len(trivial) == 4
        for g in trivial:
            assert g.h.is_zero()

    def test_cosymplectic_degree_one_count(self, duals):
        cov, con = duals["cosym3"]
        found = find_generator_pairs(cov, con, SymmetryTarget.cov_pair, 1)
        assert len(found) == 6
        for g in found:
            assert theorem_equivalence_check(cov, con, g).verdicts == (
                True,
                True,
                True,
            )


# (structure, degrees): every target at d <= 2 in dimension 3, d = 1 on contact5
ORACLE_CASES = [("cosym3", 2), ("contact3", 2), ("acc3", 2), ("contact5", 1)]


class TestGeneratorSearchAgainstPerMonomialOracle:
    @pytest.mark.parametrize("name,max_degree", ORACLE_CASES)
    def test_same_basis(self, duals, monkeypatch, name, max_degree):
        # with the trivial pairs kept, the basis is the whole nullspace
        cov, con = duals[name]
        jobs = [
            (target, degree)
            for target in SymmetryTarget
            for degree in range(1, max_degree + 1)
        ]
        found = [
            find_generator_pairs(cov, con, target, degree, include_trivial=True)
            for target, degree in jobs
        ]
        monkeypatch.setattr(symmetries, "_symbol_rows", per_monomial_rows)
        for (target, degree), basis in zip(jobs, found):
            oracle = find_generator_pairs(
                cov, con, target, degree, include_trivial=True
            )
            assert term_dicts(basis) == term_dicts(oracle), (target, degree)


SYMBOL_STRUCTURES = ("acc3", "contact5")


@pytest.fixture(scope="module")
def condition_symbols(duals):
    """structure -> condition -> its first-order symbols."""
    table = {}
    for name in SYMBOL_STRUCTURES:
        s = _setting(*duals[name])
        table[name] = {
            condition: _first_order_symbols(s, builder)
            for condition, (_, builder) in _CONDITIONS.items()
        }
    return table


def coefficient_polys(dim: int):
    """Integer polynomials of degree <= 3 with at most three terms."""
    exponents = st.tuples(*[st.integers(0, 2)] * dim).filter(lambda e: sum(e) <= 3)
    coeffs = st.integers(-3, 3).filter(bool)
    return st.dictionaries(exponents, coeffs, max_size=3)


class TestFirstOrderSymbols:
    @pytest.mark.parametrize("name", SYMBOL_STRUCTURES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_builders_equal_the_symbol_expansion(
        self, duals, condition_symbols, name, data
    ):
        # R(g) = sum_sigma (c_sigma R(sigma) + sum_k (d_k c_sigma) S_k(sigma))
        cov, con = duals[name]
        s = _setting(cov, con)
        chart = cov.chart
        dim = chart.dim
        slot_terms = [data.draw(coefficient_polys(dim)) for _ in range(dim + 1)]
        coeffs = [
            Scalar(Poly(dim, {e: Fraction(c) for e, c in terms.items()}))
            for terms in slot_terms
        ]
        g = GeneratorPair(
            DiffForm(chart, 1, {(i,): coeffs[i] for i in range(dim)}), coeffs[dim]
        )
        for condition, (_, builder) in _CONDITIONS.items():
            residual = builder(s, g)
            comps = {(): residual} if isinstance(residual, Scalar) else residual.comps
            symbols = condition_symbols[name][condition]
            for key in set(comps) | set(symbols):
                if key not in symbols:
                    expansion = Scalar.zero(dim)
                else:
                    den, per_slot = symbols[key]
                    num = Poly.zero(dim)
                    for numerators, terms in zip(per_slot, slot_terms):
                        for exponent, c in terms.items():
                            shifted = _shifted_numerator(numerators, exponent)
                            num = num + Poly(dim, shifted).scale(c)
                    expansion = Scalar(num, den)
                assert expansion == comps.get(key, Scalar.zero(dim)), (condition, key)

    def test_symbols_cost_dim_plus_one_squared_calls(self, duals):
        cov, con = duals["contact5"]
        calls = []

        def builder(s, g):
            calls.append(g)
            return _CONDITIONS["reeb_scalar"][1](s, g)

        _first_order_symbols(_setting(cov, con), builder)
        assert len(calls) == 6 * 6


def fresh_dual(name: str):
    """A newly dualized (cov, con): its con carries no context yet."""
    cov = get_example(name).cov
    return cov, dualize(cov)


class TestStructureContext:
    @pytest.mark.parametrize("name,max_degree", [("cosym3", 2), ("acc3", 2), ("contact5", 1)])
    def test_held_dual_matches_a_fresh_dual_per_call(self, name, max_degree):
        cov, con = fresh_dual(name)
        for target in SymmetryTarget:
            for degree in range(1, max_degree + 1):
                held = find_generator_pairs(cov, con, target, degree)
                fresh = find_generator_pairs(cov, dualize(cov), target, degree)
                assert term_dicts(held) == term_dicts(fresh), (target, degree)
        assert _setting(cov, con) is _setting(cov, con)

    def test_each_builder_runs_once_per_dual(self, monkeypatch):
        # a d = 1 sweep of every target builds each condition's symbols once
        calls = count_condition_calls(monkeypatch)
        cov, con = fresh_dual("contact5")
        for target in SymmetryTarget:
            find_generator_pairs(cov, con, target, 1)
        assert calls == dict.fromkeys(_CONDITIONS, 6 * 6)

    def test_another_cov_rebuilds_the_context(self):
        cov, con = fresh_dual("acc3")
        other = get_example("cosym3").cov
        assert other.chart == cov.chart
        first = _setting(cov, con)
        differs = False
        for target in SymmetryTarget:
            held = find_generator_pairs(cov, con, target, 1)
            swapped = find_generator_pairs(other, con, target, 1)
            fresh = find_generator_pairs(other, dualize(cov), target, 1)
            assert term_dicts(swapped) == term_dicts(fresh), target
            differs = differs or term_dicts(swapped) != term_dicts(held)
        # the swap changes some basis, so a kept stale context would show
        assert differs
        assert _setting(other, con).cov is other
        assert _setting(cov, con) is not first

    @pytest.mark.parametrize("name,max_degree", [("acc3", 2), ("contact5", 1)])
    def test_trivial_filter_matches_the_vector_field(self, duals, name, max_degree):
        cov, con = duals[name]
        trivial_seen = 0
        for target in SymmetryTarget:
            for degree in range(1, max_degree + 1):
                everything = find_generator_pairs(
                    cov, con, target, degree, include_trivial=True
                )
                kept = [g for g in everything if not pair_to_vector(cov, con, g).is_zero()]
                trivial_seen += len(everything) - len(kept)
                found = find_generator_pairs(cov, con, target, degree)
                assert term_dicts(found) == term_dicts(kept), (target, degree)
        assert trivial_seen
