"""Randomized exact identity suite.

Each section draws random polynomial data (integer coefficients in
[-3, 3], bounded total degree) from one seeded generator and certifies a
family of identities with zero-tolerance residuals.  Sections that need
the dual pair or the closed-2-form calculus are skipped, with a notice,
when the structure does not support them; a skip is not a failure.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from ..algebra import Chart, Poly, Scalar
from ..exterior import (
    DiffForm,
    Multivector,
    schouten_bracket,
    schouten_identity_residual,
)
from ..report import CheckEntry, ConditionReport
from ..structures import (
    CovariantPair,
    classify,
    dualize,
    is_almost_cosymplectic_contact,
)
from ..symmetries import (
    GeneratorPair,
    SymmetryTarget,
    antisymmetrization_identity,
    check_generator_conditions,
    check_symmetry_direct,
    find_generator_pairs,
    leibniz_rule_report,
    pair_bracket,
    pair_to_vector,
    theorem_equivalence_check,
)


@dataclass
class SuiteResult:
    sections: list[ConditionReport] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(section.ok for section in self.sections)


def random_poly(rng: random.Random, nvars: int, degree: int) -> Scalar:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, 3)):
        exponent = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exponent[rng.randrange(nvars)] += 1
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        key = tuple(exponent)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(coeff)
    return Scalar(Poly(nvars, {k: v for k, v in terms.items() if v}))


def random_tensor(
    cls: type, rng: random.Random, chart: Chart, degree: int, poly_degree: int
) -> DiffForm | Multivector:
    """A random DiffForm or Multivector (cls), about 80 % of its components set."""
    comps = {
        key: random_poly(rng, chart.dim, poly_degree)
        for key in combinations(range(chart.dim), degree)
        if rng.random() < 0.8
    }
    return cls(chart, degree, comps)


def random_pair(rng: random.Random, chart: Chart, poly_degree: int) -> GeneratorPair:
    return GeneratorPair(
        random_tensor(DiffForm, rng, chart, 1, poly_degree),
        random_poly(rng, chart.dim, poly_degree),
    )


# Each section yields its entries from (rng, cov, con, trials, degree); con is
# None for the sections that do not need the dual pair.


def _jacobi(rng, cov, con, trials: int, degree: int) -> Iterator[CheckEntry]:
    chart = cov.chart
    for trial in range(trials):
        degrees = [rng.randint(1, 2) for _ in range(3)]
        p, q, r = (
            random_tensor(Multivector, rng, chart, d, degree) for d in degrees
        )
        dp, dq, dr = degrees
        total = (
            schouten_bracket(p, schouten_bracket(q, r)).scale(
                Scalar.const(chart.dim, (-1) ** (dp * (dr - 1)))
            )
            + schouten_bracket(q, schouten_bracket(r, p)).scale(
                Scalar.const(chart.dim, (-1) ** (dq * (dp - 1)))
            )
            + schouten_bracket(r, schouten_bracket(p, q)).scale(
                Scalar.const(chart.dim, (-1) ** (dr * (dq - 1)))
            )
        )
        yield CheckEntry.of(f"trial {trial}: graded Jacobi cyclic sum", total)


def _insertion(rng, cov, con, trials: int, degree: int) -> Iterator[CheckEntry]:
    chart = cov.chart
    for trial in range(trials):
        dp = rng.randint(1, 2)
        dq = rng.randint(1, 2)
        p = random_tensor(Multivector, rng, chart, dp, degree)
        q = random_tensor(Multivector, rng, chart, dq, degree)
        beta = random_tensor(DiffForm, rng, chart, dp + dq - 1, degree)
        yield CheckEntry.of(
            f"trial {trial}: insertion identity against a random "
            f"{dp + dq - 1}-form",
            schouten_identity_residual(p, q, beta),
        )


def _compatibility(rng, cov, con, trials: int, degree: int) -> Iterator[CheckEntry]:
    for trial in range(trials):
        g1 = random_pair(rng, cov.chart, degree)
        g2 = random_pair(rng, cov.chart, degree)
        out = pair_bracket(cov, con, g1, g2)
        residual = pair_to_vector(cov, con, out) - schouten_bracket(
            pair_to_vector(cov, con, g1), pair_to_vector(cov, con, g2)
        )
        yield CheckEntry.of(
            f"trial {trial}: bracket-commutator compatibility", residual
        )


def _equivalence(rng, cov, con, trials: int, degree: int) -> Iterator[CheckEntry]:
    targets = tuple(SymmetryTarget)
    for trial in range(trials):
        g = random_pair(rng, cov.chart, degree)
        x = pair_to_vector(cov, con, g)
        eq = theorem_equivalence_check(cov, con, g)
        yield eq.summary(f"trial {trial}: three-way full-symmetry verdicts agree")
        target = targets[trial % len(targets)]
        conditions = check_generator_conditions(cov, con, g, target)
        direct = check_symmetry_direct(cov, con, x, target)
        yield CheckEntry.verdict(
            f"trial {trial}: target {target.value} condition verdict "
            f"matches the direct Lie-derivative verdict",
            conditions.ok == direct.ok,
        )


def _leibniz(rng, cov, con, trials: int, degree: int) -> Iterator[CheckEntry]:
    for trial in range(trials):
        g1 = random_pair(rng, cov.chart, degree)
        g2 = random_pair(rng, cov.chart, degree)
        f = random_poly(rng, cov.chart.dim, degree)
        yield leibniz_rule_report(cov, con, g1, g2, f).summary(
            f"trial {trial}: anchored Leibniz defect is trivial"
        )


def _averaged(rng, cov, con, trials: int, degree: int) -> Iterator[CheckEntry]:
    search_degree = min(degree, 2) if cov.chart.dim <= 3 else 1
    generators = find_generator_pairs(
        cov, con, SymmetryTarget.cov_pair, search_degree
    )
    yield CheckEntry.verdict(
        f"polynomial generator search (coefficient degree <= "
        f"{search_degree}) found {len(generators)} generators",
        True,
    )
    if len(generators) < 2:
        yield CheckEntry.verdict(
            "fewer than two generators found; averaged-transport "
            "identity is vacuous here",
            True,
        )
        return
    for i, j in combinations(range(min(len(generators), 4)), 2):
        report = antisymmetrization_identity(
            cov, con, generators[i], generators[j]
        )
        yield report.summary(
            f"generators {i} and {j}: bracket equals the averaged transport"
        )


# (title, needs the dual pair, entries), run in this order from one generator.
_SECTIONS = (
    ("graded Jacobi identity for the Schouten bracket", False, _jacobi),
    ("defining insertion identity of the Schouten bracket", False, _insertion),
    ("pair bracket mirrors the vector field commutator", True, _compatibility),
    (
        "generator conditions are equivalent to direct transport checks",
        True,
        _equivalence,
    ),
    ("anchored Leibniz rule for the pair bracket", True, _leibniz),
    ("averaged-transport form of the bracket on found generators", True, _averaged),
)


def run_suite(
    cov: CovariantPair, trials: int, degree: int, seed: int
) -> SuiteResult:
    rng = random.Random(seed)
    result = SuiteResult()
    con = None
    for title, needs_dual, entries in _SECTIONS:
        if needs_dual and not is_almost_cosymplectic_contact(cov):
            result.skipped.append((
                title,
                f"structure classifies as {classify(cov).value}; the pair "
                "bracket and symmetry calculus need a regular pair with "
                "d Omega = 0",
            ))
            continue
        if needs_dual and con is None:
            con = dualize(cov)
        result.sections.append(
            ConditionReport(title, tuple(entries(rng, cov, con, trials, degree)))
        )
    return result
