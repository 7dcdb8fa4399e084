"""Classification, duality, projections, and the companion pair."""

import random
from itertools import combinations
from pathlib import Path

import pytest

from cckit import (
    Chart,
    ContravariantPair,
    CovariantPair,
    DiffForm,
    Multivector,
    NotRegular,
    Scalar,
    StructureClass,
    classify,
    decompose_form,
    decompose_vector,
    dualize,
    exterior_derivative,
    flat,
    get_example,
    interior_product,
    is_almost_cosymplectic_contact,
    lambda_pair,
    lie_derivative_form,
    parse_scalar,
    project,
    regularity_density,
    schouten_bracket,
    second_pair,
    sharp,
    verify_contravariant_identities,
    verify_duality,
    wedge,
)
from cckit.cli.files import load_structure
from cckit.exterior import _merge, coordinate_form, pairing, scalar_form
from cckit.structures import StructureError, two_form_through_sharp

from conftest import random_form

DATA_DIR = Path(__file__).resolve().parent / "data"
BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"

CHART3 = Chart(("x", "y", "z"))

EXPECTED_CLASS = {
    "cosym3": StructureClass.COSYMPLECTIC,
    "contact3": StructureClass.CONTACT,
    "contact5": StructureClass.CONTACT,
    "acc3": StructureClass.ALMOST_COSYMPLECTIC_CONTACT,
    "singular3": StructureClass.NOT_REGULAR,
}


def s3(text: str) -> Scalar:
    return parse_scalar(text, CHART3)


def form3(degree: int, spec: dict) -> DiffForm:
    return DiffForm(CHART3, degree, {k: s3(v) for k, v in spec.items()})


def closed_form_dual(cov: CovariantPair) -> ContravariantPair:
    """E = (Omega^n)♮ and Lambda = -n (omega ^ Omega^(n-1))♮, with no solve.

    beta♮ is the (dim - k)-vector V with i_V(rho dx^0 ... dx^(dim-1)) = beta
    for a k-form beta, where rho is the regularity density: its component
    on an increasing J is the sign of the shuffle (J, rest) times
    beta_rest / rho, where rest is the complement of J.
    """
    chart = cov.chart
    dim = chart.dim
    n = dim // 2
    rho = regularity_density(cov)

    def natural(beta: DiffForm) -> Multivector:
        comps = {}
        for J in combinations(range(dim), dim - beta.degree):
            rest = tuple(i for i in range(dim) if i not in J)
            if rest in beta.comps:
                sign, _ = _merge(J, rest)
                comps[J] = beta.comps[rest] * sign / rho
        return Multivector(chart, dim - beta.degree, comps)

    powers = [scalar_form(chart, Scalar.one(dim))]
    for _ in range(n):
        powers.append(wedge(powers[-1], cov.Omega))
    lam = natural(wedge(cov.omega, powers[n - 1])).scale(-n)
    return ContravariantPair(natural(powers[n]), lam)


def pre_cosymplectic_pair() -> CovariantPair:
    # regular, but d Omega = dx^dy^dz does not vanish
    omega = form3(1, {(2,): "1"})
    big = form3(2, {(0, 1): "1", (1, 2): "x"})
    return CovariantPair(omega, big)


class TestClassify:
    @pytest.mark.parametrize("name", sorted(EXPECTED_CLASS))
    def test_catalog_classes(self, name):
        assert classify(get_example(name).cov) is EXPECTED_CLASS[name]

    def test_pre_cosymplectic_only(self):
        pair = pre_cosymplectic_pair()
        assert classify(pair) is StructureClass.PRE_COSYMPLECTIC_ONLY
        assert not is_almost_cosymplectic_contact(pair)

    def test_acc_predicate_covers_special_classes(self):
        for name in ("cosym3", "contact3", "contact5", "acc3"):
            assert is_almost_cosymplectic_contact(get_example(name).cov)
        assert not is_almost_cosymplectic_contact(get_example("singular3").cov)

    def test_frozen_densities(self):
        assert regularity_density(get_example("acc3").cov) == s3("1 + y")
        five = get_example("contact5").cov
        assert regularity_density(five) == Scalar.const(5, 2)
        assert regularity_density(get_example("singular3").cov).is_zero()

    def test_pair_validation(self):
        omega = form3(1, {(2,): "1"})
        with pytest.raises(StructureError):
            CovariantPair(omega, omega)
        other = Chart(("u", "v", "w"))
        big = DiffForm(other, 2, {(0, 1): Scalar.one(3)})
        with pytest.raises(StructureError):
            CovariantPair(omega, big)


class TestDualize:
    def test_frozen_dual_cosym3(self):
        con = dualize(get_example("cosym3").cov)
        assert con.E.comps == {(2,): s3("1")}
        assert con.Lam.comps == {(0, 1): s3("-1")}

    def test_frozen_dual_contact3(self):
        con = dualize(get_example("contact3").cov)
        assert con.E.comps == {(2,): s3("1")}
        assert con.Lam.comps == {(0, 1): s3("-1"), (1, 2): s3("y")}

    def test_frozen_dual_acc3(self):
        con = dualize(get_example("acc3").cov)
        assert con.E.comps == {(0,): s3("-1/(1 + y)"), (2,): s3("1/(1 + y)")}
        assert con.Lam.comps == {
            (0, 1): s3("-1/(1 + y)"),
            (1, 2): s3("y/(1 + y)"),
        }

    def test_frozen_dual_contact5(self):
        cov = get_example("contact5").cov
        chart = cov.chart
        con = dualize(cov)
        one = Scalar.one(5)
        assert con.E.comps == {(4,): one}
        assert con.Lam.comps == {
            (0, 1): -one,
            (1, 4): Scalar.variable(5, chart.index("y1")),
            (2, 3): -one,
            (3, 4): Scalar.variable(5, chart.index("y2")),
        }

    def test_not_regular_is_rejected(self):
        with pytest.raises(NotRegular):
            dualize(get_example("singular3").cov)

    def test_random_regular_perturbations(self):
        # wiggle acc3 by exact closed 2-forms; the dual must keep certifying
        rng = random.Random(101)
        base = get_example("acc3").cov
        found = 0
        while found < 6:
            bump = exterior_derivative(
                random_form(rng, CHART3, 1, poly_degree=2)
            )
            candidate = CovariantPair(base.omega, base.Omega + bump)
            if regularity_density(candidate).is_zero():
                continue
            found += 1
            con = dualize(candidate)
            assert verify_duality(candidate, con).ok

    @pytest.mark.parametrize("name", ["cosym3", "contact3", "acc3", "contact5"])
    def test_closed_form_dual_on_catalog(self, name, duals):
        cov, con = duals[name]
        assert closed_form_dual(cov) == con

    @pytest.mark.parametrize(
        "path",
        [
            DATA_DIR / "panel_pair_dim3.json",
            DATA_DIR / "panel_pair_dim5.json",
            BENCH_INPUTS / "acc5b.json",
        ],
        ids=lambda path: path.stem,
    )
    def test_closed_form_dual_on_files(self, path):
        cov = load_structure(str(path))
        assert closed_form_dual(cov) == dualize(cov)

    def test_closed_form_dual_in_dimension_7(self):
        # n = 3 fixes the constant -n of Lambda
        chart = Chart(("x1", "y1", "x2", "y2", "x3", "y3", "z"))

        def form(degree: int, spec: dict) -> DiffForm:
            return DiffForm(
                chart, degree, {k: parse_scalar(v, chart) for k, v in spec.items()}
            )

        omega = form(1, {(6,): "1", (0,): "-y1", (2,): "-y2*x3"})
        Omega = form(2, {
            (0, 1): "1 + x1", (2, 3): "1", (4, 5): "1 - y1*y2", (1, 6): "x2",
        })
        cov = CovariantPair(omega, Omega)
        assert closed_form_dual(cov) == dualize(cov)

    def test_closed_form_dual_on_random_pairs(self):
        rng = random.Random(107)
        found = 0
        while found < 40:
            cov = CovariantPair(
                random_form(rng, CHART3, 1), random_form(rng, CHART3, 2)
            )
            if regularity_density(cov).is_zero():
                continue
            found += 1
            assert closed_form_dual(cov) == dualize(cov)

    def test_certificate_entries(self):
        cov = get_example("acc3").cov
        cert = verify_duality(cov, dualize(cov))
        assert cert.ok
        assert cert.title == "duality certificate"
        assert regularity_density(cov) == s3("1 + y")
        labels = [entry.label for entry in cert.entries]
        assert labels == [
            "normalization omega(E) = 1",
            "kernel condition i_E Omega = 0",
            "isotropy Lambda#(omega) = 0",
            "inverse on image: Lambda# o Omega_flat = p1",
            "inverse on image: Omega_flat o Lambda# = q1",
        ]

    def test_certificate_rejects_perturbed_dual(self):
        cov = get_example("contact3").cov
        con = dualize(cov)
        bad = ContravariantPair(
            con.E, con.Lam + Multivector(CHART3, 2, {(0, 2): s3("1")})
        )
        cert = verify_duality(cov, bad)
        assert not cert.ok
        assert any(not entry.ok for entry in cert.entries)


class TestMusicalMaps:
    def test_sharp_flat_on_acc3(self, duals):
        cov, con = duals["acc3"]
        rng = random.Random(7)
        for _ in range(6):
            beta = random_form(rng, CHART3, 1)
            # Lambda# kills omega and inverts Omega_flat on the image
            assert sharp(con, cov.omega).is_zero()
            y = sharp(con, beta)
            again = sharp(con, flat(cov, y))
            assert again == y

    def test_lambda_pair_antisymmetry(self, duals):
        cov, con = duals["acc3"]
        rng = random.Random(11)
        for _ in range(6):
            a = random_form(rng, CHART3, 1)
            b = random_form(rng, CHART3, 1)
            assert lambda_pair(con, a, b) == -lambda_pair(con, b, a)

    def test_omega_of_sharps_is_minus_lambda(self, duals):
        cov, con = duals["contact3"]
        rng = random.Random(12)
        for _ in range(6):
            a = random_form(rng, CHART3, 1)
            b = random_form(rng, CHART3, 1)
            pulled = pairing(
                interior_product(sharp(con, a), cov.Omega), sharp(con, b)
            )
            assert pulled == -lambda_pair(con, a, b)

    def test_two_form_through_sharp_matches_componentwise(self, duals):
        cov, con = duals["acc3"]
        d_omega = exterior_derivative(cov.omega)
        pulled = two_form_through_sharp(con, d_omega)
        for j in range(3):
            for k in range(j + 1, 3):
                expected = pairing(
                    d_omega,
                    sharp(con, coordinate_form(CHART3, j)),
                    sharp(con, coordinate_form(CHART3, k)),
                )
                assert pulled.component((j, k)) == expected

    def test_sharp_columns_are_kept_on_the_dual(self, duals):
        assert len(duals) == 4
        for _, con in duals.values():
            columns = con.sharps
            chart = con.chart
            assert len(columns) == chart.dim
            for j, column in enumerate(columns):
                assert column == sharp(con, coordinate_form(chart, j))
            assert con.sharps is columns


class TestProjections:
    def test_idempotence_and_complementarity(self, duals):
        cov, con = duals["acc3"]
        rng = random.Random(21)
        for _ in range(5):
            beta = random_form(rng, CHART3, 1)
            x = sharp(con, beta) + con.E.scale(s3("x"))
            p1 = project(cov, con, x, "p1")
            p2 = project(cov, con, x, "p2")
            assert p1 + p2 == x
            assert project(cov, con, p1, "p1") == p1
            assert project(cov, con, p2, "p1").is_zero()
            q1 = project(cov, con, beta, "q1")
            q2 = project(cov, con, beta, "q2")
            assert q1 + q2 == beta
            assert project(cov, con, q1, "q2").is_zero()

    def test_p1_is_sharp_after_flat(self, duals):
        cov, con = duals["contact3"]
        rng = random.Random(22)
        for _ in range(5):
            beta = random_form(rng, CHART3, 1)
            x = sharp(con, beta) + con.E.scale(s3("y^2"))
            assert project(cov, con, x, "p1") == sharp(con, flat(cov, x))

    def test_projection_argument_validation(self, duals):
        cov, con = duals["cosym3"]
        with pytest.raises(StructureError):
            project(cov, con, cov.omega, "p1")
        with pytest.raises(StructureError):
            project(cov, con, con.E, "q1")
        with pytest.raises(StructureError):
            project(cov, con, con.E, "p3")


class TestDecomposition:
    def test_vector_roundtrip(self, duals):
        cov, con = duals["acc3"]
        rng = random.Random(31)
        for _ in range(6):
            beta = random_form(rng, CHART3, 1)
            x = sharp(con, beta) + con.E.scale(s3("x*y"))
            alpha, h = decompose_vector(cov, con, x)
            assert sharp(con, alpha) + con.E.scale(h) == x
            assert pairing(alpha, con.E).is_zero()

    def test_form_roundtrip(self, duals):
        cov, con = duals["contact3"]
        rng = random.Random(32)
        for _ in range(6):
            beta = random_form(rng, CHART3, 1)
            y, f = decompose_form(cov, con, beta)
            assert flat(cov, y) + cov.omega.scale(f) == beta

    def test_degree_validation(self, duals):
        cov, con = duals["cosym3"]
        with pytest.raises(StructureError):
            decompose_vector(cov, con, con.Lam)
        with pytest.raises(StructureError):
            decompose_form(cov, con, cov.Omega)


class TestSecondPair:
    def test_cosymplectic_fixed_point(self):
        cov = get_example("cosym3").cov
        assert second_pair(cov).Omega == cov.Omega

    def test_contact_doubles_the_two_form(self):
        cov = get_example("contact3").cov
        companion = second_pair(cov)
        assert companion.omega == cov.omega
        assert companion.Omega == exterior_derivative(cov.omega).scale(
            Scalar.const(3, 2)
        )
        assert classify(companion) is StructureClass.ALMOST_COSYMPLECTIC_CONTACT

    def test_acc3_companion(self):
        cov = get_example("acc3").cov
        companion = second_pair(cov)
        assert companion.Omega.comps == {
            (0, 1): s3("2"),
            (1, 2): s3("-1"),
        }
        assert regularity_density(companion) == s3("2 + y")
        assert classify(companion) is StructureClass.ALMOST_COSYMPLECTIC_CONTACT

    def test_companion_stays_closed(self):
        for name in ("cosym3", "contact3", "contact5", "acc3"):
            cov = get_example(name).cov
            assert exterior_derivative(second_pair(cov).Omega).is_zero()


class TestContravariantIdentities:
    @pytest.mark.parametrize("name", ["cosym3", "contact3", "contact5", "acc3"])
    def test_identities_hold_on_catalog(self, name, duals):
        cov, con = duals[name]
        report = verify_contravariant_identities(cov, con)
        assert report.ok, report.failures()

    def test_specialization_entries_present(self, duals):
        cov, con = duals["contact3"]
        labels = [
            entry.label
            for entry in verify_contravariant_identities(cov, con).entries
        ]
        assert "contact specialization [E, Lambda] = 0" in labels
        assert "contact specialization [Lambda, Lambda] + 2 E ^ Lambda = 0" in labels
        cov, con = duals["cosym3"]
        labels = [
            entry.label
            for entry in verify_contravariant_identities(cov, con).entries
        ]
        assert "cosymplectic specialization [E, Lambda] = 0" in labels
        assert "cosymplectic specialization [Lambda, Lambda] = 0" in labels

    def test_acc3_is_strictly_mixed(self, duals):
        # witnesses that acc3 is neither cosymplectic nor contact
        cov, con = duals["acc3"]
        assert not exterior_derivative(cov.omega).is_zero()
        assert cov.Omega != exterior_derivative(cov.omega)
        assert not lie_derivative_form(con.E, cov.omega).is_zero()
        assert not schouten_bracket(con.E, con.Lam).is_zero()

    def test_second_pair_identities(self):
        cov = second_pair(get_example("acc3").cov)
        con = dualize(cov)
        assert verify_duality(cov, con).ok
        assert verify_contravariant_identities(cov, con).ok
