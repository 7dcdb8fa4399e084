"""Exact linear solving over the rational-function field and over Q."""

import random
from fractions import Fraction

import pytest

from cckit import Chart, Scalar, parse_scalar
from cckit.algebra import LinearSolveError, rational_nullspace, solve_unique

CHART = Chart(("x", "y", "z"))


def s(text: str) -> Scalar:
    return parse_scalar(text, CHART)


class TestSolveUnique:
    def test_known_system(self):
        rows = [[s("1"), s("y")], [s("0"), s("1 + y")]]
        rhs = [[s("y"), s("1 + y")]]
        ((a, b),) = solve_unique(rows, rhs)
        # back-substitution: b = 1, a = y - y*b = 0
        assert b == s("1")
        assert a == s("0")

    def test_multiple_rhs_columns(self):
        rows = [[s("2"), s("0")], [s("x"), s("1")]]
        rhs = [[s("4"), s("x")], [s("0"), s("1")]]
        first, second = solve_unique(rows, rhs)
        assert first == [s("2"), s("-x")]
        assert second == [s("0"), s("1")]

    def test_inconsistent(self):
        rows = [[s("1"), s("1")], [s("2"), s("2")]]
        with pytest.raises(LinearSolveError):
            solve_unique(rows, [[s("1"), s("3")]])

    def test_underdetermined(self):
        rows = [[s("1"), s("1")], [s("2"), s("2")]]
        with pytest.raises(LinearSolveError):
            solve_unique(rows, [[s("1"), s("2")]])

    def test_rational_solution_satisfies_system(self):
        rng = random.Random(11)
        for _ in range(8):
            while True:
                rows = [
                    [
                        Scalar.const(3, rng.randint(-3, 3))
                        + Scalar.const(3, rng.randint(-1, 1))
                        * Scalar.variable(3, rng.randrange(3))
                        for _ in range(3)
                    ]
                    for _ in range(3)
                ]
                target = [
                    [Scalar.const(3, rng.randint(-3, 3)) for _ in range(3)]
                ]
                try:
                    (x,) = solve_unique(rows, target)
                except LinearSolveError:
                    continue
                for row, b in zip(rows, target[0]):
                    product = sum(
                        (a * v for a, v in zip(row, x)), Scalar.zero(3)
                    )
                    assert product == b
                break

    def test_solution_satisfies_system(self):
        rng = random.Random(5)
        for _ in range(6):
            while True:
                rows = [
                    [Scalar.const(3, rng.randint(-4, 4)) for _ in range(3)]
                    for _ in range(3)
                ]
                x = [Scalar.const(3, rng.randint(-4, 4)) for _ in range(3)]
                rhs_col = [
                    sum(
                        (rows[i][j] * x[j] for j in range(3)),
                        Scalar.zero(3),
                    )
                    for i in range(3)
                ]
                try:
                    (solved,) = solve_unique(rows, [rhs_col])
                except LinearSolveError:
                    continue
                assert solved == x
                break


class TestRationalNullspace:
    def test_single_relation(self):
        basis = rational_nullspace([[Fraction(1), Fraction(1), Fraction(0)]], 3)
        assert len(basis) == 2
        for vec in basis:
            assert vec[0] + vec[1] == 0

    def test_full_rank_matrix_has_trivial_nullspace(self):
        rows = [
            [Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(1)],
        ]
        assert rational_nullspace(rows, 2) == []

    def test_no_rows_gives_standard_basis(self):
        basis = rational_nullspace([], 2)
        assert len(basis) == 2

    def test_members_annihilated(self):
        rows = [
            [Fraction(1), Fraction(2), Fraction(3), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(1), Fraction(-1)],
        ]
        basis = rational_nullspace(rows, 4)
        assert len(basis) == 2
        for vec in basis:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0
