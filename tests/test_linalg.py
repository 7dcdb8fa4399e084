"""Exact linear solving over the rational-function field and over Q."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cckit import Chart, Scalar, SymmetryTarget, find_generator_pairs, parse_scalar
from cckit import symmetries
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


def dense_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Dense Gauss-Jordan nullspace, the test-only oracle for rational_nullspace.

    Pivots on the first nonzero entry of each column in turn and clears
    the column above and below, so the matrix ends in reduced row echelon
    form; one basis vector per free column, in ascending order.
    """
    matrix = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(matrix)):
            if matrix[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        head = matrix[r][c]
        matrix[r] = [v / head for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c]:
                factor = matrix[i][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == len(matrix):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for f in free:
        vector = [Fraction(0)] * ncols
        vector[f] = Fraction(1)
        for row_index, c in enumerate(pivots):
            vector[c] = -matrix[row_index][f]
        basis.append(vector)
    return basis


def dense_oracle(
    rows: list[dict[int, Fraction]], ncols: int
) -> list[dict[int, Fraction]]:
    """dense_nullspace behind the sparse signature of rational_nullspace."""
    dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
    return [
        {c: v for c, v in enumerate(vector) if v}
        for vector in dense_nullspace(dense, ncols)
    ]


@st.composite
def sparse_matrices(draw):
    """Sparse Q-matrices with zero, repeated and dependent rows."""
    ncols = draw(st.integers(1, 12))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=4)
    base = draw(st.lists(row, max_size=8))
    rows = list(base)
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not base:
            rows.append({})
        elif kind == "repeat":
            rows.append(dict(draw(st.sampled_from(base))))
        else:
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            p, q = draw(entry), draw(entry)
            combo = {c: p * a.get(c, 0) + q * b.get(c, 0) for c in a.keys() | b.keys()}
            rows.append({c: v for c, v in combo.items() if v})
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


class TestRationalNullspace:
    def test_single_relation(self):
        basis = rational_nullspace([{0: Fraction(1), 1: Fraction(1)}], 3)
        assert len(basis) == 2
        for vec in basis:
            assert vec.get(0, 0) + vec.get(1, 0) == 0

    def test_full_rank_matrix_has_trivial_nullspace(self):
        rows = [
            {0: Fraction(1)},
            {0: Fraction(1), 1: Fraction(1)},
        ]
        assert rational_nullspace(rows, 2) == []

    def test_no_rows_gives_standard_basis(self):
        basis = rational_nullspace([], 2)
        assert basis == [{0: 1}, {1: 1}]

    def test_members_annihilated(self):
        rows = [
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
            {1: Fraction(1), 2: Fraction(1), 3: Fraction(-1)},
        ]
        basis = rational_nullspace(rows, 4)
        assert len(basis) == 2
        for vec in basis:
            for row in rows:
                assert sum(v * vec.get(c, 0) for c, v in row.items()) == 0

    @given(sparse_matrices())
    @settings(max_examples=100, deadline=None)
    def test_same_basis_as_the_dense_oracle(self, matrix):
        rows, ncols = matrix
        basis = rational_nullspace(rows, ncols)
        assert basis == dense_oracle(rows, ncols)
        for vec in basis:
            assert list(vec) == sorted(vec)
            assert all(isinstance(v, Fraction) and v for v in vec.values())

    def test_rows_are_left_unchanged(self):
        rows = [{0: Fraction(2), 1: Fraction(4)}, {0: Fraction(1), 2: Fraction(1)}]
        copies = [dict(row) for row in rows]
        rational_nullspace(rows, 3)
        assert rows == copies


# (structure, target, degree): the mixed and the contact pair, each kind
# of condition met at least once, within a few seconds of the dense oracle
SEARCH_CASES = [
    ("acc3", SymmetryTarget.cov_pair, 2),
    ("acc3", SymmetryTarget.Lambda, 2),
    ("acc3", SymmetryTarget.E_omega, 2),
    ("contact5", SymmetryTarget.omega, 2),
    ("contact5", SymmetryTarget.Lambda_Omega, 2),
    ("contact5", SymmetryTarget.contra_pair, 1),
]


class TestGeneratorSearchAgainstDenseOracle:
    @pytest.mark.parametrize("name,target,degree", SEARCH_CASES)
    def test_same_basis(self, duals, monkeypatch, name, target, degree):
        # with the trivial pairs kept, the basis is the whole nullspace
        cov, con = duals[name]
        sparse = find_generator_pairs(cov, con, target, degree, include_trivial=True)
        monkeypatch.setattr(symmetries, "rational_nullspace", dense_oracle)
        dense = find_generator_pairs(cov, con, target, degree, include_trivial=True)
        assert sparse == dense
