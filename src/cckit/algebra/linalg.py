"""Exact linear algebra over the rational-function field and over Q."""

from __future__ import annotations

from fractions import Fraction

from .poly import add_terms
from .scalar import Scalar

class LinearSolveError(ValueError):
    pass


def _weight(entry: Scalar) -> tuple[int, int]:
    return (
        entry.num.total_degree() + entry.den.total_degree(),
        len(entry.num.packed) + len(entry.den.packed),
    )


def solve_unique(
    rows: list[list[Scalar]], rhs_columns: list[list[Scalar]]
) -> list[list[Scalar]]:
    """Solve A x = b over the rational-function field for each rhs column.

    Requires the system to have exactly one solution per column; raises
    LinearSolveError when the system is inconsistent or underdetermined.
    Full pivoting on the nonzero entry of lowest combined degree.
    """
    m = len(rows)
    if not m:
        raise LinearSolveError("empty system")
    n = len(rows[0])
    aug = [list(row) + [col[i] for col in rhs_columns] for i, row in enumerate(rows)]
    width = n + len(rhs_columns)
    cols = list(range(n))

    rank = 0
    for step in range(min(m, n)):
        best: tuple[int, int] | None = None
        best_weight: tuple[int, int] | None = None
        for i in range(step, m):
            for j in range(step, n):
                entry = aug[i][j]
                if entry.is_zero():
                    continue
                weight = _weight(entry)
                if best_weight is None or weight < best_weight:
                    best, best_weight = (i, j), weight
        if best is None:
            break
        i, j = best
        if i != step:
            aug[i], aug[step] = aug[step], aug[i]
        if j != step:
            cols[j], cols[step] = cols[step], cols[j]
            for row in aug:
                row[j], row[step] = row[step], row[j]
        head = aug[step][step]
        for i in range(step + 1, m):
            factor = aug[i][step]
            if factor.is_zero():
                continue
            ratio = factor / head
            aug[i][step] = Scalar.zero(factor.nvars)
            for j in range(step + 1, width):
                aug[i][j] = aug[i][j] - ratio * aug[step][j]
        rank = step + 1

    if rank < n:
        raise LinearSolveError(f"underdetermined system (rank {rank} < {n} unknowns)")
    for i in range(rank, m):
        for j in range(n, width):
            if not aug[i][j].is_zero():
                raise LinearSolveError("inconsistent system")

    solutions: list[list[Scalar]] = []
    for c in range(len(rhs_columns)):
        column = n + c
        values: list[Scalar | None] = [None] * n
        for step in range(n - 1, -1, -1):
            acc = aug[step][column]
            for j in range(step + 1, n):
                coeff = aug[step][j]
                if not coeff.is_zero():
                    acc = acc - coeff * values[j]
            values[step] = acc / aug[step][step]
        solution = [None] * n
        for position, original in enumerate(cols):
            solution[original] = values[position]
        solutions.append(solution)  # type: ignore[arg-type]
    return solutions


def rational_nullspace(
    rows: list[dict[int, Fraction]], ncols: int
) -> list[dict[int, Fraction]]:
    """Basis of the nullspace of a sparse Q-matrix, via its reduced row echelon form.

    Each row maps a column to its nonzero entry.  A row is reduced against
    the pivot rows found so far, lowest pivot column first; what is left
    becomes a new pivot row, so zero and dependent rows drop out.  Back
    substitution then gives the reduced row echelon form, which is unique:
    the basis holds one vector per free column, in ascending order, with a
    1 in that column.  Vectors are sparse like the rows, with their
    columns in ascending order.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for given in rows:
        row = {column: Fraction(value) for column, value in given.items() if value}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                head = row[lead]
                pivots[lead] = {column: value / head for column, value in row.items()}
                break
            add_terms(row, pivot, -row[lead])
    # highest pivot first, so each row subtracts only rows already reduced
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for column in [c for c in row if c != lead and c in pivots]:
            add_terms(row, pivots[column], -row[column])
    basis: list[dict[int, Fraction]] = []
    for free in range(ncols):
        if free in pivots:
            continue
        vector = {lead: -row[free] for lead, row in pivots.items() if free in row}
        vector[free] = Fraction(1)
        basis.append(dict(sorted(vector.items())))
    return basis
