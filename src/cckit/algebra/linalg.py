"""Exact linear algebra over the rational-function field and over Q."""

from __future__ import annotations

from fractions import Fraction

from .scalar import Scalar

class LinearSolveError(ValueError):
    pass


def _weight(entry: Scalar) -> tuple[int, int]:
    return (
        entry.num.total_degree() + entry.den.total_degree(),
        len(entry.num.terms) + len(entry.den.terms),
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


def rational_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the nullspace of a Q-matrix, via reduced row echelon form."""
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
