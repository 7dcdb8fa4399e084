"""Exact scalar arithmetic: charts, sparse polynomials, rational functions."""

from .chart import Chart
from .linalg import LinearSolveError, rational_nullspace, solve_unique
from .parser import ParseError, format_poly, format_scalar, parse_scalar
from .poly import (
    Poly,
    TermLimitExceeded,
    add_terms,
    common_denominator,
    grlex_key,
    refresh_term_limit,
)
from .scalar import (
    PoleError,
    Scalar,
    ScalarDivisionError,
    over_common_denominator,
    sum_over_common_denominator,
)

__all__ = [
    "Chart",
    "LinearSolveError",
    "ParseError",
    "PoleError",
    "Poly",
    "Scalar",
    "ScalarDivisionError",
    "TermLimitExceeded",
    "add_terms",
    "common_denominator",
    "format_poly",
    "format_scalar",
    "grlex_key",
    "over_common_denominator",
    "parse_scalar",
    "rational_nullspace",
    "refresh_term_limit",
    "solve_unique",
    "sum_over_common_denominator",
]
