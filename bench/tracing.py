"""Span and counter tracing installed from outside the program.

Nothing in ``src/`` is edited: a :class:`Tracer` replaces public functions
with timing wrappers at every ``cckit`` module that binds them (the
defining module and each module that imported the function by name), and
wraps four hot methods of ``Poly`` and ``Scalar`` with counters.
:meth:`Tracer.uninstall` puts every original back, so an untraced run in
the same process executes the unmodified program.

A span records (span id, name, start, end, parent span id, op id).  Spans are kept
in memory up to ``max_spans``; aggregates (calls, inclusive seconds, self
seconds) are kept for every span regardless, counting only spans of timed
ops (op id >= 0).  Self time is a span's duration minus the time covered
by its child spans.
"""

from __future__ import annotations

import sys
import time
from functools import wraps
from typing import Any, Callable

# span name -> (module that defines the function, attribute name)
SPANS: dict[str, tuple[str, str]] = {
    "linalg.solve_unique": ("cckit.algebra.linalg", "solve_unique"),
    "linalg.rational_nullspace": ("cckit.algebra.linalg", "rational_nullspace"),
    "exterior.schouten_bracket": ("cckit.exterior", "schouten_bracket"),
    "exterior.wedge": ("cckit.exterior", "wedge"),
    "exterior.contract": ("cckit.exterior", "_contract"),
    "exterior.d": ("cckit.exterior", "exterior_derivative"),
    "structures.classify": ("cckit.structures", "classify"),
    "structures.dualize": ("cckit.structures", "dualize"),
    "structures.verify_duality": ("cckit.structures", "verify_duality"),
    "structures.verify_contravariant_identities": (
        "cckit.structures", "verify_contravariant_identities",
    ),
    "symmetries.pair_bracket": ("cckit.symmetries", "pair_bracket"),
    "symmetries.check_generator_conditions": (
        "cckit.symmetries", "check_generator_conditions",
    ),
    "symmetries.check_symmetry_direct": ("cckit.symmetries", "check_symmetry_direct"),
    "symmetries.theorem_equivalence_check": (
        "cckit.symmetries", "theorem_equivalence_check",
    ),
    "symmetries.find_generator_pairs": ("cckit.symmetries", "find_generator_pairs"),
    "parser.parse_scalar": ("cckit.algebra.parser", "parse_scalar"),
    "cli.load_structure": ("cckit.cli.files", "load_structure"),
    "report.format_residual": ("cckit.report", "format_residual"),
}

COUNTS = (
    "poly.mul.calls",
    "poly.exact_div.calls",
    "poly.exact_div.hits",
    "scalar.new.calls",
)
HIGH_WATER_MARKS = (
    "poly.terms_hwm",
    "scalar.den_terms_hwm",
    "linalg.nullspace_cells_max",
)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self.op = -1
        self._next_id = 0
        # open frames: [span id, name, start, child seconds]
        self._stack: list[list[Any]] = []
        self.aggregates: dict[str, list[float]] = {}
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.marks: dict[str, int] = dict.fromkeys(HIGH_WATER_MARKS, 0)
        self._patches: list[tuple[Any, str, Any]] = []
        self.untraced_s = 0.0

    # -- state -----------------------------------------------------------

    def reset_aggregates(self) -> None:
        """Start the per-op aggregates afresh (spans already kept stay)."""
        self.aggregates = {name: [0, 0.0, 0.0] for name in SPANS}
        self.counts.update(dict.fromkeys(COUNTS, 0))
        self.marks.update(dict.fromkeys(HIGH_WATER_MARKS, 0))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter
        cells = name == "linalg.rational_nullspace"

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if cells and tracer.op >= 0:
                size = len(args[0]) * args[1]
                if size > tracer.marks["linalg.nullspace_cells_max"]:
                    tracer.marks["linalg.nullspace_cells_max"] = size
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, clock(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                duration = end - frame[2]
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[3] += duration
                if tracer.op >= 0:
                    agg = tracer.aggregates.setdefault(name, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[3]
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((
                        span_id, name, frame[2], end,
                        parent[0] if parent is not None else -1, tracer.op,
                    ))
                else:
                    tracer.dropped += 1

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function at each cckit module that binds it."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "cckit" or name.startswith("cckit."))
        ]
        for span_name, (module_name, attr) in SPANS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._span(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._install_counters()

    def _install_counters(self) -> None:
        poly_cls = sys.modules["cckit.algebra.poly"].Poly
        scalar_cls = sys.modules["cckit.algebra.scalar"].Scalar
        tracer, counts, marks = self, self.counts, self.marks
        poly_init = poly_cls.__init__
        poly_mul = poly_cls.__mul__
        exact_div = poly_cls.exact_div
        scalar_init = scalar_cls.__init__

        # counted only inside timed ops, like the span aggregates
        def traced_poly_init(poly, nvars, terms=None):
            poly_init(poly, nvars, terms)
            size = len(poly.terms)
            if size > marks["poly.terms_hwm"] and tracer.op >= 0:
                marks["poly.terms_hwm"] = size

        def traced_mul(left, right):
            if tracer.op >= 0:
                counts["poly.mul.calls"] += 1
            return poly_mul(left, right)

        def traced_exact_div(poly, divisor, step_cap=None):
            quotient = exact_div(poly, divisor, step_cap)
            if tracer.op >= 0:
                counts["poly.exact_div.calls"] += 1
                counts["poly.exact_div.hits"] += quotient is not None
            return quotient

        def traced_scalar_init(scalar, num, den=None):
            scalar_init(scalar, num, den)
            if tracer.op < 0:
                return
            counts["scalar.new.calls"] += 1
            size = len(scalar.den.terms)
            if size > marks["scalar.den_terms_hwm"]:
                marks["scalar.den_terms_hwm"] = size

        self._patch(poly_cls, "__init__", traced_poly_init)
        self._patch(poly_cls, "__mul__", traced_mul)
        self._patch(poly_cls, "exact_div", traced_exact_div)
        self._patch(scalar_cls, "__init__", traced_scalar_init)

    def uninstall(self) -> None:
        """Put back every original function and method, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, ops: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-op span and counter values, plus the high-water marks.

        Span seconds are multiplied by `scale` (the run's machine-speed scale).
        """
        per_op = max(ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            calls, inclusive, own = self.aggregates.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = (calls / per_op, "calls/op")
            out[f"{name}.s"] = (scale * inclusive / per_op, "s/op")
            out[f"{name}.self_s"] = (scale * own / per_op, "s/op")
        out["poly.mul.calls"] = (self.counts["poly.mul.calls"] / per_op, "calls/op")
        attempts = self.counts["poly.exact_div.calls"]
        out["poly.exact_div.calls"] = (attempts / per_op, "calls/op")
        out["poly.exact_div.hit_ratio"] = (
            self.counts["poly.exact_div.hits"] / attempts if attempts else 0.0,
            "ratio",
        )
        out["scalar.new.calls"] = (self.counts["scalar.new.calls"] / per_op, "calls/op")
        out["poly.terms_hwm"] = (self.marks["poly.terms_hwm"], "terms")
        out["scalar.den_terms_hwm"] = (self.marks["scalar.den_terms_hwm"], "terms")
        out["linalg.nullspace_cells_max"] = (
            self.marks["linalg.nullspace_cells_max"], "cells",
        )
        return out
