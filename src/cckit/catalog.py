"""Built-in example structures.

Five charts exercising every classification outcome.  Entries store only
the covariant data; dual pairs are always produced by the solver so that
no convention leaks in by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Chart, parse_scalar
from .exterior import DiffForm
from .structures import CovariantPair, StructureClass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    chart: Chart
    cov: CovariantPair
    expected_class: StructureClass
    notes: str


def _form(chart: Chart, degree: int, spec: dict[tuple[int, ...], str]) -> DiffForm:
    comps = {key: parse_scalar(text, chart) for key, text in spec.items()}
    return DiffForm(chart, degree, comps)


def _entry(
    name: str,
    names: tuple[str, ...],
    omega: dict[tuple[int, ...], str],
    Omega: dict[tuple[int, ...], str],
    expected: StructureClass,
    notes: str,
) -> CatalogEntry:
    chart = Chart(names)
    cov = CovariantPair(_form(chart, 1, omega), _form(chart, 2, Omega))
    return CatalogEntry(name, chart, cov, expected, notes)


def _build() -> dict[str, CatalogEntry]:
    entries = [
        _entry(
            "cosym3",
            ("x", "y", "z"),
            {(2,): "1"},
            {(0, 1): "1"},
            StructureClass.COSYMPLECTIC,
            "omega = dz, Omega = dx^dy; both closed",
        ),
        _entry(
            "contact3",
            ("x", "y", "z"),
            {(2,): "1", (0,): "-y"},
            {(0, 1): "1"},
            StructureClass.CONTACT,
            "omega = dz - y dx, Omega = dx^dy = d omega",
        ),
        _entry(
            "contact5",
            ("x1", "y1", "x2", "y2", "z"),
            {(4,): "1", (0,): "-y1", (2,): "-y2"},
            {(0, 1): "1", (2, 3): "1"},
            StructureClass.CONTACT,
            "omega = dz - y1 dx1 - y2 dx2, Omega = d omega; n = 2",
        ),
        _entry(
            "acc3",
            ("x", "y", "z"),
            {(2,): "1", (0,): "-y"},
            {(0, 1): "1", (1, 2): "-1"},
            StructureClass.ALMOST_COSYMPLECTIC_CONTACT,
            "omega = dz - y dx, Omega = (dx+dz)^dy; d omega != 0 and "
            "Omega != d omega; density 1+y; the Reeb field is not a "
            "symmetry of omega",
        ),
        _entry(
            "singular3",
            ("x", "y", "z"),
            {(2,): "1"},
            {(0, 2): "-1"},
            StructureClass.NOT_REGULAR,
            "omega = dz, Omega = dz^dx; omega ^ Omega = 0 identically",
        ),
    ]
    return {entry.name: entry for entry in entries}


_CATALOG = _build()


def example_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def get_example(name: str) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(_CATALOG)
        raise KeyError(f"unknown example {name!r}; catalog holds: {known}") from None
