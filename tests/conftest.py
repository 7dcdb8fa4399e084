"""Shared fixtures: cached dual pairs and the acceptance summary hook."""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

import pytest

from cckit import (
    Chart,
    DiffForm,
    GeneratorPair,
    Multivector,
    dualize,
    example_names,
    get_example,
)
from cckit.cli.suite import random_poly

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

_ACCEPTANCE: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, title: str, passed: bool, detail: str = "") -> None:
    _ACCEPTANCE.append((number, title, passed, detail))


@pytest.fixture(scope="session")
def record():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(_ACCEPTANCE):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} [{status}] {title}"
        if detail:
            line += f" :: {detail}"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def duals():
    """name -> (cov, con) for every regular catalog entry."""
    table = {}
    for name in example_names():
        if name == "singular3":
            continue
        cov = get_example(name).cov
        table[name] = (cov, dualize(cov))
    return table


def random_form(rng: random.Random, chart: Chart, degree: int,
                poly_degree: int = 1) -> DiffForm:
    comps = {
        key: random_poly(rng, chart.dim, poly_degree)
        for key in combinations(range(chart.dim), degree)
        if rng.random() < 0.85
    }
    return DiffForm(chart, degree, comps)


def random_multivector(rng: random.Random, chart: Chart, degree: int,
                       poly_degree: int = 1) -> Multivector:
    comps = {
        key: random_poly(rng, chart.dim, poly_degree)
        for key in combinations(range(chart.dim), degree)
        if rng.random() < 0.85
    }
    return Multivector(chart, degree, comps)


def random_pair(rng: random.Random, chart: Chart,
                poly_degree: int = 1) -> GeneratorPair:
    return GeneratorPair(
        random_form(rng, chart, 1, poly_degree),
        random_poly(rng, chart.dim, poly_degree),
    )
