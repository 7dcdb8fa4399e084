"""Input file handling for the command line front end.

Structure files:
    {"dimension": int, "coordinates": [names],
     "omega": [[indices, expr], ...], "Omega": [[indices, expr], ...]}
where indices is a strictly increasing array of 0-based coordinate
positions and expr is an expression string for the component.

Pair files are a single {"alpha": [[indices, expr], ...], "h": expr}
object or an array of them.

Every schema violation raises InputError with a path-prefixed message;
mathematical failures are never reported through this exception.
"""

from __future__ import annotations

import json
from typing import Any

from ..algebra import Chart, ParseError, Scalar, format_scalar, parse_scalar
from ..exterior import DiffForm, _Tensor
from ..structures import CovariantPair
from ..symmetries import GeneratorPair


class InputError(Exception):
    """Malformed input file: bad JSON, bad schema, or unparsable expression."""


def _fail(path: str, message: str) -> "InputError":
    return InputError(f"{path}: {message}")


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _fail(path, f"cannot read file ({exc.strerror or exc})") from None
    except json.JSONDecodeError as exc:
        raise _fail(path, f"invalid JSON ({exc.msg} at line {exc.lineno})") from None
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer over the digit limit, or nested too deep
        raise _fail(path, f"invalid JSON ({exc})") from None


def _parse_component(path: str, chart: Chart, text: Any, where: str) -> Scalar:
    if not isinstance(text, str):
        raise _fail(path, f"{where}: component expression must be a string")
    try:
        return parse_scalar(text, chart)
    except ParseError as exc:
        raise _fail(path, f"{where}: {exc}") from None


def _parse_form(
    path: str, chart: Chart, spec: Any, degree: int, where: str
) -> DiffForm:
    if not isinstance(spec, list):
        raise _fail(path, f"{where}: expected a list of [indices, expression] pairs")
    comps: dict[tuple[int, ...], Scalar] = {}
    for item in spec:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], list)
        ):
            raise _fail(path, f"{where}: each entry must be [indices, expression]")
        raw_indices, text = item
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in raw_indices):
            raise _fail(path, f"{where}: indices must be integers")
        indices = tuple(raw_indices)
        if len(indices) != degree:
            raise _fail(
                path,
                f"{where}: entry {list(indices)} has {len(indices)} indices, "
                f"expected {degree}",
            )
        if any(i < 0 or i >= chart.dim for i in indices):
            raise _fail(
                path,
                f"{where}: index out of range in {list(indices)} "
                f"(dimension {chart.dim})",
            )
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise _fail(
                path, f"{where}: indices {list(indices)} must be strictly increasing"
            )
        if indices in comps:
            raise _fail(path, f"{where}: duplicate entry for indices {list(indices)}")
        comps[indices] = _parse_component(path, chart, text, where)
    return DiffForm(chart, degree, comps)


def load_structure(path: str) -> CovariantPair:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise _fail(path, "top level must be a JSON object")
    for key in ("dimension", "coordinates", "omega", "Omega"):
        if key not in doc:
            raise _fail(path, f"missing key {key!r}")
    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise _fail(path, "dimension must be an integer")
    names = doc["coordinates"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise _fail(path, "coordinates must be a list of names")
    if len(names) != dim:
        raise _fail(path, f"{len(names)} coordinate names for dimension {dim}")
    try:
        chart = Chart(tuple(names))
    except ValueError as exc:
        raise _fail(path, str(exc)) from None
    omega = _parse_form(path, chart, doc["omega"], 1, "omega")
    Omega = _parse_form(path, chart, doc["Omega"], 2, "Omega")
    return CovariantPair(omega, Omega)


def _parse_pair(path: str, chart: Chart, doc: Any, where: str) -> GeneratorPair:
    if not isinstance(doc, dict):
        raise _fail(path, f"{where}: pair must be an object")
    for key in ("alpha", "h"):
        if key not in doc:
            raise _fail(path, f"{where}: missing key {key!r}")
    alpha = _parse_form(path, chart, doc["alpha"], 1, f"{where}.alpha")
    h = _parse_component(path, chart, doc["h"], f"{where}.h")
    return GeneratorPair(alpha, h)


def load_pairs(path: str, chart: Chart) -> list[GeneratorPair]:
    doc = _load_json(path)
    if isinstance(doc, dict):
        return [_parse_pair(path, chart, doc, "pair")]
    if isinstance(doc, list):
        if not doc:
            raise _fail(path, "pair list is empty")
        return [
            _parse_pair(path, chart, item, f"pair[{i}]")
            for i, item in enumerate(doc)
        ]
    raise _fail(path, "top level must be a pair object or a list of them")


def tensor_spec(tensor: _Tensor) -> list[list[Any]]:
    """[[indices, canonical expression], ...] in index order."""
    return [
        [list(key), format_scalar(tensor.comps[key], tensor.chart)]
        for key in sorted(tensor.comps)
    ]


def structure_spec(cov: CovariantPair) -> dict[str, Any]:
    return {
        "dimension": cov.chart.dim,
        "coordinates": list(cov.chart.names),
        "omega": tensor_spec(cov.omega),
        "Omega": tensor_spec(cov.Omega),
    }


def pair_spec(pair: GeneratorPair) -> dict[str, Any]:
    return {
        "alpha": tensor_spec(pair.alpha),
        "h": format_scalar(pair.h, pair.chart),
    }
