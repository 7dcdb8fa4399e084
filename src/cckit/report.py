"""Check reports: labeled residuals with pass/fail verdicts."""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Chart, format_scalar
from .algebra.scalar import Scalar
from .exterior import DiffForm, Multivector, _Tensor


def residual_is_zero(residual: object) -> bool:
    if residual is None:
        return True
    if isinstance(residual, bool):
        return residual
    if isinstance(residual, Scalar):
        return residual.is_zero()
    if isinstance(residual, _Tensor):
        return residual.is_zero()
    if isinstance(residual, (list, tuple)):
        return all(residual_is_zero(r) for r in residual)
    raise TypeError(f"cannot decide vanishing of {type(residual).__name__}")


@dataclass(frozen=True)
class CheckEntry:
    label: str
    residual: object
    ok: bool

    @classmethod
    def of(cls, label: str, residual: object) -> "CheckEntry":
        return cls(label, residual, residual_is_zero(residual))

    @classmethod
    def verdict(cls, label: str, ok: bool, residual: object = None) -> "CheckEntry":
        return cls(label, residual, ok)


@dataclass(frozen=True)
class ConditionReport:
    title: str
    entries: tuple[CheckEntry, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(entry for entry in self.entries if not entry.ok)

    def entry(self, label: str) -> CheckEntry:
        for candidate in self.entries:
            if candidate.label == label:
                return candidate
        raise KeyError(label)

    def summary(self, label: str) -> CheckEntry:
        """One entry standing for the whole report, with its failing residuals."""
        return CheckEntry.verdict(
            label, self.ok, [entry.residual for entry in self.failures()]
        )


def _format_tensor(tensor: _Tensor, chart: Chart) -> str:
    if tensor.is_zero():
        return "0"
    if isinstance(tensor, DiffForm):
        def basis(index):
            return "^".join(f"d{chart.names[i]}" for i in index)
    else:
        def basis(index):
            return "^".join(f"@{chart.names[i]}" for i in index)
    parts = []
    for index in sorted(tensor.comps):
        value = format_scalar(tensor.comps[index], chart)
        if index:
            parts.append(f"({value}) {basis(index)}")
        else:
            parts.append(f"({value})")
    return " + ".join(parts)


def format_residual(residual: object, chart: Chart) -> str:
    if residual is None:
        return "-"
    if isinstance(residual, bool):
        return "holds" if residual else "violated"
    if isinstance(residual, Scalar):
        return format_scalar(residual, chart)
    if isinstance(residual, _Tensor):
        return _format_tensor(residual, chart)
    if isinstance(residual, (list, tuple)):
        return "[" + "; ".join(format_residual(r, chart) for r in residual) + "]"
    return repr(residual)
