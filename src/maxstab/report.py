"""Structured results for empirical verification runs."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

from . import _EXPORTS

__all__ = list(_EXPORTS["report"])

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class CheckResult:
    """One named check with its observed value and decision threshold.

    ``passed`` is None when the check was not applicable to the input (for
    example a degeneracy test on constant data); such checks do not count
    against :meth:`EmpiricalReport.all_passed`.
    """

    name: str
    value: float
    threshold: float
    passed: bool | None
    note: str = ""


@dataclass
class EmpiricalReport:
    """Collection of check results plus the seeds and parameters that
    produced them, serializable to a stable JSON document."""

    checks: list[CheckResult] = field(default_factory=list)
    seeds: list[tuple[int, int]] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def add(self, name: str, value: float, threshold: float,
            passed: bool | None, note: str = "") -> CheckResult:
        result = CheckResult(name, float(value), float(threshold), passed, note)
        self.checks.append(result)
        return result

    def check(self, name: str, value: float, threshold: float, note: str,
              relation: str = "<") -> CheckResult:
        """Record a decided check that passes when value ``relation``
        threshold holds, both taken as floats, so a NaN value fails under
        every relation (``<``, ``<=`` or ``>=``)."""
        value, threshold = float(value), float(threshold)
        return self.add(name, value, threshold,
                        _RELATIONS[relation](value, threshold), note)

    @property
    def all_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.passed is False]

    def to_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "threshold": c.threshold,
                    "pass": c.passed,
                    "provenance": c.note,
                }
                for c in self.checks
            ],
            "seeds": [list(s) for s in self.seeds],
            "params": dict(self.params),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "EmpiricalReport":
        report = cls(
            seeds=[tuple(s) for s in data.get("seeds", [])],
            params=dict(data.get("params", {})),
        )
        for c in data.get("checks", []):
            report.add(c["name"], c["value"], c["threshold"], c["pass"],
                       c.get("provenance", ""))
        return report
