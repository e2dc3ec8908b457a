"""Verdicts and run reports.

A Verdict records the outcome of one checked identity: which check ran,
with which parameters, whether it passed, and an exact residual or
witness when there is something to show.  Residuals and witnesses are
stored as strings produced by exact arithmetic so that a report is
readable without the package installed.
"""
from __future__ import annotations

import dataclasses
import json
from typing import Any


@dataclasses.dataclass
class Verdict:
    check: str
    params: dict[str, Any]
    passed: bool
    residual: str | None = None
    witness: dict[str, Any] | None = None

    @classmethod
    def claim(cls, check: str, params: dict[str, Any],
              residual: str | None = None,
              witness: dict[str, Any] | None = None) -> "Verdict":
        """The verdict on a claim that holds exactly when nothing is
        left to show against it, i.e. when residual is None.

        >>> Verdict.claim("demo", {"n": 1}).passed
        True
        >>> v = Verdict.claim("demo", {"n": 1}, "off by 2", {"sign": -1})
        >>> v.passed, v.residual, v.witness
        (False, 'off by 2', {'sign': -1})
        """
        return cls(check=check, params=params, passed=residual is None,
                   residual=residual, witness=witness)

    @classmethod
    def identity(cls, check: str, params: dict[str, Any], lhs,
                 rhs) -> "Verdict":
        """The verdict on the exact identity lhs == rhs; on failure the
        residual is the difference lhs - rhs."""
        return cls.claim(check, params,
                         None if lhs == rhs else str(lhs - rhs))

    def line(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        bits = " ".join("%s=%s" % (k, v) for k, v in sorted(self.params.items()))
        extra = "" if self.residual is None else "  [%s]" % self.residual
        return "%-4s %s %s%s" % (tag, self.check, bits, extra)


@dataclasses.dataclass
class Report:
    command: str
    parameters: dict[str, Any]
    verdicts: list[Verdict]
    wall_clock: dict[str, float]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        verdicts = [Verdict(**v) for v in data["verdicts"]]
        return cls(
            command=data["command"],
            parameters=data["parameters"],
            verdicts=verdicts,
            wall_clock=data["wall_clock"],
        )
