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
    def identity(cls, check: str, params: dict[str, Any], lhs,
                 rhs) -> "Verdict":
        """The verdict on the exact identity lhs == rhs; on failure the
        residual is the difference lhs - rhs."""
        ok = lhs == rhs
        return cls(check=check, params=params, passed=ok,
                   residual=None if ok else str(lhs - rhs))

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
    artifacts: list[str]
    wall_clock: dict[str, float]

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "parameters": self.parameters,
            "verdicts": [dataclasses.asdict(v) for v in self.verdicts],
            "artifacts": list(self.artifacts),
            "wall_clock": self.wall_clock,
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        verdicts = [Verdict(**v) for v in data["verdicts"]]
        return cls(
            command=data["command"],
            parameters=data["parameters"],
            verdicts=verdicts,
            artifacts=data["artifacts"],
            wall_clock=data["wall_clock"],
        )
