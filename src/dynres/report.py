"""Verdict records.

A Verdict records the outcome of one checked identity: which check ran,
with which parameters, whether it passed, and an exact residual or
witness when there is something to show.  Residuals and witnesses are
stored as strings produced by exact arithmetic so that a report is
readable without the package installed; ``dynres verify --report``
writes the verdicts of a run as plain JSON.
"""
from __future__ import annotations

import dataclasses
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

