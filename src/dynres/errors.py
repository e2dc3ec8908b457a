"""Failure modes that carry mathematical meaning.

Ordinary misuse (wrong types, negative exponents and so on) raises
ValueError.  The classes below are reserved for situations where an
exactness claim fails: a division that was promised to be exact is not,
a polynomial that should be a perfect power is not, and so on.  Callers
are expected to let these propagate; they are evidence, not noise.
"""
from __future__ import annotations


class DivisionNotExact(ArithmeticError):
    """An exact polynomial or integer division left a remainder."""


class NotPerfectPower(ArithmeticError):
    """A polynomial expected to be an n-th power is not one."""


class BoundTooSmall(ArithmeticError):
    """An interpolation degree bound failed its verification point."""


class NotInSubring(ArithmeticError):
    """A polynomial does not lie in the claimed subring: the rescaled
    subring of the paper, or z^o Z[c][z^e] for a rotation symmetry."""


class ZeroPolynomial(ArithmeticError):
    """The zero polynomial was passed where it has no meaning."""


class GuardrailExceeded(RuntimeError):
    """A requested period is above the size guardrail DEGREE_CAP.

    Raised by families.check_degree, which `dynres table` calls before it
    computes anything unless given --allow-large, instead of silently
    grinding on an input whose dynatomic degree is above the cap.  The
    library functions take no size flag and never raise it;
    parabolic.classify stops below the cap with a note instead.
    """
