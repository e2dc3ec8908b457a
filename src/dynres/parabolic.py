"""Classification of rational parameters by cycle type.

For z^d + c with rational c the question is whether some cycle is
non-repelling: superattracting (multiplier 0), attracting (modulus
below 1), or parabolic (multiplier a root of unity).  A unicritical map
has at most one non-repelling cycle, so the first find settles the
parameter.

Everything is decided in exact rational arithmetic:

* candidate parameters come from an integrality constraint on the
  denominator together with exact escape bounds on the numerator;
* parabolicity of delta_m at c is the exact divisibility of the
  specialized polynomial by a cyclotomic polynomial (irreducible, so
  divisibility and a common root are the same thing);
* attracting multipliers are found by a Sturm count on (-1, 1), with a
  bisection-narrowed rational interval kept as the witness; the chain,
  built once per period, is the integer primitive pseudo-remainder
  sequence of the cleared delta_m, signed at p/q by q^n P(p/q), the
  cleared evaluation ``P.cleared_eval(p, q, n)``;
* a strictly preperiodic rational critical orbit certifies that every
  cycle is repelling, which is how c = -2 is settled.

Floating point appears nowhere.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import gcd

from .families import DEGREE_CAP, Family, multiplier_poly
from .numtheory import cyclotomic, dynatomic_degree
from .polycore import IntPoly


def naive_height(c: Fraction) -> int:
    """max(|numerator|, denominator) of the reduced fraction."""
    c = Fraction(c)
    return max(abs(c.numerator), c.denominator)


# ---------------------------------------------------------------------------
# escape certificates, all exact


def escape_certificate(fam: Family, c: Fraction) -> str | None:
    """An exact reason why the critical orbit of z^d + c escapes, or None.

    A returned certificate rules out every non-repelling cycle at once.
    """
    if fam.kind != "unicritical":
        raise ValueError("no escape bound stated for the %s family" % fam.kind)
    c = Fraction(c)
    p, q = abs(c.numerator), c.denominator
    d = fam.d
    if p ** (d - 1) > 2 * q ** (d - 1):
        return "modulus-growth"
    if d == 2 and c > Fraction(1, 4):
        # z^2 + c - z = (z - 1/2)^2 + (c - 1/4), so the real orbit
        # of 0 increases by at least c - 1/4 each step.
        return "real-monotone-escape"
    return None


def parabolic_height_test(fam: Family, c: Fraction) -> bool:
    """Whether c clears the exact height bound required of a rational
    parameter of z^d + c with a parabolic cycle."""
    if fam.kind != "unicritical":
        raise ValueError("no height bound stated for the %s family" % fam.kind)
    return naive_height(c) ** (fam.d - 1) <= 2 * fam.d ** fam.d


def enumerate_candidates(d: int) -> list[Fraction]:
    """All rational c that survive the exact filters for z^d + c.

    The denominator must satisfy q^(d-1) | d^d, and the numerator the
    escape bound |c|^(d-1) <= 2 (for d = 2 also c <= 1/4).  Everything
    else is certified to have no non-repelling cycle, so only these
    need classification.  The divisibility implies q^(d-1) <= d^d, so
    q <= d^(d/(d-1)) <= d^2 bounds the scan of denominators; the escape
    bound implies |p| <= 2q, and escape_certificate applies it exactly.
    """
    fam = Family("unicritical", d)
    qs = [q for q in range(1, d * d + 1) if d ** d % q ** (d - 1) == 0]
    cands = [Fraction(p, q) for q in qs for p in range(-2 * q, 2 * q + 1)
             if gcd(p, q) == 1]
    return sorted(c for c in cands if escape_certificate(fam, c) is None)


# ---------------------------------------------------------------------------
# exact critical orbit


def critical_orbit_certificate(fam: Family, c: Fraction):
    """(preperiod, period) when the rational orbit of 0 closes up.

    Returns None when the orbit does not repeat within 32 steps or
    first passes the naive height 10**9.  A period with preperiod 0
    means the critical point itself is periodic (a superattracting
    cycle); a positive preperiod certifies that every cycle is
    repelling.
    """
    if fam.kind != "unicritical":
        raise ValueError("stated for the unicritical family")
    c = Fraction(c)
    seen = {Fraction(0): 0}
    z = Fraction(0)
    for step in range(1, 33):
        z = z ** fam.d + c
        if naive_height(z) > 10 ** 9:
            return None
        if z in seen:
            pre = seen[z]
            return pre, step - pre
        seen[z] = step
    return None


# ---------------------------------------------------------------------------
# Sturm counting over Z


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain over Z of the squarefree part of the nonzero p.

    The terms are p, p' and the negated primitive parts of their
    pseudo-remainders, whose positive scalings keep every sign, each
    divided by the last term, which is gcd(p, p') up to sign.

    >>> chain = sturm_chain(IntPoly([-1, 0, 4], "x"))   # 4 (x^2 - 1/4)
    >>> sturm_count(chain, Fraction(-1), Fraction(1))
    2
    """
    chain = [p.primitive(), p.derivative().primitive()]
    while chain[-1]:
        chain.append(-chain[-2].prem(chain[-1]).primitive())
    return [a.exact_div(chain[-2]) for a in chain[:-1]]


def sturm_count(chain: list[IntPoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots in the half-open interval (a, b] of the
    polynomial whose ``sturm_chain`` is chain."""
    n = len(chain[0].coeffs) - 1

    def variations(t: Fraction) -> int:
        signs = [v > 0 for q in chain
                 if (v := q.cleared_eval(t.numerator, t.denominator, n))]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(a) - variations(b)


def _bisect_root_interval(chain: list[IntPoly], a: Fraction, b: Fraction):
    """Narrow (a, b] to a subinterval of width at most 1/64 still
    holding a root."""
    while b - a > Fraction(1, 64):
        mid = (a + b) / 2
        if sturm_count(chain, a, mid) > 0:
            b = mid
        else:
            a = mid
    return a, b


# ---------------------------------------------------------------------------
# classification


@dataclasses.dataclass
class Classification:
    c: Fraction
    status: str
    period: int | None = None
    root_order: int | None = None
    witness: dict = dataclasses.field(default_factory=dict)
    notes: list[str] = dataclasses.field(default_factory=list)

    def line(self) -> str:
        extra = ""
        if self.period is not None:
            extra += " m=%d" % self.period
        if self.root_order is not None:
            extra += " j=%d" % self.root_order
        return "%s: %s%s" % (self.c, self.status, extra)


def _specialized_delta(fam: Family, m: int, c: Fraction) -> IntPoly:
    """delta_m at c = p/q cleared: the primitive part of q^D delta_m(p/q, x),
    D = deg_c delta_m, which has a positive leading coefficient."""
    delta = multiplier_poly(fam, m).delta
    degc = delta.deg_c
    return IntPoly([a.cleared_eval(c.numerator, c.denominator, degc)
                    for a in delta.coeffs], "x").primitive()


def chebyshev_note(c: Fraction) -> str | None:
    if Fraction(c) == -2:
        return ("conjugate to the degree-2 Chebyshev map on [-2, 2]; "
                "the critical orbit lands on a repelling fixed point")
    return None


def classify(fam: Family, c: Fraction, m_max: int = 6,
             j_max: int = 12) -> Classification:
    """Decide the cycle type of a rational parameter.

    Tests periods m <= m_max and root-of-unity orders j <= j_max (for
    rational c a parabolic cycle is real, so only j <= 2 can fire); a
    clean miss is reported as repelling-all-tested when a preperiodic
    critical orbit certifies it, and unresolved otherwise.  This is
    where the degree guardrail applies to classification: before each
    period, the dynatomic degree is compared with DEGREE_CAP, and
    testing stops below the first period above it; a note says so, and
    the witness's m_max is the last period tested.
    """
    if fam.kind != "unicritical":
        raise ValueError("classification is implemented for z^d + c")
    # The Sturm count below runs over (-1, 1] and relies on cyc_1 having
    # caught a multiplier 1, so j_max = 0 would call 1/4 attracting.
    if m_max < 1 or j_max < 1:
        raise ValueError("need m_max >= 1 and j_max >= 1")
    c = Fraction(c)
    notes = []
    note = chebyshev_note(c)
    if note:
        notes.append(note)

    cert = escape_certificate(fam, c)
    if cert is not None:
        return Classification(c=c, status="excluded-by-escape",
                              witness={"certificate": cert}, notes=notes)

    orbit = critical_orbit_certificate(fam, c)
    if orbit is not None and orbit[0] == 0:
        return Classification(c=c, status="superattracting",
                              period=orbit[1],
                              witness={"critical_orbit": "periodic"},
                              notes=notes)

    m_tested = m_max
    for m in range(1, m_max + 1):
        if dynatomic_degree(fam.d, m) > DEGREE_CAP:
            m_tested = m - 1
            notes.append("periods above m=%d not tested (degree guardrail)"
                         % m_tested)
            break
        cleared = _specialized_delta(fam, m, c)
        if cleared.coeff(0) == 0:
            return Classification(c=c, status="superattracting", period=m,
                                  witness={"delta_at_0": "0"}, notes=notes)
        for j in range(1, j_max + 1):
            cyc = cyclotomic(j)
            try:
                quotient = cleared.exact_div(cyc)
            except ArithmeticError:
                continue
            return Classification(
                c=c, status="parabolic", period=m, root_order=j,
                witness={"delta": str(cleared), "cyclotomic_factor": str(cyc),
                         "quotient": str(quotient)},
                notes=notes)
        chain = sturm_chain(cleared)
        count = sturm_count(chain, Fraction(-1), Fraction(1))
        # Roots at exactly -1 belong to cyc_2 and were caught above, so
        # the half-open Sturm count equals the open-interval count here.
        if count > 0:
            a, b = _bisect_root_interval(chain, Fraction(-1), Fraction(1))
            return Classification(
                c=c, status="attracting", period=m,
                witness={"delta": str(cleared), "roots_in_disc": count,
                         "interval": [str(a), str(b)]},
                notes=notes)

    if orbit is not None and orbit[0] > 0:
        return Classification(
            c=c, status="repelling-all-tested",
            witness={"critical_orbit": "preperiodic",
                     "preperiod": orbit[0], "eventual_period": orbit[1],
                     "m_max": m_tested, "j_max": j_max},
            notes=notes)
    return Classification(c=c, status="unresolved",
                          witness={"m_max": m_tested, "j_max": j_max},
                          notes=notes)


# ---------------------------------------------------------------------------
# the logistic family, for cross-checking


def logistic_bridge(a: Fraction) -> Fraction:
    """Parameter of z^2 + c conjugate to the logistic map a x (1 - x)."""
    a = Fraction(a)
    return (2 * a - a * a) / 4


def classify_logistic(a: Fraction, m_max: int = 6) -> Classification:
    out = classify(Family("unicritical", 2), logistic_bridge(a), m_max=m_max)
    out.notes.append("logistic parameter a = %s" % Fraction(a))
    return out
