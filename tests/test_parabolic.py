import random
from fractions import Fraction
from math import gcd

import pytest

from dynres.families import Family
from dynres.parabolic import (
    Classification,
    classify,
    classify_logistic,
    critical_orbit_certificate,
    enumerate_candidates,
    escape_certificate,
    logistic_bridge,
    naive_height,
    parabolic_height_test,
    sturm_chain,
    sturm_count,
)
from dynres.polycore import IntPoly

F = Fraction
FAM2 = Family("unicritical", 2)

# the ten survivors of the exact filters for z^2 + c, with the decided
# cycle type: (status, period, root_order)
EXPECTED2 = {
    F(-2): ("repelling-all-tested", None, None),
    F(-7, 4): ("parabolic", 3, 1),
    F(-3, 2): ("unresolved", None, None),
    F(-5, 4): ("parabolic", 2, 2),
    F(-1): ("superattracting", 2, None),
    F(-3, 4): ("parabolic", 1, 2),
    F(-1, 2): ("attracting", 1, None),
    F(-1, 4): ("attracting", 1, None),
    F(0): ("superattracting", 1, None),
    F(1, 4): ("parabolic", 1, 1),
}

# `dynres parabolic --d 3/4/5` at the default m_max: per candidate the
# (status, period, root_order) and the bisection interval of an
# attracting row
U = ("unresolved", None, None, None)
S1 = ("superattracting", 1, None, None)
EXPECTED_HIGHER = {
    3: {F(-4, 3): U, F(-1): U, F(-2, 3): U,
        F(-1, 3): ("attracting", 1, None, ["29/64", "15/32"]),
        F(0): S1,
        F(1, 3): ("attracting", 1, None, ["29/64", "15/32"]),
        F(2, 3): U, F(1): U, F(4, 3): U},
    4: {F(-5, 4): U,
        F(-1): ("superattracting", 2, None, None),
        F(-3, 4): ("attracting", 1, None, ["-59/64", "-29/32"]),
        F(-1, 2): ("attracting", 1, None, ["-25/64", "-3/8"]),
        F(-1, 4): ("attracting", 1, None, ["-1/16", "-3/64"]),
        F(0): S1,
        F(1, 4): ("attracting", 1, None, ["1/16", "5/64"]),
        F(1, 2): U, F(3, 4): U, F(1): U, F(5, 4): U},
    5: {F(-1): U, F(-4, 5): U, F(-3, 5): U,
        F(-2, 5): ("attracting", 1, None, ["9/64", "5/32"]),
        F(-1, 5): ("attracting", 1, None, ["0", "1/64"]),
        F(0): S1,
        F(1, 5): ("attracting", 1, None, ["0", "1/64"]),
        F(2, 5): ("attracting", 1, None, ["9/64", "5/32"]),
        F(3, 5): U, F(4, 5): U, F(1): U},
}


def test_naive_height():
    assert naive_height(F(-3, 4)) == 4
    assert naive_height(F(7, 2)) == 7
    assert naive_height(F(0)) == 1
    assert naive_height(F(-5)) == 5


def test_escape_certificates():
    assert escape_certificate(FAM2, F(3)) == "modulus-growth"
    assert escape_certificate(FAM2, F(1, 2)) == "real-monotone-escape"
    assert escape_certificate(FAM2, F(-3, 4)) is None
    assert escape_certificate(FAM2, F(-2)) is None
    # Only z^d + c has escape bounds; the classifier refuses the rest.
    with pytest.raises(ValueError):
        escape_certificate(Family("linearterm", 1), F(9))
    with pytest.raises(ValueError):
        escape_certificate(Family("quadcrit", 1), F(1))


def test_height_bound():
    assert parabolic_height_test(FAM2, F(-7, 4))
    assert parabolic_height_test(FAM2, F(-2))
    assert not parabolic_height_test(FAM2, F(9, 4))
    with pytest.raises(ValueError):
        parabolic_height_test(Family("shifted", 1), F(1))


def test_enumerate_candidates():
    assert enumerate_candidates(2) == [
        F(-2), F(-7, 4), F(-3, 2), F(-5, 4), F(-1),
        F(-3, 4), F(-1, 2), F(-1, 4), F(0), F(1, 4)]
    assert enumerate_candidates(3) == [
        F(-4, 3), F(-1), F(-2, 3), F(-1, 3), F(0),
        F(1, 3), F(2, 3), F(1), F(4, 3)]


def test_enumerate_candidates_matches_full_scan():
    # the same filters over every denominator q <= d^d, with |c| <= 2
    for d in range(2, 7):
        fam = Family("unicritical", d)
        brute = sorted(
            F(p, q) for q in range(1, d ** d + 1)
            if d ** d % q ** (d - 1) == 0
            for p in range(-2 * q, 2 * q + 1)
            if gcd(p, q) == 1 and escape_certificate(fam, F(p, q)) is None)
        assert enumerate_candidates(d) == brute, d
    # q^8 | 9^9 leaves q in {1, 3, 9}; a scan up to 9^9 would not finish
    assert enumerate_candidates(9) == [F(k, 9) for k in range(-9, 10)]


def test_critical_orbit():
    assert critical_orbit_certificate(FAM2, F(0)) == (0, 1)
    assert critical_orbit_certificate(FAM2, F(-1)) == (0, 2)
    assert critical_orbit_certificate(FAM2, F(-2)) == (2, 1)
    assert critical_orbit_certificate(FAM2, F(1, 4)) is None
    assert critical_orbit_certificate(FAM2, F(1)) is None
    with pytest.raises(ValueError):
        critical_orbit_certificate(Family("linearterm", 1), F(0))


def test_sturm_count():
    # count in the half-open interval (a, b]
    def count(coeffs):
        return sturm_count(sturm_chain(IntPoly(coeffs, "x")), F(-1), F(1))

    assert count([-1, 0, 4]) == 2
    assert count([-4, 0, 1]) == 0
    assert count([1, -4, 4]) == 1
    assert count([-1, 1]) == 1
    assert count([-2, 1]) == 0


def test_sturm_count_against_known_roots():
    # (q x - p)^e with e <= 3 for a few known roots p/q, times a
    # quadratic with negative discriminant (irreducible, no real root),
    # with either sign of the leading coefficient: the count over
    # (a, b] must be the number of distinct known roots there, a root
    # at b counted and a root at a not
    rng = random.Random(20261018)

    def check(p, roots):
        intervals = [(r, r + F(1, 7)) for r in roots]
        intervals += [(r - F(1, 7), r) for r in roots]
        for _ in range(10):
            a = F(rng.randint(-40, 40), rng.randint(1, 8))
            intervals.append((a, a + F(rng.randint(0, 40), rng.randint(1, 8))))
        for sign in (1, -1):
            chain = sturm_chain(sign * p)
            for a, b in intervals:
                want = sum(1 for r in roots if a < r <= b)
                assert sturm_count(chain, a, b) == want, (sign * p, a, b)

    for _ in range(40):
        roots = {F(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 4))}
        p = IntPoly([rng.randint(3, 5), rng.randint(-2, 2), rng.randint(1, 3)])
        for r in roots:
            p = p * IntPoly([-r.numerator, r.denominator]) ** rng.randint(1, 3)
        check(p, roots)
    # x^4 + 15x + 14 = (x + 1)(x + 2)(x^2 - 3x + 7): its chain has degrees
    # 4, 3, 1, 0, so one pseudo-remainder scales by the cube of a negative
    # leading coefficient, and only |lc|^3 keeps the sign
    check(IntPoly([14, 15, 0, 0, 1]), {F(-1), F(-2)})


def test_classify_candidates():
    for c, (status, period, order) in EXPECTED2.items():
        out = classify(FAM2, c)
        assert out.status == status, "%s: %s" % (c, out.line())
        assert out.period == period
        assert out.root_order == order


@pytest.mark.parametrize("d", [3, 4, 5])
def test_classify_higher_degree(d):
    fam = Family("unicritical", d)
    got = {}
    for c in enumerate_candidates(d):
        out = classify(fam, c)
        got[c] = (out.status, out.period, out.root_order,
                  out.witness.get("interval"))
    assert got == EXPECTED_HIGHER[d]


def test_classify_witnesses():
    out = classify(FAM2, F(-2))
    assert out.witness["critical_orbit"] == "preperiodic"
    assert out.witness["preperiod"] == 2
    assert out.witness["eventual_period"] == 1
    assert out.notes and "Chebyshev" in out.notes[0]
    out = classify(FAM2, F(-3, 4))
    assert out.witness["cyclotomic_factor"] == "x + 1"
    out = classify(FAM2, F(-1, 2))
    assert out.witness["roots_in_disc"] == 1
    assert out.witness["interval"] == ["-47/64", "-23/32"]
    out = classify(FAM2, F(-1, 4))
    assert out.witness["interval"] == ["-27/64", "-13/32"]
    out = classify(FAM2, F(-3, 2))
    assert out.witness == {"m_max": 6, "j_max": 12}


def test_classify_escape():
    assert classify(FAM2, F(1)).status == "excluded-by-escape"
    assert classify(FAM2, F(3)).witness["certificate"] == "modulus-growth"
    with pytest.raises(ValueError):
        classify(Family("shifted", 1), F(0))


def test_classify_needs_cyc_1():
    # the Sturm count on (-1, 1] relies on cyc_1 catching multiplier 1,
    # so without it 1/4 would read as attracting
    with pytest.raises(ValueError):
        classify(FAM2, F(1, 4), j_max=0)


def test_logistic_bridge():
    assert logistic_bridge(F(1)) == F(1, 4)
    assert logistic_bridge(F(2)) == F(0)
    assert logistic_bridge(F(3)) == F(-3, 4)
    assert logistic_bridge(F(4)) == F(-2)


def test_classify_logistic():
    out = classify_logistic(F(3))
    assert out.status == "parabolic"
    assert (out.period, out.root_order) == (1, 2)
    assert out.notes[-1] == "logistic parameter a = 3"
    assert classify_logistic(F(4)).status == "repelling-all-tested"
    assert classify_logistic(F(2)).status == "superattracting"


def test_classification_line():
    assert Classification(F(-3, 4), "parabolic", 1, 2).line() == \
        "-3/4: parabolic m=1 j=2"
    assert Classification(F(0), "superattracting", 1).line() == \
        "0: superattracting m=1"
    assert Classification(F(-3, 2), "unresolved").line() == "-3/2: unresolved"


def test_classify_stops_below_guardrail():
    out = classify(Family("unicritical", 3), F(-4, 3))
    assert out.status == "unresolved"
    assert out.witness == {"m_max": 3, "j_max": 12}
    assert out.notes == ["periods above m=3 not tested (degree guardrail)"]
    # below the guardrail nothing is noted and m_max is the one asked for
    out = classify(Family("unicritical", 3), F(-4, 3), m_max=3)
    assert out.witness == {"m_max": 3, "j_max": 12}
    assert out.notes == []
