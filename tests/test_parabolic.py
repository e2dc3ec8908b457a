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
    sturm_count,
)

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
    assert sturm_count([F(-1, 4), F(0), F(1)], F(-1), F(1)) == 2
    assert sturm_count([F(-4), F(0), F(1)], F(-1), F(1)) == 0
    assert sturm_count([F(1, 4), F(-1), F(1)], F(-1), F(1)) == 1
    assert sturm_count([F(-1), F(1)], F(-1), F(1)) == 1
    assert sturm_count([F(-2), F(1)], F(-1), F(1)) == 0


def test_classify_candidates():
    for c, (status, period, order) in EXPECTED2.items():
        out = classify(FAM2, c)
        assert out.status == status, "%s: %s" % (c, out.line())
        assert out.period == period
        assert out.root_order == order


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
