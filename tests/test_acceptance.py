"""End-to-end acceptance run: the published tables and structural
claims, reproduced bit-exactly by the engine.

Each criterion prints one pass/FAIL line.  Under pytest the line is
captured unless -s is given; running the file directly prints all
eleven lines and exits nonzero if any criterion fails.
"""
import sys

import reference_tables as rt
import test_properties

from dynres.families import Family
from dynres.invariants import (
    degree_formula_check,
    delta_nm,
    dynatomic_equality_check,
    coprime_product_check,
    cyclotomic_resultant,
    morton_vivaldi_check,
    quadcrit_closed_form_check,
    quadcrit_lt_check,
    cyclotomic_prime_check,
    rescaled_multiplier,
)
from dynres.newton import (
    delta_polygon_check,
    iterate_polygon_check,
    linear_resultant_polygon_check,
    orbit_slope_bound_check,
    resultant_polygon_check,
)
from dynres.numtheory import cyclotomic, divisors, dynatomic_degree
from dynres.parabolic import classify, enumerate_candidates
from dynres.polycore import IntPoly

FAM2 = Family("unicritical", 2)


def _check(label: str, ok: bool, detail: str = "") -> None:
    print("%s %s%s" % ("pass" if ok else "FAIL", label,
                       " [%s]" % detail if detail and not ok else ""))
    assert ok, "%s %s" % (label, detail)


def _table_rows_match(kind: str, table, degree_of) -> list[str]:
    bad = []
    for (d, m), row in sorted(table.items()):
        power = row.get("cell_power", 1)
        if row["deg"] * power != degree_of(d, m):
            bad.append("(%d, %d) degree column" % (d, m))
            continue
        want = rt.expand_bivariate(row) ** power
        if rescaled_multiplier(Family(kind, d), m)[0] != want:
            bad.append("(%d, %d)" % (d, m))
    return bad


def test_a01_rescaled_table_unicritical():
    bad = _table_rows_match("unicritical", rt.TABLE1,
                            lambda d, m: dynatomic_degree(d, m))
    _check("rescaled multiplier table, z^d + c, 10 rows", not bad,
           "mismatch at %s" % ", ".join(bad))


def test_a02_rescaled_table_linearterm():
    bad = _table_rows_match("linearterm", rt.TABLE2,
                            lambda d, m: dynatomic_degree(d + 1, m))
    _check("rescaled multiplier table, z^(d+1) + cz, 9 rows", not bad,
           "mismatch at %s" % ", ".join(bad))


def test_a03_rescaled_table_shifted():
    bad = _table_rows_match("shifted", rt.TABLE3,
                            lambda d, m: dynatomic_degree(d + 1, m))
    _check("rescaled multiplier table, (z - c) z^d + c, 6 rows", not bad,
           "mismatch at %s" % ", ".join(bad))


def test_a04_cyclotomic_resultant_table():
    bad = []
    for key, row in sorted(rt.TABLE4.items()):
        d, n, m = key
        value = cyclotomic_resultant(Family("quadcrit", d), n, m)
        want = rt.table4_engine_expected(key)
        if want is None:
            # the cell too long to print: gate on the published
            # leading coefficient, whose factorization is 2^96 * 3 * 7
            if not (value.lc == row["lc"] == 2 ** 96 * 3 * 7):
                bad.append("(%d, %d, %d) leading coefficient" % key)
        elif value != want:
            bad.append("(%d, %d, %d)" % key)
    _check("cyclotomic resultant table, z^(d+2) + cz^2, 18 rows", not bad,
           "mismatch at %s" % ", ".join(bad))


def test_a05_resultant_power_identity():
    bad = []
    for n in range(2, 7):
        for m in divisors(n):
            if m == n:
                continue
            v = morton_vivaldi_check(FAM2, n, m)
            if not (v.passed and v.witness["sign"] in (1, -1)):
                bad.append("(%d, %d)" % (n, m))
    _check("Res_z(Phi*_n, Phi*_m) = +-Delta_{n,m}^m, z^2 + c, n <= 6",
           not bad, "failed at %s" % ", ".join(bad))


def test_a06_degree_formulas():
    bad = []
    for n in range(1, 7):
        for v in degree_formula_check(FAM2, n):
            if not v.passed:
                bad.append("(%d, %d)" % (v.params["n"], v.params["m"]))
    linear = {(1, 1): (-1, 4), (2, 1): (3, 4),
              (3, 3): (7, 4), (4, 2): (-5, -4)}
    for (n, m), coeffs in linear.items():
        if delta_nm(FAM2, n, m) != IntPoly(coeffs, "c"):
            bad.append("linear invariant (%d, %d)" % (n, m))
    _check("Delta_{n,m} degree formula and degree-1 values, n <= 6",
           not bad, "failed at %s" % ", ".join(bad))


def test_a07_newton_polygons():
    verdicts = []
    for d in (2, 3):
        for k in (1, 2, 3, 4):
            verdicts.append(iterate_polygon_check(d, k))
    for d, ms in ((2, (1, 2, 3, 4)), (3, (1, 2))):
        for m in ms:
            verdicts.append(delta_polygon_check(d, m))
    for d, k, m in ((2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 2),
                    (3, 1, 1), (3, 2, 1)):
        verdicts.append(resultant_polygon_check(d, k, m))
    for d in (1, 2):
        for k in (1, 2, 3):
            verdicts.extend(orbit_slope_bound_check(d, k))
    for d, kmax in ((1, 3), (2, 3), (3, 2)):
        for k in range(1, kmax + 1):
            verdicts.extend(linear_resultant_polygon_check(d, k))
    bad = [v.line() for v in verdicts if not v.passed]
    _check("Newton polygon shapes over the -deg_c valuation, %d checks"
           % len(verdicts), not bad, "; ".join(bad))


def test_a08_parabolic_classification():
    from fractions import Fraction as F
    expected = {
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
    bad = []
    if enumerate_candidates(2) != sorted(expected):
        bad.append("candidate list")
    for c, (status, period, order) in expected.items():
        out = classify(FAM2, c)
        if (out.status, out.period, out.root_order) != (status, period, order):
            bad.append(str(c))
            continue
        if status == "parabolic" and "cyclotomic_factor" not in out.witness:
            bad.append("%s witness" % c)
        if status == "attracting" and "interval" not in out.witness:
            bad.append("%s witness" % c)
    _check("rational parameter classification, z^2 + c, 10 candidates",
           not bad, "failed at %s" % ", ".join(bad))


def test_a09_quadcrit_and_cyclotomic_values():
    bad = []
    for d in (1, 2, 3, 4):
        if not quadcrit_closed_form_check(d).passed:
            bad.append("closed form d=%d" % d)
    for d in (1, 2, 3):
        for n in range(2, 9):
            if not quadcrit_lt_check(d, n).passed:
                bad.append("leading term (%d, %d)" % (d, n))
    for n in range(2, 13):
        if not cyclotomic_prime_check(n).passed:
            bad.append("cyclotomic n=%d" % n)
    if cyclotomic(7)(2) != 127 or cyclotomic(6)(2) != 3:
        bad.append("cyclotomic values at 2")
    _check("z^(d+2) + cz^2 leading terms and cyclotomic prime divisors",
           not bad, "failed at %s" % ", ".join(bad))


def test_a10_dynatomic_equalities():
    bad = []
    for k, m in ((1, 2), (1, 3), (2, 4)):
        if not dynatomic_equality_check(FAM2, k, m).passed:
            bad.append("value (%d, %d)" % (k, m))
    for l, n in ((2, 3), (3, 2)):
        if not coprime_product_check(FAM2, l, n).passed:
            bad.append("product (%d, %d)" % (l, n))
    _check("dynatomic values at periodic points and coprime products",
           not bad, "failed at %s" % ", ".join(bad))


def test_a11_randomized_identities():
    suites = (test_properties.test_nth_root_round_trip,
              test_properties.test_resultant_route_agreement,
              test_properties.test_resultant_specialization_commutes,
              test_properties.test_resultant_base_change)
    bad = []
    for fn in suites:
        try:
            fn()
        except AssertionError:
            bad.append(fn.__name__)
    _check("randomized identity suites, 4 x 200 cases", not bad,
           "failed %s" % ", ".join(bad))


CRITERIA = (
    test_a01_rescaled_table_unicritical,
    test_a02_rescaled_table_linearterm,
    test_a03_rescaled_table_shifted,
    test_a04_cyclotomic_resultant_table,
    test_a05_resultant_power_identity,
    test_a06_degree_formulas,
    test_a07_newton_polygons,
    test_a08_parabolic_classification,
    test_a09_quadcrit_and_cyclotomic_values,
    test_a10_dynatomic_equalities,
    test_a11_randomized_identities,
)


if __name__ == "__main__":
    failures = 0
    for criterion in CRITERIA:
        try:
            criterion()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
