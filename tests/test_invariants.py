import dataclasses
import functools
import math
import operator

import pytest

from dynres import invariants, resultants
from dynres.errors import NotInSubring
from dynres.families import (Family, c_stride, fixed_point_resultant,
                             iterate, multiplier_derivative, multiplier_poly,
                             multiplier_resultant, orbit_product)
from dynres.invariants import (
    aux_integrality_check,
    aux_leading_term_check,
    aux_nonunicritical,
    aux_shifted,
    aux_shifted_leading_check,
    cleared_eval_lt_check,
    coprime_product_check,
    cyclotomic_prime_check,
    degree_formula_check,
    delta_aux_product_check,
    delta_nm,
    dynatomic_equality_check,
    integrality_check,
    linearterm_structure_checks,
    monicness_check,
    morton_vivaldi_check,
    predicted_psi_sign,
    psi_monicness_check,
    quadcrit_closed_form_check,
    quadcrit_delta1_closed,
    quadcrit_lt_check,
    rescale_extract,
    rescaled_multiplier,
    shifted_structure_checks,
    unicritical_delta_lt_check,
    unicritical_res_lt_check,
)
from dynres.numtheory import cyclotomic, divisors, factorize, moebius_product
from dynres.polycore import BiPoly, IntPoly
from dynres.resultants import (_symmetries, charpoly_interp,
                               charpoly_sylvester, orbit_degc_bound)
from test_resultants import degc_cap

FAM2 = Family("unicritical", 2)

# Delta_{n,m} for z^2 + c, checked by hand from the small multiplier
# polynomials (delta_1 = x^2 - 2x + 4c, delta_2 = x - 4c - 4, ...).
DELTA2 = {
    (1, 1): (-1, 4),
    (2, 1): (3, 4),
    (2, 2): (-1,),
    (3, 1): (7, 4, 16),
    (3, 3): (7, 4),
    (4, 1): (5, -8, 16),
    (4, 2): (-5, -4),
    (6, 1): (3, -12, 16),
    (6, 2): (21, 36, 16),
    (6, 3): (81, 72, 128, 64),
}


def test_delta_known_values():
    for (n, m), coeffs in DELTA2.items():
        assert delta_nm(FAM2, n, m) == IntPoly(coeffs, "c")


def test_delta_product_identity():
    # prod over m | n of Delta_{n,m} recovers delta_n at x = 1
    for n in range(1, 7):
        prod = IntPoly((1,), "c")
        for m in divisors(n):
            prod = prod * delta_nm(FAM2, n, m)
        assert prod == multiplier_poly(FAM2, n).delta.eval_main_int(1)


def test_delta_rejects_bad_pairs():
    with pytest.raises(ValueError):
        delta_nm(FAM2, 3, 2)
    with pytest.raises(ValueError):
        delta_nm(FAM2, 0, 1)


def test_morton_vivaldi():
    for n in range(2, 7):
        for m in divisors(n):
            if m < n:
                v = morton_vivaldi_check(FAM2, n, m)
                assert v.passed
                assert v.witness["sign"] in (1, -1)
    assert morton_vivaldi_check(Family("linearterm", 1), 2, 1).passed
    assert morton_vivaldi_check(Family("quadcrit", 1), 2, 1).passed
    with pytest.raises(ValueError):
        morton_vivaldi_check(FAM2, 2, 2)


def test_degree_formula():
    for n in range(1, 7):
        for v in degree_formula_check(FAM2, n):
            assert v.passed
    with pytest.raises(ValueError):
        degree_formula_check(Family("unicritical", 3), 2)


def test_rescale_extract():
    # 16c^2 + 4c + 1 becomes C^2 + C + 1 in C = 4c
    psi, sign = rescale_extract(IntPoly((1, 4, 16), "c"), FAM2)
    assert psi == IntPoly((1, 1, 1), "C")
    assert sign == 1
    # stride 2 for d = 3: 27c^2 + 2 becomes C + 2 in C = 27c^2
    psi, sign = rescale_extract(IntPoly((2, 0, 27), "c"), Family("unicritical", 3))
    assert psi == IntPoly((2, 1), "C")
    assert sign == 1
    with pytest.raises(NotInSubring):
        rescale_extract(IntPoly((1, 2), "c"), FAM2)
    with pytest.raises(NotInSubring):
        rescale_extract(IntPoly((0, 0, 0, 27), "c"), Family("unicritical", 3))
    with pytest.raises(ValueError):
        rescale_extract(IntPoly((1,), "c"), Family("quadcrit", 2))


def test_delta_integrality_and_monicness():
    plans = (("unicritical", 2, (1, 2, 3, 4)),
             ("unicritical", 3, (1, 2, 3)),
             ("linearterm", 1, (1, 2, 3)),
             ("linearterm", 2, (1, 2)),
             ("shifted", 1, (1, 2, 3)),
             ("shifted", 2, (1, 2)))
    for kind, d, ms in plans:
        fam = Family(kind, d)
        for m in ms:
            assert integrality_check(fam, m).passed
            assert monicness_check(fam, m).passed


def test_psi_monicness():
    for n in range(1, 7):
        for m in divisors(n):
            assert psi_monicness_check(FAM2, n, m).passed
    for n in (1, 2, 3):
        for m in divisors(n):
            assert psi_monicness_check(Family("unicritical", 3), n, m).passed
    with pytest.raises(ValueError):
        psi_monicness_check(Family("shifted", 1), 2, 1)


def test_predicted_psi_sign_matches_quoted_values():
    # Delta_{4,2} = -4c - 5 and Delta_{2,2} = -1 pin the two branches
    assert predicted_psi_sign(2, 4, 2) == -1
    assert predicted_psi_sign(2, 2, 1) == 1
    assert predicted_psi_sign(2, 2, 2) == -1
    assert predicted_psi_sign(2, 6, 3) == 1


def test_unicritical_leading_terms():
    for d in (2, 3):
        fam = Family("unicritical", d)
        for k in (1, 2, 3):
            for m in (1, 2):
                assert unicritical_res_lt_check(fam, k, m).passed
        for m in (1, 2, 3):
            assert unicritical_delta_lt_check(fam, m).passed


def test_aux_cached():
    # a fresh, equal Family hits the cache too
    for fn, args in ((aux_shifted, (2, 2, 2)), (aux_nonunicritical, (2, 2, 2)),
                     (delta_nm, (Family("unicritical", 2), 4, 2)),
                     (rescaled_multiplier, (Family("shifted", 2), 2)),
                     (invariants._orbit_product, (2, 3)),
                     (invariants._cleared_product, (2, 3))):
        assert fn(*args) is fn(*args), fn.__name__


def test_fixed_point_resultant_cached():
    fam = Family("shifted", 2)
    res = fixed_point_resultant(fam, 2, 2)
    assert fixed_point_resultant(Family("shifted", 2), 2, 2) is res


def test_aux_requires_divisor_pairs():
    with pytest.raises(ValueError):
        aux_nonunicritical(2, 3, 2)
    with pytest.raises(ValueError):
        aux_shifted(1, 2, 3)


def _shifted_factor(d, k, m, e):
    """Res_z(Phi_e(P_k), x - (f^m)') for (z - c) z^d + c, as a
    multiplier_resultant of its own."""
    fam = Family("shifted", d)
    P = orbit_product(fam, BiPoly.gen("z"), k)
    return multiplier_resultant(fam, BiPoly(cyclotomic(e).coeffs).compose(P),
                                m)


def _at_minus_c(R):
    return BiPoly([IntPoly([(-1) ** i * b for i, b in enumerate(a.coeffs)],
                           R.cvar) for a in R.coeffs], R.main_var, R.cvar)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_aux_shifted_phi1_factor_is_aux_nonunicritical(d):
    # on the roots of Phi_1(P_k) = F_k, P_m = 1 and (f^m)' = cleared_m
    pairs = [(1, 1), (1, 2), (2, 2), (1, 3)] + [(3, 3)] * (d <= 2)
    for k, m in pairs:
        assert _shifted_factor(d, k, m, 1) == aux_nonunicritical(d, k, m), (
            k, m)


@pytest.mark.parametrize("d,k,m", [
    (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 3, 3), (4, 1, 1), (4, 1, 2),
    (6, 1, 1), (6, 1, 2), (2, 2, 2), (4, 2, 2),
])
def test_aux_shifted_pairs_factors_under_c_sign(d, k, m):
    # for even d and odd k, (z, c) -> (-z, -c) fixes (f^m)' and sends P_k
    # to -P_k, so the Phi_(2e) factor is the Phi_e factor at -c, and
    # aux_shifted forms the pair as the norm A^2 - C B^2 of the Phi_e
    # factor A(C) + c B(C), C = c^2; at even k it fixes P_k, and the
    # factors do not pair
    factors = {e: _shifted_factor(d, k, m, e) for e in divisors(d)}
    for e, R in factors.items():
        if e % 4 == 2:
            assert (R == _at_minus_c(factors[e // 2])) is (k % 2 == 1), e
            if k % 2:
                assert invariants._c_norm(factors[e // 2]) == \
                    factors[e // 2] * R, e
    assert aux_shifted(d, k, m) == functools.reduce(operator.mul,
                                                    factors.values())


def test_structure_checks():
    for d in (1, 2):
        for k, m in ((1, 1), (1, 2), (2, 2)):
            for v in linearterm_structure_checks(d, k, m):
                assert v.passed, v.line()
            for v in shifted_structure_checks(d, k, m):
                assert v.passed, v.line()


def test_power_support_checks_off_node_values(monkeypatch):
    # A resultant with the right support in c^d but wrong values is
    # caught at the nodes c = -1, -2, which strided interpolation never
    # evaluates.
    d = 2
    right = fixed_point_resultant(Family("shifted", d), 1, 1)
    wrong = right + BiPoly.cgen("x") ** (2 * d) * BiPoly.gen("x")
    monkeypatch.setattr(invariants, "fixed_point_resultant",
                        lambda fam, k, m: wrong)
    verdict = [v for v in shifted_structure_checks(d, 1, 1)
               if v.check == "resultant-parameter-power-support"][0]
    assert not verdict.passed
    assert verdict.residual == "differs from the charpoly at c = [-1, -2]"


def test_derivative_product_identity_rebuilds_its_right_side(monkeypatch):
    # aux_shifted takes G from multiplier_derivative, so the identity
    # must build (F_m + 1)^(d-1) cleared_m anew: a corrupted cleared
    # product fails it even with aux_shifted already cached.
    aux_shifted(2, 1, 2)
    real = invariants._cleared_product
    monkeypatch.setattr(invariants, "_cleared_product",
                        lambda d, m: real(d, m) + 1)
    verdict = [v for v in shifted_structure_checks(2, 1, 2)
               if v.check == "derivative-product-identity"][0]
    assert not verdict.passed


def test_leading_size_checks_take_either_sign(monkeypatch):
    # aux-leading-size and quadcrit-delta-leading-coefficient claim only
    # the size of the leading coefficient: a sign flip passes and is
    # recorded, a wrong size fails.
    real = aux_shifted(2, 1, 2)
    for scalar, ok in ((-1, True), (2, False)):
        monkeypatch.setattr(invariants, "aux_shifted", lambda d, k, m:
                            real * scalar)
        verdict = aux_shifted_leading_check(2, 1, 2)
        assert verdict.passed is ok
        assert verdict.witness == {"sign": -1 if scalar < 0 else 1}
    fam = Family("quadcrit", 2)
    delta = delta_nm(fam, 3, 1)
    for scalar, ok in ((-1, True), (3, False)):
        monkeypatch.setattr(invariants, "delta_nm",
                            lambda fam, n, m: delta * scalar)
        assert quadcrit_lt_check(2, 3).passed is ok


def test_signed_leading_checks_fail_on_corruption(monkeypatch):
    # R_{k,m} has a pinned sign, so -R fails.
    real = aux_nonunicritical(2, 1, 2)
    monkeypatch.setattr(invariants, "aux_nonunicritical", lambda d, k, m:
                        -real)
    verdict = aux_leading_term_check(2, 1, 2)
    assert not verdict.passed and "constant term leading" in verdict.residual
    # c^3 x puts the top c-degree of delta_3 into the x^1 coefficient.
    fam = Family("unicritical", 2)
    res = multiplier_poly(fam, 3)
    bad = dataclasses.replace(
        res, delta=res.delta + BiPoly.cgen("x") ** 3 * BiPoly.gen("x"))
    monkeypatch.setattr(invariants, "multiplier_poly", lambda fam, m: bad)
    verdict = unicritical_delta_lt_check(fam, 3)
    assert not verdict.passed
    assert verdict.residual == "x^1 coefficient reaches c-degree 3"


def test_delta_aux_product():
    # q = d for linearterm and 1 for shifted: linearterm (2, 2) compares
    # delta with Q, (2, 3) divides Q by delta and squares the quotient,
    # the other m = 2 cases divide and compare, and m = 3 at q = 1 expands
    for kind in ("linearterm", "shifted"):
        for d, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)):
            assert delta_aux_product_check(kind, d, m).passed
    # only linearterm and shifted have auxiliary resultants; any other
    # kind is refused rather than read as shifted
    for kind in ("unicritical", "quadcrit", "Shifted"):
        with pytest.raises(ValueError):
            delta_aux_product_check(kind, 2, 1)


def _expanded_residual(kind, d, m, delta):
    aux, q = ((invariants.aux_nonunicritical, d) if kind == "linearterm"
              else (invariants.aux_shifted, 1))
    Q = moebius_product(m, lambda k: aux(d, k, m))
    return str(delta ** m - Q ** q)


@pytest.mark.parametrize("kind,d,m", [
    ("linearterm", 2, 2), ("linearterm", 2, 3), ("linearterm", 1, 2),
    ("linearterm", 1, 3), ("shifted", 1, 2), ("shifted", 2, 2),
])
def test_delta_aux_product_residual_is_the_expansion(kind, d, m,
                                                     monkeypatch):
    # a delta off by one in its constant term does not divide Q and
    # differs from it; the verdict keeps the residual delta^m - Q^q
    fam = Family(kind, d)
    res = multiplier_poly(fam, m)
    bad = dataclasses.replace(res, delta=res.delta + 1)
    monkeypatch.setattr(invariants, "multiplier_poly", lambda fam, m: bad)
    verdict = delta_aux_product_check(kind, d, m)
    assert not verdict.passed
    assert verdict.residual == _expanded_residual(kind, d, m, bad.delta)


def test_delta_aux_product_fails_on_a_wrong_quotient(monkeypatch):
    # R_{3,3} times x + 1 keeps Q monic and divisible by delta_3, but
    # S = Q / delta_3 no longer squares to delta_3
    real = aux_nonunicritical
    x = BiPoly.gen("x")
    monkeypatch.setattr(invariants, "aux_nonunicritical", lambda d, k, m:
                        real(d, k, m) * (x + 1) if k == 3 else real(d, k, m))
    verdict = delta_aux_product_check("linearterm", 2, 3)
    delta = multiplier_poly(Family("linearterm", 2), 3).delta
    assert not verdict.passed
    assert verdict.residual == _expanded_residual("linearterm", 2, 3, delta)


@pytest.mark.parametrize("d", [1, 2])
def test_linear_resultant_shares_the_aux_route(d):
    # G_k of the Newton checks is Res_z(F_k, x - cleared_1), which at
    # k = 1 is the cached R_{1,1}; each agrees with an interpolation on
    # the Sylvester cap
    assert invariants._aux_resultant(d, 1, 1) is aux_nonunicritical(d, 1, 1)
    h = invariants._linear_factor(d)
    for k in (1, 2, 3):
        F_k = invariants._orbit_product(d, k) - 1
        assert invariants._aux_resultant(d, k, 1) == charpoly_interp(
            F_k, h, degc_bound=degc_cap(F_k, h)), k


def test_aux_integrality_and_leading():
    for kind in ("linearterm", "shifted"):
        for d, k, m in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2)):
            assert aux_integrality_check(kind, d, k, m).passed
    for kind in ("quadcrit", "unicritical", "Shifted"):
        with pytest.raises(ValueError):
            aux_integrality_check(kind, 1, 1, 1)
    for d, k, m in ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 2), (3, 1, 1)):
        assert aux_leading_term_check(d, k, m).passed
        assert aux_shifted_leading_check(d, k, m).passed


def test_cleared_eval():
    for d in (1, 2, 3):
        for k in (1, 2, 3):
            for v in cleared_eval_lt_check(d, k):
                assert v.passed, v.line()


def test_quadcrit_closed_form():
    for d in (1, 2, 3, 4):
        assert quadcrit_closed_form_check(d).passed
    # the closed form at d = 1: x ((x - 3)^2 - c^2 (x - 2))
    delta1 = multiplier_poly(Family("quadcrit", 1), 1).delta
    assert delta1 == quadcrit_delta1_closed(1)
    assert delta1.eval_main_int(0).coeffs == ()


def test_quadcrit_leading_terms():
    for d in (1, 2, 3):
        for n in (2, 3, 4, 6):
            assert quadcrit_lt_check(d, n).passed
    with pytest.raises(ValueError):
        quadcrit_lt_check(2, 1)


def test_cyclotomic_prime_divisors():
    for n in range(2, 13):
        v = cyclotomic_prime_check(n)
        assert v.passed
        if n == 6:
            assert v.witness["value"] == 3
            assert v.witness["exception"]
        else:
            assert v.witness["primes"]
    assert cyclotomic_prime_check(7).witness["value"] == 127
    # cyc_1(2) = 1 has no prime divisor at all: outside the claim
    for n in (1, 0):
        with pytest.raises(ValueError):
            cyclotomic_prime_check(n)


def test_dynatomic_equality():
    modes = {(1, 1): "trivial",
             (2, 2): "trivial",
             (1, 2): "cyclotomic-congruence",
             (1, 3): "cyclotomic-congruence",
             (2, 4): "regularized-multiplier-power",
             (2, 6): "cyclotomic-congruence"}
    for (k, m), mode in modes.items():
        v = dynatomic_equality_check(FAM2, k, m)
        assert v.passed
        assert v.witness["mode"] == mode
    assert dynatomic_equality_check(Family("linearterm", 1), 1, 2).passed
    with pytest.raises(ValueError):
        dynatomic_equality_check(FAM2, 2, 3)


def test_coprime_product():
    for l, n in ((2, 3), (3, 2), (2, 1), (3, 1)):
        assert coprime_product_check(FAM2, l, n).passed
    with pytest.raises(ValueError):
        coprime_product_check(FAM2, 2, 4)


def _exponent_gcd(P):
    """gcd of the c-exponents of P's nonzero terms (0 when P is constant
    in c)."""
    return math.gcd(*(e for a in P.coeffs for e, v in enumerate(a.coeffs) if v))


# (result at its stride, F, G, stride) for each interpolation that runs
# in c^s; the stride-1 reference uses the Sylvester cap for its nodes.
def _strided_cases(kind, d):
    fam = Family(kind, d)
    shifted = Family("shifted", d)
    z = BiPoly.gen("z")
    for k, m in ((1, 1), (1, 2), (2, 2)):
        yield (fixed_point_resultant(fam, k, m), iterate(fam, k) - z,
               multiplier_derivative(fam, m), c_stride(fam))
        F_k = orbit_product(shifted, z, k) - 1
        if kind == "shifted":
            yield (aux_shifted(d, k, m), (F_k + 1) ** d - 1,
                   multiplier_derivative(shifted, m), d)
        if kind == "linearterm":
            step = z * (d + 1) - BiPoly.cgen("z") * d
            yield (aux_nonunicritical(d, k, m), F_k,
                   orbit_product(shifted, step, m), math.gcd(d, k))


@pytest.mark.parametrize("kind,d", [
    ("unicritical", 2), ("unicritical", 3), ("unicritical", 4),
    ("shifted", 1), ("shifted", 2), ("shifted", 3), ("shifted", 4),
    ("quadcrit", 1), ("quadcrit", 2),
    ("linearterm", 2), ("linearterm", 4),
])
def test_strided_resultants(kind, d, monkeypatch):
    for R, F, G, stride in _strided_cases(kind, d):
        # the reference is forced to (o, e, s) = (0, 1, 1): no z-quotient,
        # interpolation in c itself
        with monkeypatch.context() as patch:
            patch.setattr(resultants, "_symmetries", lambda *args: (0, 1, 1))
            plain = charpoly_interp(F, G, degc_bound=degc_cap(F, G))
        assert R == plain
        assert _exponent_gcd(plain) % stride == 0
        if F.degree + G.degree <= 12:
            assert R == charpoly_sylvester(F, G)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_aux_symmetries(d):
    # charpoly_interp reads off the inputs of aux_nonunicritical the
    # stride gcd(d, k), off H_k = P_k^d - 1 as a whole the stride d, and
    # off each cyclotomic factor Phi_e(P_k) that aux_shifted takes the
    # stride gcd(d, k e / rad e): s = 1 for d = 2 at odd k and 2 at
    # k = 2, s = 1 for d = 3 at k < 3, and s = 2, 2, 4 for d = 4, k = 2
    shifted = Family("shifted", d)
    deriv = shifted.map_poly.derivative()
    z = BiPoly.gen("z")
    for k, m in ((1, 1), (1, 2), (2, 2), (1, 3), (3, 3)):
        F_k = orbit_product(shifted, z, k) - 1
        bound = orbit_degc_bound(F_k, invariants._linear_factor(d), m)
        assert _symmetries(F_k, invariants._cleared_product(d, m), bound,
                           1) == (0, 1, math.gcd(d, k)), (d, k, m)
        G = multiplier_derivative(shifted, m)
        H_k = (F_k + 1) ** d - 1
        bound = orbit_degc_bound(H_k, deriv, m)
        assert _symmetries(H_k, G, bound, 1) == (0, 1, d), (d, k, m)
        for e in divisors(d):
            factor = BiPoly(cyclotomic(e).coeffs).compose(F_k + 1)
            bound = orbit_degc_bound(factor, deriv, m)
            rad = math.prod(factorize(e))
            assert _symmetries(factor, G, bound, 1) == (
                0, 1, math.gcd(d, k * e // rad)), (d, k, m, e)
