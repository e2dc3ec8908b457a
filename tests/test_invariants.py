import dataclasses
import math

import pytest

from dynres import invariants
from dynres.errors import NotInSubring
from dynres.families import (Family, c_stride, fixed_point_resultant,
                             iterate, multiplier_derivative, multiplier_poly)
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
    shifted_structure_checks,
    unicritical_delta_lt_check,
    unicritical_res_lt_check,
)
from dynres.numtheory import divisors
from dynres.polycore import BiPoly, IntPoly
from dynres.resultants import charpoly_interp, charpoly_sylvester, degc_cap

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


def test_aux_cached_and_frozen():
    aux = aux_shifted(2, 2, 2)
    assert aux_shifted(2, 2, 2) is aux
    assert aux_nonunicritical(2, 2, 2) is aux_nonunicritical(2, 2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        aux.R = aux.G


def test_fixed_point_resultant_cached():
    fam = Family("shifted", 2)
    res = fixed_point_resultant(fam, 2, 2)
    assert fixed_point_resultant(Family("shifted", 2), 2, 2) is res


def test_aux_requires_divisor_pairs():
    with pytest.raises(ValueError):
        aux_nonunicritical(2, 3, 2)
    with pytest.raises(ValueError):
        aux_shifted(1, 2, 3)


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
                            dataclasses.replace(real, R=real.R * scalar))
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
                        dataclasses.replace(real, R=-real.R))
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
    for kind in ("linearterm", "shifted"):
        for d, m in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
            assert delta_aux_product_check(kind, d, m).passed


def test_aux_integrality_and_leading():
    for kind in ("linearterm", "shifted"):
        for d, k, m in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2)):
            assert aux_integrality_check(kind, d, k, m).passed
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
    z = BiPoly.gen("z")
    for k, m in ((1, 1), (1, 2), (2, 2)):
        yield (fixed_point_resultant(fam, k, m), iterate(fam, k) - z,
               multiplier_derivative(fam, m), c_stride(fam))
        if kind == "shifted":
            aux = aux_shifted(d, k, m)
            yield aux.R, aux.H_k, aux.G, d
        if kind == "linearterm":
            aux = aux_nonunicritical(d, k, m)
            yield aux.R, aux.F_k, aux.cleared, math.gcd(d, k)


@pytest.mark.parametrize("kind,d", [
    ("unicritical", 2), ("unicritical", 3), ("unicritical", 4),
    ("shifted", 1), ("shifted", 2), ("shifted", 3),
    ("quadcrit", 1), ("quadcrit", 2),
    ("linearterm", 2), ("linearterm", 4),
])
def test_strided_resultants(kind, d):
    for R, F, G, stride in _strided_cases(kind, d):
        plain = charpoly_interp(F, G, degc_bound=degc_cap(F, G))
        assert R == plain
        assert _exponent_gcd(plain) % stride == 0
        if F.degree + G.degree <= 12:
            assert R == charpoly_sylvester(F, G)
