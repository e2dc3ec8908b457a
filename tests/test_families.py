import importlib
import inspect
import pkgutil
from types import SimpleNamespace

import pytest

import dynres
from dynres.cli import main
from dynres import resultants
from dynres.errors import BoundTooSmall, GuardrailExceeded
from dynres.families import (
    DEGREE_CAP,
    KINDS,
    Family,
    c_stride,
    check_degree,
    conjugacy_check,
    dynatomic,
    fixed_point_resultant,
    iterate,
    multiplier_derivative,
    multiplier_poly,
    multiplier_resultant,
    multiplier_scale,
    multiplier_via_product,
)
from dynres.numtheory import divisors, dynatomic_degree
from dynres.polycore import BiPoly
from dynres.resultants import (_symmetries, charpoly_interp,
                               charpoly_sylvester, orbit_degc_bound)

Z = BiPoly.gen("z")
C = BiPoly.cgen("z")
X = BiPoly.gen("x")
CX = BiPoly.cgen("x")


def test_family_validation():
    with pytest.raises(ValueError):
        Family("cubic", 2)
    with pytest.raises(ValueError):
        Family("unicritical", 1)
    with pytest.raises(ValueError):
        Family("linearterm", 0)
    assert Family("linearterm", 1).map_degree == 2
    assert Family("shifted", 3).map_degree == 4
    assert Family("quadcrit", 1).map_degree == 3
    assert Family("unicritical", 5).map_degree == 5


@pytest.mark.parametrize("d", [2.0, 3.5, True, "2"])
def test_family_degree_must_be_int(d):
    # 2.0 would hash equal to 2 in the iterate cache, 3.5 was labelled
    # d=3 and True acted as d = 1
    with pytest.raises(ValueError):
        Family("unicritical", d)
    with pytest.raises(ValueError):
        Family("linearterm", d)


def test_map_polys():
    assert Family("unicritical", 2).map_poly == Z * Z + C
    assert Family("linearterm", 2).map_poly == Z ** 3 + C * Z
    assert Family("shifted", 2).map_poly == (Z - C) * Z * Z + C
    assert Family("quadcrit", 3).map_poly == Z ** 5 + C * Z * Z


def test_iterate():
    fam = Family("unicritical", 2)
    assert iterate(fam, 0) == Z
    assert iterate(fam, 1) == fam.map_poly
    assert iterate(fam, 2) == fam.map_poly.compose(fam.map_poly)
    assert iterate(fam, 3) == iterate(fam, 2).compose(fam.map_poly)


def test_dynatomic_small():
    fam = Family("unicritical", 2)
    assert dynatomic(fam, 1) == Z * Z - Z + C
    assert dynatomic(fam, 2) == Z * Z + Z + C + 1
    for n in range(1, 7):
        phi = dynatomic(fam, n)
        assert phi.degree == dynatomic_degree(2, n)
        assert phi.is_monic


def test_dynatomic_product_identity():
    plans = (("unicritical", 2, (1, 2, 3, 4, 6)),
             ("linearterm", 1, (1, 2, 3, 4, 6)),
             ("quadcrit", 1, (1, 2, 3, 4)))
    for kind, d, ns in plans:
        fam = Family(kind, d)
        for n in ns:
            prod = BiPoly.const(1, "z")
            for k in divisors(n):
                prod = prod * dynatomic(fam, k)
            assert prod == iterate(fam, n) - Z


def test_dynatomic_poly_of_iterate():
    # Phi*_n of f^step is built from the iterates f^(step k)
    fam = Family("unicritical", 2)
    assert dynatomic(fam, 3) is dynatomic(fam, 3)
    assert dynatomic(fam, 1, 2) == iterate(fam, 2) - Z
    # f^2 - z over f - z: the period-2 points of f
    assert dynatomic(fam, 2, 1) == dynatomic(fam, 2)
    # period 2 of f^2 is period 4 of f, by the Moebius product
    assert (dynatomic(fam, 2, 2)
            == (iterate(fam, 4) - Z).exact_div(iterate(fam, 2) - Z))


def test_guardrail():
    fam = Family("unicritical", 2)
    assert dynatomic_degree(2, 7) > DEGREE_CAP
    with pytest.raises(GuardrailExceeded):
        check_degree(fam, 7)
    check_degree(fam, 6)
    # the library itself computes above the cap when asked
    assert dynatomic(fam, 7).degree == 126


def test_guardrail_refuses_before_building_the_map(capsys):
    # map_degree is a table: the refusal of a degree-10^9 family must not
    # build its map, which would not finish
    rc = main(["table", "--family", "unicritical", "--d", "1000000000",
               "--m", "1"])
    assert rc == 3
    assert "guardrail" in capsys.readouterr().err
    fam = Family("linearterm", 10 ** 9)
    with pytest.raises(GuardrailExceeded):
        check_degree(fam, 1)
    assert "map_poly" not in vars(fam)


def test_no_size_flag_in_library():
    # the guardrail is checked where outside input arrives, by the
    # command line and classify, so no library callable takes a flag
    found = []
    for info in pkgutil.iter_modules(dynres.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module("dynres." + info.name)
        objs = list(vars(mod).values())
        objs += [member for obj in objs if isinstance(obj, type)
                 for member in vars(obj).values()]
        for obj in objs:
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            if "allow_large" in params:
                found.append((info.name, obj))
    assert not found


def test_multiplier_poly_quadratic():
    fam = Family("unicritical", 2)
    # fixed points of z^2 + c have multiplier sum 2 and product 4c
    assert multiplier_poly(fam, 1).delta == X * X - 2 * X + 4 * CX
    assert multiplier_poly(fam, 2).delta == X - 4 * CX - 4
    d3 = multiplier_poly(fam, 3).delta
    assert d3.degree == 2
    assert d3.eval_main_int(1).coeffs == (49, 56, 128, 64)


def test_multiplier_poly_linearterm():
    fam = Family("linearterm", 1)
    # fixed points of z^2 + cz: 0 and 1 - c, multipliers c and 2 - c
    assert multiplier_poly(fam, 1).delta == (X - CX) * (X - 2 + CX)


def test_multiplier_scale():
    assert multiplier_scale(Family("unicritical", 3), 2) == 1
    assert multiplier_scale(Family("linearterm", 2), 1) == 2
    assert multiplier_scale(Family("shifted", 2), 1) == 4
    assert multiplier_scale(Family("quadcrit", 2), 1) == 1


def test_multiplier_derivative():
    for kind, d in (("unicritical", 2), ("shifted", 1), ("quadcrit", 2)):
        fam = Family(kind, d)
        for m in (1, 2, 3):
            assert multiplier_derivative(fam, m) == iterate(fam, m).derivative()


def test_multiplier_route_agreement():
    # linearterm d >= 2 takes delta_m from charpolys in w = z^d, and
    # multiplier_via_product from the full f^k - z
    for kind, d in (("unicritical", 2), ("linearterm", 1),
                    ("linearterm", 2), ("shifted", 2), ("quadcrit", 1)):
        fam = Family(kind, d)
        for m in (1, 2, 3):
            assert multiplier_poly(fam, m).delta == multiplier_via_product(fam, m)
    # larger cases, with Phi*_m of degree 12, 12, 24, 4 and 12
    for kind, d, m in (("unicritical", 2, 4), ("linearterm", 1, 4),
                       ("unicritical", 3, 3), ("linearterm", 3, 1),
                       ("linearterm", 3, 2)):
        fam = Family(kind, d)
        assert multiplier_poly(fam, m).delta == multiplier_via_product(fam, m)


# (kind, {d: largest m}) of the golden table rows
GOLDEN_RANGES = (("unicritical", {2: 3, 3: 3, 4: 2, 5: 2}),
                 ("linearterm", {2: 3, 3: 2, 4: 2, 5: 2}),
                 ("shifted", {2: 2, 3: 2, 4: 2}),
                 ("quadcrit", {2: 2, 3: 2, 4: 2}))


def _multiplier_bound(fam, m):
    """The node bound of delta_m, as multiplier_poly takes it."""
    return orbit_degc_bound(dynatomic(fam, m), fam.map_poly.derivative(), m, m)


def test_multiplier_degc_bound():
    for kind, ranges in GOLDEN_RANGES:
        for d, m_top in ranges.items():
            fam = Family(kind, d)
            for m in range(1, m_top + 1):
                bound = _multiplier_bound(fam, m)
                degc = multiplier_poly(fam, m).delta.deg_c
                if kind == "shifted":
                    assert bound >= degc, (kind, d, m)
                else:
                    assert bound == degc, (kind, d, m)
    # the values behind the node counts of delta_6 and delta_5
    assert _multiplier_bound(Family("unicritical", 2), 6) == 27
    assert _multiplier_bound(Family("linearterm", 1), 5) == 30
    # shifted d=4: deg_c delta_2 is 20; the single-slope bound was 80
    assert _multiplier_bound(Family("shifted", 4), 2) == 28


def test_orbit_bound_structure_pairs():
    # Res_z(f^k - z, x - (f^m)') with sigma = f and h = f', each with
    # f^k - z above degree 12, so the bound sets the interpolation nodes
    for kind, d, k, m, degc in (("linearterm", 2, 3, 3, 81),
                                ("unicritical", 2, 4, 2, 16),
                                ("quadcrit", 1, 3, 1, 26),
                                ("quadcrit", 2, 2, 2, 30)):
        fam = Family(kind, d)
        bound = orbit_degc_bound(iterate(fam, k) - Z,
                                 fam.map_poly.derivative(), m)
        res = fixed_point_resultant(fam, k, m)
        assert bound == res.deg_c == degc, (kind, d, k, m)


def test_multiplier_bound_one_short_raises():
    fam = Family("unicritical", 2)
    m = 4
    phi = dynatomic(fam, m)
    omega = multiplier_derivative(fam, m)
    bound = _multiplier_bound(fam, m)
    delta = charpoly_interp(phi, omega, degc_bound=bound, m=m)
    assert delta == multiplier_poly(fam, m).delta
    assert delta.deg_c == bound
    with pytest.raises(BoundTooSmall):
        charpoly_interp(phi, omega, degc_bound=bound - 1, m=m)


def _plain(monkeypatch, F, G, bound, m):
    """charpoly_interp with the symmetries forced to (o, e, s) =
    (0, 1, 1): no z-quotient, interpolation in c itself."""
    with monkeypatch.context() as patch:
        patch.setattr(resultants, "_symmetries", lambda *args: (0, 1, 1))
        return charpoly_interp(F, G, degc_bound=bound, m=m)


@pytest.mark.parametrize("kind, d, m_top", [
    ("unicritical", 3, 3), ("unicritical", 4, 3), ("shifted", 2, 3),
    ("shifted", 3, 2), ("quadcrit", 1, 3), ("quadcrit", 2, 3)])
def test_strided_multiplier_equals_unstrided(kind, d, m_top, monkeypatch):
    # delta_m is interpolated in c^s, s = c_stride(fam) > 1 here; the
    # same resultant interpolated in c must be the same polynomial
    fam = Family(kind, d)
    assert c_stride(fam) > 1
    for m in range(1, m_top + 1):
        delta = multiplier_poly(fam, m).delta
        plain = _plain(monkeypatch, dynatomic(fam, m),
                       multiplier_derivative(fam, m),
                       _multiplier_bound(fam, m), m)
        assert delta == plain, (kind, d, m)


def test_false_stride_raises(monkeypatch):
    # delta_1 of z^2 + cz has multipliers c and 2 - c; its c^1 term
    # shows that no stride 2 holds, and the check node says so
    fam = Family("linearterm", 1)
    phi, omega = dynatomic(fam, 1), multiplier_derivative(fam, 1)
    bound = _multiplier_bound(fam, 1)
    delta = X * X - 2 * X + 2 * CX - CX * CX
    assert charpoly_interp(phi, omega, degc_bound=bound) == delta
    assert multiplier_poly(fam, 1).delta == delta
    monkeypatch.setattr(resultants, "_symmetries", lambda *args: (0, 1, 2))
    with pytest.raises(BoundTooSmall):
        charpoly_interp(phi, omega, degc_bound=bound)


def test_symmetries_of_multiplier_resultants():
    # on (Phi*_m, (f^m)') the z-quotient is the rotation z -> zeta z,
    # zeta^d = 1, of linearterm z^(d+1) + cz, whose Phi*_1 keeps the root
    # z = 0 apart, and the c-stride is the one conjugation gives
    for kind in KINDS:
        for d in range(2 if kind == "unicritical" else 1, 5):
            fam = Family(kind, d)
            e = d if kind == "linearterm" else 1
            for m in (1, 2, 3):
                o = 1 if m == 1 and kind in ("linearterm", "quadcrit") else 0
                got = _symmetries(dynatomic(fam, m),
                                  multiplier_derivative(fam, m),
                                  _multiplier_bound(fam, m), m)
                assert got == (o, e, c_stride(fam)), (kind, d, m)
    # z^4 + c^2 z is the same map at c and -c, a symmetry that rotates
    # no z and that c_stride misses (test_c_stride_from_support); on
    # (f - z, f') it is read off: f - z = z (w + c^2 - 1) and
    # f' = 4w + c^2 in w = z^3, and the result lies in Z[x][c^2]
    F, G = Z ** 4 + (C * C - 1) * Z, 4 * Z ** 3 + C * C
    assert _symmetries(F, G, 8, 1) == (1, 3, 2)
    rho = X - 4 + 3 * CX * CX
    assert charpoly_interp(F, G, degc_bound=8) == (X - CX * CX) * rho ** 3
    assert charpoly_interp(F, G, degc_bound=8) == charpoly_sylvester(F, G)


def test_c_stride_from_support():
    # the conjugation table the derived stride replaced
    table = {"unicritical": lambda d: d - 1, "linearterm": lambda d: 1,
             "shifted": lambda d: d, "quadcrit": lambda d: d + 1}
    for kind, stride in table.items():
        for d in range(2 if kind == "unicritical" else 1, 9):
            assert c_stride(Family(kind, d)) == stride(d), (kind, d)
    # c_stride reads only fam.map_poly, so maps outside the four kinds go
    # through the same rule, uncached.  z^3 + cz^2 + c: z -> -z sends c
    # to -c.
    rule = c_stride.__wrapped__
    assert rule(SimpleNamespace(map_poly=Z ** 3 + C * Z * Z + C)) == 2
    # z^4 + c^2 z is the same map at c and -c, so its multipliers lie in
    # Z[c^2]; that symmetry rotates no z, and the rule, sound but not
    # always largest, gives 1
    assert rule(SimpleNamespace(map_poly=Z ** 4 + C * C * Z)) == 1


@pytest.mark.parametrize("d, m_top", [(2, 3), (3, 3), (4, 2), (5, 2)])
def test_z_quotient_multiplier_equals_full(d, m_top, monkeypatch):
    # delta_m of z^(d+1) + cz from the charpolys in w = z^d equals the one
    # from the full Phi*_m; m = 1 has the root z = 0, and gcd(m, d) is 1
    # for some rows and m or d for others
    fam = Family("linearterm", d)
    for m in range(1, m_top + 1):
        delta = multiplier_poly(fam, m).delta
        full = _plain(monkeypatch, dynatomic(fam, m),
                      multiplier_derivative(fam, m),
                      _multiplier_bound(fam, m), m)
        assert delta == full, (d, m)


def test_conjugacy():
    for d in (1, 2, 3, 4):
        assert conjugacy_check(d).passed
