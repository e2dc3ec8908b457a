import pytest

from dynres import resultants
from dynres.errors import (BoundTooSmall, DivisionNotExact, NotPerfectPower,
                           ZeroPolynomial)
from dynres.polycore import BiPoly, IntPoly
from dynres.resultants import (
    _node_plan,
    _symmetries,
    bareiss_det,
    charpoly_int,
    charpoly_interp,
    charpoly_sylvester,
    orbit_degc_bound,
    resultant,
    resultant_sylvester,
)


def degc_cap(F: BiPoly, G: BiPoly) -> int:
    """Safe c-degree bound for Res(F, G) straight from the Sylvester
    shape: the node bound of the tests, whose F and G carry no orbit
    structure for resultants.orbit_degc_bound to read."""
    return ((F.deg_c or 0) * max(G.degree or 0, 1)
            + (G.deg_c or 0) * max(F.degree or 0, 1))


def const(*coeffs):
    """A polynomial in z with constant integer coefficients."""
    return BiPoly([IntPoly.const(a, "c") for a in coeffs], "z")


def test_det_int():
    # integer matrices, as constant polynomials in c
    def k(a):
        return IntPoly.const(a, "c")

    def det(rows):
        return bareiss_det([[k(a) for a in row] for row in rows], k(0), k(1))

    assert det([[1, 2], [3, 4]]) == k(-2)
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == k(1)
    assert det([[2, 0, 1], [1, 3, -1], [0, 5, 4]]) == k(39)
    # a singular matrix
    assert det([[1, 2], [2, 4]]).is_zero


def test_det_intpoly():
    c = IntPoly.gen("c")
    one = IntPoly.const(1, "c")
    assert bareiss_det([[c, one], [one, c]], IntPoly((), "c"), one) \
        == c * c - 1


def test_resultant_sylvester_orientation():
    # Res(z - a, z - b) = a - b: the second argument is evaluated at
    # the roots of the first
    def res(fc, gc):
        return resultant_sylvester(const(*fc), const(*gc)).coeffs

    assert res([-5, 1], [-3, 1]) == (2,)
    assert res([-3, 1], [-5, 1]) == (-2,)
    assert res([-7, 0, 0, 1], [7]) == (343,)
    assert res([3], [5]) == (1,)


def test_resultant_sylvester_multiplicative():
    # Res(FG, H) = Res(F, H) Res(G, H)
    F = const(-1, 1)        # z - 1
    G = const(2, 3, 1)      # (z + 1)(z + 2)
    H = const(1, 1, 1)
    FG = const(-2, -1, 2, 1)
    assert F * G == FG
    assert (resultant_sylvester(FG, H)
            == resultant_sylvester(F, H) * resultant_sylvester(G, H))


def test_charpoly_int():
    # roots of z^2 - 2 are +-sqrt(2); squaring them gives (x - 2)^2
    assert charpoly_int([-2, 0, 1], [0, 0, 1]).coeffs == (4, -4, 1)
    assert charpoly_int([-2, 0, 1], [0, 1]).coeffs == (-2, 0, 1)
    with pytest.raises(ValueError):
        charpoly_int([-2, 0, 2], [0, 1])


def test_charpoly_int_root_index():
    # squares of the roots +-sqrt(2) are 2, twice: (x - 2)^2
    root = charpoly_int([-2, 0, 1], [0, 0, 1], 2)
    assert root.coeffs == (-2, 1)
    assert (root ** 2).coeffs == charpoly_int([-2, 0, 1], [0, 0, 1]).coeffs
    # Phi*_2 of z^2 + c at c = 1 is z^2 + z + 2; its one 2-cycle has
    # multiplier 4c + 4 = 8 under (f^2)' = 4z^3 + 4cz
    fc, gc = [2, 1, 1], [0, 4, 0, 4]
    root = charpoly_int(fc, gc, 2)
    assert root.coeffs == (-8, 1)
    assert (root ** 2).coeffs == charpoly_int(fc, gc).coeffs


def test_charpoly_int_root_index_not_exact():
    # roots of z^2 - z - 1 sum to 1, so the first trace is odd
    with pytest.raises(DivisionNotExact):
        charpoly_int([-1, -1, 1], [0, 1], 2)
    # degree 3 has no square root
    with pytest.raises(NotPerfectPower):
        charpoly_int([-1, 0, 0, 1], [0, 1], 2)


def test_charpoly_int_not_exact_in_giant_step():
    # F = (z^k - 1) z^(m deg - k): the traces of z^j over its roots are k
    # when k divides j and 0 otherwise.  G = z^(k+1) + (z + 2) F is
    # z^(k+1) modulo F, and k + 1 is prime to k, so the trace of G^j is
    # k when k divides j: the k-th trace, k > isqrt(deg), is the first
    # one that m does not divide, and a giant step reads it
    z = IntPoly.gen("z")
    for m, deg, k in ((2, 4, 3), (3, 4, 4), (2, 9, 5), (2, 9, 7),
                      (3, 16, 14)):
        F = z ** (m * deg) - z ** (m * deg - k)
        G = z ** (k + 1) + (z + 2) * F
        with pytest.raises(DivisionNotExact, match="trace not divisible"):
            charpoly_int(list(F.coeffs), list(G.coeffs), m)


def sylvester_at_node(fc, gc):
    """The oracle Res_z(F, x - G) for integer coefficient lists."""
    return charpoly_sylvester(const(*fc), const(*gc)).specialize_c_int(0)


def test_charpoly_int_sparse_modulus():
    # z^n + a: the columns z^j g mod F mostly shift out a zero top
    # coefficient, and a = 0 leaves a nilpotent z
    for n in (1, 2, 3, 5, 8):
        for a in (0, 3, -7):
            fc = [a] + [0] * (n - 1) + [1]
            for gc in ([0, 1], [2, 0, -1], [1, 0, 0, 5], [0] * n + [4]):
                assert charpoly_int(fc, gc) == sylvester_at_node(fc, gc)
    # z^4 + 2 has roots whose squares are the roots of x^2 + 2, twice
    assert charpoly_int([2, 0, 0, 0, 1], [0, 0, 1], 2).coeffs == (2, 0, 1)


def test_charpoly_int_degenerate_inputs():
    x = IntPoly.gen("x")
    fc = [3, -1, 0, 2, 1]
    # G = 0 and G = F (z + 5), both zero modulo F: every value is 0
    assert charpoly_int(fc, []) == x ** 4
    assert charpoly_int(fc, [15, -2, -1, 10, 7, 1]) == x ** 4
    assert charpoly_int(fc, [0, 0], 2) == x ** 2
    # deg G >= 2 deg F: only G mod F matters
    gc = [1, -2, 0, 4, 0, 0, 1, -3, 2, 1, 5]
    assert charpoly_int(fc, gc) == sylvester_at_node(fc, gc)
    # n = 1: the one value is G(-a)
    for a in (-4, 0, 9):
        assert charpoly_int([a, 1], [1, 0, 3, -1]) == (
            x - (1 + 3 * a * a + a ** 3))
    # n = 0: the empty product
    assert charpoly_int([1], [0, 1]).coeffs == (1,)


def test_charpoly_routes_agree():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    F = z ** 4 + c * z ** 2 - z + 2 * c + 1
    G = 3 * z ** 2 + c * z - 5
    a = charpoly_sylvester(F, G)
    b = charpoly_interp(F, G, degc_bound=degc_cap(F, G))
    assert a == b
    assert a.is_monic
    assert a.degree == 4


def test_charpoly_known_value():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    x = BiPoly.gen("x")
    cx = BiPoly.cgen("x")
    # Res_z(z^2 + c, x - 2z) = x^2 + 4c
    F, G = z * z + c, 2 * z
    assert charpoly_interp(F, G, degc_bound=degc_cap(F, G)) == x * x + 4 * cx


def test_charpoly_nonmonic_sylvester():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    x = BiPoly.gen("x")
    cx = BiPoly.cgen("x")
    # Res_z(2z - c, x - z) = 2x - c, with the leading-coefficient power
    assert charpoly_sylvester(2 * z - c, z) == 2 * x - cx


def test_resultant_routes_agree():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    F = z ** 3 + (c * c) * z - 2 * c + 1
    G = z ** 2 - c * z + 3
    assert resultant_sylvester(F, G) == resultant(F, G)
    assert resultant_sylvester(G, F) == resultant(G, F)


def test_degc_cap():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    F = z * z + c
    G = z ** 3 + (c * c) * z
    assert degc_cap(F, G) == 1 * 3 + 2 * 2


def test_node_plan():
    # bound // s + 1 interpolation nodes with distinct c0^s, then the
    # check node; balanced around 0 exactly when s is odd
    assert _node_plan(6, 1) == [-3, -2, -1, 0, 1, 2, 3, 4]
    assert _node_plan(7, 3) == [-1, 0, 1, 2]
    assert _node_plan(7, 2) == [0, 1, 2, 3, 4]
    assert _node_plan(0, 5) == [0, 1]
    for bound in range(40):
        for s in range(1, 6):
            nodes = _node_plan(bound, s)
            assert len(nodes) == bound // s + 2
            assert len({c0 ** s for c0 in nodes}) == len(nodes)
            assert min(nodes) == (-((bound // s + 1) // 2) if s % 2 else 0)


def test_bound_too_small():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    x = BiPoly.gen("x")
    cx = BiPoly.cgen("x")
    # Res_z(z - c, x - (z - 1)) = x - c + 1 has c-degree 1
    with pytest.raises(BoundTooSmall):
        charpoly_interp(z - c, z - 1, degc_bound=0)
    with pytest.raises(BoundTooSmall):
        charpoly_interp(z - c, c * c, degc_bound=1)
    # the honest bound works
    assert charpoly_interp(z - c, z - 1, degc_bound=1) == x - cx + 1


def test_unjustified_stride_caught(monkeypatch):
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    x = BiPoly.gen("x")
    cx = BiPoly.cgen("x")
    # x - c^2 is in Z[x][c^2], read off z - c^2 and z, and stride 2
    # needs one node fewer
    assert _symmetries(z - c * c, z, 2, 1) == (0, 1, 2)
    assert charpoly_interp(z - c * c, z, degc_bound=2) == x - cx * cx
    # Res_z(z - c, x - z) = x - c is not in Z[x][c^2]: forced to stride 2
    # it is interpolated from the one node c = 0 and reads x, and the
    # check node c = 1 refuses it
    assert _symmetries(z - c, z, 1, 1) == (0, 1, 1)
    assert charpoly_interp(z - c, z, degc_bound=1) == x - cx
    monkeypatch.setattr(resultants, "_symmetries", lambda *args: (0, 1, 2))
    with pytest.raises(BoundTooSmall):
        charpoly_interp(z - c, z, degc_bound=1)


def test_zero_polynomial_refused():
    z = BiPoly.gen("z")
    zero = z - z
    with pytest.raises(ZeroPolynomial):
        resultant_sylvester(zero, z)
    with pytest.raises(ZeroPolynomial):
        resultant(z, zero)
    with pytest.raises(ZeroPolynomial):
        resultant(zero, z)


def test_specialization_commutes():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    F = z ** 3 - c * z + 1
    G = z ** 2 + 2 * c
    R = resultant(F, G)
    for c0 in (-3, -1, 0, 1, 2, 5):
        Fc = const(*[F.coeff(i)(c0) for i in range(4)])
        Gc = const(*[G.coeff(i)(c0) for i in range(3)])
        assert R(c0) == resultant_sylvester(Fc, Gc)(0)


def test_unproven_interpolant_regression():
    # F = z - prod_{j<18} (c - j) equals z at the nodes c = 0..17, where
    # the charpoly reads x and the resultant 0; an adaptive search that
    # stopped there returned those.  The Sylvester cap, 18, sees the rest.
    z = BiPoly.gen("z")
    w = IntPoly.const(1, "c")
    for j in range(18):
        w = w * IntPoly([-j, 1], "c")
    F = z - BiPoly((w,), "z")
    G = z
    want = resultant_sylvester(F, G)
    assert want.degree == 18
    assert resultant(F, G) == want
    x = charpoly_interp(F, G, degc_bound=degc_cap(F, G))
    assert x.degree == 1 and x.coeff(0) == -want and x.is_monic


def test_orbit_degc_bound_slopes():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    # roots 0 and +-sqrt(c) (slope 1/2); h = z + c is O(|c|) on all three
    F = z ** 3 - c * z
    h = z + c
    assert orbit_degc_bound(F, h, 1) == 3
    assert charpoly_interp(F, h, degc_bound=degc_cap(F, h)).deg_c == 3
    # sigma(z) = -z permutes the roots; G = h(z) h(-z) = z^4 for h = z^2,
    # which is O(|c|) on the nonzero roots and 0 at the root 0
    assert orbit_degc_bound(F, z * z, 2) == 4
    G = z ** 4
    assert charpoly_interp(F, G, degc_bound=degc_cap(F, G)).deg_c == 4
    with pytest.raises(ValueError):
        orbit_degc_bound(2 * F, h, 1)


def test_resultant_euclid_step():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    # odd times odd degree: the swapped order changes the sign
    F = z ** 13 + c
    G = z - c
    for a, b in ((F, G), (G, F)):
        assert resultant(a, b) == resultant_sylvester(a, b)
    assert resultant(F, G) == -resultant(G, F)
    # a non-monic side against a monic one, both orders
    H = 2 * z ** 3 + c * z - 1
    K = z ** 2 + c
    for a, b in ((H, K), (K, H)):
        assert resultant(a, b) == resultant_sylvester(a, b)


def test_resultant_zero_remainder():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    F = z * z + c
    for a, b in ((F, F * (z - 3)), (F * (z + c), F)):
        assert resultant(a, b).is_zero
        assert resultant_sylvester(a, b).is_zero
