"""Randomized identities, exact equality on every case."""
import random

from dynres.polycore import BiPoly, IntPoly, _divmod, nth_root
from dynres.resultants import (
    charpoly_int,
    charpoly_interp,
    charpoly_sylvester,
    degc_cap,
    resultant,
    resultant_sylvester,
)


def random_intpoly(rng, degree, bound=9, var="c"):
    return IntPoly([rng.randint(-bound, bound) for _ in range(degree + 1)], var)


def random_bipoly(rng, deg_main, deg_c, bound=9, monic=False):
    cols = [random_intpoly(rng, rng.randint(0, deg_c), bound)
            for _ in range(deg_main + 1)]
    if monic:
        cols[-1] = IntPoly((1,), "c")
    elif cols[-1].is_zero:
        cols[-1] = IntPoly((1,), "c")
    return BiPoly(cols, "z", "c")


def test_nth_root_round_trip():
    rng = random.Random(20240901)
    for _ in range(200):
        n = rng.choice((2, 3))
        p = random_bipoly(rng, rng.randint(1, 4), rng.randint(0, 3), monic=True)
        assert nth_root(p ** n, n) == p


def test_resultant_route_agreement():
    # resultant takes its Euclid step on the monic side of each pair
    rng = random.Random(20240902)
    for _ in range(200):
        F = random_bipoly(rng, rng.randint(1, 4), rng.randint(0, 2), bound=5)
        G = random_bipoly(rng, rng.randint(1, 4), rng.randint(0, 2), bound=5,
                          monic=True)
        assert resultant(F, G) == resultant_sylvester(F, G)
        assert resultant(G, F) == resultant_sylvester(G, F)
    for _ in range(100):
        F = random_bipoly(rng, rng.randint(1, 4), rng.randint(0, 2), bound=5,
                          monic=True)
        G = random_bipoly(rng, rng.randint(0, 3), rng.randint(0, 2), bound=5)
        assert (charpoly_interp(F, G, degc_bound=degc_cap(F, G))
                == charpoly_sylvester(F, G))


def test_resultant_specialization_commutes():
    rng = random.Random(20240903)
    points = (-3, -1, 0, 1, 2, 5)
    for _ in range(200):
        F = random_bipoly(rng, rng.randint(1, 3), rng.randint(0, 2),
                          bound=5, monic=True)
        G = random_bipoly(rng, rng.randint(1, 3), rng.randint(0, 2),
                          bound=5, monic=True)
        res = resultant_sylvester(F, G)
        c0 = rng.choice(points)
        Fc, Gc = (BiPoly(P.specialize_c_int(c0).coeffs, "z") for P in (F, G))
        assert res(c0) == resultant_sylvester(Fc, Gc)(0)
        # the remainder kernel on Z[c] coefficients, then c -> c0, equals
        # the same kernel on the integer coefficients at c0
        A = G ** 3
        rem_int = _divmod(A.specialize_c_int(c0).coeffs,
                          F.specialize_c_int(c0).coeffs)[1]
        assert A.rem_monic(F).specialize_c_int(c0) == IntPoly(rem_int, "z")


def test_resultant_base_change():
    # Res_z(F o phi, G o phi) = Res_z(F, G) ** deg(phi) for monic F, G
    rng = random.Random(20240904)
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    for _ in range(200):
        d = rng.choice((2, 3))
        phi = z ** d + c
        F = random_bipoly(rng, rng.randint(1, 2), rng.randint(0, 1),
                          bound=4, monic=True)
        G = random_bipoly(rng, rng.randint(1, 2), rng.randint(0, 1),
                          bound=4, monic=True)
        lhs = resultant_sylvester(F.compose(phi), G.compose(phi))
        assert lhs == resultant_sylvester(F, G) ** d


def spread(coeffs, m):
    """P(z^m) from the ascending coefficients of P(z)."""
    out = [0] * (m * (len(coeffs) - 1) + 1) if coeffs else []
    for i, a in enumerate(coeffs):
        out[m * i] = a
    return out


def test_charpoly_int_root_index_of_powers():
    # The roots of H(z^m) are the m-th roots of those of H, so every
    # value P(z^m) occurs m times: the monic m-th root is charpoly(H, P)
    rng = random.Random(20240905)
    for _ in range(200):
        m = rng.choice((2, 3))
        h = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1]
        p = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        assert charpoly_int(spread(h, m), spread([0, 1], m), m) == IntPoly(h, "x")
        assert charpoly_int(spread(h, m), spread(p, m), m) == charpoly_int(h, p)


def test_charpoly_int_against_sylvester():
    rng = random.Random(20240906)
    for _ in range(60):
        F = random_bipoly(rng, rng.randint(1, 10), rng.randint(0, 2),
                          bound=5, monic=True)
        G = random_bipoly(rng, rng.randint(0, 4), rng.randint(0, 2), bound=5)
        oracle = charpoly_sylvester(F, G)
        for c0 in (-2, 0, 3):
            got = charpoly_int(list(F.specialize_c_int(c0).coeffs),
                               list(G.specialize_c_int(c0).coeffs))
            assert got == oracle.specialize_c_int(c0)


def test_charpoly_int_every_step_size():
    # F = prod (z - a_i) has the roots a_i, so charpoly_int(F, G) is
    # prod (x - G(a_i)).  deg = 1..30 lies on both sides of every square
    # r^2, so each baby-step count r = isqrt(deg) = 1..5 is run with
    # every number of giant steps it meets.  For m = 2, 3 the roots of
    # F = prod (z^m - b_i) are the m-th roots of the b_i, and G = P(z^m)
    # takes the value P(b_i) on the m of them: the m-th root is
    # prod (x - P(b_i)).
    rng = random.Random(20240907)
    x = IntPoly.gen("x")
    for m in (1, 2, 3):
        for deg in range(1, 31):
            roots = [rng.randint(-3, 3) for _ in range(deg)]
            p = [rng.randint(-3, 3) for _ in range(rng.randint(1, deg + 3))]
            P = IntPoly(p, "z")
            F = IntPoly((1,), "z")
            want = IntPoly((1,), "x")
            for b in roots:
                F = F * IntPoly([-b, 1], "z")
                want = want * (x - P(b))
            fc, gc = spread(list(F.coeffs), m), spread(p, m)
            assert charpoly_int(fc, gc, m) == want, (m, deg)
