"""Randomized identities, exact equality on every case."""
import functools
import math
import operator
import random

from dynres.invariants import _c_norm, _compose_rem, _power_identity
from dynres.polycore import BiPoly, IntPoly, _divmod, nth_root
from dynres.resultants import (
    _symmetries,
    charpoly_int,
    charpoly_interp,
    charpoly_sylvester,
    resultant,
    resultant_sylvester,
)
from test_resultants import degc_cap


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


def sparse_ints(rng, n, bound):
    """n ints in [-bound, bound], about a third of them zero, so that
    interior coefficients vanish too."""
    return [0 if rng.random() < 0.3 else rng.randint(-bound, bound)
            for _ in range(n)]


def fresh_copy(p):
    """p rebuilt from new coefficient tuples, so that p * fresh_copy(p)
    runs the general product, not the square."""
    if isinstance(p, IntPoly):
        return IntPoly(list(p.coeffs), "c")
    return BiPoly([fresh_copy(a) for a in p.coeffs], "x")


def test_square_equals_general_product():
    # A square forms each cross product once and doubles it; p ** n must
    # equal the left fold of *, and p * p the product with a copy.
    rng = random.Random(20240909)
    cases = [IntPoly((), "c"), IntPoly((7,), "c"), IntPoly((-3,), "c"),
             IntPoly((0, 0, -2), "c"), IntPoly((5, 0, 0, -1), "c"),
             BiPoly((), "x"), BiPoly.const(-4, "x"),
             BiPoly((IntPoly((0, -1), "c"), 0, IntPoly((2, 0, 3), "c")), "x")]
    for _ in range(40):
        cases.append(IntPoly(sparse_ints(rng, rng.randint(1, 9), 10 ** 6),
                             "c"))
        cases.append(BiPoly([IntPoly(sparse_ints(rng, rng.randint(0, 5), 9),
                                     "c")
                             for _ in range(rng.randint(1, 6))], "x"))
    for p in cases:
        one = p._coerce(1)
        assert p * p == p * fresh_copy(p) == fresh_copy(p) * p, p
        for n in range(6):
            assert p ** n == functools.reduce(operator.mul, [p] * n, one), \
                (p, n)


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


def symmetric_bipoly(rng, degree, e, o, s, step, base, monic=False):
    """z^o P(z^e) for a random P of the given degree in w = z^e, with
    P(0) != 0, whose every term c^i w^j has i = base - step j (mod s)."""
    cols = [IntPoly((), "c")] * o
    for j in range(degree + 1):
        i0 = (base - step * j) % s
        coeffs = [0] * (i0 + s * rng.randint(0, 1) + 1)
        for i in range(i0, len(coeffs), s):
            coeffs[i] = rng.randint(-5, 5)
        if j == 0 and not any(coeffs):
            coeffs[i0] = 1
        cols.append(IntPoly(coeffs, "c"))
        if j < degree:
            cols += [IntPoly((), "c")] * (e - 1)
    if monic:
        cols[-1] = IntPoly((1,), "c")
    return BiPoly(cols, "z", "c")


def test_charpoly_interp_symmetric_supports():
    # F = z^o F^(z^e) and G = G^(z^e) with F^(zeta^e' w, zeta c) =
    # zeta^(e' n) F^ and G^(zeta^e' w, zeta c) = G^, zeta^s = 1, e' = step:
    # both the z-quotient and the c-stride of charpoly_interp fire, and
    # its result must be the Sylvester oracle's
    rng = random.Random(20240908)
    fired = 0
    for _ in range(60):
        e, s, o = rng.choice((2, 3)), rng.choice((2, 3)), rng.randint(0, 2)
        step = rng.randrange(s)
        n = rng.randint(1, (12 - o) // e - 1)
        gdeg = rng.randint(0, (12 - o) // e - n)
        F = symmetric_bipoly(rng, n, e, o, s, step, step * n, monic=True)
        G = symmetric_bipoly(rng, gdeg, e, 0, s, step, 0)
        if G.is_zero:
            continue
        assert F.degree + G.degree <= 12
        bound = degc_cap(F, G)
        got = _symmetries(F, G, bound, 1)
        fired += got[1] > 1 and got[2] > 1
        assert charpoly_interp(F, G, degc_bound=bound) == \
            charpoly_sylvester(F, G), (F, G, got)
    assert fired >= 30


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


def _expanded_identity(A, m, B, q):
    """The (passed, residual) of A^m = B^q by expanding both powers."""
    lhs, rhs = A ** m, B ** q
    return lhs == rhs, None if lhs == rhs else str(lhs - rhs)


def test_power_identity_matches_expansion():
    # A = S^q', B = S^m' passes; the failing cases are B = A T with
    # T^q' != A, a B that A does not divide, and a constant term off by
    # one on either side, at every reduced shape m' = q' + 1, m' = q'
    # and neither
    rng = random.Random(20241020)
    shapes = [(2, 2), (3, 2), (3, 1), (1, 1), (2, 1), (4, 2), (4, 6),
              (6, 4), (5, 2)]
    for m, q in shapes:
        g = math.gcd(m, q)
        mr, qr = m // g, q // g
        for _ in range(4):
            S = random_bipoly(rng, rng.randint(1, 2), rng.randint(0, 2),
                              bound=5, monic=True)
            T = random_bipoly(rng, S.degree, rng.randint(0, 2), bound=5,
                              monic=True)
            A, B = S ** qr, S ** mr
            stray = random_bipoly(rng, B.degree, 2, bound=5, monic=True)
            assert T ** qr != A and not stray.rem_monic(A).is_zero
            cases = [(A, B, True), (A, A * T, False), (A, stray, False),
                     (A, B + 1, False), (A + 1, B, False)]
            for a, b, holds in cases:
                want = _expanded_identity(a, m, b, q)
                assert want[0] is holds, (m, q, a, b)
                residual = _power_identity(a, m, b, q)
                assert (residual is None, residual) == want, (m, q, a, b)


def test_power_identity_off_monic_expands():
    # not monic: A^2 = (-A)^2 while A != -A
    x = BiPoly.gen("x")
    A = -(x * x + BiPoly.cgen("x"))
    assert _power_identity(A, 2, -A, 2) is None
    assert _power_identity(A, 1, -A, 1) == str(A + A)


def _at_minus_c(R):
    return BiPoly([IntPoly([(-1) ** i * b for i, b in enumerate(a.coeffs)],
                           "c") for a in R.coeffs], R.main_var, "c")


def test_c_norm_is_product_with_conjugate():
    # R(c) R(-c) on x-coefficients in c with no terms, even powers only,
    # odd powers only and both
    rng = random.Random(20241021)
    for parity in (None, 0, 1, "mixed"):
        for _ in range(12):
            cols = []
            for _ in range(rng.randint(1, 5)):
                coeffs = sparse_ints(rng, rng.randint(1, 7), 50)
                if parity in (0, 1):
                    coeffs = [a if i % 2 == parity else 0
                              for i, a in enumerate(coeffs)]
                elif parity is None:
                    coeffs = [0]
                cols.append(IntPoly(coeffs, "c"))
            R = BiPoly(cols, "x")
            assert _c_norm(R) == R * _at_minus_c(R), (parity, R)


def test_compose_rem_equals_compose_then_rem():
    rng = random.Random(20241022)
    for _ in range(60):
        mod = random_bipoly(rng, rng.randint(1, 5), 2, monic=True)
        P = random_bipoly(rng, rng.randint(0, 7), 2)
        inner = random_bipoly(rng, rng.randint(0, 4), 2)
        assert _compose_rem(P, inner, mod) == \
            P.compose(inner).rem_monic(mod), (P, inner, mod)
