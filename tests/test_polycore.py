import random
from fractions import Fraction

import pytest

from dynres.errors import DivisionNotExact, NotPerfectPower
from dynres.families import Family, orbit_product
from dynres.invariants import lift_to_x
from dynres.polycore import (
    BiPoly,
    IntPoly,
    interpolate_intpolys,
    nth_root,
)


def test_intpoly_basics():
    p = IntPoly([1, 2, 1], "c")
    assert p.degree == 2
    assert p.lc == 1
    assert p.coeff(0) == 1 and p.coeff(5) == 0
    assert (p + p).coeffs == (2, 4, 2)
    assert (p - p).is_zero
    assert (2 * p).coeffs == (2, 4, 2)
    assert (p * IntPoly([-1, 1], "c")).coeffs == (-1, -1, 1, 1)
    assert (IntPoly.gen("c") ** 3).coeffs == (0, 0, 0, 1)
    # trailing zeros are stripped on construction
    assert IntPoly([1, 0, 0], "c").coeffs == (1,)
    assert IntPoly([], "c").is_zero
    assert IntPoly([], "c").degree is None


def test_intpoly_division():
    p = IntPoly([1, 2, 1], "c")
    assert p.exact_div(IntPoly([1, 1], "c")).coeffs == (1, 1)
    with pytest.raises(DivisionNotExact):
        IntPoly([1, 0, 1], "c").exact_div(IntPoly([1, 1], "c"))
    assert IntPoly([2, 4], "c").exact_div(IntPoly.const(2, "c")).coeffs \
        == (1, 2)
    with pytest.raises(DivisionNotExact):
        IntPoly([1, 2], "c").exact_div(IntPoly.const(2, "c"))
    # a divisor of higher degree leaves a nonzero remainder
    with pytest.raises(DivisionNotExact):
        IntPoly([1, 1], "c").exact_div(IntPoly([1, 0, 1], "c"))
    # divisors with interior zero coefficients, monic and not
    q = IntPoly([3, -1, 0, 2], "c")
    for b in (IntPoly([1, 0, 0, 1], "c"), IntPoly([-2, 0, 5, 0, 3], "c")):
        assert (q * b).exact_div(b) == q
        with pytest.raises(DivisionNotExact):
            (q * b + 1).exact_div(b)


def test_intpoly_refuses_non_int_coefficients():
    for bad in (Fraction(1, 2), 1.5, 2.9, Fraction(2, 1), True, "1"):
        with pytest.raises(ValueError):
            IntPoly([1, bad], "c")
        with pytest.raises(ValueError):
            IntPoly([bad])
        with pytest.raises(ValueError):
            BiPoly([1, bad], "z", "c")
        with pytest.raises(ValueError):
            BiPoly([IntPoly([1], "c"), bad])
    # nothing is truncated on the way in
    with pytest.raises(ValueError):
        IntPoly([Fraction(1, 2), 1.5, 2.9], "c")


# BiPoly arithmetic against a reference on {(z-exponent, c-exponent):
# coefficient} dicts with no zero values


def _ref(P):
    return {(i, j): b for i, a in enumerate(P.coeffs)
            for j, b in enumerate(a.coeffs) if b}


def _from_ref(terms):
    width = max((i for i, _ in terms), default=-1) + 1
    cols = [[0] * (max((j for i, j in terms), default=0) + 1)
            for _ in range(width)]
    for (i, j), b in terms.items():
        cols[i][j] = b
    return BiPoly([IntPoly(col, "c") for col in cols], "z", "c")


def _ref_add(*ps):
    out = {}
    for p in ps:
        for k, b in p.items():
            out[k] = out.get(k, 0) + b
    return {k: b for k, b in out.items() if b}


def _ref_neg(p):
    return {k: -b for k, b in p.items()}


def _ref_mul(p, q):
    return _ref_add(*({(i + k, j + l): a * b} for (i, j), a in p.items()
                      for (k, l), b in q.items()))


def _ref_pow(p, n):
    out = {(0, 0): 1}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _ref_compose(p, q):
    return _ref_add(*(_ref_mul({(0, j): a}, _ref_pow(q, i))
                      for (i, j), a in p.items()))


def _random_ref(rng, deg_main, deg_c=3):
    return _ref_add({(i, j): rng.randint(-4, 4) for i in range(deg_main + 1)
                     for j in range(rng.randint(0, deg_c))})


def _assert_built(P, expected, operands):
    """P is stripped, its coefficients stripped IntPolys of ints, it
    equals the reference, and the operands are as they were."""
    assert not P.coeffs or P.coeffs[-1]
    for a in P.coeffs:
        assert type(a) is IntPoly
        assert all(type(b) is int for b in a.coeffs)
        assert not a.coeffs or a.coeffs[-1]
    assert _ref(P) == expected
    for X, before in operands:
        assert _ref(X) == before and X == _from_ref(before)


def test_bipoly_arithmetic_against_reference():
    rng = random.Random(20261019)
    for _ in range(150):
        p = _random_ref(rng, rng.randint(0, 5))
        q = _random_ref(rng, rng.randint(0, 5))
        low = _random_ref(rng, rng.randint(0, 2))
        # q2 = low - p, so p + q2 cancels every term of p
        q2 = _ref_add(low, _ref_neg(p))
        P, Q, Q2, L = (_from_ref(t) for t in (p, q, q2, low))
        ops = [(P, p), (Q, q), (Q2, q2), (L, low)]
        for X, x, Y, y in ((P, p, Q, q), (Q, q, P, p), (P, p, L, low),
                           (L, low, P, p), (P, p, Q2, q2), (Q2, q2, P, p)):
            _assert_built(X + Y, _ref_add(x, y), ops)
            _assert_built(X - Y, _ref_add(x, _ref_neg(y)), ops)
        _assert_built(P + Q2, low, ops)
        # P - (P + L): top terms of equal length cancel
        _assert_built(P - (P + L), _ref_neg(low), ops)
        _assert_built(P - P, {}, ops)
        _assert_built(-P, _ref_neg(p), ops)
        _assert_built(P * Q, _ref_mul(p, q), ops)
        n = rng.randint(0, 3)
        _assert_built(P ** n, _ref_pow(p, n), ops)
        _assert_built(P.derivative(),
                      {(i - 1, j): i * b for (i, j), b in p.items() if i},
                      ops)
        _assert_built(P.compose(Q), _ref_compose(p, q), ops)
        if Q:
            _assert_built((P * Q).exact_div(Q), p, ops)
        # a monic divisor M and a remainder below its degree
        k = rng.randint(1, 3)
        m = _ref_add(_random_ref(rng, k - 1), {(k, 0): 1})
        r = {(i, j): b for (i, j), b in low.items() if i < k}
        M, R = _from_ref(m), _from_ref(r)
        ops += [(M, m), (R, r)]
        _assert_built((P * M + R).rem_monic(M), r, ops)
        _assert_built((P * M).exact_div(M), p, ops)


def test_intpoly_pseudo_remainder():
    rng = random.Random(20261018)
    for _ in range(200):
        a = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        b = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
                    + [rng.choice((-3, -2, -1, 1, 2, 3))])
        r = a.prem(b)
        assert r.is_zero or r.degree < b.degree
        k = max(len(a.coeffs) - len(b.coeffs) + 1, 0)
        # |lc b|^k a - r is an exact multiple of b
        (a * abs(b.lc) ** k - r).exact_div(b)
    assert IntPoly([-6, 0, 4], "c").primitive().coeffs == (-3, 0, 2)
    assert IntPoly([], "c").primitive().is_zero


def test_intpoly_shift_derivative():
    p = IntPoly([3, 0, 5], "c")
    assert p.derivative().coeffs == (0, 10)


def test_bipoly_algebra():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    f = z * z + c
    assert f.degree == 2
    assert f.deg_c == 1
    assert f.is_monic
    assert f.coeff(0).coeffs == (0, 1)
    assert f.coeff(2).coeffs == (1,)
    g = f * f - f
    assert g.degree == 4
    assert (f ** 3).degree == 6
    assert (f - f).is_zero
    assert (f - f).degree is None


def test_bipoly_compose_and_eval():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    f = z * z + c
    ff = f.compose(f)
    assert ff == z ** 4 + 2 * c * z ** 2 + c * c + c
    assert f.eval_main_int(1).coeffs == (1, 1)
    assert f.specialize_c_int(2) == IntPoly([2, 0, 1], "z")


def test_eval_at_bipoly():
    # an integer polynomial, lifted, composed with a BiPoly argument
    p = IntPoly([1, 0, 1], "x")  # 1 + x^2
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    assert lift_to_x(p).compose(z + c) == (z + c) * (z + c) + 1


def test_cleared_eval():
    rng = random.Random(5)
    for _ in range(40):
        size = rng.randint(0, 6)
        p = IntPoly([rng.randint(-9, 9) for _ in range(size)], "x")
        num, den = rng.randint(-20, 20), rng.randint(1, 7)
        t = Fraction(num, den)
        for n in (len(p.coeffs) - 1, len(p.coeffs) + 2):
            if n < 0:
                continue
            exact = sum(Fraction(a) * t ** i for i, a in enumerate(p.coeffs))
            value = p.cleared_eval(num, den, n)
            assert isinstance(value, int)
            assert value == exact * den ** n
            # den > 0, so the sign is the sign of p(num/den)
            assert (value > 0) == (exact > 0) and (value < 0) == (exact < 0)
    with pytest.raises(ValueError):
        IntPoly([1, 2, 3], "x").cleared_eval(1, 2, 1)
    # F_k of (z - c) z^d + c at dc/(d+1), against the term-by-term sum
    for d in (1, 2):
        for k in (1, 2):
            P = orbit_product(Family("shifted", d), BiPoly.gen("z"), k) - 1
            num, den, n = IntPoly((0, d), "c"), d + 1, P.degree
            value = P.cleared_eval(num, den, n)
            assert value == sum((a * num ** i * den ** (n - i)
                                 for i, a in enumerate(P.coeffs)),
                                IntPoly((), "c"))
            assert isinstance(value, IntPoly) and value.var == "c"


def test_bipoly_rem_monic():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    f = z * z + c
    r = f.rem_monic(z - 1)
    assert r == c + 1
    # reduction by a non-monic divisor is refused
    with pytest.raises(ValueError):
        f.rem_monic(2 * z - 1)


def test_bipoly_exact_div():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    num = (z - c) * (z * z + 3)
    assert num.exact_div(z - c) == z * z + 3
    with pytest.raises(DivisionNotExact):
        (num + 1).exact_div(z - c)
    # divisors with interior zero coefficients, monic and not
    q = z * z * c - 2 * z + 1
    for b in (z ** 3 - c, c * z ** 3 + 2 * z - 1):
        assert (q * b).exact_div(b) == q
        with pytest.raises(DivisionNotExact):
            (q * b + z).exact_div(b)


def test_bipoly_scale_c():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    f = z + c
    assert f.scale_c(IntPoly.const(3, "c")) == 3 * z + 3 * c
    assert f.scale_c(IntPoly([0, 1], "c")) == c * z + c * c


def test_nth_root_exact():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    r = z ** 3 + c * z - 7 * c
    for n in (2, 3, 5):
        assert nth_root(r ** n, n) == r
    assert nth_root(r, 1) == r


def test_nth_root_failures():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    r = z * z + c
    with pytest.raises(NotPerfectPower):
        nth_root(r * r + 1, 2)
    with pytest.raises(NotPerfectPower):
        nth_root(r, 2)  # odd degree
    with pytest.raises(ValueError):
        nth_root(2 * r, 1 - 2)
    with pytest.raises(ValueError):
        nth_root(2 * (r ** 2), 2)  # not monic


def test_interpolate_int():
    # width 1: integer values, read back as the x^0 coefficient
    def interpolate(values):
        points = [IntPoly.const(v, "c") for v in values]
        return interpolate_intpolys(range(len(points)), points, "x",
                                    "c").coeff(0)

    # values of 3c^2 - c + 5 at 0..4
    vals = [3 * t * t - t + 5 for t in range(5)]
    assert interpolate(vals).coeffs == (5, -1, 3)
    assert interpolate([7]).coeffs == (7,)
    with pytest.raises(DivisionNotExact):
        # no integer polynomial passes through these
        interpolate([0, 1, 0, 0, 0, 0, 1])


def test_interpolate_intpolys():
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    f = z * z * 3 + (c * c - 1) * z + 5 * c
    nodes = range(f.deg_c + 1)
    vals = [f.specialize_c_int(t) for t in nodes]
    assert interpolate_intpolys(nodes, vals, "z", "c") == f


@pytest.mark.parametrize("stride", [2, 3])
def test_interpolate_intpolys_stride(stride):
    # f in Z[x][c^s]: the nodes c = 0..n are the points 0, 1, 2^s, ...
    # in C = c^s, and n + 1 of them determine a C-degree n
    x = BiPoly.gen("x")
    C = BiPoly.cgen("x") ** stride
    f = x ** 3 - 7 * C * x + 3 * C ** 2 - 2 * C ** 3 + 5
    vals = [f.specialize_c_int(t) for t in range(4)]
    assert interpolate_intpolys(range(4), vals, "x", "c", stride) == f
    # the same values read at stride 1 give a different, lower-degree
    # polynomial: the stride is a claim the values cannot check
    assert interpolate_intpolys(range(4), vals, "x", "c").deg_c == 3
    with pytest.raises(DivisionNotExact):
        # no polynomial in Z[c^s] takes these values at c = 0, 1, 2
        interpolate_intpolys(range(3),
                             [IntPoly.const(v, "x") for v in (0, 1, 0)],
                             "x", "c", stride)
    with pytest.raises(ValueError):
        interpolate_intpolys(range(4), vals, "x", "c", 0)


@pytest.mark.parametrize("stride", [1, 3])
def test_interpolate_intpolys_balanced_nodes(stride):
    # odd stride: the nodes -2..2 give the distinct points c0^s, so
    # negative nodes determine a C-degree 4 as well as 0..4 do
    x = BiPoly.gen("x")
    C = BiPoly.cgen("x") ** stride
    f = x ** 2 - (C ** 4 - 5 * C + 1) * x + 3 * C ** 3 - 11
    nodes = [-2, -1, 0, 1, 2]
    vals = [f.specialize_c_int(t) for t in nodes]
    assert interpolate_intpolys(nodes, vals, "x", "c", stride) == f
    assert interpolate_intpolys(nodes[::-1], vals[::-1], "x", "c",
                                stride) == f
    # one value short, the interpolant of the rest misses the last node
    lower = interpolate_intpolys(nodes[:-1], vals[:-1], "x", "c", stride)
    assert lower.specialize_c_int(2) != vals[-1]


def test_interpolate_intpolys_refuses_bad_nodes():
    vals = [IntPoly.const(v, "x") for v in (1, 2, 5)]
    with pytest.raises(ValueError):
        # at even stride, -1 and 1 are one point in C = c^2
        interpolate_intpolys([-1, 0, 1], vals, "x", "c", 2)
    with pytest.raises(ValueError):
        interpolate_intpolys([0, 1], vals, "x", "c")
