"""Resultants in the main variable: one production route per object,
each with an independent oracle.

Res(F, x - G) for monic F, the shape of every multiplier resultant, is
``charpoly_interp``: specialize c at integer nodes, take the
characteristic polynomial of multiplication by G on the quotient ring
modulo F at each node, and reassemble by exact Newton interpolation.
Two symmetries, both read off the supports of F and G and proven in
its docstring, cut the work.  When F = z^o F^(z^e) and G = G^(z^e),
the charpolys are those of G^ modulo F^, of 1/e the size.  When
(w, c) -> (zeta^e' w, zeta c), zeta^s = 1, multiplies F^ by a power of
zeta and fixes G^, the result lies in Z[x][c^s]; the interpolation
runs in C = c^s, and about 1/s as many nodes are needed.  One node
plan serves every call: for odd s (s = 1 included) the nodes are
balanced around 0, ..., -1, 0, 1, ..., which keeps the specialized
coefficients small, and for even s, where c and -c give one C, they
are 0, 1, 2, ....  Per
node, ``charpoly_int`` builds the n columns of the matrix M of
multiplication by G on Z[z]/(F), n = deg F, each one z times the
previous one reduced modulo F.  The traces of G^k are read
by baby-step/giant-step power projection (Shoup, "Efficient computation
of minimal polynomials in algebraic extensions of finite fields", ISSAC
1999).  For d traces and r = isqrt(d), the baby steps form G^j mod F
for j <= r, one product with M each.  The giant steps run u <- M_h^T u
from the power sums of the roots of F, with M_h the matrix of
h = G^r mod F built the same way, so each step is n dot products.  The
trace of G^(ri + j) is the dot product of the i-th u with the j-th baby
vector.  That is about r + d / r products of a matrix with a vector
instead of d.  Newton's identities turn the traces into the
coefficients; no fractions appear, and every division is by a small
integer and checked.  When the resultant is known to be an m-th power, as
Res_z(Phi*_m, x - (f^m)') = delta_m^m is, the root index m returns the
m-th root directly: its power sums are the traces divided by m, and
only the first deg F / m of them are formed (Bostan, Flajolet, Salvy
and Schost, "Fast computation of special resultants", 2006).  The
number of nodes comes from a proven a-priori bound on the c-degree,
never from a search: orbit_degc_bound reads the growth of the roots
at c = oo off a Newton polygon, and families.multiplier_resultant takes
it from the very F it interpolates.  One extra node is always computed
and checked against the interpolated answer, and a mismatch raises
BoundTooSmall rather than returning a wrong polynomial.

Res(F, G) in general is ``resultant``: one Euclid step on a monic side,
Res(F, G) = Res(F, G rem F), then the Sylvester determinant, so a large
monic F against a small G stays a small determinant.

The oracles are the Sylvester matrices themselves, evaluated with
fraction-free Bareiss elimination over Z[c] (``resultant_sylvester``)
and over Z[c][x] (``charpoly_sylvester``).  They are slow but entirely
elementary, and the test suite checks the production routes against
them.
"""
from __future__ import annotations

import functools
from math import gcd, isqrt
from operator import mul

from .errors import (BoundTooSmall, DivisionNotExact, NotPerfectPower,
                     ZeroPolynomial)
from .polycore import (BiPoly, IntPoly, NewtonPolygon, _divmod,
                       interpolate_intpolys)


# ---------------------------------------------------------------------------
# fraction-free determinants


def bareiss_det(rows, zero, one):
    """Determinant of a square matrix of polynomials over an integral
    domain.

    ``rows`` is a list of lists and is consumed.  Division by the
    previous pivot is exact at every step (Bareiss); the entries'
    ``exact_div`` raises if that ever fails, which would indicate
    corrupted input.
    """
    n = len(rows)
    if n == 0:
        return one
    sign = 1
    prev = one
    for k in range(n - 1):
        if rows[k][k].is_zero:
            for i in range(k + 1, n):
                if not rows[i][k].is_zero:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = rows[k][k]
        for i in range(k + 1, n):
            head = rows[i][k]
            for j in range(k + 1, n):
                num = rows[i][j] * pivot - head * rows[k][j]
                rows[i][j] = num.exact_div(prev)
            rows[i][k] = zero
        prev = pivot
    det = rows[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det


# ---------------------------------------------------------------------------
# Sylvester matrices


def _sylvester_rows(fc, gc, zero):
    """Sylvester matrix rows from ascending coefficient lists."""
    n = len(fc) - 1
    m = len(gc) - 1
    size = n + m
    rows = []
    fdesc = list(reversed(fc))
    gdesc = list(reversed(gc))
    for i in range(m):
        rows.append([zero] * i + fdesc + [zero] * (m - 1 - i))
    for i in range(n):
        rows.append([zero] * i + gdesc + [zero] * (n - 1 - i))
    assert all(len(r) == size for r in rows)
    return rows


# ---------------------------------------------------------------------------
# power-sum characteristic polynomials


def _powersums_of_roots(fc: list[int]) -> list[int]:
    """Power sums t_0..t_{n-1} of the roots of a monic integer polynomial
    of degree n, by Newton's identities."""
    n = len(fc) - 1
    t = [n]
    for k in range(1, n):
        t.append(-k * fc[n - k] - sum(map(mul, fc[n - k + 1:n], t[1:k])))
    return t


def _multiplication_columns(gc: list[int], fc: list[int]) -> list[list[int]]:
    """The n columns z^j g mod F, j < n, of multiplication by
    g = G mod F on the basis 1, z, ..., z^(n-1) of Z[z]/(F), for monic F
    of degree n.

    Each column is z times the previous one: a shift up, and when the
    coefficient shifted out is nonzero, the subtraction of that multiple
    of F's low coefficients.
    """
    n = len(fc) - 1
    low = fc[:n]
    col = _divmod(gc, fc)[1]
    col += [0] * (n - len(col))
    cols = [col]
    for _ in range(n - 1):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [a - top * b for a, b in zip(col, low)]
        cols.append(col)
    return cols


def charpoly_int(fc: list[int], gc: list[int], m: int = 1) -> IntPoly:
    """The monic polynomial whose m-th power has roots G(alpha) over the
    roots alpha of F.

    F must be monic.  At m = 1 this equals Res_z(F, x - G) taken with
    the formal z-degree of G, which for monic F is independent of that
    degree.  For m > 1 the caller asserts that every value G(alpha)
    occurs a multiple of m times, as the multiplier does on the points
    of an exact m-cycle.

    With M the matrix of multiplication by G on Z[z]/(F) and t the power
    sums of the roots of F, the trace of G^k is t . (G^k mod F).  The
    traces come from baby-step/giant-step power projection (Shoup,
    ISSAC 1999), with deg = deg F / m and r = isqrt(deg).  The baby
    steps form v_j = G^j mod F = M^(j-1) (G mod F) for j = 1..r, by dot
    products with the rows of M.  The giant steps run
    u_(i+1) = M_h^T u_i from u_0 = t, with M_h the columns of
    h = v_r = G^r mod F, so each is n dot products.  The trace of
    G^(ri + j) is then u_i . v_j; at r = 1, M_h is M and this is the
    plain recurrence u <- M^T u.  Only the first deg traces are formed,
    and each must be divisible by m exactly; a remainder raises
    DivisionNotExact, and a degree not divisible by m raises
    NotPerfectPower.  Newton's identities then give the coefficients,
    each division checked.
    """
    if not fc or fc[-1] != 1:
        raise ValueError("charpoly_int needs a monic F")
    if m < 1:
        raise ValueError("root index must be positive")
    n = len(fc) - 1
    if n % m:
        raise NotPerfectPower("degree %d is not divisible by %d" % (n, m))
    deg = n // m
    if deg == 0:
        return IntPoly((1,), "x")
    cols = _multiplication_columns(gc, fc)
    rows = list(zip(*cols))
    r = isqrt(deg)
    baby = [cols[0]]
    for _ in range(r - 1):
        baby.append([sum(map(mul, row, baby[-1])) for row in rows])
    giant = _multiplication_columns(baby[-1], fc) if r > 1 else cols
    u = _powersums_of_roots(fc)
    traces = [sum(map(mul, u, v)) for v in baby]
    while len(traces) < deg:
        u = [sum(map(mul, u, col)) for col in giant]
        traces += [sum(map(mul, u, v)) for v in baby[:deg - len(traces)]]
    p = []
    for trace in traces:
        q, rem = divmod(trace, m)
        if rem:
            raise DivisionNotExact("trace not divisible by %d" % m)
        p.append(q)
    # Coefficient a_i of x^(deg - i): i a_i = -(p_1 a_{i-1} + ... + p_i a_0).
    a = [1]
    for i in range(1, deg + 1):
        q, rem = divmod(-sum(map(mul, a[::-1], p)), i)
        if rem:
            raise DivisionNotExact("Newton identity division failed")
        a.append(q)
    return IntPoly(a[::-1], "x")


# ---------------------------------------------------------------------------
# oracles: symbolic Sylvester determinants


def resultant_sylvester(F: BiPoly, G: BiPoly) -> IntPoly:
    """Oracle resultant in the main variable, entries in Z[c]."""
    if F.is_zero or G.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    cvar = F.cvar
    n, m = F.degree, G.degree
    if n == 0 and m == 0:
        return IntPoly.const(1, cvar)
    fc = [F.coeff(i) for i in range(n + 1)]
    gc = [G.coeff(i) for i in range(m + 1)]
    zero = IntPoly((), cvar)
    rows = _sylvester_rows(fc, gc, zero)
    return bareiss_det(rows, zero, IntPoly.const(1, cvar))


def charpoly_sylvester(F: BiPoly, G: BiPoly) -> BiPoly:
    """Oracle for Res(F, x - G): Sylvester entries live in Z[c][x].

    Uses the formal main-variable degree of G, padding with an
    lc(F)-power exactly as the specialization rule demands.
    """
    if F.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    cvar = F.cvar
    n = F.degree
    m = max(G.degree if not G.is_zero else 0, 1)
    zero = BiPoly((), "x", cvar)

    def lift(p: IntPoly) -> BiPoly:
        return BiPoly((p,), "x", cvar)

    fc = [lift(F.coeff(i)) for i in range(n + 1)]
    # x - G as a polynomial in the old main variable.
    hc = [-lift(G.coeff(i)) for i in range(m + 1)]
    hc[0] = hc[0] + BiPoly((0, 1), "x", cvar)
    rows = _sylvester_rows(fc, hc, zero)
    return bareiss_det(rows, zero, BiPoly.const(1, "x", cvar))


# ---------------------------------------------------------------------------
# Res(F, x - G) by evaluation and interpolation


def orbit_degc_bound(F: BiPoly, h: BiPoly, steps: int,
                     root_index: int = 1) -> int:
    """Proven bound on deg_c of the monic root_index-th root of
    Res_z(F, x - G), for F monic and G = prod over i < steps of
    h(sigma^i z), where sigma permutes the roots of F.

    A root alpha of F on a segment of slope t of F's Newton polygon is
    O(|c|^t) as c -> oo, so h(alpha) is O(|c|^v(t)) with
    v(t) = max over l of (deg_c h_l + t l); a root at 0 gives
    v = deg_c h_0.  G(alpha) is then O(|c|^e(alpha)), e(alpha) the sum
    of v over sigma^i(alpha) for i < steps, and every coefficient of
    prod (x - G(alpha)) is O(|c|^E), E the sum of max(0, e(alpha)).
    Because sigma permutes the roots, E <= steps S with S the sum over
    the roots of max(0, v).  Each value occurs root_index times in the
    product, so its monic root_index-th root has deg_c at most
    floor(steps S / root_index).
    """
    if not F.is_monic:
        raise ValueError("orbit bound needs F monic")
    polygon = NewtonPolygon.of(F)
    terms = [(a.degree, l) for l, a in enumerate(h.coeffs) if not a.is_zero]
    total = polygon.zero_order * (h.coeff(0).degree or 0)
    for t, length in polygon.slopes:
        total += length * max(0, max(e + t * l for e, l in terms))
    return steps * total // root_index


def _node_plan(degc_bound: int, stride: int) -> list[int]:
    """The integer nodes c0 of ``charpoly_interp``, the check node last.

    A C-degree of at most degc_bound // stride needs top = that + 1
    nodes with distinct C = c0^stride, and one more checks the result.
    For odd stride, c0 -> c0^stride is injective on the integers, so the
    nodes are balanced around 0, c0 in [-(top // 2), top - top // 2]:
    the largest |c0| is about top / 2 rather than top, and the
    specialized F and G, and so the per-node charpolys, have smaller
    coefficients.  For even stride, c0 and -c0 give one C, and the
    nodes are 0, 1, ..., top.
    """
    top = degc_bound // stride + 1
    low = -(top // 2) if stride % 2 else 0
    return list(range(low, low + top + 1))


def _symmetries(F: BiPoly, G: BiPoly, degc_bound: int,
                m: int) -> tuple[int, int, int]:
    """The (o, e, s) of ``charpoly_interp``, read off the supports of F
    and G.

    o is the z-order of F at m = 1 and 0 for m > 1, and e is the gcd of
    j - o over the z-exponents j of F and of j over those of G, or 1
    when that gcd is 0: F = z^o F^(z^e) and G = G^(z^e).  s is the
    largest s <= floor(degc_bound g / e) + 1, g = gcd(m, e), with an e'
    that gives i + e' j = e' deg F^ (mod s) on every term c^i w^j of F^
    and i + e' j = 0 (mod s) on every term of G^.  These congruences
    are linear in the vectors (i, j - deg F^) and (i, j), so they hold
    on every term when they hold on the basis (p, q), (0, r) of the
    lattice the vectors span, which Euclid's algorithm on the first
    coordinates finds.  Such an s divides every 2 x 2 minor of the
    vectors, and so their gcd p r unless that is 0.
    """
    fs, gs = F.support(), G.support()
    o = min(j for _, j in fs) if m == 1 else 0
    e = gcd(*(j - o for _, j in fs), *(j for _, j in gs)) or 1
    n = (F.degree - o) // e
    p = q = r = 0
    for x, y in ([(i, (j - o) // e - n) for i, j in fs]
                 + [(i, j // e) for i, j in gs]):
        while x:
            t = p // x
            p, q, x, y = x, y, p - t * x, q - t * y
        r = gcd(r, y)
    top = degc_bound * gcd(m, e) // e + 1
    s = next(s for s in range(top, 0, -1) if p * r % s == 0
             and any((p + a * q) % s == a * r % s == 0 for a in range(s)))
    return o, e, s


def charpoly_interp(F: BiPoly, G: BiPoly, degc_bound: int,
                    m: int = 1) -> BiPoly:
    """Res(F, x - G) for monic F via per-node integer charpolys.

    With m > 1 the result is instead the monic m-th root of that
    resultant, which the caller asserts exists, as it does for
    Res_z(Phi*_m, x - (f^m)') = delta_m^m.  The caller passes a proven
    bound, degc_bound, on the c-degree of the result.  Two symmetries
    cut the work, and both are read off the supports of F and G by
    ``_symmetries``; no caller proves them.

    The z-quotient.  F = z^o F^(z^e) and G = G^(z^e), with o = 0 for
    m > 1.  The roots of F are 0, o times, and for each root b of F^
    the e roots of z^e = b, at each of which G is G^(b).  So
    Res_z(F, x - G) = (x - G(0))^o R^e with R = Res_w(F^, x - G^).  Let
    g = gcd(m, e).  At m = 1, g = 1 and R is interpolated as it is.  For
    m > 1, o = 0 and the m-th root delta has delta^m = R^e.  In the UFD
    Z[c][x], an irreducible factor of multiplicity a in delta and b in R
    has m a = e b, so m / g divides b: R = rho^(m/g) for a monic rho,
    and delta = rho^(e/g), monic roots being unique.  So rho is
    interpolated, from the charpolys of G^ modulo F^ at root index
    m / g, and the result is (x - G(0))^o rho^(e/g).  Its c-degree is
    o deg_c G(0) + (e / g) deg_c rho, so rho has c-degree at most
    bound = floor(degc_bound g / e).

    The c-stride.  Let zeta be a primitive s-th root of unity, and e' an
    integer with i + e' j = e' deg F^ (mod s) on every term c^i w^j of
    F^ and i + e' j = 0 (mod s) on every term of G^.  Then
    F^(zeta^e' w, zeta c) = zeta^(e' deg F^) F^(w, c) and
    G^(zeta^e' w, zeta c) = G^(w, c): the roots of F^ at zeta c are
    zeta^e' times those at c, with the same values of G^.  So
    R(zeta c) = R(c), and rho(zeta c) = rho(c), monic roots being
    unique: rho lies in Z[x][c^s].  It is interpolated in C = c^s, for
    the largest such s up to bound + 1 (beyond it, every s needs the
    same one node).  The nodes are those of ``_node_plan``:
    bound // s + 1 integers c0 with distinct c0^s, balanced around 0
    for odd s and 0, 1, ... for even s, then one extra node that checks
    the bound and the stride; a mismatch raises BoundTooSmall.
    """
    if not F.is_monic:
        raise ValueError("interpolation charpoly needs F monic")
    o, e, s = _symmetries(F, G, degc_bound, m)
    g = gcd(m, e)
    Fw = BiPoly(F.coeffs[o::e], F.main_var, F.cvar)
    Gw = BiPoly(G.coeffs[::e], G.main_var, G.cvar)
    nodes = _node_plan(degc_bound * g // e, s)
    values = [charpoly_int(Fw.specialize_c_int(c0).coeffs,
                           Gw.specialize_c_int(c0).coeffs, m // g)
              for c0 in nodes]
    try:
        rho = interpolate_intpolys(nodes[:-1], values[:-1], "x", F.cvar, s)
    except DivisionNotExact as exc:
        raise BoundTooSmall(
            "degree bound %d failed verification" % degc_bound) from exc
    if rho.specialize_c_int(nodes[-1]) != values[-1]:
        raise BoundTooSmall("degree bound %d failed verification" % degc_bound)
    # (x - G(0))^o rho^(e/g), with no product by the constant 1 at o = 0
    lin = BiPoly((-G.coeff(0), 1), "x", F.cvar)
    return functools.reduce(BiPoly.__mul__, [lin] * o, rho ** (e // g))


# ---------------------------------------------------------------------------
# Res(F, G)


def resultant(F: BiPoly, G: BiPoly) -> IntPoly:
    """Resultant of F and G in their main variable, exact over Z[c].

    One Euclid step on a monic side comes first:
    Res(F, G) = Res(F, G rem F) for F monic, and
    Res(F, G) = (-1)^(deg F deg G) Res(G, F rem G) for G monic.  The
    Sylvester determinant of the remaining pair is the answer.
    """
    if F.is_zero or G.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    n, m = F.degree, G.degree
    sign = 1
    if F.is_monic and m >= n > 0:
        G = G.rem_monic(F)
    elif G.is_monic and n >= m > 0:
        F, G = G, F.rem_monic(G)
        sign = -1 if n * m % 2 else 1
    if G.is_zero:
        return IntPoly((), F.cvar)
    res = resultant_sylvester(F, G)
    return res if sign == 1 else -res
