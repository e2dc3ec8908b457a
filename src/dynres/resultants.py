"""Resultants in the main variable: one production route per object,
each with an independent oracle.

Res(F, x - G) for monic F, the shape of every multiplier resultant, is
``charpoly_interp``: specialize c at the integers 0, 1, 2, ..., take
the characteristic polynomial of multiplication by G on the quotient
ring modulo F at each node, and reassemble by exact Newton
interpolation.  When the caller proves that the result lies in
Z[x][c^s], by a symmetry c -> zeta c with zeta^s = 1, the interpolation
runs in C = c^s at the points 0, 1, 2^s, ..., and about 1/s as many
nodes are needed.  Per node, ``charpoly_int`` builds the n columns of
the matrix M of multiplication by G on Z[z]/(F), n = deg F, each one z
times the previous one reduced modulo F.  The traces of G^k are read
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
never from a search: the caller passes it, orbit_degc_bound, which
reads the growth of the roots at c = oo off a Newton polygon.  The
Sylvester-shape cap degc_cap is the bound of the oracle and test side,
where F and G carry no orbit structure.  One extra node is always
computed and checked against the interpolated answer, and a mismatch
raises BoundTooSmall rather than returning a wrong polynomial.

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

from math import isqrt
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


def degc_cap(F: BiPoly, G: BiPoly) -> int:
    """Safe c-degree bound for Res(F, G) straight from the Sylvester shape."""
    return ((F.deg_c or 0) * max(G.degree or 0, 1)
            + (G.deg_c or 0) * max(F.degree or 0, 1))


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


def charpoly_interp(F: BiPoly, G: BiPoly, degc_bound: int, m: int = 1,
                    stride: int = 1) -> BiPoly:
    """Res(F, x - G) for monic F via per-node integer charpolys.

    With m > 1 the result is instead the monic m-th root of that
    resultant, node by node through ``charpoly_int(fc, gc, m)``.  The
    caller passes a proven c-degree bound, degc_bound.  It may also
    assert that every c-exponent of the result is a multiple of stride,
    as a symmetry c -> zeta c with zeta^stride = 1 proves; the result is
    then interpolated in C = c^stride from the nodes
    c = 0, 1, ..., degc_bound // stride.  One extra node checks the
    bound and the stride, and a mismatch raises BoundTooSmall.
    """
    if not F.is_monic:
        raise ValueError("interpolation charpoly needs F monic")
    if stride < 1:
        raise ValueError("stride must be positive")
    top = degc_bound // stride + 1
    values = [charpoly_int(F.specialize_c_int(c0).coeffs,
                           G.specialize_c_int(c0).coeffs, m)
              for c0 in range(top + 1)]
    try:
        result = interpolate_intpolys(values[:-1], "x", F.cvar, stride)
    except DivisionNotExact as exc:
        raise BoundTooSmall(
            "degree bound %d failed verification" % degc_bound) from exc
    if result.specialize_c_int(top) != values[-1]:
        raise BoundTooSmall("degree bound %d failed verification" % degc_bound)
    return result


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
