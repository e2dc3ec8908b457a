"""Resultants in the main variable, by three independent routes.

Route one is the Sylvester matrix evaluated with fraction-free Bareiss
elimination.  It is slow but entirely elementary, so it serves as the
oracle for everything else.

Route two is evaluation-interpolation: specialize c at consecutive
integers starting from 0, take exact integer resultants per node, and
reassemble by exact Lagrange interpolation.  The number of nodes comes
from a proven a-priori bound on the c-degree, never from a search: the
caller's bound, typically orbit_degc_bound, which reads the growth of
the roots at c = oo off a Newton polygon, or else the Sylvester-shape
cap degc_cap.  One extra node is always computed and checked against
the interpolated answer, and a mismatch raises BoundTooSmall rather
than returning a wrong polynomial.  Before choosing a route, the
dispatcher ``resultant`` takes one Euclid step on a monic side,
Res(F, G) = Res(F, G rem F), so a large monic F against a small G
stays on the Sylvester route.

Route three applies only to resultants of the shape Res(F, x - G) with
F monic: the answer is the characteristic polynomial of multiplication
by G on the quotient ring modulo F, recovered from exact power sums and
Newton's identities.  No fractions appear; every division is by a small
integer and is checked.  When that resultant is known to be an m-th
power, as Res_z(Phi*_m, x - (f^m)') = delta_m^m is, the per-node form
(``charpoly_int`` with root index m) returns the m-th root directly:
the power sums of delta_m are the traces of G^k modulo F divided by m,
and only the first deg F / m of them are formed (Bostan, Flajolet,
Salvy and Schost, "Fast computation of special resultants", 2006).

The three routes are cross-tested against each other in the test suite
and must agree wherever they are all defined.
"""
from __future__ import annotations

from .errors import (BoundTooSmall, DivisionNotExact, NotPerfectPower,
                     ZeroPolynomial)
from .polycore import (BiPoly, IntPoly, NewtonPolygon, interpolate_int,
                       interpolate_intpolys)

SYLVESTER_MAX_DEG = 12


# ---------------------------------------------------------------------------
# fraction-free determinants


def bareiss_det(rows, is_zero, exact_div, zero, one):
    """Determinant of a square matrix over an integral domain.

    ``rows`` is a list of lists and is consumed.  Division by the
    previous pivot is exact at every step (Bareiss); ``exact_div`` must
    raise if that ever fails, which would indicate corrupted input.
    """
    n = len(rows)
    if n == 0:
        return one
    sign = 1
    prev = one
    for k in range(n - 1):
        if is_zero(rows[k][k]):
            for i in range(k + 1, n):
                if not is_zero(rows[i][k]):
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
                rows[i][j] = exact_div(num, prev)
            rows[i][k] = zero
        prev = pivot
    det = rows[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det


def _int_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise DivisionNotExact("Bareiss division left remainder")
    return q


def det_int(rows: list[list[int]]) -> int:
    return bareiss_det(rows, lambda a: a == 0, _int_div, 0, 1)


def _poly_div(a, b):
    return a.exact_div(b)


def det_intpoly(rows: list[list[IntPoly]], cvar: str = "c") -> IntPoly:
    zero = IntPoly((), cvar)
    one = IntPoly.const(1, cvar)
    return bareiss_det(rows, lambda a: a.is_zero, _poly_div, zero, one)


def det_bipoly(rows: list[list[BiPoly]], main_var: str = "x",
               cvar: str = "c") -> BiPoly:
    zero = BiPoly((), main_var, cvar)
    one = BiPoly.const(1, main_var, cvar)
    return bareiss_det(rows, lambda a: a.is_zero, _poly_div, zero, one)


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


def resultant_int(fc: list[int], gc: list[int]) -> int:
    """Integer resultant with the formal degrees len(fc)-1, len(gc)-1."""
    if len(fc) - 1 <= 0 and len(gc) - 1 <= 0:
        return 1
    rows = _sylvester_rows(fc, gc, 0)
    return det_int(rows)


# ---------------------------------------------------------------------------
# power-sum characteristic polynomials


def _powersums_of_roots(fc, nsums, zero):
    """Power sums t_0..t_{nsums-1} of the roots of a monic polynomial.

    Newton's identities, run over any commutative ring containing the
    coefficients (integers or IntPoly)."""
    n = len(fc) - 1
    t = [zero + n]
    for k in range(1, nsums):
        acc = zero + fc[n - k] * k if k <= n else zero
        for i in range(1, min(k, n + 1)):
            if k - i < len(t):
                acc = acc + fc[n - i] * t[k - i]
        t.append(-acc)
    return t


def _int_polymul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_polyrem_monic(a, f):
    """Remainder of a modulo monic f, ascending int lists."""
    n = len(f) - 1
    a = list(a)
    for i in range(len(a) - 1, n - 1, -1):
        top = a[i]
        if top:
            for j in range(n):
                a[i - n + j] -= top * f[j]
            a[i] = 0
    del a[n:]
    return a


def charpoly_int(fc: list[int], gc: list[int], m: int = 1) -> IntPoly:
    """The monic polynomial whose m-th power has roots G(alpha) over the
    roots alpha of F.

    F must be monic.  At m = 1 this equals Res_z(F, x - G) taken with
    the formal z-degree of G, which for monic F is independent of that
    degree.  For m > 1 the caller asserts that every value G(alpha)
    occurs a multiple of m times, as the multiplier does on the points
    of an exact m-cycle.  Only the first deg F / m traces of G^k modulo
    F are formed, and each must be divisible by m exactly; a remainder
    raises DivisionNotExact, and a degree not divisible by m raises
    NotPerfectPower.
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
    t = _powersums_of_roots(fc, n, 0)
    g = _int_polyrem_monic(gc, fc)
    p = []
    power = [1]
    for _ in range(deg):
        power = _int_polyrem_monic(_int_polymul(power, g), fc)
        q, r = divmod(sum(power[k] * t[k] for k in range(len(power))), m)
        if r:
            raise DivisionNotExact("trace not divisible by %d" % m)
        p.append(q)
    e = [1]
    for i in range(1, deg + 1):
        acc = 0
        for j in range(1, i + 1):
            term = e[i - j] * p[j - 1]
            acc = acc + term if j % 2 else acc - term
        q, r = divmod(acc, i)
        if r:
            raise DivisionNotExact("Newton identity division failed")
        e.append(q)
    coeffs = [0] * (deg + 1)
    for i in range(deg + 1):
        coeffs[deg - i] = e[i] if i % 2 == 0 else -e[i]
    return IntPoly(coeffs, "x")


def charpoly_powersum(F: BiPoly, G: BiPoly) -> BiPoly:
    """Symbolic power-sum charpoly: Res in the main variable of (F, x - G).

    Stays inside Z[c] throughout; divisions occur only by the small
    integers of Newton's identities and are checked exact.
    """
    if not F.is_monic:
        raise ValueError("power-sum route needs F monic in the main variable")
    cvar = F.cvar
    n = F.degree
    zero = IntPoly((), cvar)
    if n == 0:
        return BiPoly((1,), "x", cvar)
    fc = [F.coeff(i) for i in range(n + 1)]
    t = _powersums_of_roots(fc, n, zero)
    g = G.rem_monic(F)
    s = []
    power = BiPoly((1,), F.main_var, cvar)
    for _ in range(n):
        power = (power * g).rem_monic(F)
        acc = zero
        for k in range(len(power.coeffs)):
            acc = acc + power.coeff(k) * t[k]
        s.append(acc)
    e = [IntPoly.const(1, cvar)]
    for i in range(1, n + 1):
        acc = zero
        for j in range(1, i + 1):
            term = e[i - j] * s[j - 1]
            acc = acc + term if j % 2 else acc - term
        e.append(acc.divexact_scalar(i))
    coeffs = [zero] * (n + 1)
    for i in range(n + 1):
        coeffs[n - i] = e[i] if i % 2 == 0 else -e[i]
    return BiPoly(coeffs, "x", cvar)


# ---------------------------------------------------------------------------
# symbolic Sylvester routes


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
    rows = _sylvester_rows(fc, gc, IntPoly((), cvar))
    return det_intpoly(rows, cvar)


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
    return det_bipoly(rows, "x", cvar)


# ---------------------------------------------------------------------------
# evaluation-interpolation routes


def _degc(p: BiPoly) -> int:
    d = p.deg_c
    return 0 if d is None else d


def degc_cap(F: BiPoly, G: BiPoly) -> int:
    """Safe c-degree bound for Res(F, G) straight from the Sylvester shape."""
    return _degc(F) * max(G.degree or 0, 1) + _degc(G) * max(F.degree or 0, 1)


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


def resultant_interp(F: BiPoly, G: BiPoly, degc_bound: int | None = None) -> IntPoly:
    """Res in the main variable via per-node integer resultants.

    The nodes come from degc_bound, or from the Sylvester cap when it
    is None; one extra node checks the bound and a mismatch raises
    BoundTooSmall.
    """
    if F.is_zero or G.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    n, m = F.degree, G.degree
    bound = degc_cap(F, G) if degc_bound is None else degc_bound

    def value_at(c0: int) -> int:
        fc = [F.coeff(i)(c0) for i in range(n + 1)]
        gc = [G.coeff(i)(c0) for i in range(m + 1)]
        return resultant_int(fc, gc)

    values = [value_at(c0) for c0 in range(bound + 2)]
    try:
        result = interpolate_int(values[:-1], F.cvar)
    except DivisionNotExact as exc:
        raise BoundTooSmall("degree bound %d failed verification" % bound) from exc
    if result(bound + 1) != values[-1]:
        raise BoundTooSmall("degree bound %d failed verification" % bound)
    return result


def charpoly_interp(F: BiPoly, G: BiPoly, degc_bound: int | None = None,
                    m: int = 1) -> BiPoly:
    """Res(F, x - G) for monic F via per-node integer charpolys.

    With m > 1 the result is instead the monic m-th root of that
    resultant, node by node through ``charpoly_int(fc, gc, m)``.  The
    nodes come from degc_bound, or from the Sylvester cap when it is
    None; one extra node checks the bound and a mismatch raises
    BoundTooSmall.
    """
    if not F.is_monic:
        raise ValueError("interpolation charpoly needs F monic")
    n = F.degree
    bound = degc_cap(F, G) if degc_bound is None else degc_bound

    def value_at(c0: int) -> IntPoly:
        fc = [F.coeff(i)(c0) for i in range(n + 1)]
        gc = [G.coeff(i)(c0) for i in range(len(G.coeffs))]
        return charpoly_int(fc, gc, m)

    values = [value_at(c0) for c0 in range(bound + 2)]
    try:
        result = interpolate_intpolys(values[:-1], "x", F.cvar)
    except DivisionNotExact as exc:
        raise BoundTooSmall("degree bound %d failed verification" % bound) from exc
    if result.specialize_c_int(bound + 1) != values[-1]:
        raise BoundTooSmall("degree bound %d failed verification" % bound)
    return result


# ---------------------------------------------------------------------------
# dispatchers


def resultant(F: BiPoly, G: BiPoly, method: str = "auto",
              degc_bound: int | None = None) -> IntPoly:
    """Resultant of F and G in their main variable, exact over Z[c].

    The automatic route first takes one Euclid step on a monic side:
    Res(F, G) = Res(F, G rem F) for F monic, and
    Res(F, G) = (-1)^(deg F deg G) Res(G, F rem G) for G monic.
    """
    if method == "sylvester":
        return resultant_sylvester(F, G)
    if method == "interp":
        return resultant_interp(F, G, degc_bound)
    if method != "auto":
        raise ValueError("unknown method %r" % method)
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
    if max(F.degree, G.degree) <= SYLVESTER_MAX_DEG:
        res = resultant_sylvester(F, G)
    else:
        res = resultant_interp(F, G, degc_bound)
    return res if sign == 1 else -res


def charpoly_resultant(F: BiPoly, G: BiPoly, method: str = "auto",
                       degc_bound: int | None = None) -> BiPoly:
    """Res(F, x - G) as a polynomial in x over Z[c]."""
    if method == "sylvester":
        return charpoly_sylvester(F, G)
    if method == "powersum":
        return charpoly_powersum(F, G)
    if method == "interp":
        return charpoly_interp(F, G, degc_bound)
    if method != "auto":
        raise ValueError("unknown method %r" % method)
    if not F.is_monic:
        if (F.degree or 0) <= SYLVESTER_MAX_DEG:
            return charpoly_sylvester(F, G)
        raise ValueError("large non-monic charpoly resultants are not supported")
    if (F.degree or 0) <= SYLVESTER_MAX_DEG:
        return charpoly_powersum(F, G)
    return charpoly_interp(F, G, degc_bound)
