"""Checks of the workloads' outputs against computations made apart from
the program.

Nothing here imports dynres.  The published rows are read from
``tests/reference_tables.py`` (hand-transcribed from the paper) and
expanded with the small integer-polynomial helpers below.  Properties are
checked with this module's own Moebius sums, Gleason polynomials and
cyclotomic polynomials.  Rows are recomputed at integer parameters by a
route the program does not use: the first deg(delta_m) power sums of the
multipliers, read off as traces of powers of (f^m)' modulo the
specialized dynatomic polynomial, then Newton's identities.  Parabolic
and attracting witnesses are confirmed by computing the cycles and their
multipliers numerically with mpmath.

``check_output(workload, op, output, ctx)`` returns None when the output
passes and a short reason when it does not.
"""
from __future__ import annotations

import importlib.util
import json
import os
import random
from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# integer polynomials as ascending coefficient lists


def trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return trim(out)


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def ppow(a: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = pmul(out, a)
    return out


def pdivmod_monic(a: list, f: list) -> tuple[list, list]:
    """Quotient and remainder of a by the monic polynomial f."""
    if not f or f[-1] != 1:
        raise ValueError("divisor must be monic")
    a = list(a)
    n = len(f) - 1
    q = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        top = a[i]
        if top:
            q[i - n] = top
            for j in range(n + 1):
                a[i - n + j] -= top * f[j]
    return trim(q), trim(a[:n])


def pexact_div_monic(a: list, f: list) -> list:
    q, r = pdivmod_monic(a, f)
    if r:
        raise ArithmeticError("division is not exact")
    return q


def compose(f: list, g: list) -> list:
    """f(g(z))."""
    acc: list = []
    for a in reversed(f):
        acc = padd(pmul(acc, g), [a])
    return acc


def derivative(p: list) -> list:
    return trim([i * a for i, a in enumerate(p)][1:])


# ---------------------------------------------------------------------------
# number theory


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


def mobius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def nu(degree: int, m: int) -> int:
    """Number of points of exact period m of a degree-`degree` map."""
    return sum(mobius(m // k) * degree ** k for k in divisors(m))


def cyclotomic(n: int) -> list:
    p = [-1] + [0] * (n - 1) + [1]
    for k in divisors(n)[:-1]:
        p = pexact_div_monic(p, cyclotomic(k))
    return p


def mobius_product(factor, m: int) -> list:
    """prod over k | m of factor(k) ** mu(m / k), for monic factors."""
    num, den = [1], [1]
    for k in divisors(m):
        mu = mobius(m // k)
        if mu == 1:
            num = pmul(num, factor(k))
        elif mu == -1:
            den = pmul(den, factor(k))
    return pexact_div_monic(num, den)


# ---------------------------------------------------------------------------
# the families, at an integer parameter


def map_degree(kind: str, d: int) -> int:
    return {"unicritical": d, "linearterm": d + 1, "shifted": d + 1,
            "quadcrit": d + 2}[kind]


def family_map(kind: str, d: int, c0: int) -> list:
    """The family map with c = c0, as an integer polynomial in z."""
    D = map_degree(kind, d)
    f = [0] * (D + 1)
    f[D] = 1
    if kind == "unicritical":
        f[0] = c0
    elif kind == "linearterm":
        f[1] = c0
    elif kind == "shifted":          # (z - c) z^d + c
        f[d] = -c0
        f[0] += c0
    elif kind == "quadcrit":
        f[2] = c0
    else:
        raise ValueError(kind)
    return f


def power_sums_of_roots(f: list, count: int) -> list:
    """t_0 .. t_{count-1} for monic f, by Newton's identities."""
    n = len(f) - 1
    t = [n]
    for k in range(1, count):
        acc = k * f[n - k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            acc += f[n - i] * t[k - i]
        t.append(-acc)
    return t


def delta_at(kind: str, d: int, m: int, c0: int) -> list:
    """delta_m(c0, x) as an ascending list in x, by truncated traces.

    Each exact m-cycle contributes m equal values of (f^m)' on the roots
    of the dynatomic polynomial, so the j-th power sum of delta_m is the
    trace of ((f^m)')^j modulo Phi*_m, divided by m.
    """
    f = family_map(kind, d, c0)
    its = [[0, 1]]
    for _ in range(m):
        its.append(compose(f, its[-1]))
    phi = mobius_product(lambda k: padd(its[k], [0, -1]), m)
    n = len(phi) - 1
    r = n // m
    fprime = derivative(f)
    omega = [1]
    for i in range(m):
        omega = pdivmod_monic(pmul(omega, compose(fprime, its[i])), phi)[1]
    t = power_sums_of_roots(phi, n)
    sums = []
    power = [1]
    for _ in range(r):
        power = pdivmod_monic(pmul(power, omega), phi)[1]
        trace = sum(a * t[k] for k, a in enumerate(power))
        q, rem = divmod(trace, m)
        if rem:
            raise ArithmeticError("trace not divisible by the period")
        sums.append(q)
    e = [1]
    for i in range(1, r + 1):
        acc = sum((-1) ** (j - 1) * e[i - j] * sums[j - 1]
                  for j in range(1, i + 1))
        q, rem = divmod(acc, i)
        if rem:
            raise ArithmeticError("Newton identity not integral")
        e.append(q)
    out = [0] * (r + 1)
    for i in range(r + 1):
        out[r - i] = (-1) ** i * e[i]
    return out


def gleason(d: int, m: int) -> list:
    """Centres of the period-m components of z^d + c, as a monic c-poly."""
    orbit = {0: []}
    cur: list = []
    for k in range(1, m + 1):
        cur = padd(ppow(cur, d), [0, 1])
        orbit[k] = cur
    return mobius_product(lambda k: orbit[k], m)


def det_fraction(rows: list[list]) -> Fraction:
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            ratio = rows[i][k] / rows[k][k]
            for j in range(k, n):
                rows[i][j] -= ratio * rows[k][j]
    return det


def resultant_monic(a: list, b: list) -> int:
    """Res(a, b) for monic a: the norm of b in Z[x]/(a)."""
    e = len(a) - 1
    rows = []
    for i in range(e):
        col = pdivmod_monic(pmul([0] * i + [1], b), a)[1]
        rows.append(col + [0] * (e - len(col)))
    value = det_fraction(rows)
    if value.denominator != 1:
        raise ArithmeticError("resultant not integral")
    return int(value)


# ---------------------------------------------------------------------------
# rescaled subrings, from the paper's statements


def rescaling(kind: str, d: int, m: int):
    """(stride, unit, scale): scale * delta_m lies in Z[unit c^stride, x]."""
    deg = nu(map_degree(kind, d), m)
    if kind == "unicritical":
        return d - 1, d ** d, 1
    if kind == "linearterm":
        return 1, d, d ** (deg // (d + 1))
    if kind == "shifted":
        eps = 1 if m == 1 else 0
        return d, d ** d, d ** ((d - 1) * eps + deg // (d + 1))
    return None


# ---------------------------------------------------------------------------
# canonical JSON and the reference tables


def parse_poly(text: str) -> tuple[list, dict]:
    """Variable names and {exponents: coefficient}; exponents are
    (e_main, e_c) for two variables and (e,) for one."""
    doc = json.loads(text)
    names = doc["var"]
    terms: dict = {}
    for term in doc["terms"]:
        exps = term["exps"]
        key = (exps[1], exps[0]) if len(names) == 2 else (exps[0],)
        if key in terms:
            raise ValueError("repeated term %r" % (key,))
        terms[key] = int(term["coef"])
    return names, terms


def dmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, x in a.items():
        for kb, y in b.items():
            k = tuple(i + j for i, j in zip(ka, kb))
            out[k] = out.get(k, 0) + x * y
    return {k: v for k, v in out.items() if v}


def dpow(a: dict, e: int, unit_key: tuple) -> dict:
    out = {unit_key: 1}
    for _ in range(e):
        out = dmul(out, a)
    return out


def expand_bivariate(row: dict) -> dict:
    """{(e_x, e_C): coef} of a factored (e_C, e_x, coef) table row."""
    out = {(0, 0): 1}
    for terms, power in row["factors"]:
        factor: dict = {}
        for ec, ex, a in terms:
            factor[(ex, ec)] = factor.get((ex, ec), 0) + a
        out = dmul(out, dpow(factor, power, (0, 0)))
    return out


def expand_univariate(row: dict) -> dict:
    out = {(0,): 1}
    for terms, power in row["factors"]:
        factor: dict = {}
        for ec, a in terms:
            factor[(ec,)] = factor.get((ec,), 0) + a
        out = dmul(out, dpow(factor, power, (0,)))
    return out


def load_reference_tables(root: str):
    path = os.path.join(root, "tests", "reference_tables.py")
    spec = importlib.util.spec_from_file_location("reference_tables", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def table4_expected(rt, key) -> dict | None:
    """The published Res_x(cyc_n, delta_m) cell with its two documented
    corrections: the squared scalar divided out, and the sign flipped when
    phi(n) deg_x(delta_m) is odd."""
    d, n, m = key
    row = rt.TABLE4[key]
    if row["factors"] is None:
        return None
    value = expand_univariate(row)
    scalar = rt.TABLE4_SCALAR_SQUARED.get(key)
    sign = -1 if euler_phi(n) * (nu(d + 2, m) // m) % 2 else 1
    out = {}
    for k, a in value.items():
        if scalar is not None:
            q, r = divmod(a, scalar)
            if r:
                raise ArithmeticError("scalar does not divide the cell")
            a = q
        out[k] = sign * a
    return out


def specialize(terms: dict, c0: int) -> list:
    """A {(e_x, e_c): coef} polynomial at c = c0, ascending in x."""
    width = max((ex for ex, _ in terms), default=-1) + 1
    out = [0] * width
    for (ex, ec), a in terms.items():
        out[ex] += a * c0 ** ec
    return trim(out)


# ---------------------------------------------------------------------------
# per-output checks


class Context:
    """Everything a check needs besides the output: the reference tables
    and the seeded integer parameters at which rows are recomputed."""

    SAMPLE_RANGE = range(-4, 5)
    SAMPLES = 2

    def __init__(self, root: str, seed: int):
        self.rt = load_reference_tables(root)
        self.seed = seed

    def samples(self, op: str) -> list[int]:
        rng = random.Random("samples:%s:%d" % (op, self.seed))
        return sorted(rng.sample(list(self.SAMPLE_RANGE), self.SAMPLES))


def _delta_properties(kind: str, d: int, m: int, text: str, ctx: Context,
                      op: str) -> str | None:
    names, delta = parse_poly(text)
    if names != ["c", "x"]:
        return "delta has variables %s" % names
    r = nu(map_degree(kind, d), m) // m
    top = max(ex for ex, _ in delta)
    if top != r or {k: v for k, v in delta.items() if k[0] == top} != {
            (r, 0): 1}:
        return "delta is not monic of x-degree %d" % r
    resc = rescaling(kind, d, m)
    if resc is not None:
        stride, unit, scale = resc
        for (ex, ec), a in delta.items():
            if ec % stride or (scale * a) % unit ** (ec // stride):
                return "delta is outside the rescaled subring at x^%d c^%d" % (
                    ex, ec)
    if kind == "unicritical":
        at0 = [0] * (max((ec for ex, ec in delta if ex == 0), default=-1) + 1)
        for (ex, ec), a in delta.items():
            if ex == 0:
                at0[ec] = a
        if pdivmod_monic(trim(at0), gleason(d, m))[1]:
            return "delta(c, 0) is not divisible by the Gleason polynomial"
    for c0 in ctx.samples(op):
        if specialize(delta, c0) != delta_at(kind, d, m, c0):
            return "delta differs from the recomputation at c = %d" % c0
    return None


def check_tables(op: str, out: dict, ctx: Context) -> str | None:
    kind = op.split("/")[0]
    if kind == "rescaled":
        _, family, d, m = op.split("/")
        d, m = int(d), int(m)
        table = {"unicritical": ctx.rt.TABLE1, "linearterm": ctx.rt.TABLE2,
                 "shifted": ctx.rt.TABLE3}[family]
        row = table[(d, m)]
        power = row.get("cell_power", 1)
        if row["deg"] * power != nu(map_degree(family, d), m):
            return "degree column disagrees with the Moebius sum"
        names, psi = parse_poly(out["psi"])
        want = dpow(expand_bivariate(row), power, (0, 0))
        if names != ["C", "x"] or psi != want:
            return "rescaled row differs from the published table"
        stride, unit, scale = rescaling(family, d, m)
        if out["scale"] != scale:
            return "scale %s, expected %d" % (out["scale"], scale)
        _, delta = parse_poly(out["delta"])
        extracted = {}
        for (ex, ec), a in delta.items():
            extracted[(ex, ec // stride)] = scale * a // unit ** (ec // stride)
        if extracted != psi:
            return "delta does not rescale to the emitted row"
        return _delta_properties(family, d, m, out["delta"], ctx, op)
    if kind == "cycres":
        _, d, n, m = (int(x) if x.isdigit() else x for x in op.split("/"))
        names, value = parse_poly(out["value"])
        if names != ["c"]:
            return "resultant has variables %s" % names
        want = table4_expected(ctx.rt, (d, n, m))
        if want is None:
            lc = value[max(value)]
            if lc != ctx.rt.TABLE4[(d, n, m)]["lc"]:
                return "leading coefficient differs from the table"
        elif value != want:
            return "resultant differs from the published table"
        for c0 in ctx.samples(op):
            got = sum(a * c0 ** e for (e,), a in value.items())
            if got != resultant_monic(cyclotomic(n),
                                      delta_at("quadcrit", d, m, c0)):
                return "resultant differs from the recomputation at c = %d" % c0
        return None
    if kind == "delta":
        _, family, d, m = op.split("/")
        return _delta_properties(family, int(d), int(m), out["delta"], ctx, op)
    return "unknown table operation"


# ---------------------------------------------------------------------------
# classification


# The paper's statuses for z^2 + c: (status, m, j).
PAPER_D2 = {
    "1/4": ("parabolic", 1, 1),
    "-3/4": ("parabolic", 1, 2),
    "-5/4": ("parabolic", 2, 2),
    "-7/4": ("parabolic", 3, 1),
    "0": ("superattracting", 1, None),
    "-1": ("superattracting", 2, None),
    "-1/2": ("attracting", 1, None),
    "-1/4": ("attracting", 1, None),
    "-2": ("repelling-all-tested", None, None),
    "-3/2": ("unresolved", None, None),
}

NUMERIC_DPS = 40
TOL = 1e-12


def candidates(d: int) -> list[Fraction]:
    """c = p/q with q^(d-1) | d^d and |c|^(d-1) <= 2 (for d = 2 also
    c <= 1/4), the rational parameters the paper leaves to classify."""
    out = []
    for q in range(1, d ** d + 1):
        if d ** d % q ** (d - 1):
            continue
        p = 0
        while (p + 1) ** (d - 1) <= 2 * q ** (d - 1):
            p += 1
        for num in range(-p, p + 1):
            c = Fraction(num, q)
            if gcd(num, q) == 1 and not (d == 2 and c > Fraction(1, 4)):
                out.append(c)
    return sorted(out)


def cycle_multipliers(d: int, c: Fraction, m: int) -> list:
    """Multipliers of the cycles of exact period m of z^d + c, one entry
    per periodic point, computed numerically."""
    import mpmath

    with mpmath.workdps(NUMERIC_DPS):
        f = [Fraction(c)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
        its = [[Fraction(0), Fraction(1)]]
        for _ in range(m):
            its.append(compose(f, its[-1]))
        g = padd(its[m], [0, -1])
        roots = mpmath.polyroots([mpmath.mpf(a.numerator) / a.denominator
                                  for a in reversed(g)],
                                 maxsteps=500, extraprec=4 * NUMERIC_DPS)
        cm = mpmath.mpf(c.numerator) / c.denominator
        out = []
        for z in roots:
            orbit = [z]
            for _ in range(m):
                orbit.append(orbit[-1] ** d + cm)
            period = next(k for k in range(1, m + 1)
                          if abs(orbit[k] - z) <= 1e-9 * max(1, abs(z)))
            if period != m:
                continue
            lam = mpmath.mpf(1)
            for w in orbit[:m]:
                lam *= d * w ** (d - 1)
            out.append(complex(lam))
        return out


def _root_of_unity_order(lam: complex, j_max: int) -> int | None:
    for j in range(1, j_max + 1):
        if abs(lam ** j - 1) < 1e-8:
            return j
    return None


def check_classification(d: int, out: dict) -> str | None:
    c = Fraction(out["c"])
    status, period = out["status"], out["period"]
    if d == 2:
        got = (status, period, out["root_order"])
        if PAPER_D2.get(out["c"]) != got:
            return "status %s, the paper gives %s" % (got, PAPER_D2.get(
                out["c"]))
    if status == "parabolic":
        orders = [_root_of_unity_order(lam, out["root_order"])
                  for lam in cycle_multipliers(d, c, period)]
        if out["root_order"] not in orders:
            return "no %d-cycle with a primitive %d-th root multiplier" % (
                period, out["root_order"])
    elif status == "attracting":
        a, b = (float(Fraction(x)) for x in out["witness"]["interval"])
        if not any(abs(lam.imag) < TOL and a - TOL <= lam.real <= b + TOL
                   and abs(lam) < 1
                   for lam in cycle_multipliers(d, c, period)):
            return "no attracting %d-cycle with multiplier in [%s, %s]" % (
                period, a, b)
    elif status == "superattracting":
        z, k = Fraction(0), 0
        while True:
            z, k = z ** d + c, k + 1
            if z == 0 or k > period:
                break
        if z != 0 or k != period:
            return "0 is not periodic of period %d" % period
    elif status in ("repelling-all-tested", "unresolved") and d > 2:
        for m in range(1, out["witness"]["m_max"] + 1):
            if any(abs(lam) <= 1 + 1e-9 for lam in cycle_multipliers(d, c, m)):
                return "a %d-cycle is not repelling" % m
    elif d > 2:
        return "unexpected status %s" % status
    return None


def check_classify(op: str, out: dict, ctx: Context) -> str | None:
    kind, d = op.split("/")[:2]
    d = int(d)
    if kind == "enumerate":
        if [Fraction(x) for x in out["candidates"]] != candidates(d):
            return "candidate list differs"
        if d == 2 and set(out["candidates"]) != set(PAPER_D2):
            return "candidate list differs from the paper's"
        return None
    if kind == "classify":
        if op.split("/", 2)[2] != out["c"]:
            return "classification of another parameter"
        return check_classification(d, out)
    return "unknown classify operation"


# ---------------------------------------------------------------------------
# identities and polygons


FAMILY_TERMS = {  # the family maps as {(e_z, e_c): coefficient}
    "unicritical": lambda d: {(d, 0): 1, (0, 1): 1},
    "linearterm": lambda d: {(d + 1, 0): 1, (1, 1): 1},
    "shifted": lambda d: {(d + 1, 0): 1, (d, 1): -1, (0, 1): 1},
    "quadcrit": lambda d: {(d + 2, 0): 1, (2, 1): 1},
}


def dadd(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def dcompose(f: dict, g: dict) -> dict:
    """f(g) for polynomials in z over Z[c] written {(e_z, e_c): coef}."""
    top = max(ez for ez, _ in f)
    powers = [{(0, 0): 1}]
    for _ in range(top):
        powers.append(dmul(powers[-1], g))
    out: dict = {}
    for (ez, ec), a in f.items():
        out = dadd(out, {(i, j + ec): a * v for (i, j), v in powers[ez].items()})
    return out


def iterate_polygon(kind: str, d: int, k: int) -> dict:
    """Lower hull of (i, -deg_c a_i) over the coefficients of f^k - z."""
    f = FAMILY_TERMS[kind](d)
    g = {(1, 0): 1}
    for _ in range(k):
        g = dcompose(f, g)
    g = dadd(g, {(1, 0): -1})
    degc: dict = {}
    for ez, ec in g:
        degc[ez] = max(degc.get(ez, 0), ec)
    hull: list = []
    for p in sorted((i, -e) for i, e in degc.items()):
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])) <= 0:
            hull.pop()
        hull.append(p)
    return {"zero_order": hull[0][0], "vertices": [list(v) for v in hull]}


def check_identities(op: str, out: dict, ctx: Context) -> str | None:
    if op.startswith("polygon/"):
        _, kind, d, k_max = op.split("/")
        d, k_max = int(d), int(k_max)
        want = {"%s-d=%d-iterate-%d" % (kind, d, k): iterate_polygon(kind, d, k)
                for k in range(1, k_max + 1)}
        if out["polygons"] != want:
            return "polygon export differs from the recomputed hulls"
        return None
    verdicts = out["verdicts"]
    if not verdicts:
        return "no verdicts"
    bad = [v for v in verdicts if v[2] is not True]
    if bad:
        return "failing verdict %s %s" % (bad[0][0], bad[0][1])
    return None


CHECKS = {"tables": check_tables, "classify": check_classify,
          "identities": check_identities}


def check_output(workload: str, op: str, out: dict, ctx: Context) -> str | None:
    """None if the output of one operation passes, else the reason."""
    try:
        return CHECKS[workload](op, out, ctx)
    except (ArithmeticError, KeyError, ValueError, TypeError) as exc:
        return "check raised %s: %s" % (type(exc).__name__, exc)
