"""Newton polygon shapes over the degree valuation in c.

The valuation here is v(p) = -deg_c(p) on nonzero integer polynomials
in c, with v(0) treated as +infinity (such points simply do not appear
on the polygon).  The polygon itself, NewtonPolygon, is built in
polycore, where the c-degree bounds of the resultant routes also read
it; this module holds the claimed shapes.  A segment of slope t and
horizontal length l records l roots whose c-degree is t, so a
polynomial whose roots all grow like c^t has a single segment of
slope t.
"""
from __future__ import annotations

from .families import Family, fixed_point_resultant, iterate, multiplier_poly
from .invariants import _aux_resultant, _orbit_product
from .numtheory import dynatomic_degree
from .polycore import BiPoly, IntPoly, NewtonPolygon
from .report import Verdict


# ---------------------------------------------------------------------------
# claimed shapes


def _segment_claim(check: str, params: dict, P: BiPoly,
                   want: tuple) -> Verdict:
    """The claim that P has no roots at 0 and its polygon is the one
    segment with vertices want."""
    np_ = NewtonPolygon.of(P)
    ok = np_.zero_order == 0 and np_.vertices == want
    return Verdict.claim(check, params,
                         None if ok else "vertices %s" % (np_.vertices,))


def iterate_polygon_check(d: int, k: int) -> Verdict:
    """f^k - z for z^d + c: one segment from (0, -d^(k-1)) to (d^k, 0)."""
    fk = iterate(Family("unicritical", d), k) - BiPoly.gen("z")
    return _segment_claim("iterate-polygon-single-slope", {"d": d, "k": k},
                          fk, ((0, -d ** (k - 1)), (d ** k, 0)))


def delta_polygon_check(d: int, m: int) -> Verdict:
    """delta_m for z^d + c: one segment of slope m (d-1) / d."""
    dm = dynatomic_degree(d, m)
    return _segment_claim("delta-polygon-single-slope", {"d": d, "m": m},
                          multiplier_poly(Family("unicritical", d), m).delta,
                          ((0, -(d - 1) * dm // d), (dm // m, 0)))


def resultant_polygon_check(d: int, k: int, m: int) -> Verdict:
    """Res_z(f^k - z, x - (f^m)') for z^d + c: one segment of slope
    m (d-1) / d in x."""
    res = fixed_point_resultant(Family("unicritical", d), k, m)
    return _segment_claim("resultant-polygon-single-slope",
                          {"d": d, "k": k, "m": m}, res,
                          ((0, -m * (d - 1) * d ** (k - 1)), (d ** k, 0)))


def orbit_slope_bound_check(d: int, k: int) -> list[Verdict]:
    """For (z-c) z^d + c: the k-th iterate and the orbit product minus
    one have all polygon slopes at most 1."""
    fam = Family("shifted", d)
    out = []
    for name, poly in (("iterate", iterate(fam, k)),
                       ("orbit-product", _orbit_product(d, k) - 1)):
        ms = NewtonPolygon.of(poly).max_slope
        out.append(Verdict.claim("orbit-slope-bound",
                                 {"d": d, "k": k, "poly": name},
                                 None if ms is not None and ms <= 1
                                 else "max slope %s" % ms))
    return out


def linear_resultant_polygon_check(d: int, k: int) -> list[Verdict]:
    """G_k = Res_z(F_k, x - ((d+1) z - dc)) has every slope equal to 1,
    and its x-constant term is the cleared evaluation of F_k at
    dc / (d+1).

    G_k is the auxiliary resultant Res_z(F_k, x - cleared_m) at m = 1,
    so it shares its route and cache with R_{k,m}.  With the product
    convention used here, G_k(0) carries no extra sign; the opposite
    resultant argument order would multiply it by (-1) ** deg F_k.
    """
    F_k = _orbit_product(d, k) - 1
    G = _aux_resultant(d, k, 1)
    np_ = NewtonPolygon.of(G)
    v1 = Verdict.claim("linear-resultant-polygon-slope", {"d": d, "k": k},
                       None if np_.single_slope() == 1 else
                       "zero_order %d, slopes %s"
                       % (np_.zero_order, np_.slopes))
    v2 = Verdict.identity("linear-resultant-constant-term", {"d": d, "k": k},
                          G.coeff(0),
                          F_k.cleared_eval(IntPoly((0, d), "c"), d + 1,
                                           F_k.degree))
    return [v1, v2]


def polygon_export(d: int, kmax: int, kind: str = "unicritical") -> dict:
    """Vertex data of the iterate polygons, for the delimited reports."""
    if kmax < 1:
        raise ValueError("need k_max >= 1")
    fam = Family(kind, d)
    z = BiPoly.gen("z")
    out = {}
    for k in range(1, kmax + 1):
        np_ = NewtonPolygon.of(iterate(fam, k) - z)
        out["%s-iterate-%d" % (fam.label().replace(" ", "-"), k)] = np_.to_dict()
    return out
