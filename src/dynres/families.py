"""The four one-parameter polynomial families and their dynatomic data.

Families
--------
unicritical   z^d + c            (d >= 2)
linearterm    z^(d+1) + c z      (d >= 1)
shifted       z^(d+1) - c z^d + c  (d >= 1), also spelled (z - c) z^d + c
quadcrit      z^(d+2) + c z^2    (d >= 1)

The period-n dynatomic polynomial is the Moebius product over divisors
of n of (f^k(z) - z).  numtheory.moebius_product assembles it, as it
does every Moebius product here, from one numerator product, one
denominator product and a single exact division; dynatomic caches it,
and also builds the dynatomic polynomials of an iterate f^l from the
cached iterates of f.  orbit_product multiplies a polynomial h along
the orbit of z, and (f^m)' is the orbit product of f' over m steps.
The multiplier polynomial delta_m, whose m-th power is
Res_z(Phi*_m, x - (f^m)'), is interpolated in c from integer nodes by
resultants.charpoly_interp.  At each node its power
sums are the traces of ((f^m)')^k modulo Phi*_m divided by m, for k up
to its x-degree, and Newton's identities turn them into delta_m; the
number of nodes comes from the proven bound multiplier_degc_bound.  The
fixed-point resultants Res_z(f^k - z, x - (f^m)') take the same route
with orbit_degc_bound and are cached; their Moebius product and one
exact m-th root give delta_m a second, independent time, in
multiplier_via_product.  Conjugation by z -> zeta z sends c to a
multiple of c and keeps every multiplier (c_stride), so the fixed-point
resultants lie in Z[x][c^s] and are interpolated in C = c^s from about
1/s of the nodes; delta_m lies there too, but is still interpolated
in c.

Dynatomic degrees grow fast.  The functions here compute whatever they
are asked for; the size guardrail DEGREE_CAP is checked where outside
input arrives instead: `dynres table` calls check_degree (unless given
--allow-large), and parabolic.classify stops before the first period
above the cap.
"""
from __future__ import annotations

import dataclasses
import functools

from .errors import GuardrailExceeded
from .numtheory import dynatomic_degree, moebius_product
from .polycore import BiPoly, nth_root
from .report import Verdict
from .resultants import charpoly_interp, orbit_degc_bound

DEGREE_CAP = 64

KINDS = ("unicritical", "linearterm", "shifted", "quadcrit")


@dataclasses.dataclass(frozen=True)
class Family:
    kind: str
    d: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown family kind %r" % self.kind)
        dmin = 2 if self.kind == "unicritical" else 1
        if self.d < dmin:
            raise ValueError("%s family needs d >= %d" % (self.kind, dmin))

    @property
    def map_degree(self) -> int:
        if self.kind == "unicritical":
            return self.d
        if self.kind == "quadcrit":
            return self.d + 2
        return self.d + 1

    @functools.cached_property
    def map_poly(self) -> BiPoly:
        d = self.d
        z = BiPoly.gen("z")
        c = BiPoly.cgen("z")
        if self.kind == "unicritical":
            return z ** d + c
        if self.kind == "linearterm":
            return z ** (d + 1) + c * z
        if self.kind == "quadcrit":
            return z ** (d + 2) + c * z * z
        # shifted: both spellings must agree, by construction and by check
        expanded = z ** (d + 1) - c * z ** d + c
        factored = (z - c) * z ** d + c
        if expanded != factored:
            raise AssertionError("shifted family spellings disagree")
        return expanded

    def label(self) -> str:
        return "%s d=%d" % (self.kind, self.d)


@dataclasses.dataclass
class MultiplierResult:
    m: int
    delta: BiPoly
    # Integer prefactor whose product with delta lies in the rescaled
    # subring for the degree-(d+1) families; 1 where no claim is made.
    scale: int


@functools.lru_cache(maxsize=None)
def iterate(fam: Family, k: int) -> BiPoly:
    """The k-th iterate of the family map; k = 0 gives z itself."""
    if k < 0:
        raise ValueError("negative iterate")
    if k == 0:
        return BiPoly.gen("z")
    return fam.map_poly.compose(iterate(fam, k - 1))


def check_degree(fam: Family, n: int) -> None:
    """Refuse period n when its dynatomic degree is above DEGREE_CAP."""
    deg = dynatomic_degree(fam.map_degree, n)
    if deg > DEGREE_CAP:
        raise GuardrailExceeded(
            "period %d has dynatomic degree %d, above the cap %d"
            % (n, deg, DEGREE_CAP)
        )


@functools.lru_cache(maxsize=None)
def dynatomic(fam: Family, n: int, step: int = 1) -> BiPoly:
    """Phi*_n of the map f^step: the Moebius product of
    f^(step k)(z) - z over k | n, as one exact division."""
    if n < 1:
        raise ValueError("period must be positive")
    z = BiPoly.gen("z")
    poly = moebius_product(n, lambda k: iterate(fam, step * k) - z)
    deg = dynatomic_degree(fam.map_degree ** step, n)
    if poly.degree != deg:
        raise AssertionError(
            "dynatomic degree %s disagrees with the divisor-sum formula %d"
            % (poly.degree, deg)
        )
    return poly


def orbit_product(fam: Family, h: BiPoly, steps: int) -> BiPoly:
    """prod over i < steps of h(f^i(z)), the product of h along the orbit
    of z; this is the G of resultants.orbit_degc_bound."""
    out = BiPoly.const(1, "z")
    for i in range(steps):
        out = out * h.compose(iterate(fam, i))
    return out


@functools.lru_cache(maxsize=None)
def multiplier_derivative(fam: Family, m: int) -> BiPoly:
    """(f^m)' written as the chain-rule product of f' along the orbit."""
    if m < 1:
        raise ValueError("period must be positive")
    return orbit_product(fam, fam.map_poly.derivative(), m)


def c_stride(fam: Family) -> int:
    """The stride s that conjugation proves: the multipliers of f_c, as
    a multiset at each period, depend on c^s only.

    For zeta^s = 1 and phi(z) = zeta z, phi^-1 o f_c o phi = f_c' with
      unicritical  s = d - 1,  c' = c / zeta;
      shifted      s = d,      c' = c / zeta;
      quadcrit     s = d + 1,  c' = zeta c;
    linearterm z^(d+1) + cz keeps its c under every such conjugation,
    so s = 1.  phi^-1 carries the period-k points of f_c to those of
    f_c', and by the chain rule (f_c'^m)'(w) = (f_c^m)'(zeta w), so a
    polynomial in c built symmetrically from these multipliers takes
    the same value at c and at zeta c for every s-th root of unity zeta;
    it lies in Z[c^s].
    """
    d = fam.d
    return {"unicritical": d - 1, "shifted": d, "quadcrit": d + 1,
            "linearterm": 1}[fam.kind]


@functools.lru_cache(maxsize=None)
def fixed_point_resultant(fam: Family, k: int, m: int) -> BiPoly:
    """Res_z(f^k - z, x - (f^m)'), the m-th iterate's multipliers at the
    points of period dividing k.

    f permutes the roots of f^k - z and (f^m)' is f' along m steps of
    that orbit, so the nodes come from orbit_degc_bound(f^k - z, f', m).
    f^k - z is monic in z, so the resultant is the product of x - (f^m)'
    over the points of period dividing k, symmetric in their
    multipliers under f^m; by c_stride it lies in Z[x][c^s] with
    s = c_stride(fam), and it is interpolated in c^s.
    """
    fk = iterate(fam, k) - BiPoly.gen("z")
    bound = orbit_degc_bound(fk, fam.map_poly.derivative(), m)
    return charpoly_interp(fk, multiplier_derivative(fam, m), degc_bound=bound,
                           stride=c_stride(fam))


def multiplier_scale(fam: Family, m: int) -> int:
    """Prefactor clearing denominators of delta_m in the rescaled variable."""
    d = fam.d
    deg = dynatomic_degree(fam.map_degree, m)
    if fam.kind == "linearterm":
        return d ** (deg // (d + 1))
    if fam.kind == "shifted":
        eps = 1 if m == 1 else 0
        return d ** ((d - 1) * eps + deg // (d + 1))
    return 1


def multiplier_degc_bound(fam: Family, m: int) -> int:
    """Proven bound on deg_c delta_m, from the size of its roots at c = oo.

    delta_m is the monic m-th root of Res_z(Phi*_m, x - (f^m)'), and
    (f^m)' is the product of f' along the orbit of z, which f permutes
    among the roots of Phi*_m: orbit_degc_bound(Phi*_m, f', m, m).  Each
    root of Phi*_m sits on a slope t of its Newton polygon and makes f'
    O(|c|^v(t)) there, so deg_c delta_m is at most the sum of max(0, v)
    over the roots.
    """
    return orbit_degc_bound(dynatomic(fam, m),
                            fam.map_poly.derivative(), m, m)


# The cache sits on this private function rather than on multiplier_poly:
# each call of multiplier_poly returns a MultiplierResult of its own, a
# mutable dataclass that a cache would share between callers.  And the
# benchmark's tracer wraps public functions to time them, then tells that
# its wrappers are gone by multiplier_poly having no __wrapped__, an
# attribute lru_cache would add.
@functools.lru_cache(maxsize=None)
def _multiplier_cached(fam: Family, m: int) -> BiPoly:
    phi = dynatomic(fam, m)
    omega = multiplier_derivative(fam, m)
    return charpoly_interp(phi, omega, degc_bound=multiplier_degc_bound(fam, m),
                           m=m)


def multiplier_poly(fam: Family, m: int) -> MultiplierResult:
    """delta_m: monic in x, the m-th root of Res_z(Phi*_m, x - (f^m)').

    Interpolated through multiplier_degc_bound + 1 nodes in c, plus one
    node that checks the bound; a mismatch raises BoundTooSmall.
    """
    delta = _multiplier_cached(fam, m)
    return MultiplierResult(m=m, delta=delta, scale=multiplier_scale(fam, m))


def multiplier_via_product(fam: Family, m: int) -> BiPoly:
    """Second route to delta_m: the m-th root of the Moebius product of
    Res_z(f^k - z, x - (f^m)') over k | m.

    Must agree with multiplier_poly; the test suite compares the two and
    never collapses them into one.
    """
    ratio = moebius_product(m, lambda k: fixed_point_resultant(fam, k, m))
    return nth_root(ratio, m)


def conjugacy_check(d: int) -> Verdict:
    """Semiconjugacy between the two degree-(d+1) families.

    With f = z^(d+1) + cz, ftil = z^(d+1) - c z^d + c and tau = z^d + c,
    verify tau(f(z)) = ftil(tau(z)) as an exact identity in Z[c][z].
    """
    f = Family("linearterm", d).map_poly
    ftil = Family("shifted", d).map_poly
    z = BiPoly.gen("z")
    c = BiPoly.cgen("z")
    tau = z ** d + c
    return Verdict.identity("degree-d1-semiconjugacy", {"d": d},
                            tau.compose(f), ftil.compose(tau))
