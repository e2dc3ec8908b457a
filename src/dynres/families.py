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
Res_z(Phi*_m, x - (f^m)'), the fixed-point resultants
Res_z(f^k - z, x - (f^m)') and the cyclotomic factors
Res_z(Phi_e(P_k), x - (f^m)') of the shifted family's auxiliary
resultant over H_k = P_k^d - 1 are all multiplier_resultant, except the
Phi_1 factor, which is R_{k,m}, and, for even d and odd k, each
Phi_(2e) factor, which is the Phi_e factor at -c and enters only
through the norm R(c) R(-c) of that factor (see
invariants.aux_shifted).  multiplier_resultant is Res_z(F, x - (f^m)')
for a monic F whose roots f permutes, or its monic root-th root.  It is
interpolated from integer nodes by resultants.charpoly_interp, and
the number of nodes comes from the proven bound orbit_degc_bound.  At
each node the power sums of the root are the traces of ((f^m)')^k
modulo F divided by the root index, and Newton's identities turn them
into its coefficients.  The fixed-point resultants are cached; their
Moebius product and one exact m-th root give delta_m a second,
independent time, in multiplier_via_product.  charpoly_interp reads
the symmetries that cut the work off the supports of F and (f^m)': the
rotations z -> zeta z that commute with f (d of them for linearterm),
by which delta_m comes from charpolys in w = z^d, and the conjugations
that send c to zeta c, by which it is interpolated in C = c^s.
c_stride predicts the same s from the map alone; rescale_extract
checks the rescaled subring against it.

Dynatomic degrees grow fast.  The functions here compute whatever they
are asked for; the size guardrail DEGREE_CAP is checked where outside
input arrives instead: `dynres table` calls check_degree (unless given
--allow-large), and parabolic.classify stops before the first period
above the cap.
"""
from __future__ import annotations

import dataclasses
import functools
import math

from .errors import GuardrailExceeded
from .numtheory import divisors, dynatomic_degree, moebius_product
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
        # bool is an int subclass, and a float d such as 2.0 would hash
        # equal to 2 in the iterate caches.
        if isinstance(self.d, bool) or not isinstance(self.d, int):
            raise ValueError("family degree must be an int, not %r"
                             % (self.d,))
        dmin = 2 if self.kind == "unicritical" else 1
        if self.d < dmin:
            raise ValueError("%s family needs d >= %d" % (self.kind, dmin))

    @property
    def map_degree(self) -> int:
        # a table, so that check_degree refuses a huge d without a map
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


@functools.lru_cache(maxsize=None)
def c_stride(fam: Family) -> int:
    """The stride t that conjugation proves: the multipliers of f_c, as
    a multiset at each period, depend on c^t only.

    Let zeta be a primitive s-th root of unity and 0 <= e < s with
    e i + j = 1 (mod s) on every term c^i z^j of f.  Then zeta^j =
    zeta^(1 - e i) term by term, so f_c(zeta z) = zeta f_c'(z) with
    c' = zeta^-e c: phi(z) = zeta z conjugates f_c' to f_c, carrying
    the period-k points of f_c' to those of f_c with (f_c'^m)'(w) =
    (f_c^m)'(zeta w).  A polynomial in c built symmetrically from these
    multipliers is the same at c and c', and zeta^-e has order
    t = s / gcd(e, s), so it lies in Z[c^t].  The monic z^D forces
    s | D - 1; c_stride is the largest t over those s and all e: d - 1
    for unicritical (e = 1), 1 for linearterm (e = 0), d for shifted
    (e = 1), d + 1 for quadcrit (e = s - 1).  It is sound but not always
    largest: z^4 + c^2 z gets 1, as c -> -c rotates no z.  It is the
    stride of the rescaled subring of invariants.rescale_extract, a
    prediction independent of the one charpoly_interp reads off
    (Phi*_m, (f^m)').  Cached: a fresh Family builds its map.

    >>> [c_stride(Family(kind, 4)) for kind in KINDS]
    [3, 1, 4, 5]
    """
    f = fam.map_poly
    terms = f.support()
    return max(s // math.gcd(e, s) for s in divisors(f.degree - 1)
               for e in range(s)
               if all((e * i + j - 1) % s == 0 for i, j in terms))


def multiplier_resultant(fam: Family, F: BiPoly, m: int,
                         root: int = 1) -> BiPoly:
    """The monic root-th root of Res_z(F, x - (f^m)'), for F monic in z
    with roots that f permutes, as for Phi*_m, f^k - z and H_k.  It is
    resultants.charpoly_interp, which reads its symmetries off F and
    (f^m)'.

    (f^m)' is f' along m steps of the orbit of z, which f permutes among
    the roots of F, so the nodes come from orbit_degc_bound(F, f', m,
    root): each root sits on a slope t of F's Newton polygon and makes
    f' O(|c|^v(t)) there, so the c-degree is at most m times the sum of
    max(0, v) over the roots, divided by root.  Not cached: F is
    unhashable, and every caller caches its own result.
    """
    return charpoly_interp(F, multiplier_derivative(fam, m),
                           orbit_degc_bound(F, fam.map_poly.derivative(), m,
                                            root), m=root)


@functools.lru_cache(maxsize=None)
def fixed_point_resultant(fam: Family, k: int, m: int) -> BiPoly:
    """Res_z(f^k - z, x - (f^m)'), symmetric in the m-th iterate's
    multipliers at the points of period dividing k, which f permutes."""
    return multiplier_resultant(fam, iterate(fam, k) - BiPoly.gen("z"), m)


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


# The cache sits on this private function rather than on multiplier_poly:
# each call of multiplier_poly returns a MultiplierResult of its own, a
# mutable dataclass that a cache would share between callers.  And the
# benchmark's tracer wraps public functions to time them, then tells that
# its wrappers are gone by multiplier_poly having no __wrapped__, an
# attribute lru_cache would add.
@functools.lru_cache(maxsize=None)
def _multiplier_cached(fam: Family, m: int) -> BiPoly:
    return multiplier_resultant(fam, dynatomic(fam, m), m, root=m)


def multiplier_poly(fam: Family, m: int) -> MultiplierResult:
    """delta_m: monic in x, the m-th root of Res_z(Phi*_m, x - (f^m)').

    f permutes the roots of Phi*_m in cycles of length m sharing one
    (f^m)', so with root m the bound of multiplier_resultant is the sum
    of max(0, v) over the roots of Phi*_m.  For linearterm, Phi*_m and
    (f^m)' are polynomials in z^d, up to the root z = 0 of Phi*_1, and
    charpoly_interp takes delta_m as a power of a monic root of a
    resultant in w = z^d, from charpolys of size deg Phi*_m / d.
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
