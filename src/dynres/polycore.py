"""Dense exact polynomial arithmetic over Z and over Z[c].

Two layers on one dense base.  ``IntPoly`` is a univariate polynomial
with integer coefficients, stored dense in ascending order with
trailing zeros stripped.  ``BiPoly`` is a polynomial in a main variable
(``z`` while iterating maps, ``x`` for multiplier polynomials) whose
coefficients are ``IntPoly`` values in the parameter ``c``.  Both take
their ring operations and exact division from ``_Dense``, and share one
product kernel ``_polymul``, one division kernel ``_divmod``, one
Horner loop ``_horner`` and one term order ``_descending``, which work
on coefficient lists of ints and of IntPolys alike.  ``_divmod`` is
behind ``exact_div``, the IntPoly pseudo-remainder ``prem``, the
BiPoly remainder ``rem_monic`` and the multiplication matrices of
``resultants``; ``_descending`` is behind both ``__str__`` methods and
``serialize.poly_terms``.
Evaluation at a rational point is ``_Dense.cleared_eval``, one
homogeneous Horner loop for den^n P(num/den): an integer for an
IntPoly at integers, a c-polynomial for a BiPoly at a polynomial in c.
``NewtonPolygon`` reads the c-degrees of a ``BiPoly``'s coefficients
as a lower convex hull.

Everything is exact.  There is no floating point anywhere in this
module, no modular shortcut, and every division either succeeds exactly
or raises :class:`~dynres.errors.DivisionNotExact`.

The zero polynomial has ``degree None``; read it as "minus infinity".
A plain ``-1`` would invite silent arithmetic on a sentinel, so it is
deliberately not an int.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import DivisionNotExact, NotPerfectPower, ZeroPolynomial


def _strip(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _polymul(a: Sequence, b: Sequence, zero=0) -> list:
    """Dense product of two ascending coefficient lists of ints or of
    IntPolys; zero coefficients on either side are skipped."""
    if not a or not b:
        return []
    nonzero = [(j, y) for j, y in enumerate(b) if y]
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero:
                out[i + j] += x * y
    return out


def _divmod(a: Sequence, b: Sequence, cdiv=None) -> tuple[list, list]:
    """Long division of a by the nonzero b, ascending lists of ints or
    of IntPolys: the quotient, and the remainder in deg b entries with
    trailing zeros kept.  Each quotient coefficient is the exact
    cdiv(top, lc b); cdiv None asserts a monic b, whose quotient
    coefficient is the top coefficient itself."""
    n = len(b) - 1
    low = [(j, y) for j, y in enumerate(b[:n]) if y]
    rem = list(a)
    q = [0] * max(len(rem) - n, 0)
    for i in range(len(rem) - 1, n - 1, -1):
        top = rem[i]
        if top:
            if cdiv is not None:
                top = cdiv(top, b[n])
            q[i - n] = top
            for j, y in low:
                rem[i - n + j] -= top * y
    del rem[n:]
    return q, rem


def _descending(coeffs: Sequence) -> list[tuple]:
    """(exponent, coefficient) of the nonzero coeffs, exponent descending."""
    return [(e, coeffs[e]) for e in range(len(coeffs) - 1, -1, -1)
            if coeffs[e]]


def _horner(coeffs: Sequence, value, acc):
    """The sum of coeffs[i] * value^i by Horner's rule; acc is the zero
    of the ring the result lives in."""
    for a in reversed(coeffs):
        acc = acc * value + a
    return acc


class _Dense:
    """What IntPoly and BiPoly share: a tuple of ascending coefficients
    with trailing zeros stripped.

    A subclass supplies ``_new`` (a polynomial of its own kind and
    variables), ``_coerce``, ``_czero`` (its zero coefficient), ``_cdiv``
    (exact division of one coefficient by another) and ``_term`` (the
    text of one term).
    """

    coeffs: tuple

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._czero

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return self._new([self.coeff(i) + o.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return self._new([-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._new(_polymul(self.coeffs, o.coeffs, self._czero))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self._new((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def exact_div(self, divisor):
        """Exact quotient in the same ring; raises DivisionNotExact
        otherwise."""
        if divisor.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        q, rem = _divmod(self.coeffs, divisor.coeffs, self._cdiv)
        if any(rem):
            raise DivisionNotExact("nonzero remainder")
        return self._new(q)

    def derivative(self):
        return self._new([a * i for i, a in enumerate(self.coeffs)][1:])

    def __str__(self) -> str:
        """The nonzero terms, highest first, each written by the
        subclass's ``_term(exponent, coefficient)``; "0" for zero."""
        terms = [self._term(i, a) for i, a in _descending(self.coeffs)]
        return " + ".join(terms).replace("+ -", "- ") or "0"

    def cleared_eval(self, num, den: int, n: int):
        """den^n * self(num/den) for n at least deg self, by one
        homogeneous Horner loop; with den > 0 it has the sign of
        self(num/den).

        >>> IntPoly([1, -3, 2], "x").cleared_eval(3, 2, 2)   # 4 p(3/2)
        4
        """
        if n + 1 < len(self.coeffs):
            raise ValueError("clearing exponent %d below degree %d"
                             % (n, self.degree))
        acc, power = self._czero, den ** (n + 1 - len(self.coeffs))
        for a in reversed(self.coeffs):
            acc = acc * num + a * power
            power *= den
        return acc



@dataclasses.dataclass(init=False, eq=True)
class IntPoly(_Dense):
    """Polynomial in one variable over the integers.

    >>> p = IntPoly([1, 2, 1], "c")
    >>> q = IntPoly([-1, 1], "c")
    >>> (p * q).coeffs
    (-1, -1, 1, 1)
    >>> p.exact_div(IntPoly([1, 1], "c")).coeffs
    (1, 1)
    """

    coeffs: tuple[int, ...]
    _czero = 0

    def __init__(self, coeffs: Iterable[int] = (), var: str = "t"):
        coeffs = list(coeffs)
        for a in coeffs:
            if type(a) is not int:
                raise ValueError("IntPoly coefficient %r is not an int" % a)
        self.coeffs = _strip(coeffs)
        # Display tag only; it takes no part in equality or hashing.
        self.var = var

    @classmethod
    def const(cls, a: int, var: str = "t") -> "IntPoly":
        return cls((a,), var)

    @classmethod
    def gen(cls, var: str = "t") -> "IntPoly":
        return cls((0, 1), var)

    def _new(self, coeffs) -> "IntPoly":
        return IntPoly(coeffs, self.var)

    def _coerce(self, other) -> "IntPoly | None":
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly.const(other, self.var)
        return None

    @staticmethod
    def _cdiv(a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r:
            raise DivisionNotExact(
                "leading coefficient %d not divisible by %d" % (a, b))
        return q

    def prem(self, divisor: "IntPoly") -> "IntPoly":
        """Remainder of |lc divisor|^(deg self - deg divisor + 1) * self,
        a positive multiple of the remainder over Q; all steps exact."""
        k = max(len(self.coeffs) - len(divisor.coeffs) + 1, 0)
        scaled = self * abs(divisor.lc) ** k
        return self._new(_divmod(scaled.coeffs, divisor.coeffs, self._cdiv)[1])

    def primitive(self) -> "IntPoly":
        """self divided by the positive gcd of its coefficients."""
        g = gcd(*self.coeffs)
        return self._new([a // g for a in self.coeffs]) if g > 1 else self

    def __call__(self, value: int) -> int:
        """Evaluate by Horner's rule at an integer."""
        return _horner(self.coeffs, value, 0)

    def _term(self, i: int, a: int) -> str:
        if i == 0:
            return str(a)
        var = self.var if i == 1 else "%s^%d" % (self.var, i)
        if a in (1, -1):
            return var if a == 1 else "-" + var
        return "%d*%s" % (a, var)


@dataclasses.dataclass(init=False, eq=True)
class BiPoly(_Dense):
    """Polynomial in a main variable with IntPoly coefficients in c.

    >>> z = BiPoly.gen("z")
    >>> c = BiPoly.cgen("z")
    >>> f = z * z + c          # the quadratic family
    >>> f.degree
    2
    >>> f.deg_c
    1
    """

    coeffs: tuple[IntPoly, ...]

    def __init__(self, coeffs: Iterable = (), main_var: str = "z",
                 cvar: str = "c"):
        lifted = []
        for a in coeffs:
            if isinstance(a, IntPoly):
                lifted.append(IntPoly(a.coeffs, cvar))
            elif isinstance(a, int):
                lifted.append(IntPoly.const(a, cvar))
            else:
                raise ValueError("BiPoly coefficients must be IntPoly or int")
        self.coeffs = _strip(lifted)
        self.main_var = main_var
        self.cvar = cvar

    @classmethod
    def const(cls, a, main_var: str = "z", cvar: str = "c") -> "BiPoly":
        return cls((a,), main_var, cvar)

    @classmethod
    def gen(cls, main_var: str = "z", cvar: str = "c") -> "BiPoly":
        return cls((0, 1), main_var, cvar)

    @classmethod
    def cgen(cls, main_var: str = "z", cvar: str = "c") -> "BiPoly":
        """The parameter c as a constant in the main variable."""
        return cls((IntPoly.gen(cvar),), main_var, cvar)

    @property
    def deg_c(self) -> int | None:
        degs = [a.degree for a in self.coeffs if not a.is_zero]
        return max(degs) if degs else None

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].coeffs == (1,)

    @property
    def _czero(self) -> IntPoly:
        return IntPoly((), self.cvar)

    def _new(self, coeffs) -> "BiPoly":
        return BiPoly(coeffs, self.main_var, self.cvar)

    def _coerce(self, other) -> "BiPoly | None":
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, (IntPoly, int)):
            return BiPoly((other,), self.main_var, self.cvar)
        return None

    @staticmethod
    def _cdiv(a: IntPoly, b: IntPoly) -> IntPoly:
        return a.exact_div(b)

    # Bound in the class's own namespace as well: the benchmark's tracer
    # wraps BiPoly.__dict__["exact_div"].
    exact_div = _Dense.exact_div

    def rem_monic(self, mod: "BiPoly") -> "BiPoly":
        """Remainder modulo a polynomial monic in the main variable."""
        if not mod.is_monic:
            raise ValueError("modulus must be monic in the main variable")
        return self._new(_divmod(self.coeffs, mod.coeffs)[1])

    def compose(self, inner: "BiPoly") -> "BiPoly":
        """Substitute inner for the main variable."""
        return _horner(self.coeffs, inner,
                       BiPoly((), inner.main_var, self.cvar))

    def eval_main_int(self, value: Union[int, IntPoly]) -> IntPoly:
        """Evaluate the main variable at an integer or at a polynomial in
        c, leaving a c-polynomial."""
        return _horner(self.coeffs, value, IntPoly((), self.cvar))

    def specialize_c_int(self, c0: int) -> IntPoly:
        """Specialize c to an integer, leaving a main-variable polynomial."""
        return IntPoly([a(c0) for a in self.coeffs], self.main_var)

    def scale_c(self, s: IntPoly) -> "BiPoly":
        """Multiply by a polynomial in c alone."""
        return BiPoly([a * s for a in self.coeffs], self.main_var, self.cvar)

    def _term(self, i: int, a: IntPoly) -> str:
        if i == 0:
            return "(%s)" % a
        var = self.main_var if i == 1 else "%s^%d" % (self.main_var, i)
        return "(%s)*%s" % (a, var)


def nth_root(p: BiPoly, n: int) -> BiPoly:
    """Exact n-th root of a polynomial monic in its main variable.

    Coefficients are matched from the top down.  Adding a x^(k-j) to a
    monic partial root r of degree k, whose terms below x^(k-j+1) are
    still zero, changes r^n at x^(nk-j) by n a and leaves every higher
    coefficient alone; so each coefficient is one exact division,
    a = ([x^(nk-j)] p - [x^(nk-j)] r^n) / n, and no later term can undo
    a match already made.  The candidate is then re-expanded and
    compared against the input, so a wrong root can never be returned.

    >>> z = BiPoly.gen("z")
    >>> c = BiPoly.cgen("z")
    >>> r = z * z + c * z - 3
    >>> nth_root(r * r * r, 3) == r
    True
    """
    if n <= 0:
        raise ValueError("root index must be positive")
    if n == 1:
        return p
    if not p.is_monic:
        raise ValueError("nth_root requires a polynomial monic in the main variable")
    deg = p.degree
    if deg % n != 0:
        raise NotPerfectPower("degree %d is not divisible by %d" % (deg, n))
    k = deg // n
    coeffs = [IntPoly((), p.cvar)] * k + [IntPoly.const(1, p.cvar)]
    scalar = IntPoly.const(n, p.cvar)
    for j in range(1, k + 1):
        have = BiPoly(coeffs, p.main_var, p.cvar) ** n
        try:
            coeffs[k - j] = (p.coeff(n * k - j)
                             - have.coeff(n * k - j)).exact_div(scalar)
        except DivisionNotExact as exc:
            raise NotPerfectPower("coefficient match fails: %s" % exc) from exc
    root = BiPoly(coeffs, p.main_var, p.cvar)
    if root ** n != p:
        raise NotPerfectPower("re-expansion check failed")
    return root


def _newton_interpolate(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Ascending coefficients of the integer polynomial through the
    points (xs[i], ys[i]), by Newton's divided differences.

    The divided differences of a polynomial with integer coefficients at
    distinct integer points are integers, so every division is exact;
    one that is not raises DivisionNotExact.
    """
    n = len(xs) - 1
    a = list(ys)
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            q, r = divmod(a[i] - a[i - 1], xs[i] - xs[i - k])
            if r:
                raise DivisionNotExact(
                    "interpolation values are not polynomial of this degree")
            a[i] = q
    # Newton form to monomial form, innermost factor first.
    p = [a[n]]
    for k in range(n - 1, -1, -1):
        p.append(0)
        for i in range(len(p) - 1, 0, -1):
            p[i] = p[i - 1] - xs[k] * p[i]
        p[0] = a[k] - xs[k] * p[0]
    return p


def interpolate_intpolys(values: Sequence[IntPoly], main_var: str = "x",
                         cvar: str = "c", stride: int = 1) -> BiPoly:
    """BiPoly through (i, values[i]) for the nodes c = 0, 1, ..., n,
    whose c-exponents are all multiples of stride.

    Each main-variable coefficient is interpolated as a polynomial in
    C = c^stride at the distinct points i^stride, then written back in c.
    """
    n = len(values) - 1
    if n < 0:
        raise ValueError("need at least one value")
    if stride < 1:
        raise ValueError("stride must be positive")
    xs = [i ** stride for i in range(n + 1)]
    width = max((len(v.coeffs) for v in values), default=0)
    out_coeffs = []
    for xi in range(width):
        cs = _newton_interpolate(xs, [v.coeff(xi) for v in values])
        spread = [0] * (stride * (len(cs) - 1) + 1)
        spread[::stride] = cs
        out_coeffs.append(IntPoly(spread, cvar))
    return BiPoly(out_coeffs, main_var, cvar)


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclasses.dataclass(frozen=True)
class NewtonPolygon:
    """Newton polygon of a BiPoly over the valuation -deg_c.

    The polygon is the lower convex hull of the points (i, -deg_c a_i)
    over the nonzero coefficients a_i.  A segment of slope t and
    horizontal length l records l roots whose c-degree is t: they grow
    like |c|^t as c -> oo.  Roots at 0 have no finite point to sit on;
    their number is kept separately as zero_order.
    """

    zero_order: int
    vertices: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, P: BiPoly) -> "NewtonPolygon":
        if P.is_zero:
            raise ValueError("the zero polynomial has no polygon")
        pts = [(i, -a.degree) for i, a in enumerate(P.coeffs) if not a.is_zero]
        hull: list[tuple[int, int]] = []
        for p in pts:
            while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
                hull.pop()
            hull.append(p)
        return cls(zero_order=pts[0][0], vertices=tuple(hull))

    @property
    def slopes(self) -> list[tuple[Fraction, int]]:
        """(slope, horizontal length) per segment, slopes increasing."""
        out = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            out.append((Fraction(y1 - y0, x1 - x0), x1 - x0))
        return out

    def single_slope(self) -> Fraction | None:
        """The common slope if the polygon is one segment, else None."""
        segs = self.slopes
        if self.zero_order == 0 and len(segs) == 1:
            return segs[0][0]
        return None

    @property
    def max_slope(self) -> Fraction | None:
        segs = self.slopes
        return segs[-1][0] if segs else None

    def to_dict(self) -> dict:
        return {"zero_order": self.zero_order,
                "vertices": [list(v) for v in self.vertices]}
