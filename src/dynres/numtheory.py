"""Small arithmetic functions used by the dynatomic machinery.

All of these are textbook; they are kept exact and unoptimized because
the arguments never get large (periods up to a few dozen).
"""
from __future__ import annotations

import functools
import math

from .polycore import IntPoly


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    if n <= 0:
        raise ValueError("divisors of a nonpositive integer")
    return [k for k in range(1, n + 1) if n % k == 0]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    """Moebius function.

    >>> [mobius(k) for k in range(1, 11)]
    [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    """
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient.

    >>> [euler_phi(k) for k in range(1, 11)]
    [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    """
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


def dynatomic_degree(d: int, n: int) -> int:
    """Degree of the period-n dynatomic polynomial of a degree-d map.

    This is sum over k | n of mu(n/k) d^k; for n = 1 it is d.

    >>> dynatomic_degree(2, 1), dynatomic_degree(2, 2), dynatomic_degree(2, 6)
    (2, 2, 54)
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    return sum(mobius(n // k) * d ** k for k in divisors(n))


def moebius_product(n: int, factor):
    """prod over k | n of factor(k) ** mu(n/k), as one exact division.

    The factors with mu(n/k) = 1 make one numerator product and those
    with mu(n/k) = -1 one denominator product, each multiplied in
    increasing order of k; factor is never called where mu(n/k) = 0.  A
    quotient that is not exact raises DivisionNotExact.

    >>> x = IntPoly.gen("x")
    >>> str(moebius_product(6, lambda k: x ** k - 1))
    'x^2 - x + 1'
    """
    num, den = [], []
    for k in divisors(n):
        mu = mobius(n // k)
        if mu:
            (num if mu == 1 else den).append(factor(k))
    return math.prod(num).exact_div(math.prod(den)) if den else math.prod(num)


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, the Moebius product of x^k - 1.

    >>> str(cyclotomic(1)), str(cyclotomic(2)), str(cyclotomic(6))
    ('x - 1', 'x + 1', 'x^2 - x + 1')
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    x = IntPoly.gen("x")
    return moebius_product(n, lambda k: x ** k - 1)


def common_prime_part(m: int, k: int) -> int:
    """Largest divisor of m supported on the primes of k.

    Used to split a period m as m = mtil * m' where mtil collects the
    primes shared with k and m' is coprime to k.

    >>> common_prime_part(12, 2), common_prime_part(12, 6), common_prime_part(5, 2)
    (4, 12, 1)
    """
    if m < 1 or k < 1:
        raise ValueError("need positive integers")
    out = 1
    for p in factorize(k):
        while m % p == 0:
            out *= p
            m //= p
    return out
