import pytest

from dynres.numtheory import (
    common_prime_part,
    cyclotomic,
    divisors,
    dynatomic_degree,
    euler_phi,
    factorize,
    mobius,
    moebius_product,
)
from dynres.errors import DivisionNotExact
from dynres.polycore import IntPoly


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisors(97) == [1, 97]


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}
    assert factorize(1024) == {2: 10}


def test_mobius():
    assert [mobius(k) for k in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    # mu sums to zero over the divisors of every n > 1
    for n in range(2, 50):
        assert sum(mobius(k) for k in divisors(n)) == 0


def test_euler_phi():
    assert [euler_phi(k) for k in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    for n in range(1, 50):
        assert sum(euler_phi(k) for k in divisors(n)) == n


def test_dynatomic_degree():
    # degree-2 family: the familiar sequence
    assert [dynatomic_degree(2, n) for n in range(1, 7)] == [
        2, 2, 6, 12, 30, 54]
    # Mobius inversion back to d^n
    for d in (2, 3, 5):
        for n in range(1, 9):
            assert sum(dynatomic_degree(d, k) for k in divisors(n)) == d ** n


def test_cyclotomic_small():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)
    # first case with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic(105).coeffs) == -2


def test_cyclotomic_product():
    for n in (1, 2, 6, 12, 30):
        prod = IntPoly((1,), "x")
        for k in divisors(n):
            prod = prod * cyclotomic(k)
        want = IntPoly([-1] + [0] * (n - 1) + [1], "x")
        assert prod == want


def test_moebius_product():
    x = IntPoly.gen("x")
    one = x + 1
    assert moebius_product(1, lambda k: one) == one
    for n in range(1, 31):
        assert moebius_product(n, lambda k: x ** k - 1) == cyclotomic(n)
    # factor is asked only where mu(n/k) is nonzero, in divisor order
    asked = []
    moebius_product(12, lambda k: asked.append(k) or x ** k - 1)
    assert asked == [2, 4, 6, 12]
    # (x + 1)^mu(2/1) (x + 2)^mu(2/2) = (x + 2) / (x + 1) is not exact
    with pytest.raises(DivisionNotExact):
        moebius_product(2, lambda k: x + k)


def test_common_prime_part():
    assert common_prime_part(12, 2) == 4
    assert common_prime_part(12, 6) == 12
    assert common_prime_part(5, 2) == 1
    assert common_prime_part(1, 7) == 1
    assert common_prime_part(72, 6) == 72
