"""Exact cyclotomic arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from rhocalc.cyclo import Cyclo, cyclotomic_poly
from rhocalc.errors import NotInvertible


KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("n,coeffs", sorted(KNOWN_CYCLOTOMICS.items()))
def test_cyclotomic_polynomials(n, coeffs):
    assert cyclotomic_poly(n) == coeffs


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 201):
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert cyclotomic_poly(n) == tuple(int(c) for c in want), n


def test_root_of_unity_orders():
    z8 = Cyclo.root_of_unity(8)
    assert z8 ** 8 == Cyclo.one()
    assert z8 ** 4 == Cyclo.rational(-1)
    assert not (z8 ** 2).is_rational()
    assert Cyclo.root_of_unity(2) == Cyclo.rational(-1)
    assert Cyclo.root_of_unity(1) == Cyclo.one()


def test_from_phase():
    assert Cyclo.from_phase(Fraction(1, 4)) == Cyclo.root_of_unity(4)
    assert Cyclo.from_phase(Fraction(3, 2)) == Cyclo.rational(-1)
    assert Cyclo.from_phase(Fraction(5, 1)) == Cyclo.one()
    assert Cyclo.from_phase(Fraction(-1, 4)) == Cyclo.root_of_unity(4, 3)


def _random_element(rng, n):
    deg = len(cyclotomic_poly(n)) - 1
    return Cyclo(n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(deg)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
def test_field_axioms(n):
    rng = random.Random(7 * n)
    for _ in range(25):
        a, b, c = (_random_element(rng, n) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == Cyclo.one()


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15, 16, 24])
def test_inverse_stays_at_its_conductor(n):
    rng = random.Random(11 * n)
    for _ in range(10):
        dense = _random_element(rng, n)
        sparse = Cyclo.root_of_unity(n, rng.randrange(n)) + rng.randint(-3, 3)
        for a in (dense, sparse):
            if a.is_zero():
                continue
            inv = a.inverse()
            assert a * inv == Cyclo.one()
            assert inv.n == a.n


def test_zero_has_no_inverse():
    with pytest.raises(NotInvertible):
        Cyclo.zero().inverse()


def test_lift_is_arithmetic_preserving():
    rng = random.Random(99)
    for _ in range(25):
        a = _random_element(rng, 4)
        b = _random_element(rng, 4)
        assert (a * b).lift(8) == a.lift(8) * b.lift(8)
        assert (a + b).lift(12) == a.lift(12) + b.lift(12)
        # lifting preserves identity of values
        assert a.lift(8) == a
        assert a.lift(8).lift(24) == a


def test_lift_rejects_non_multiple():
    with pytest.raises(ValueError):
        Cyclo.root_of_unity(4).lift(6)


def test_mixed_conductor_arithmetic():
    i = Cyclo.root_of_unity(4)       # conductor 4
    m = Cyclo.root_of_unity(2)       # -1 at conductor 2
    assert i * i == m
    assert (i + m).n == 4
    z8 = Cyclo.root_of_unity(8)
    assert z8 * z8 == i


def test_text_roundtrip_values():
    assert Cyclo.rational(Fraction(-3, 2)).text() == "-3/2"
    assert Cyclo.root_of_unity(8, 3).text() == "zeta(8)^3"
    assert (Cyclo.one() + Cyclo.root_of_unity(4)).text() == "1 + zeta(4)"
    assert (Cyclo.one() - Cyclo.root_of_unity(4)).text() == "1 - zeta(4)"
    assert Cyclo.zero().text() == "0"


def _sympy_poly(sympy, x, a, m):
    """a as a polynomial in zeta_m, m a multiple of its conductor, unreduced."""
    step = m // a.n
    coeffs = [0] * (step * (len(a.coeffs) - 1) + 1)
    for k, c in enumerate(a.coeffs):
        coeffs[k * step] = sympy.Rational(c.numerator, c.denominator)
    return sympy.Poly(coeffs[::-1], x, domain="QQ")


def _oracle_operand(rng, n):
    """A dense, sparse or rational value at conductor n, or a rational at
    conductor 1."""
    kind = rng.randrange(4)
    if kind == 0:
        return _random_element(rng, n)
    if kind == 1:
        return Cyclo.root_of_unity(n, rng.randrange(n)) * rng.randint(-3, 3)
    r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if kind == 2:
        return Cyclo(n, [r])
    return Cyclo.rational(rng.choice((r, 1, 0)))


def test_field_arithmetic_matches_sympy():
    # products, sums and inverses against Q[x] modulo cyclotomic_poly(m);
    # a result lives at the lcm of its operands' conductors, which covers
    # conductor-1 factors and rational values stored at conductor > 1
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2024)
    for _ in range(300):
        m = rng.randint(1, 60)
        divs = [d for d in range(1, m + 1) if m % d == 0]
        a, b = (_oracle_operand(rng, rng.choice(divs)) for _ in range(2))
        lcm = a.n * b.n // math.gcd(a.n, b.n)
        phi = sympy.Poly(sympy.cyclotomic_poly(lcm, x), x, domain="QQ")
        pa, pb = _sympy_poly(sympy, x, a, lcm), _sympy_poly(sympy, x, b, lcm)
        for got, want in ((a * b, pa * pb), (b * a, pa * pb), (a + b, pa + pb),
                          (a - b, pa - pb)):
            assert got.n == lcm, (a, b)
            assert got == Cyclo(lcm, [Fraction(int(c.p), int(c.q))
                                      for c in reversed(want.rem(phi).all_coeffs())])
            assert len(got.coeffs) == phi.degree()
        if not b.is_zero() and rng.random() < 0.25:
            inv = b.inverse()
            phib = sympy.Poly(sympy.cyclotomic_poly(b.n, x), x, domain="QQ")
            want = _sympy_poly(sympy, x, b, b.n).invert(phib)
            assert inv.n == b.n
            assert inv == Cyclo(b.n, [Fraction(int(c.p), int(c.q))
                                      for c in reversed(want.all_coeffs())])
