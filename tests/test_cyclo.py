"""Exact cyclotomic arithmetic."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from rhocalc import cyclo
from rhocalc.cyclo import (Cyclo, basis_mul, cyclotomic_poly, fraction_text,
                          power, root, signed_sum, totient)
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


def _slots(value, n):
    """value's nonzero tensor-slot numerators at conductor n."""
    return {j: x for j, x in enumerate(value.lift(n).num) if x}


def _descend(value, d):
    return Cyclo.from_ints(value.n, _slots(value, value.n), value.den, d)


def test_from_ints_stores_a_value_at_a_divisor_or_raises():
    z8, z12 = Cyclo.root_of_unity(8), Cyclo.root_of_unity(12)
    assert _descend(Cyclo.root_of_unity(6), 3).text() == "1 + zeta(3)"
    assert _descend(z12 ** 4, 3).text() == "zeta(3)"
    half = Cyclo.rational(Fraction(-1, 2)).lift(2)
    assert half.n == 2 and _descend(half, 1).n == 1
    assert _descend(z8 ** 2 * Fraction(3, 4), 4).text() == "3/4*zeta(4)"
    for value, d in ((z8, 4), (z8, 1), (z12 + 1, 6), (z12 ** 4, 4)):
        with pytest.raises(ValueError, match="not in"):
            _descend(value, d)
    with pytest.raises(ValueError, match="divide"):
        _descend(z8, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 24, 30, 105])
def test_power_reduces_z_to_the_e(n):
    assert totient(n) == len(cyclotomic_poly(n)) - 1
    for e in range(-n, 2 * n):
        want = Cyclo.root_of_unity(n, e).coeffs
        assert dict(power(n, e)) == {i: a for i, a in enumerate(want) if a}
        if n & (n - 1) == 0:
            assert len(power(n, e)) == 1 and power(n, e)[0][1] in (1, -1)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 9, 12, 15, 16, 24, 30, 45, 105])
def test_tensor_basis_multiplies_as_cyclo_does(n):
    # products through basis_mul and roots through root, read back by
    # from_ints, equal Cyclo arithmetic; slot 0 is 1
    rng = random.Random(n)
    assert root(n, 0) == ((0, 1),)
    for _ in range(4):
        a, b = (Cyclo(n, [rng.randint(-3, 3) for _ in range(totient(n))]) for _ in "ab")
        prod: dict = {}
        for s, x in _slots(a, n).items():
            for r, y in _slots(b, n).items():
                for t, z in basis_mul(n, s, r):
                    prod[t] = prod.get(t, 0) + x * y * z
        assert Cyclo.from_ints(n, prod, 1, n) == a * b
    for e in range(-n, 2 * n):
        for j in {0, 1 % totient(n), totient(n) // 2, totient(n) - 1}:
            shifted = dict(root(n, e, j))
            want = Cyclo.root_of_unity(n, e) * Cyclo.from_ints(n, {j: 1}, 1, n)
            assert Cyclo.from_ints(n, shifted, 1, n) == want, (e, j)


def test_conductor_factoring_stops_instead_of_hanging():
    # the tensor basis and Phi_n need n's primes; trial division stops at
    # 10^6, so a cofactor that may hide a factor above 10^12 raises at once
    assert cyclo._primes(2 * 3 * 5 * 7 * 1000003) == (2, 3, 5, 7, 1000003)
    assert totient(10 ** 12 + 39) == 10 ** 12 + 38     # a prime below the bound
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large"):
        root(1000003 * (10 ** 12 + 39), 1)
    assert time.perf_counter() - start < 5


def test_roots_and_descent_stay_linear_at_a_large_conductor():
    # conductor 2 * 10007 (phi 10006): a rational and 3/2 - zeta(10007)/4
    # come back from their tensor numerators, lift and multiply with no
    # table quadratic in the conductor; only the printed form divides
    n, p = 20014, 10007
    tracemalloc.start()
    try:
        start = time.perf_counter()
        num = {0: 6}
        assert Cyclo.from_ints(n, num, 4, 1).text() == "3/2"
        for slot, c in root(n, p + 2):       # zeta(20014)^10009 = -zeta(10007)
            num[slot] = num.get(slot, 0) + c
        with pytest.raises(ValueError, match="not in"):
            Cyclo.from_ints(n, num, 4, 1)
        value = Cyclo.from_ints(n, num, 4, p)
        assert value.text() == "3/2 - 1/4*zeta(10007)"
        assert value.lift(n).text() == "3/2 - 1/4*zeta(20014)^2"
        assert _descend(value.lift(n), p).num == value.num
        dense = Cyclo.from_ints(n, dict(root(n, -2)), 1, p)    # zeta(10007)^-1
        assert dense.n == p and dense.n_terms() == p - 1
        assert dense.lift(n).text() == "-zeta(20014)^10005"
        z = Cyclo.root_of_unity(p, -1)
        chain = z * z * (Fraction(3, 2) + Cyclo.root_of_unity(p))
        assert chain == Cyclo(p, [0] * (p - 2) + [Fraction(3, 2), 1])
        text = chain.text()     # 3/2 zeta^-2 + zeta^-1, zeta^-1 = -1 - ... - zeta^10005
        assert text.startswith("-1 - zeta(10007) - zeta(10007)^2 - ")
        assert text.endswith(" - zeta(10007)^10004 + 1/2*zeta(10007)^10005")
        assert chain.n_terms() == p - 1
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5 and peak < 20e6, (elapsed, peak)


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


# -- byte oracle: the Fraction-tuple scalar class the integer core replaced --------


def _fraction_reduce(coeffs, n):
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        coeffs[i] = Fraction(0)
        for j in range(deg):
            coeffs[i - deg + j] -= c * phi[j]
    coeffs = coeffs[:deg] + [Fraction(0)] * (deg - len(coeffs))
    return tuple(coeffs[:deg])


class FractionCyclo:
    """Q(zeta_n) in the power basis modulo Phi_n with Fraction coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs, *, reduce=True):
        self.n = n
        vals = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        self.coeffs = _fraction_reduce(vals, n) if reduce else tuple(vals)

    @staticmethod
    def rational(x):
        return FractionCyclo(1, [Fraction(x)], reduce=False)

    @staticmethod
    def one():
        return FractionCyclo.rational(1)

    def lift(self, m):
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("lift target must be a conductor multiple")
        step = m // self.n
        out = [Fraction(0)] * (len(self.coeffs) * step + 1)
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return FractionCyclo(m, out)

    @staticmethod
    def _unify(a, b):
        if a.n == b.n:
            return a, b
        m = math.lcm(a.n, b.n)
        return a.lift(m), b.lift(m)

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def __add__(self, other):
        a, b = FractionCyclo._unify(self, other)
        return FractionCyclo(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)],
                             reduce=False)

    def __neg__(self):
        return FractionCyclo(self.n, [-c for c in self.coeffs], reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.n == 1 or other.n == 1:  # scale; the lcm is the other's conductor
            r, x = (self.coeffs[0], other) if self.n == 1 else (other.coeffs[0], self)
            return x if r == 1 else FractionCyclo(x.n, [r * c for c in x.coeffs],
                                                  reduce=False)
        a, b = FractionCyclo._unify(self, other)
        n = len(a.coeffs)
        out = [Fraction(0)] * (2 * n - 1)
        for i, ci in enumerate(a.coeffs):
            for j, cj in enumerate(b.coeffs):
                out[i + j] += ci * cj
        return FractionCyclo(a.n, out)

    def inverse(self):
        if self.is_zero():
            raise NotInvertible("zero has no inverse")
        if self.is_rational():
            return FractionCyclo(self.n, [1 / self.coeffs[0]]
                                 + [Fraction(0)] * (len(self.coeffs) - 1), reduce=False)
        rest = FractionCyclo.one()
        for k in range(2, self.n):
            if math.gcd(k, self.n) == 1:
                conj = [Fraction(0)] * self.n
                for j, c in enumerate(self.coeffs):
                    conj[j * k % self.n] = c
                rest = rest * FractionCyclo(self.n, conj)
        return rest * FractionCyclo.rational(1 / (self * rest).coeffs[0])

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = FractionCyclo.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        a, b = FractionCyclo._unify(self, other)
        return a.coeffs == b.coeffs

    def text(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            ac = abs(c)
            if k == 0:
                mag = fraction_text(ac)
            else:
                zk = f"zeta({self.n})" if k == 1 else f"zeta({self.n})^{k}"
                mag = zk if ac == 1 else f"{fraction_text(ac)}*{zk}"
            parts.append(("-" if c < 0 else "+", mag))
        return signed_sum(parts)


ORACLE_CONDUCTORS = (1, 2, 3, 4, 5, 8, 12, 24)


def _oracle_pair(rng):
    """The same value as (Cyclo, FractionCyclo): dense, a scaled root, a
    rational stored at its conductor, or a rational at conductor 1."""
    n = rng.choice(ORACLE_CONDUCTORS)
    kind = rng.randrange(4)
    r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if kind == 0:
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(len(cyclotomic_poly(n)) - 1)]
    elif kind == 1:
        coeffs = [0] * rng.randrange(n) + [r]
    elif kind == 2:
        coeffs = [r]
    else:
        n, coeffs = 1, [rng.choice((r, 1, 1, -1, 0))]
    return Cyclo(n, coeffs), FractionCyclo(n, coeffs)


def _assert_same(got, want, operands=()):
    assert got.n == want.n
    assert got.text() == want.text()
    assert got.coeffs == want.coeffs
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1
    assert got.den == 1 or any(got.num)
    # an operation hands back an operand exactly when the old class did
    for g, w in operands:
        assert (got is g) == (want is w)


def test_integer_core_matches_the_fraction_oracle_bytes():
    rng = random.Random("test_integer_core_matches_the_fraction_oracle_bytes")
    pool = [_oracle_pair(rng) for _ in range(16)]
    for _ in range(1500):
        (a, fa), (b, fb) = (pool[rng.randrange(len(pool))] if rng.random() < 0.6
                            else _oracle_pair(rng) for _ in range(2))
        op = rng.choice(("*", "+", "-", "neg", "inverse", "lift", "**", "=="))
        if op == "==":
            assert (a == b) == (fa == fb)
            assert a == a.lift(a.n * rng.randint(1, 3))
            continue
        if op == "*":
            got, want = a * b, fa * fb
        elif op == "+":
            got, want = a + b, fa + fb
        elif op == "-":
            got, want = a - b, fa - fb
        elif op == "neg":
            got, want = -a, -fa
        elif op == "lift":
            m = a.n * rng.randint(1, 3)
            got, want = a.lift(m), fa.lift(m)
        elif a.is_zero():
            with pytest.raises(NotInvertible):
                a.inverse()
            continue
        elif op == "inverse":
            got, want = a.inverse(), fa.inverse()
        else:
            k = rng.randint(-2, 3)
            got, want = a ** k, fa ** k
        _assert_same(got, want, ((a, fa), (b, fb)))
        if got.n <= 24 and max(map(abs, got.num), default=0) < 10 ** 12:
            pool[rng.randrange(len(pool))] = (got, want)
