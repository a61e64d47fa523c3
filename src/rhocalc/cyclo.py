"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) modulo the
N-th cyclotomic polynomial, as integer numerators over one positive
denominator in lowest terms (the nf_elem layout of FLINT/Antic), so a value
has one representation at each conductor and Fractions are built only to
print.  Working modulo the cyclotomic polynomial (rather than z^N - 1) keeps
the ring a field, so every nonzero element is invertible.  Values at
different conductors unify by lifting to the lcm; the lift z_N -> z_M^(M/N)
is injective and preserves arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import NotInvertible


def _divmod(num, den: tuple[int, ...]):
    # quotient and remainder (deg den entries) of integer polynomials,
    # ascending degree, by a monic den
    dd = len(den) - 1
    num = list(num) + [0] * (dd - len(num))
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                if dj:
                    num[i - dd + j] -= c * dj
    return quot, tuple(num[:dd])


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n // 2 + 1):
        if n % d == 0:
            num, rest = _divmod(num, cyclotomic_poly(d))
            if any(rest):
                raise ArithmeticError("non-exact polynomial division")
    return tuple(num)


_CHUNK = 10 ** 1000


def fraction_text(q: Fraction) -> str:
    """str(q) at any length: integers print in 1000-digit chunks, so the
    text does not depend on the interpreter's int-to-str digit limit."""
    parts = []
    for k in (abs(q.numerator), q.denominator):
        chunks = []
        while k >= _CHUNK:
            k, low = divmod(k, _CHUNK)
            chunks.append(str(low).zfill(1000))
        parts.append(str(k) + "".join(reversed(chunks)))
    text = parts[0] if q.denominator == 1 else "/".join(parts)
    return "-" + text if q < 0 else text


def signed_sum(parts) -> str:
    """Join (sign, magnitude) pairs as 'a - b + c'; '0' when there are none."""
    if not parts:
        return "0"
    out = " ".join(f"{sign} {mag}" for sign, mag in parts)
    return out[2:] if out[0] == "+" else "-" + out[2:]


def _reduce(num, n: int) -> tuple[int, ...]:
    return _divmod(num, cyclotomic_poly(n))[1]


def _mul_num(a, b, n: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _reduce(out, n)


def _new(n: int, num, den: int) -> "Cyclo":
    # the normal form: den > 0, gcd(den, *num) == 1, so zero has den 1
    g = math.gcd(den, *num)
    x = object.__new__(Cyclo)
    x.n = n
    x.num = tuple(num) if g == 1 else tuple(a // g for a in num)
    x.den = den // g
    return x


class Cyclo:
    """An element of Q(zeta_n) in the power basis modulo Phi_n: the
    integers `num` over `den`, with den > 0 and gcd(den, *num) == 1."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        vals = [Fraction(c) for c in coeffs]
        den = math.lcm(*(v.denominator for v in vals))
        num = [v.numerator * (den // v.denominator) for v in vals]
        x = _new(n, _reduce(num, n), den)
        self.n, self.num, self.den = n, x.num, x.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(x) -> "Cyclo":
        if type(x) is int:
            return _new(1, (x,), 1)
        q = Fraction(x)
        return _new(1, (q.numerator,), q.denominator)

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo.rational(0)

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo.rational(1)

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyclo":
        """zeta_n^k, reduced into the power basis."""
        k %= n
        return _new(n, _reduce((0,) * k + (1,), n), 1)

    @staticmethod
    def from_phase(phase: Fraction) -> "Cyclo":
        """exp(2 pi i * phase) for rational phase."""
        phase = Fraction(phase) % 1
        return Cyclo.root_of_unity(phase.denominator, phase.numerator)

    # -- conductor handling ------------------------------------------------

    def lift(self, m: int) -> "Cyclo":
        """Embed into Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("lift target must be a conductor multiple")
        step = m // self.n
        out = [0] * ((len(self.num) - 1) * step + 1)
        out[::step] = self.num
        return _new(m, _reduce(out, m), self.den)

    @staticmethod
    def _unify(a: "Cyclo", b: "Cyclo"):
        if a.n == b.n:
            return a, b
        m = math.lcm(a.n, b.n)
        return a.lift(m), b.lift(m)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = Cyclo._unify(self, _coerce(other))
        da, db = a.den, b.den
        if da == db:
            return _new(a.n, [x + y for x, y in zip(a.num, b.num)], da)
        return _new(a.n, [x * db + y * da for x, y in zip(a.num, b.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.n, [-a for a in self.num], self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.n == 1 or other.n == 1:  # scale; the lcm is the other's conductor
            r, x = (self, other) if self.n == 1 else (other, self)
            p, q = r.num[0], r.den
            return x if p == q == 1 else _new(x.n, [p * a for a in x.num], q * x.den)
        a, b = Cyclo._unify(self, other)
        return _new(a.n, _mul_num(a.num, b.num, a.n), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise NotInvertible("zero has no inverse")
        n, num = self.n, self.num
        if self.is_rational():
            rest, norm = (1,) + (0,) * (len(num) - 1), num[0]
        else:
            # 1/a is the product of a's other Galois conjugates (z -> z^k, k
            # coprime to n) over the norm, which is an integer for integer
            # num: the result stays in Q(zeta_n), where its reduced form is
            # unique.
            rest = (1,)
            for k in range(2, n):
                if math.gcd(k, n) == 1:
                    conj = [0] * n
                    for j, c in enumerate(num):
                        conj[j * k % n] = c
                    rest = _mul_num(rest, _reduce(conj, n), n)
            norm = _mul_num(num, rest, n)[0]
        if norm < 0:
            rest, norm = [-a for a in rest], -norm
        return _new(n, [self.den * a for a in rest], norm)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclo.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = Cyclo._unify(self, other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # mutable-free but conductor-dependent representation

    # -- printing ----------------------------------------------------------

    def text(self) -> str:
        """Text form in the stored conductor, e.g. '1/2 - zeta(8)^3'.

        Not canonical: equal values print differently when the arithmetic
        that made them lifted to different conductors (zeta(4) times
        zeta(8)/zeta(8) prints as zeta(8)^2)."""
        parts = []
        for k, a in enumerate(self.num):
            if a == 0:
                continue
            sign = "-" if a < 0 else "+"
            ac = Fraction(abs(a), self.den)
            if k == 0:
                mag = fraction_text(ac)
            else:
                zk = f"zeta({self.n})" if k == 1 else f"zeta({self.n})^{k}"
                mag = zk if ac == 1 else f"{fraction_text(ac)}*{zk}"
            parts.append((sign, mag))
        return signed_sum(parts)

    def __repr__(self):
        return f"Cyclo({self.n}, {self.text()!r})"

    def n_terms(self) -> int:
        return sum(1 for a in self.num if a)


def _coerce(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyclo")

