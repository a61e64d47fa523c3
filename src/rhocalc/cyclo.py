"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) modulo the
N-th cyclotomic polynomial, with Fraction coefficients.  Working modulo the
cyclotomic polynomial (rather than z^N - 1) keeps the ring a field, so every
nonzero element is invertible.  Values at different conductors unify by
lifting to the lcm; the lift z_N -> z_M^(M/N) is injective and preserves
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import NotInvertible


def _int_poly_divide(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division by a monic integer polynomial.
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


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
            num = _int_poly_divide(num, cyclotomic_poly(d))
    return tuple(num)


_ZERO = Fraction(0)
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


def _reduce(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        coeffs[i] = _ZERO
        for j in range(deg):
            coeffs[i - deg + j] -= c * phi[j]
    coeffs = coeffs[:deg] + [_ZERO] * (deg - len(coeffs))
    return tuple(coeffs[:deg])


class Cyclo:
    """An element of Q(zeta_n) in the power basis modulo Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs, *, reduce: bool = True):
        self.n = n
        vals = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        self.coeffs = _reduce(vals, n) if reduce else tuple(vals)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(x) -> "Cyclo":
        return Cyclo(1, [Fraction(x)], reduce=False)

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
        coeffs = [_ZERO] * (k + 1)
        coeffs[k] = Fraction(1)
        return Cyclo(n, coeffs)

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
        out = [_ZERO] * (len(self.coeffs) * step + 1)
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return Cyclo(m, out)

    @staticmethod
    def _unify(a: "Cyclo", b: "Cyclo"):
        if a.n == b.n:
            return a, b
        m = math.lcm(a.n, b.n)
        return a.lift(m), b.lift(m)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        a, b = Cyclo._unify(self, other)
        n = len(a.coeffs)
        return Cyclo(a.n, [a.coeffs[i] + b.coeffs[i] for i in range(n)], reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.n, [-c for c in self.coeffs], reduce=False)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.n == 1 or other.n == 1:  # scale; the lcm is the other's conductor
            r, x = (self.coeffs[0], other) if self.n == 1 else (other.coeffs[0], self)
            return x if r == 1 else Cyclo(x.n, [r * c for c in x.coeffs], reduce=False)
        a, b = Cyclo._unify(self, other)
        n = len(a.coeffs)
        out = [_ZERO] * (2 * n - 1 if n else 1)
        for i, ci in enumerate(a.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(b.coeffs):
                if cj:
                    out[i + j] += ci * cj
        return Cyclo(a.n, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise NotInvertible("zero has no inverse")
        if self.is_rational():
            return Cyclo(self.n, [1 / self.coeffs[0]] + [_ZERO] * (len(self.coeffs) - 1), reduce=False)
        # 1/a is the product of a's other Galois conjugates (z -> z^k, k
        # coprime to n) over the norm, which is rational: the result stays
        # in Q(zeta_n) and its reduced form there is unique.
        rest = Cyclo.one()
        for k in range(2, self.n):
            if math.gcd(k, self.n) == 1:
                conj = [_ZERO] * self.n
                for j, c in enumerate(self.coeffs):
                    conj[j * k % self.n] = c
                rest = rest * Cyclo(self.n, conj)
        return rest * (1 / (self * rest).coeffs[0])

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
        return a.coeffs == b.coeffs

    __hash__ = None  # mutable-free but conductor-dependent representation

    # -- printing ----------------------------------------------------------

    def text(self) -> str:
        """Text form in the stored conductor, e.g. '1/2 - zeta(8)^3'.

        Not canonical: equal values print differently when the arithmetic
        that made them lifted to different conductors (zeta(4) times
        zeta(8)/zeta(8) prints as zeta(8)^2)."""
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            ac = -c if c < 0 else c
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
        return sum(1 for c in self.coeffs if c != 0)


def _coerce(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyclo")

