"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored in the tensor basis of Q(zeta_N), the product of the
bases of the Q(zeta_q) over the prime powers q of N (`root`, `basis_mul`):
one integer numerator per slot over one positive denominator in lowest
terms (the nf_elem layout of FLINT/Antic), so a value has one form at each
conductor.  A root of unity is at most p - 1 slots per prime power p^k of
N, and no product divides by Phi_N.  Values at different conductors unify
by lifting to the lcm, which moves each slot to one slot (`_slot_maps`).
Values print in the power basis modulo Phi_N; `power` makes that form and
is the one place that divides by Phi_N.
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
def _primes(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n, ascending, by trial division up to
    10^6; ValueError when a factor above 10^12 may remain (no value at
    such a conductor fits in memory, and the division would not end)."""
    out, p = [], 2
    while p * p <= n:
        if p > 10 ** 6:
            raise ValueError(f"conductor {n} has a factor too large to find")
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return tuple(out + [n] if n > 1 else out)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree: Phi_n(z) =
    Phi_r(z^(n/r)) for r = rad(n), and Phi_r(z) = Phi_m(z^p) / Phi_m(z)
    for squarefree r = p m, p its largest prime."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    r = math.prod(_primes(n))
    p = n // r if r < n else _primes(n)[-1]
    low = cyclotomic_poly(r if r < n else n // p)
    num = [0] * ((len(low) - 1) * p + 1)
    num[::p] = low
    if r < n:
        return tuple(num)
    num, rest = _divmod(num, low)
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


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    """phi(n), the degree of Phi_n and the number of slots of a value."""
    for p in _primes(n):
        n = n // p * (p - 1)
    return n


@lru_cache(maxsize=4096)
def power(n: int, e: int) -> tuple[tuple[int, int], ...]:
    """z^e mod Phi_n, the power-basis form of zeta_n^e, as its nonzero
    (slot, coefficient) pairs.  With r = rad(n), Phi_n(z) = Phi_r(z^(n/r)),
    and Phi_2m(z) = Phi_m(-z) for odd m, so only an odd squarefree n
    divides, and only for e >= phi(n)."""
    e %= n
    r = math.prod(_primes(n))
    if r < n:
        q, t = divmod(e, n // r)
        return tuple((j * (n // r) + t, c) for j, c in power(r, q))
    if n % 2 == 0:
        return tuple((j, -c if (e + j) & 1 else c) for j, c in power(n // 2, e))
    if e < totient(n):
        return ((e, 1),)
    rest = _divmod((0,) * e + (1,), cyclotomic_poly(n))[1]
    return tuple((i, a) for i, a in enumerate(rest) if a)


@lru_cache(maxsize=None)
def _tensor(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(q, phi(q), u, o) for each prime power q of n, ascending: Q(zeta_n)
    is the tensor product of the Q(zeta_q), zeta_n = prod zeta_q^u, and
    Q(zeta_q)'s basis is zeta_q^x for the phi(q) exponents o <= x < o +
    phi(q), centred on 0 so that zeta_q^-1 is one slot (zeta_p^(p-1) is
    p - 1 slots in the power basis)."""
    out = []
    for p in _primes(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        size = q - q // p
        out.append((q, size, pow(n // q, -1, q), -(size // 2)))
    return tuple(out)


def _word(n: int, exps) -> tuple[tuple[int, int], ...]:
    """prod zeta_q^x (x from exps, one per prime power q of n) in the
    tensor basis, whose slot sum_q r_q R_q (R_q the product of the earlier
    phi(q)) is prod zeta_q^x_q, r_q = x_q mod phi(q) for the x_q of the
    centred window; slot 0 is 1.  With q = p^k and x outside the window,
    zeta_q^x is minus the sum of zeta_q^(x - i q/p), 0 < i < p, from 1 + w
    + ... + w^(p-1) = 0 for w = zeta_q^(q/p)."""
    out, radix = [(0, 1)], 1
    for (q, size, _, o), x in zip(_tensor(n), exps):
        x = (x - o) % q + o
        step = q - size
        part = ((x % size, 1),) if x < o + size else tuple(
            ((x - i * step) % size, -1) for i in range(1, size // step + 1))
        out = [(j + radix * t, c * y) for j, c in out for t, y in part]
        radix *= size
    return tuple(out)


def _digits(n: int, j: int) -> list[int]:
    """The per-prime-power exponents of tensor slot j of Q(zeta_n)."""
    out = []
    for _, size, _, o in _tensor(n):
        j, r = divmod(j, size)
        out.append(r if r < o + size else r - size)
    return out


@lru_cache(maxsize=4096)
def root(n: int, e: int, j: int = 0) -> tuple[tuple[int, int], ...]:
    """zeta_n^e times tensor slot j of Q(zeta_n), as (slot, coefficient)
    pairs: at most p - 1 terms per prime power p^k of n, none of them found
    by dividing by Phi_n."""
    return _word(n, [x + e * u for x, (_, _, u, _) in zip(_digits(n, j), _tensor(n))])


@lru_cache(maxsize=4096)
def basis_mul(n: int, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """The product of tensor slots i and j of Q(zeta_n)."""
    return _word(n, [a + b for a, b in zip(_digits(n, i), _digits(n, j))])


def _exponent(n: int, j: int) -> int:
    """The E with tensor slot j of Q(zeta_n) equal to zeta_n^E."""
    return sum(x * (n // q) for (q, _, _, _), x in zip(_tensor(n), _digits(n, j)))


def _times_slot(n: int, u, i: int) -> list:
    """The nonzero (slot, numerator) pairs of u (given by its pairs) times
    tensor slot i of Q(zeta_n): `Cyclo`'s and the walk's product kernel."""
    out: dict = {}
    for s, x in u:
        for slot, y in basis_mul(n, s, i):
            out[slot] = out.get(slot, 0) + x * y
    return [(slot, x) for slot, x in out.items() if x]


def _product(n: int, a, b) -> list[int]:
    """The slot numerators of a times b in Q(zeta_n), both given by theirs."""
    u = [(j, x) for j, x in enumerate(a) if x]
    out = [0] * len(a)
    for i, y in enumerate(b):
        for slot, z in _times_slot(n, u, i) if y else ():
            out[slot] += y * z
    return out


@lru_cache(maxsize=256)
def _slot_maps(d: int, n: int) -> tuple[tuple[int, ...], dict]:
    """(up, down) for d | n: slot j of Q(zeta_d) lifts to slot up[j] of
    Q(zeta_n), and down inverts up.  zeta_g = zeta_q^(q/g) for g = gcd(q, d)
    at each prime power q of n, and x q/g is in q's window for x in g's, so
    a slot lifts to one slot with coefficient 1."""
    up, radix, low = [0], 1, iter(_tensor(d))
    for p, (q, size, _, _) in zip(_primes(n), _tensor(n)):
        if d % p == 0:
            g, gsize, _, _ = next(low)
            xs = [_digits(g, r)[0] for r in range(gsize)]
            up = [j + x * (q // g) % size * radix for x in xs for j in up]
        radix *= size
    return tuple(up), {slot: j for j, slot in enumerate(up)}


def _new(n: int, num, den: int) -> "Cyclo":
    # the normal form: den > 0, gcd(den, *num) == 1, so zero has den 1
    g = math.gcd(den, *num)
    x = object.__new__(Cyclo)
    x.n = n
    x.num = tuple(num) if g == 1 else tuple(a // g for a in num)
    x.den = den // g
    return x


class Cyclo:
    """An element of Q(zeta_n): the integers `num`, one per tensor slot
    (slot 0 is 1), over `den`, with den > 0 and gcd(den, *num) == 1; it
    prints in the power basis modulo Phi_n."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        """The value sum coeffs[k] zeta_n^k."""
        vals = [Fraction(c) for c in coeffs]
        den = math.lcm(*(v.denominator for v in vals))
        num = [0] * totient(n)
        for k, v in enumerate(vals):
            for slot, y in root(n, k) if v else ():
                num[slot] += y * v.numerator * (den // v.denominator)
        x = _new(n, num, den)
        self.n, self.num, self.den = n, x.num, x.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions, the printed form: slot
        j is zeta_n^E, which `power` reduces mod Phi_n."""
        n, out = self.n, [0] * len(self.num)
        for j, x in enumerate(self.num):
            for i, y in power(n, _exponent(n, j)) if x else ():
                out[i] += x * y
        return tuple(Fraction(a, self.den) for a in out)

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
        """zeta_n^k: at most p - 1 slots per prime power p^k of n."""
        num = [0] * totient(n)
        for slot, y in root(n, k):
            num[slot] = y
        return _new(n, num, 1)

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
        out = [0] * totient(m)
        for slot, x in zip(_slot_maps(self.n, m)[0], self.num):
            out[slot] = x
        return _new(m, out, self.den)

    @staticmethod
    def from_ints(n: int, num, den: int, d: int) -> "Cyclo":
        """The inverse of `lift`: the value of the numerators num (a mapping
        tensor slot of Q(zeta_n) -> integer) over den > 0, stored at
        conductor d, a divisor of n; ValueError when the value is not in
        Q(zeta_d), that is when a nonzero slot is not a lifted one."""
        if n % d:
            raise ValueError("descent target must divide the conductor")
        down = _slot_maps(d, n)[1]
        out = [0] * totient(d)
        for j, c in num.items():
            if c:
                if j not in down:
                    raise ValueError(f"value is not in Q(zeta_{d})")
                out[down[j]] = c
        return _new(d, out, den)

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
        return _new(a.n, _product(a.n, a.num, b.num), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise NotInvertible("zero has no inverse")
        n, num = self.n, self.num
        if self.is_rational():
            rest, norm = (1,) + (0,) * (len(num) - 1), num[0]
        else:
            # 1/a is the product of a's other Galois conjugates (zeta_n ->
            # zeta_n^k, k coprime to n, which takes slot zeta_n^E to the root
            # zeta_n^(kE)) over the norm, an integer in slot 0 for integer
            # num: the result stays in Q(zeta_n), where its form is unique.
            used = [(_exponent(n, j), c) for j, c in enumerate(num) if c]
            rest = [1] + [0] * (len(num) - 1)
            for k in range(2, n):
                if math.gcd(k, n) == 1:
                    conj = [0] * len(num)
                    for e, c in used:
                        for slot, y in root(n, k * e % n):
                            conj[slot] += c * y
                    rest = _product(n, rest, conj)
            norm = _product(n, num, rest)[0]
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
        return signed_sum(self.printed_terms())

    def printed_terms(self) -> list[tuple[str, str]]:
        """The (sign, magnitude) pairs of `text`, one per nonzero
        power-basis coefficient: one conversion from the stored slots, and
        none for a nonzero rational, whose one coefficient is slot 0."""
        q = self.num[0]
        if q and self.is_rational():
            return [("-" if q < 0 else "+", fraction_text(Fraction(abs(q), self.den)))]
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            ac = abs(c)
            if k == 0:
                mag = fraction_text(ac)
            else:
                zk = f"zeta({self.n})" if k == 1 else f"zeta({self.n})^{k}"
                mag = zk if ac == 1 else f"{fraction_text(ac)}*{zk}"
            parts.append((sign, mag))
        return parts

    def __repr__(self):
        return f"Cyclo({self.n}, {self.text()!r})"

    def n_terms(self) -> int:
        """The number of printed (power-basis) terms."""
        return len(self.printed_terms())


def _coerce(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyclo")

