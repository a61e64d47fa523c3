"""Grading groups, degrees and commutation factors.

A grading group is a finitely generated abelian group Z^r x Z/n_1 x ... x
Z/n_t.  A commutation factor on it is stored as a rational phase matrix q on
the generators: rho(g_a, g_b) = exp(2 pi i q_ab).  All admitted factors take
values in roots of unity, so rho evaluates exactly in a cyclotomic field.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import Cyclo
from .errors import ConstraintViolation

EVEN = "even"
ODD = "odd"


@dataclass(frozen=True)
class GroupSpec:
    """Z^free_rank plus one cyclic factor per entry of torsion_orders."""

    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ConstraintViolation("free_rank", None, "must be nonnegative")
        object.__setattr__(self, "torsion_orders", tuple(self.torsion_orders))
        for k, n in enumerate(self.torsion_orders):
            if n < 2:
                raise ConstraintViolation("torsion_order", (k,), "must be >= 2")

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def reduce(self, parts) -> tuple[int, ...]:
        parts = tuple(int(p) for p in parts)
        if len(parts) != self.ngens:
            raise ConstraintViolation("degree_length", None,
                                      f"expected {self.ngens} components, got {len(parts)}")
        return self._mod(parts)

    def _mod(self, parts: tuple[int, ...]) -> tuple[int, ...]:
        """Int parts of the right length with the torsion parts reduced."""
        r = self.free_rank
        return parts[:r] + tuple(p % n for p, n in zip(parts[r:], self.torsion_orders))

    def degree(self, *parts) -> "Degree":
        if len(parts) == 1 and isinstance(parts[0], (tuple, list)):
            parts = tuple(parts[0])
        return Degree(self, self.reduce(parts))

    def zero(self) -> "Degree":
        return self.degree(*([0] * self.ngens))

    def generator(self, a: int) -> "Degree":
        parts = [0] * self.ngens
        parts[a] = 1
        return self.degree(*parts)

    def describe(self) -> str:
        bits = []
        if self.free_rank:
            bits.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        bits.extend(f"Z/{n}" for n in self.torsion_orders)
        return " * ".join(bits) if bits else "1"


@dataclass(frozen=True)
class Degree:
    """Element of a grading group; torsion components stored canonically."""

    group: GroupSpec
    parts: tuple[int, ...]

    def __add__(self, other: "Degree") -> "Degree":
        return self._zip(operator.add, other)

    def __sub__(self, other: "Degree") -> "Degree":
        return self._zip(operator.sub, other)

    def __neg__(self) -> "Degree":
        return Degree(self.group, self.group._mod(tuple(-a for a in self.parts)))

    def _zip(self, op, other: "Degree") -> "Degree":
        g = self.group
        if g is not other.group and g != other.group:
            raise ConstraintViolation("group_mismatch")
        return Degree(g, g._mod(tuple(map(op, self.parts, other.parts))))

    def __mul__(self, k: int) -> "Degree":
        return self.group.degree(*(a * k for a in self.parts))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.parts)

    def text(self) -> str:
        return "(" + ",".join(str(a) for a in self.parts) + ")"

    def __repr__(self):
        return f"Degree{self.text()}"


class CommutationFactor:
    """A bicharacter G x G -> roots of unity given by a rational phase matrix."""

    __slots__ = ("group", "phases", "conductor", "_k", "_prime", "_roots")

    def __init__(self, group: GroupSpec, phases):
        rows = tuple(tuple(Fraction(x) for x in row) for row in phases)
        n = group.ngens
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ConstraintViolation("phase_shape", None, f"need a {n}x{n} matrix")
        for a in range(n):
            if (2 * rows[a][a]).denominator != 1:
                raise ConstraintViolation("diagonal", (a, a), "2*q_aa must be an integer")
            for b in range(n):
                if (rows[a][b] + rows[b][a]).denominator != 1:
                    raise ConstraintViolation("antisymmetry", (a, b),
                                              "q_ab + q_ba must be an integer")
        for k, order in enumerate(group.torsion_orders):
            a = group.free_rank + k
            for b in range(n):
                if (order * rows[a][b]).denominator != 1:
                    raise ConstraintViolation("torsion", (a, b),
                                              f"{order}*q_ab must be an integer")
        self.group = group
        self.phases = rows
        den = 1
        for row in rows:
            for x in row:
                den = math.lcm(den, x.denominator)
        self.conductor = den
        self._k = tuple(tuple(int(x * den) for x in row) for row in rows)
        self._prime = None
        self._roots: dict[int, Cyclo] = {}

    # -- evaluation ----------------------------------------------------------

    def phase_k(self, i: Degree, j: Degree) -> int:
        """The k in 0..N-1 with rho(i, j) = zeta_N^k, N the conductor."""
        return sum(ia * jb * self._k[a][b] for a, ia in enumerate(i.parts) if ia
                   for b, jb in enumerate(j.parts) if jb) % self.conductor

    def phase(self, i: Degree, j: Degree) -> Fraction:
        """The rational phase of rho(i, j), reduced mod 1."""
        return Fraction(self.phase_k(i, j), self.conductor)

    def root(self, k: int) -> Cyclo:
        """zeta_N^k for the conductor N and 0 <= k < N, built once per k."""
        hit = self._roots.get(k)
        if hit is None:
            hit = self._roots[k] = Cyclo.from_phase(Fraction(k, self.conductor))
        return hit

    def rho(self, i: Degree, j: Degree) -> Cyclo:
        return self.root(self.phase_k(i, j))

    def parity(self, i: Degree) -> str:
        """EVEN if rho(i,i) = +1, ODD if -1."""
        return EVEN if self.phase_k(i, i) == 0 else ODD

    # -- constructions -------------------------------------------------------

    def extend_prime(self) -> "CommutationFactor":
        """The factor on Z x G with an extra sign-carrying free generator."""
        if self._prime is None:
            g = GroupSpec(self.group.free_rank + 1, self.group.torsion_orders)
            n = self.group.ngens
            rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
            rows[0][0] = Fraction(1, 2)
            for a in range(n):
                for b in range(n):
                    rows[a + 1][b + 1] = self.phases[a][b]
            self._prime = CommutationFactor(g, rows)    # built once per factor
        return self._prime

    def prime_degree(self, s: int, d: Degree) -> Degree:
        """Degree (s, d) of the extended group, for use with extend_prime()."""
        return self.extend_prime().group.degree(s, *d.parts)

    def __eq__(self, other):
        return (isinstance(other, CommutationFactor)
                and self.group == other.group and self.phases == other.phases)

    def __repr__(self):
        return f"CommutationFactor({self.group.describe()}, {self.phases})"

    def phases_text(self):
        return [[str(x) for x in row] for row in self.phases]

    def to_json(self) -> dict:
        """Canonical serialization of the group and phase matrix."""
        return {"free_rank": self.group.free_rank,
                "torsion": list(self.group.torsion_orders),
                "phase": self.phases_text()}


def validate_factor(group: GroupSpec, phases) -> CommutationFactor:
    """Validate a rational phase matrix and return the commutation factor."""
    return CommutationFactor(group, phases)


def super_factor(group: GroupSpec | None = None) -> CommutationFactor:
    """rho(g_a, g_a) = -1 on each generator of the group (default Z/2), whose
    torsion orders must all be even; Z/2 gives rho(i,j) = (-1)^(ij)."""
    group = GroupSpec(0, (2,)) if group is None else group
    if any(order % 2 for order in group.torsion_orders):
        raise ConstraintViolation("super", None, "needs every torsion "
                                  f"order even, not {group.describe()}")
    n = group.ngens
    return CommutationFactor(group, [[Fraction(int(a == b), 2) for b in range(n)]
                                     for a in range(n)])


def trivial_factor(group: GroupSpec | None = None) -> CommutationFactor:
    """rho identically 1 on the given group (default Z)."""
    group = GroupSpec(1) if group is None else group
    n = group.ngens
    return CommutationFactor(group, [[Fraction(0)] * n for _ in range(n)])


def torus_factor(theta) -> CommutationFactor:
    """G = Z^m with rho(i,j) = exp(2 pi i <i, theta j>), theta skew rational."""
    rows = [[Fraction(x) for x in row] for row in theta]
    m = len(rows)
    for a in range(m):
        for b in range(m):
            if rows[a][b] != -rows[b][a]:
                raise ConstraintViolation("skew", (a, b), "theta must be skew-symmetric")
    return CommutationFactor(GroupSpec(m), rows)
