"""Normal-ordered polynomial algebra over a commutation factor.

A context fixes an ordered list of graded variables and a commutation factor;
elements are finite sums of normal-ordered monomials (ascending variable
index) with cyclotomic coefficients.  Reordering a word introduces the exact
rho factors, odd squares vanish, and negative exponents are reserved for
invertible degree-0 base variables (the Laurent model of the function
coefficients).

The filtration by total exponent in the non-base ("formal") variables drives
truncation: a context may carry a truncation order T, and every operation
silently drops terms of filtration order > T, so results are canonical
representatives mod the (T+1)-st power of the formal ideal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cyclo import Cyclo, signed_sum
from .errors import (ConstraintViolation, ContextMismatch, NegativePower,
                     NotHomogeneous, NotInvertible, TruncationRequired,
                     UnsupportedConstantPart)
from .grading import EVEN, ODD, CommutationFactor, Degree

BASE = "base"
_MISSING = object()     # a table miss; None is a stored answer
# entries a context's product table keeps at most (about 215 bytes each):
# twenty times the largest table a benchmark task builds (792 entries)
PRODUCT_TABLE_CAP = 1 << 14


@dataclass(frozen=True)
class Var:
    """A declared variable: base (degree 0) or formal even/odd.

    `cap` bounds the exponent; odd variables get cap 1, and auxiliary
    nilpotent variables (dual numbers) use cap 1 regardless of parity.
    """

    name: str
    degree: Degree
    kind: str
    invertible: bool = False
    cap: int | None = None


class Context:
    """Immutable variable table + commutation factor + truncation order;
    immutability makes the product table of `mono_mul` exact."""

    def __init__(self, factor: CommutationFactor, variables: Sequence[Var],
                 truncation: int | None = None, name: str = "ctx"):
        if truncation is not None and truncation < 0:
            raise ConstraintViolation("truncation", None, "must be nonnegative")
        self.factor = factor
        self.truncation = truncation
        self.name = name
        vs = []
        seen = {}
        for v in variables:
            if v.name in seen:
                raise ConstraintViolation("duplicate_variable", None, v.name)
            if v.kind == BASE:
                if not v.degree.is_zero():
                    raise ConstraintViolation("base_degree", None,
                                              f"{v.name} must have degree 0")
            else:
                if v.invertible:
                    raise ConstraintViolation("invertible_formal", None, v.name)
                parity = factor.parity(v.degree)
                if v.kind not in (EVEN, ODD):
                    raise ConstraintViolation("kind", None, v.kind)
                if parity != v.kind:
                    raise ConstraintViolation("parity", None,
                                              f"{v.name}: declared {v.kind}, factor says {parity}")
            cap = v.cap
            if v.kind == ODD:
                cap = 1
            vs.append(Var(v.name, v.degree, v.kind, v.invertible, cap))
            seen[v.name] = len(vs) - 1
        self.variables: tuple[Var, ...] = tuple(vs)
        self._index = seen
        self._formal = tuple(i for i, v in enumerate(vs) if v.kind != BASE)
        # pair phases as integers k for zeta_N^k, N the factor's conductor
        self._pair = [[factor.phase_k(vi.degree, vj.degree)
                       for vj in self.variables] for vi in self.variables]
        # (index, lowest, highest exponent) for each bounded variable
        self._bounds = [(i, -math.inf if v.invertible else 0,
                         math.inf if v.cap is None else v.cap)
                        for i, v in enumerate(self.variables)
                        if not v.invertible or v.cap is not None]
        self._degree_cache: dict[tuple[int, ...], object] = {}
        self._products: dict[tuple, tuple[int, tuple[int, ...]] | None] = {}
        # name -> unit monomial of the variable, None when it is not valid
        self._units: dict[str, tuple[int, ...] | None] = {}
        # a -> the Leibniz block table that every d/dx^a of this context
        # shares (see `derivation.partial`); plain dicts, no back-reference
        self._partial_blocks: dict[int, dict] = {}

    # -- lookups -------------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        if name not in self._index:
            raise ConstraintViolation("unknown_variable", None, name)
        return self._index[name]

    def var(self, name: str) -> Var:
        return self.variables[self.index(name)]

    def has(self, name: str) -> bool:
        return name in self._index

    @property
    def conductor(self) -> int:
        return self.factor.conductor

    # -- monomial helpers ------------------------------------------------------

    def i_order(self, mono: tuple[int, ...]) -> int:
        return sum(mono[i] for i in self._formal)

    def mono_degree(self, mono: tuple[int, ...]) -> Degree:
        hit = self._degree_cache.get(mono)
        if hit is not None:
            return hit
        g = self.factor.group
        acc = [0] * g.ngens
        for e, v in zip(mono, self.variables):
            if e:
                for i, p in enumerate(v.degree.parts):
                    acc[i] += e * p
        d = Degree(g, g._mod(tuple(acc)))
        self._degree_cache[mono] = d
        return d

    def mono_valid(self, mono: tuple[int, ...]) -> bool:
        """Valid and nonzero: negatives only on Laurent vars, caps respected,
        within the truncation."""
        for i, low, high in self._bounds:
            if not low <= mono[i] <= high:
                return False
        return self.truncation is None or self.i_order(mono) <= self.truncation

    def series_bound(self, slack: int = 0) -> int:
        """Highest power of a formal-ideal element a series may need.

        With a truncation order T, powers beyond T vanish.  Otherwise the
        total cap bounds the powers of an element whose every term carries a
        capped variable; `slack` extends the bound for matrix series, whose
        powers can also die structurally.
        """
        if self.truncation is not None:
            return self.truncation
        return sum(v.cap for v in self.variables if v.cap is not None) + slack + 1

    def mono_mul(self, m1, m2):
        """Product of two normal-ordered monomials.

        Returns (k, monomial) with the rho reordering factor zeta_N^k (see
        `CommutationFactor.root`), or None when the product is annihilated
        (odd square, cap overflow, or truncation).  Each pair is computed
        once per context and later calls read the product table, until the
        table holds PRODUCT_TABLE_CAP entries; past that, new pairs are
        computed on every call and not stored.
        """
        hit = self._products.get((m1, m2), _MISSING)
        if hit is not _MISSING:
            return hit
        phase = 0
        pair = self._pair
        for a in range(len(m1)):
            ea = m1[a]
            if ea == 0:
                continue
            row = pair[a]
            for b in range(a):
                eb = m2[b]
                if eb:
                    phase += ea * eb * row[b]
        out = tuple(map(operator.add, m1, m2))
        r = (phase % self.factor.conductor, out) if self.mono_valid(out) else None
        if len(self._products) < PRODUCT_TABLE_CAP:
            self._products[m1, m2] = r
        return r

    # -- element constructors --------------------------------------------------

    def zero_mono(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    def zero(self) -> "GradedPoly":
        return GradedPoly._clean(self, {})

    def scalar(self, c) -> "GradedPoly":
        if not isinstance(c, Cyclo):
            c = Cyclo.rational(c)
        if c.is_zero():
            return self.zero()
        return GradedPoly._clean(self, {self.zero_mono(): c})

    def one(self) -> "GradedPoly":
        return self.scalar(1)

    def gen(self, name: str, power: int = 1) -> "GradedPoly":
        """The generator `name` to the given power; the first power reads
        the context's table of unit monomials, each call a fresh dict."""
        if power != 1:
            return self.monomial(1, {name: power})
        mono = self._units.get(name, _MISSING)
        if mono is _MISSING:
            mono = self._units[name] = next(iter(self.monomial(1, {name: 1}).terms), None)
        return GradedPoly._clean(self, {} if mono is None else {mono: Cyclo.one()})

    def monomial(self, coef, exps: dict[str, int]) -> "GradedPoly":
        mono = [0] * self.nvars
        for name, e in exps.items():
            mono[self.index(name)] += e
        mono = tuple(mono)
        for e, v in zip(mono, self.variables):
            if e < 0 and not v.invertible:
                raise NegativePower(v.name)
        if not self.mono_valid(mono):
            return self.zero()
        if not isinstance(coef, Cyclo):
            coef = Cyclo.rational(coef)
        if coef.is_zero():
            return self.zero()
        return GradedPoly(self, {mono: coef})

    def sum(self, polys: Iterable["GradedPoly"]) -> "GradedPoly":
        """The left fold of `+`: every term goes through `add_term` in order,
        so a cancelled coefficient restarts at the next summand's conductor."""
        out: dict = {}
        for p in polys:
            if p.ctx != self:
                raise ContextMismatch(f"{self!r} vs {p.ctx!r}")
            if out:
                for m, c in p.terms.items():
                    add_term(out, m, c)
            else:
                out.update(p.terms)
        return GradedPoly._clean(self, out)

    def word(self, coef, letters: Iterable[tuple[str, int]]) -> "GradedPoly":
        """Normal-order an arbitrary word of (variable, power) letters."""
        out = self.scalar(coef)
        for name, e in letters:
            # monomial() raises NegativePower on a non-Laurent variable
            out = out * self.monomial(1, {name: e})
        return out

    # -- context surgery ---------------------------------------------------------

    def extend(self, extra: Sequence[Var], truncation="keep", name=None) -> "Context":
        """Append variables (same factor)."""
        t = self.truncation if truncation == "keep" else truncation
        return Context(self.factor, list(self.variables) + list(extra),
                       t, name or self.name)

    def __eq__(self, other):
        return self is other or (
                isinstance(other, Context)
                and self.factor == other.factor
                and self.variables == other.variables
                and self.truncation == other.truncation)

    def __repr__(self):
        return f"Context({self.name}: {', '.join(v.name for v in self.variables)})"


def prime_context(ctx: Context, extra: Sequence[Var], truncation="keep",
                  name=None) -> Context:
    """Rebuild a context over Z x G, re-grading old degrees d -> (0, d)."""
    fac = ctx.factor.extend_prime()
    vs = []
    for v in ctx.variables:
        vs.append(Var(v.name, ctx.factor.prime_degree(0, v.degree), v.kind,
                      v.invertible, None if v.kind == ODD else v.cap))
    vs.extend(extra)
    t = ctx.truncation if truncation == "keep" else truncation
    return Context(fac, vs, t, name or (ctx.name + "'"))


def adjoin_eps(ctx: Context, degree: Degree) -> tuple[Context, "GradedPoly"]:
    """ctx plus a square-zero eps of the given degree, as (aux, eps), named
    so that no variable of ctx starts with it (eps, else eps_, ...).

    The truncation order goes up by one, so eps times a term of the top
    order survives."""
    name = "eps"
    while any(v.name.startswith(name) for v in ctx.variables):
        name += "_"
    t = ctx.truncation
    aux = ctx.extend([Var(name, degree, ctx.factor.parity(degree), cap=1)],
                     truncation=None if t is None else t + 1, name=ctx.name + "+eps")
    return aux, aux.gen(name)


def lift_poly(f: "GradedPoly", big: Context) -> "GradedPoly":
    """Reinterpret a polynomial in a context that extends f's variable list.

    The first variables of `big` must correspond positionally to f's
    variables (names must match); exponent vectors are zero-padded.
    """
    small = f.ctx
    for i, v in enumerate(small.variables):
        if big.variables[i].name != v.name:
            raise ContextMismatch(f"variable order differs at {v.name}")
    pad = big.nvars - small.nvars
    terms = {}
    for mono, c in f.terms.items():
        terms[mono + (0,) * pad] = c
    return GradedPoly(big, terms)


def restrict_poly(f: "GradedPoly", small: Context) -> "GradedPoly":
    """Inverse of lift_poly; fails if f involves the extra variables."""
    n = small.nvars
    terms = {}
    for mono, c in f.terms.items():
        if any(mono[n:]):
            raise ContextMismatch("polynomial involves extended variables")
        terms[mono[:n]] = c
    return GradedPoly(small, terms)


def add_term(terms: dict, mono, c: Cyclo) -> None:
    """terms[mono] += c for a nonzero c, deleting the entry the moment it
    cancels: a coefficient that restarts keeps no conductor of the old run."""
    s = terms.get(mono)
    c = c if s is None else s + c
    if c.is_zero():
        del terms[mono]
    else:
        terms[mono] = c


class GradedPoly:
    """A finite normal-ordered sum of monomials with nonzero Cyclo coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        t = ctx.truncation
        self.ctx = ctx
        self.terms = {m: c for m, c in terms.items()
                      if not c.is_zero() and (t is None or ctx.i_order(m) <= t)}

    @classmethod
    def _clean(cls, ctx: Context, terms: dict) -> "GradedPoly":
        """Adopt terms already nonzero and valid in ctx, without a scan."""
        p = object.__new__(cls)
        p.ctx, p.terms = ctx, terms
        return p

    # -- basic structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def coefficient(self, mono: tuple[int, ...]) -> Cyclo:
        return self.terms.get(mono, Cyclo.zero())

    def degrees(self) -> set[Degree]:
        return {self.ctx.mono_degree(m) for m in self.terms}

    def degree_of(self) -> Degree:
        ds = self.degrees()
        if len(ds) > 1:
            raise NotHomogeneous(f"degrees {sorted(d.parts for d in ds)}")
        if not ds:
            return self.ctx.factor.group.zero()
        return next(iter(ds))

    def has_degree(self, d: Degree) -> bool:
        """Homogeneous of degree d (the zero polynomial passes for any d)."""
        ds = self.degrees()
        return not ds or ds == {d}

    def homogeneous_part(self, d: Degree) -> "GradedPoly":
        return GradedPoly(self.ctx, {m: c for m, c in self.terms.items()
                                     if self.ctx.mono_degree(m) == d})

    def i_free_part(self) -> "GradedPoly":
        return GradedPoly(self.ctx, {m: c for m, c in self.terms.items()
                                     if self.ctx.i_order(m) == 0})

    def i_positive_part(self) -> "GradedPoly":
        return GradedPoly(self.ctx, {m: c for m, c in self.terms.items()
                                     if self.ctx.i_order(m) > 0})

    def truncate(self, t: int) -> "GradedPoly":
        return GradedPoly(self.ctx, {m: c for m, c in self.terms.items()
                                     if self.ctx.i_order(m) <= t})

    # -- ring operations ---------------------------------------------------------

    def _need_same(self, other: "GradedPoly"):
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx!r} vs {other.ctx!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = self.ctx.scalar(other)
        return self.ctx.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly._clean(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = self.ctx.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "GradedPoly":
        if not isinstance(c, Cyclo):
            c = Cyclo.rational(c)
        if c.is_zero():
            return self.ctx.zero()
        return GradedPoly._clean(self.ctx, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        self._need_same(other)
        ctx = self.ctx
        if not (self.terms and other.terms):
            return ctx.zero()
        root = ctx.factor.root
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                r = ctx.mono_mul(m1, m2)
                if r is None:
                    continue
                phase, mono = r
                c = c1 * c2
                if phase:
                    c = c * root(phase)
                s = out.get(mono)
                out[mono] = c if s is None else s + c
        # drop zeros only now: a sum through zero keeps its conductor
        return GradedPoly._clean(ctx, {m: c for m, c in out.items() if not c.is_zero()})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.invert() ** (-k)
        out = self.ctx.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = self.ctx.scalar(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(c == other.terms[m] for m, c in self.terms.items())

    __hash__ = None

    # -- series operations ---------------------------------------------------------

    def _series(self, out: "GradedPoly", coef) -> "GradedPoly":
        """out + sum_{k>=1} coef(k) h^k for h = self in the formal ideal.

        The sum stops at the first zero power of h or past the context's
        series bound.  Without a truncation order h must be visibly
        nilpotent: every term carries a capped variable (odd variables have
        cap 1), else TruncationRequired.
        """
        if self.ctx.truncation is None:
            capped = [i for i, v in enumerate(self.ctx.variables) if v.cap is not None]
            for mono in self.terms:
                if not any(mono[i] > 0 for i in capped):
                    raise TruncationRequired(
                        "series does not terminate; set a truncation order")
        bound = self.ctx.series_bound()
        # not a Context.sum: each summand is built from the previous power
        p = self
        k = 1
        while not p.is_zero() and k <= bound:
            out = out + p.scale(coef(k))
            p = p * self
            k += 1
        return out

    def invert(self) -> "GradedPoly":
        """Inverse in the Laurent/series model.

        The filtration-free part must be a single Laurent unit; the rest is
        handled by a geometric series mod the truncation ideal.
        """
        d = self.degree_of()
        if not d.is_zero():
            raise NotInvertible("only degree-0 elements are invertible")
        f0 = self.i_free_part()
        if len(f0.terms) != 1:
            raise NotInvertible("filtration-free part is not a Laurent unit")
        (mono, c), = f0.terms.items()
        inv_mono = []
        for e, v in zip(mono, self.ctx.variables):
            if e and not v.invertible:
                raise NotInvertible(f"{v.name} is not invertible")
            inv_mono.append(-e)
        f0inv = GradedPoly(self.ctx, {tuple(inv_mono): c.inverse()})
        h = f0inv * self - self.ctx.one()
        if h.is_zero():
            return f0inv
        return h._series(self.ctx.one(), lambda k: (-1) ** k) * f0inv

    def exp(self) -> "GradedPoly":
        """exp of a degree-0 element with zero filtration-free part."""
        if not self.has_degree(self.ctx.factor.group.zero()):
            raise UnsupportedConstantPart("exp needs a degree-0 input")
        if not self.i_free_part().is_zero():
            raise UnsupportedConstantPart(
                "exp supports only inputs with no filtration-free part")
        return self._series(self.ctx.one(),
                            lambda k: Fraction(1, math.factorial(k)))

    def log(self) -> "GradedPoly":
        """log of 1 + h with h in the formal ideal."""
        if not self.has_degree(self.ctx.factor.group.zero()):
            raise UnsupportedConstantPart("log needs a degree-0 input")
        if self.i_free_part() != self.ctx.one():
            raise UnsupportedConstantPart(
                "log supports only inputs with filtration-free part 1")
        return (self - self.ctx.one())._series(
            self.ctx.zero(), lambda k: Fraction((-1) ** (k - 1), k))

    # -- misc -----------------------------------------------------------------

    def text(self) -> str:
        return poly_text(self)

    def __repr__(self):
        return f"<{self.text()}>"


def rho_commutator(f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """f g - rho(|f|, |g|) g f for homogeneous f, g."""
    if f.ctx != g.ctx:
        raise ContextMismatch("commutator operands")
    df, dg = f.degree_of(), g.degree_of()
    rho = f.ctx.factor.rho(df, dg)
    return f * g - (g * f).scale(rho)


def substitute(f: GradedPoly, images: dict[int, GradedPoly],
               out_ctx: Context) -> GradedPoly:
    """Algebra morphism sending variable a to images[a].

    Variables without an image map to the variable of the same index in
    out_ctx.  Images must be homogeneous of the source variables' degrees
    for the result to be well defined; monomial factors are multiplied in
    normal-order position, so the engine inserts all rho factors.
    """
    def images_of_terms():
        for mono, c in f.terms.items():
            acc = out_ctx.scalar(c)
            for a, e in enumerate(mono):
                if e == 0:
                    continue
                img = images.get(a)
                if img is None:
                    v = out_ctx.variables[a]
                    acc = acc * out_ctx.monomial(1, {v.name: e})
                    continue
                if e < 0:
                    img = img.invert()
                    e = -e
                acc = acc * img ** e
            yield acc
    return out_ctx.sum(images_of_terms())


def poly_text(f: GradedPoly) -> str:
    """Canonical text: sorted monomials, scalar * var-power chain."""
    chunks = []
    for mono, c in f.items_sorted():
        factors = []
        for e, v in zip(mono, f.ctx.variables):
            if e == 0:
                continue
            factors.append(v.name if e == 1 else f"{v.name}^{e}")
        body = " * ".join(factors)
        parts = c.printed_terms()
        if len(parts) == 1:
            (sign, stxt), = parts
            if body and stxt == "1":
                stxt = ""
        else:
            sign, stxt = "+", f"({signed_sum(parts)})"
        chunks.append((sign, " * ".join(x for x in (stxt, body) if x)))
    return signed_sum(chunks)
