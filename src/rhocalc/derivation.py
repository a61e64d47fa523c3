"""Twisted derivations on a graded polynomial context.

A derivation is determined by its values on the generators (termwise action
on the coefficient-times-monomial decomposition), so it is stored as a finite
component map together with its degree.  Application implements the twisted
Leibniz rule exactly as one term kernel: each term of the block X(x_a^e),
built once per (a, e) and kept on the derivation, goes between the
monomial's prefix and suffix by two `mono_mul` calls (product-table reads
after a pair's first time in the context) into one dict, with integer
phases, making the scalar products of prefix * block * suffix (one root per
reordering), so no conductor moves.  `image(m)`, X applied to a unit
monomial m, is computed by `apply` once per derivation and kept in an image
table beside the blocks (up to `algebra.PRODUCT_TABLE_CAP` entries): the
exactness solver asks for Q(m) of the same span monomials on every solve.
The commutator of two derivations is again a derivation, computed on
generators."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .algebra import (BASE, PRODUCT_TABLE_CAP, Context, GradedPoly, Var,
                      add_term, adjoin_eps, lift_poly, substitute)
from .cyclo import Cyclo
from .errors import (ConstraintViolation, ContextMismatch, DegreeMismatch,
                     GradingViolation)
from .grading import ODD, CommutationFactor, Degree


class Derivation:
    """X = sum_a X^a d/dx^a with each component homogeneous of |X| + |x^a|."""

    def __init__(self, ctx: Context, degree: Degree,
                 components: dict[int, GradedPoly], name: str = "X"):
        self.ctx = ctx
        self.degree = degree
        self.name = name
        comps = {}
        for a, p in components.items():
            if p.ctx != ctx:
                raise ContextMismatch(f"component of {name} at {ctx.variables[a].name}")
            if p.is_zero():
                continue
            want = degree + ctx.variables[a].degree
            if not p.has_degree(want):
                raise GradingViolation(
                    f"{name}({ctx.variables[a].name}) must have degree {want.text()}")
            comps[a] = p
        self.components = comps
        self._blocks: dict = {}     # (a, e) -> X(x_a^e), read-only once built
        self._images: dict = {}     # m -> X(m), read-only once built

    @cached_property
    def _row(self) -> list[int]:    # rho(|X|, |x_b|) = zeta_N^row[b]
        return [self.ctx.factor.phase_k(self.degree, v.degree) for v in self.ctx.variables]

    def component(self, a: int) -> GradedPoly:
        return self.components.get(a, self.ctx.zero())

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return (self.ctx == other.ctx and self.degree == other.degree
                and self.components == other.components)

    __hash__ = None

    # -- action ----------------------------------------------------------------

    def __call__(self, f: GradedPoly) -> GradedPoly:
        return self.apply(f)

    def apply(self, f: GradedPoly) -> GradedPoly:
        if f.ctx != self.ctx:
            raise ContextMismatch("derivation applied across contexts")
        ctx = self.ctx
        root = ctx.factor.root
        # terms, not a Context.sum: that would build a polynomial per term
        out: dict = {}
        for mono, coef in f.terms.items():
            k = 0  # rho(|X|, degree of the factors left of x_a) = zeta_N^k
            for a, e in enumerate(mono):
                comp = self.components.get(a) if e else None
                if comp is not None:
                    c = coef * root(k) if k else coef
                    pre = mono[:a] + (0,) * (ctx.nvars - a)
                    suf = (0,) * (a + 1) + mono[a + 1:]
                    block = self._blocks.get((a, e))
                    if block is None:
                        block = self._blocks[a, e] = self._power_derivative(a, e, comp)
                    for m, v in block.items():
                        hit = self._sandwich(pre, m, v, suf)
                        if hit is not None:
                            add_term(out, hit[0], c * hit[1])
                k = (k + e * self._row[a]) % ctx.conductor
        # mono_mul kept only valid monomials and add_term dropped every zero
        return GradedPoly._clean(ctx, out)

    def image(self, m) -> GradedPoly:
        """X applied to the unit monomial m: `apply` the first time, then a
        read of the image table, which stops growing at PRODUCT_TABLE_CAP
        entries (past that, each miss is recomputed and not stored)."""
        img = self._images.get(m)
        if img is None:
            img = self.apply(GradedPoly(self.ctx, {m: Cyclo.one()}))
            if len(self._images) < PRODUCT_TABLE_CAP:
                self._images[m] = img
        return img

    def _sandwich(self, lo, m, c, hi):
        """lo * (c m) * hi as (monomial, coefficient), None if it vanishes;
        one root per reordering, as in a product of three polynomials."""
        ctx = self.ctx
        r1 = ctx.mono_mul(lo, m)
        r2 = r1 and ctx.mono_mul(r1[1], hi)
        if r2 is not None:
            for k in (r1[0], r2[0]):
                if k:
                    c = c * ctx.factor.root(k)
            return r2[1], c

    def _power_derivative(self, a: int, e: int, comp: GradedPoly) -> dict:
        """The terms of X applied to x_a^e, one Leibniz block; an odd x_a
        has e = 1, where the loop below yields X^a's terms unchanged."""
        ctx = self.ctx

        def power(p):
            return (0,) * a + (p,) + (0,) * (ctx.nvars - a - 1)
        if ctx.variables[a].kind == BASE:
            # degree-0 variable: commutes with everything, plain power rule,
            # valid for negative exponents of Laurent variables too
            return {r[1]: c * e for m, c in comp.terms.items()
                    if (r := ctx.mono_mul(power(e - 1), m)) is not None}
        block: dict = {}
        for j in range(e):  # sum_j rho(X, x_a)^j x_a^j X^a x_a^(e-1-j)
            w = self._row[a] * j % ctx.conductor
            for m, c in comp.terms.items():
                hit = self._sandwich(power(j), m, ctx.factor.root(w) * c if w else c,
                                     power(e - 1 - j))
                if hit is not None:
                    add_term(block, *hit)
        return block

    # -- algebra of derivations ---------------------------------------------------

    def scale(self, c) -> "Derivation":
        return Derivation(self.ctx, self.degree,
                          {a: p.scale(c) for a, p in self.components.items()},
                          self.name)

    def left_mul(self, f: GradedPoly) -> "Derivation":
        """The module action (f X)(g) = f (X g); f must be homogeneous."""
        d = f.degree_of()
        return Derivation(self.ctx, self.degree + d,
                          {a: f * p for a, p in self.components.items()},
                          f"({self.name})")

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.ctx != other.ctx:
            raise ContextMismatch("derivation sum")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise GradingViolation("sum of derivations of different degrees")
        comps = dict(self.components)
        for a, p in other.components.items():
            comps[a] = comps.get(a, self.ctx.zero()) + p
        return Derivation(self.ctx, self.degree, comps, self.name)

    def __neg__(self) -> "Derivation":
        return self.scale(-1)


def partial(ctx: Context, name: str) -> Derivation:
    """The coordinate derivative: unique derivation with d(x^b) = delta_ab."""
    a = ctx.index(name)
    d = Derivation(ctx, -ctx.variables[a].degree, {}, f"d/d{name}")
    d.components[a] = ctx.one()     # degree 0 = |d/dx^a| + |x^a|
    d._row = [-k % ctx.conductor for k in ctx._pair[a]]   # rho(-|x_a|, |x_b|)
    return d


def gradients(ctx: Context, polys) -> list[list[GradedPoly]]:
    """[[df/dx^a for each coordinate a of ctx] for f in polys], building
    each coordinate partial once."""
    parts = [partial(ctx, v.name) for v in ctx.variables]
    return [[d.apply(f) for d in parts] for f in polys]


def commutator(x: Derivation, y: Derivation) -> Derivation:
    """[X, Y](f) = X(Y f) - rho(|X|, |Y|) Y(X f), assembled on generators."""
    if x.ctx != y.ctx:
        raise ContextMismatch("commutator of derivations")
    ctx = x.ctx
    rho = ctx.factor.rho(x.degree, y.degree)
    comps = {a: x.apply(y.component(a)) - y.apply(x.component(a)).scale(rho)
             for a in range(ctx.nvars)}
    return Derivation(ctx, x.degree + y.degree, comps,
                      f"[{x.name},{y.name}]")


@dataclass
class HomologyCheck:
    """Outcome of the square-zero test for a candidate homological derivation."""

    homological: bool
    reason: str = ""          # "", "parity", or "square"
    witness_var: str | None = None
    residue: GradedPoly | None = None

    def __bool__(self):
        return self.homological


def is_homological(q: Derivation) -> HomologyCheck:
    """Odd self-parity plus square-zero on every generator.

    Checking generators suffices because a derivation is determined termwise
    by its generator values; the parity condition is reported separately so
    a square-zero derivation of even parity (e.g. the zero derivation on a
    group with no odd degrees) is flagged rather than silently accepted.
    """
    if q.ctx.factor.parity(q.degree) != ODD:
        return HomologyCheck(False, reason="parity")
    for a in range(q.ctx.nvars):
        res = q.apply(q.component(a))
        if not res.is_zero():
            return HomologyCheck(False, reason="square",
                                 witness_var=q.ctx.variables[a].name, residue=res)
    return HomologyCheck(True)


@dataclass
class LieStructure:
    """Finite-dimensional bracket data: basis degrees and structure constants.

    constants[(a, b, c)] is the coefficient of e_c in the bracket of e_a and
    e_b; missing keys are zero.  Validation enforces the degree bookkeeping
    and twisted antisymmetry of the constants (the Jacobi identity is *not*
    assumed; it is equivalent to the built differential squaring to zero).
    """

    factor: CommutationFactor
    degrees: tuple[Degree, ...]
    bracket_degree: Degree
    constants: dict[tuple[int, int, int], Cyclo] = field(default_factory=dict)

    def __post_init__(self):
        d = self.bracket_degree
        clean = {}
        for (a, b, c), v in self.constants.items():
            if not isinstance(v, Cyclo):
                v = Cyclo.rational(v)
            if v.is_zero():
                continue
            if self.degrees[a] + self.degrees[b] + d != self.degrees[c]:
                raise DegreeMismatch(
                    f"gamma[{a},{b}]^{c} nonzero but degrees do not match")
            clean[(a, b, c)] = v
        self.constants = clean
        for (a, b, c), v in list(self.constants.items()):
            rho = self.factor.rho(self.degrees[a], self.degrees[b])
            other = self.constants.get((b, a, c), Cyclo.zero())
            if v + rho * other != Cyclo.zero():
                raise ConstraintViolation(
                    "bracket_antisymmetry", (a, b, c),
                    "constants must satisfy twisted antisymmetry")

    @property
    def dim(self) -> int:
        return len(self.degrees)


def ce_differential(lie: LieStructure) -> tuple[Context, Derivation]:
    """The quadratic differential encoding a bracket on shifted dual variables.

    Builds the Z x G context whose generators xi^a carry degree (1, -|e_a|)
    and returns Q with Q(xi^c) = 1/2 sum gamma_ab^c xi^a xi^b.  Q squares to
    zero exactly when the bracket satisfies the twisted Jacobi identity.
    """
    fac = lie.factor.extend_prime()
    vars_ = []
    for a, d in enumerate(lie.degrees):
        dd = lie.factor.prime_degree(1, -d)
        vars_.append(Var(f"xi{a + 1}", dd, fac.parity(dd)))
    ctx = Context(fac, vars_, name="chevalley")
    half = Fraction(1, 2)
    comps: dict[int, GradedPoly] = {}
    for (a, b, c), g in lie.constants.items():
        term = ctx.monomial(g * half, {}) * ctx.gen(f"xi{a + 1}") \
            * ctx.gen(f"xi{b + 1}")
        comps[c] = comps.get(c, ctx.zero()) + term
    qdeg = lie.factor.prime_degree(1, lie.bracket_degree)
    return ctx, Derivation(ctx, qdeg, comps, "Q")


def infinitesimal_deformation(f: GradedPoly, x: Derivation):
    """Both sides of the first-order Taylor identity.

    Returns (substituted, first_order, extended_context) where `substituted`
    is f evaluated at x^a + eps X^a and `first_order` is
    f + eps sum_a X^a df/dx^a, over the context extended by the nilpotent
    parameter eps of degree -|X| (`algebra.adjoin_eps`: a fresh name, and a
    truncation order one higher).
    """
    ctx = f.ctx
    if x.ctx != ctx:
        raise ContextMismatch("deformation across contexts")
    ext, eps = adjoin_eps(ctx, -x.degree)
    images = {}
    for a, comp in x.components.items():
        v = ctx.variables[a]
        images[a] = ext.gen(v.name) + eps * lift_poly(comp, ext)
    lhs = substitute(f, images, ext)
    grad = gradients(ctx, [f])[0]
    acc = ext.sum(lift_poly(comp, ext) * lift_poly(grad[a], ext)
                  for a, comp in x.components.items())
    rhs = lift_poly(f, ext) + eps * acc
    return lhs, rhs, ext
