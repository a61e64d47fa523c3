"""Shared fixtures: standard contexts and seeded random element generators."""

from __future__ import annotations

import gc
import itertools
import random
from fractions import Fraction

import pytest

from rhocalc.algebra import Context, GradedPoly, Var
from rhocalc.cyclo import Cyclo
from rhocalc.derivation import Derivation, LieStructure, ce_differential
from rhocalc.geometry import de_rham, make_chart
from rhocalc.grading import (CommutationFactor, GroupSpec, super_factor, torus_factor,
                             trivial_factor)


@pytest.fixture
def rng():
    return random.Random(20240811)


def super_context(truncation=None) -> Context:
    fac = super_factor()
    g = fac.group
    return Context(fac, [Var("x", g.zero(), "base"),
                         Var("z", g.zero(), "base", invertible=True),
                         Var("xi", g.degree(1), "odd"),
                         Var("eta", g.degree(1), "odd")],
                   truncation, name="super")


def torus_context(theta12=Fraction(1, 4), truncation=None) -> Context:
    fac = torus_factor([[0, theta12], [-theta12, 0]])
    g = fac.group
    return Context(fac, [Var("u1", g.generator(0), "even"),
                         Var("u2", g.generator(1), "even")],
                   truncation, name="torus")


def torus8_context() -> Context:
    """Conductor 8: rho(u1, u2) = zeta_8, with duals v1, v2 of opposite degree."""
    fac = torus_factor([[0, Fraction(1, 8)], [-Fraction(1, 8), 0]])
    g = fac.group
    return Context(fac, [Var("u1", g.generator(0), "even"),
                         Var("u2", g.generator(1), "even"),
                         Var("v1", -g.generator(0), "even"),
                         Var("v2", -g.generator(1), "even")], name="torus8")


def chevalley_context():
    """(ctx, Q) for [e1, e2] = e3 over the 1/8 torus times Z/2 with e1 odd.

    The prime context has conductor 8, even xi1 and xi3 and an odd xi2.
    """
    fac = CommutationFactor(GroupSpec(2, (2,)), [[0, Fraction(1, 8), 0],
                                                 [-Fraction(1, 8), 0, 0],
                                                 [0, 0, Fraction(1, 2)]])
    g = fac.group
    e1, e2 = g.degree(1, 0, 1), g.degree(0, 1, 0)
    lie = LieStructure(fac, (e1, e2, e1 + e2), g.zero(),
                       {(0, 1, 2): Cyclo.one(), (1, 0, 2): -fac.rho(e2, e1)})
    return ce_differential(lie)


def zline_context(truncation=None) -> Context:
    """Z-graded: Laurent base, an odd generator, and even formals of
    opposite degrees (so the ideal has non-nilpotent degree-0 elements)."""
    fac = CommutationFactor(GroupSpec(1), [[Fraction(1, 2)]])
    g = fac.group
    return Context(fac, [Var("z", g.zero(), "base", invertible=True),
                         Var("th", g.degree(1), "odd"),
                         Var("w", g.degree(2), "even"),
                         Var("v", g.degree(-2), "even")],
                   truncation, name="zline")


def line_form_chart():
    """The de Rham chart of the Laurent line: z invertible, dz odd."""
    fac = trivial_factor(GroupSpec(0))
    return de_rham(make_chart("L", fac, [("z", fac.group.zero(), True)]))


def line_form_blowup():
    """(ctx, Q) for Q(z) = dz + z^2 dz on the line form chart, whose
    closure blows up: the exactness solver falls back to its bounded span."""
    ctx = line_form_chart().chart.ctx
    comp = ctx.gen("dz") + ctx.monomial(1, {"z": 2, "dz": 1})
    q = Derivation(ctx, ctx.factor.group.degree(1), {ctx.index("z"): comp}, "Q")
    return ctx, q


@pytest.fixture
def sctx():
    return super_context()


@pytest.fixture
def tctx():
    return torus_context()


@pytest.fixture
def zctx():
    return zline_context(truncation=6)


def all_monomials(ctx: Context, maxexp: int = 2, cap: int = 4000):
    """Every valid exponent vector with per-variable exponents in a small box."""
    ranges = []
    for v in ctx.variables:
        if v.kind == "base" and v.invertible:
            ranges.append(range(-maxexp, maxexp + 1))
        elif v.kind == "odd":
            ranges.append(range(0, 2))
        else:
            hi = min(maxexp, v.cap) if v.cap is not None else maxexp
            ranges.append(range(0, hi + 1))
    out = []
    for mono in itertools.product(*ranges):
        if ctx.truncation is not None and ctx.i_order(mono) > ctx.truncation:
            continue
        out.append(mono)
        if len(out) > cap:
            raise RuntimeError("monomial box too large for tests")
    return out


_BUCKET_CACHE: dict = {}


def monomials_by_degree(ctx: Context, maxexp: int = 2):
    # keep the context alive in the cache entry: a bare id() key could be
    # reused by a different context after garbage collection
    key = (id(ctx), maxexp)
    hit = _BUCKET_CACHE.get(key)
    if hit is not None and hit[0] is ctx:
        return hit[1]
    buckets: dict = {}
    for m in all_monomials(ctx, maxexp):
        buckets.setdefault(ctx.mono_degree(m), []).append(m)
    _BUCKET_CACHE[key] = (ctx, buckets)
    return buckets


def random_scalar(rng) -> Fraction:
    v = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return -v if rng.random() < 0.5 else v


def random_homogeneous(ctx: Context, rng, degree=None, terms: int = 2,
                       maxexp: int = 2) -> GradedPoly:
    """Random homogeneous polynomial; zero when the degree has no monomials."""
    buckets = monomials_by_degree(ctx, maxexp)
    if degree is None:
        degree = rng.choice(sorted(buckets, key=lambda d: d.parts))
    pool = buckets.get(degree, [])
    if not pool:
        return ctx.zero()
    out = ctx.zero()
    for _ in range(terms):
        mono = rng.choice(pool)
        out = out + GradedPoly(ctx, {mono: Cyclo.rational(random_scalar(rng))})
    return out


def random_poly(ctx: Context, rng, terms: int = 3, maxexp: int = 2) -> GradedPoly:
    pool = all_monomials(ctx, maxexp)
    out = ctx.zero()
    for _ in range(terms):
        mono = rng.choice(pool)
        out = out + GradedPoly(ctx, {mono: Cyclo.rational(random_scalar(rng))})
    return out


def random_degrees(ctx: Context, rng, span: int = 2):
    g = ctx.factor.group
    parts = [rng.randint(-span, span) for _ in range(g.ngens)]
    return g.degree(*parts)


def random_derivation(ctx: Context, rng, degree=None, terms: int = 2,
                      maxexp: int = 2, name: str = "X") -> Derivation:
    """Random homogeneous derivation (components possibly zero)."""
    buckets = monomials_by_degree(ctx, maxexp)
    if degree is None:
        degree = random_degrees(ctx, rng, span=1)
    comps = {}
    for a, v in enumerate(ctx.variables):
        want = degree + v.degree
        pool = buckets.get(want, [])
        if not pool or rng.random() < 0.3:
            continue
        acc = ctx.zero()
        for _ in range(terms):
            mono = rng.choice(pool)
            acc = acc + GradedPoly(ctx, {mono: Cyclo.rational(random_scalar(rng))})
        if not acc.is_zero():
            comps[a] = acc
    return Derivation(ctx, degree, comps, name)


def cyclic_garbage(fn, *args) -> int:
    """Objects that fn(*args) leaves for the cyclic garbage collector: the
    count of the first collection after the call, with automatic collection
    off during it.  0 when reference counting frees all that fn made."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn(*args)
        return gc.collect()
    finally:
        if enabled:
            gc.enable()
