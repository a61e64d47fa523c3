"""Hypothesis property tests for the core invariants."""

import contextlib
import functools
import io
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rhocalc import cli
from rhocalc.algebra import Context, GradedPoly, Var
from rhocalc.cyclo import Cyclo
from rhocalc.dsl import run_session
from rhocalc.errors import ConstraintViolation, ContextMismatch
from rhocalc.grading import GroupSpec, super_factor, torus_factor, trivial_factor
from rhocalc.matrix import GradedMatrix, inverse, rho_ber, rho_det
from rhocalc.volume import exactness_solve

from conftest import (all_monomials, cyclic_garbage, line_form_blowup,
                      random_homogeneous, random_scalar, super_context,
                      torus8_context, torus_context, zline_context)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def cyclo_elements(n):
    from rhocalc.cyclo import cyclotomic_poly
    deg = len(cyclotomic_poly(n)) - 1
    return st.lists(rationals, min_size=deg, max_size=deg).map(
        lambda cs: Cyclo(n, cs))


@settings(max_examples=60, deadline=None)
@given(cyclo_elements(8), cyclo_elements(8), cyclo_elements(8))
def test_cyclo_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == Cyclo.one()


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=2),
       st.integers(min_value=1, max_value=24))
def test_cyclo_lift_compatibility(coeffs, mult):
    a = Cyclo(4, coeffs)
    assert a.lift(4 * mult) == a
    b = Cyclo(4, list(reversed(coeffs)))
    assert (a * b).lift(4 * mult) == a.lift(4 * mult) * b.lift(4 * mult)


_FACTORS = [super_factor(), trivial_factor(GroupSpec(1, (2,))),
            torus_factor([[0, Fraction(1, 4)], [-Fraction(1, 4), 0]])]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(_FACTORS))),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=6, max_size=6))
def test_factor_bicharacter_properties(which, parts):
    fac = _FACTORS[which]
    g = fac.group
    n = g.ngens
    i = g.degree(*parts[:n])
    j = g.degree(*parts[n:2 * n] if len(parts) >= 2 * n else parts[:n])
    assert fac.rho(i, j) * fac.rho(j, i) == Cyclo.one()
    assert fac.rho(i + j, i + j) == (fac.rho(i, i) * fac.rho(j, j)
                                     * fac.rho(i, j) * fac.rho(j, i))


def polys(ctx, maxterms=3):
    monos = all_monomials(ctx, 1)
    term = st.tuples(st.sampled_from(monos), rationals)
    return st.lists(term, min_size=0, max_size=maxterms).map(
        lambda ts: _build(ctx, ts))


def _build(ctx, ts):
    out = ctx.zero()
    for mono, c in ts:
        out = out + GradedPoly(ctx, {mono: Cyclo.rational(c)})
    return out


_SUPER = super_context()
_TORUS = torus_context()


@settings(max_examples=50, deadline=None)
@given(polys(_SUPER), polys(_SUPER), polys(_SUPER))
def test_super_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * _SUPER.one() == f


@settings(max_examples=50, deadline=None)
@given(polys(_TORUS), polys(_TORUS), polys(_TORUS))
def test_torus_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert (f + g) * h == f * h + g * h


@settings(max_examples=50, deadline=None)
@given(polys(_SUPER))
def test_homogeneous_decomposition_sums_back(f):
    total = _SUPER.zero()
    for d in f.degrees():
        total = total + f.homogeneous_part(d)
    assert total == f


_TORUS8 = torus8_context()

# q * zeta_n^k stored at conductor n: zeta(4) and zeta(8)^2 are one value
# stored two ways, so a sum that moved a conductor would show in the stored form
zeta_coefs = st.builds(lambda q, n, k: Cyclo.rational(q) * Cyclo.root_of_unity(n, k),
                       rationals.filter(bool), st.sampled_from((1, 4, 8)),
                       st.integers(min_value=0, max_value=7))
torus8_polys = st.lists(st.tuples(st.sampled_from(all_monomials(_TORUS8, 1)), zeta_coefs),
                        max_size=3).map(lambda ts: GradedPoly(_TORUS8, dict(ts)))
# each drawn polynomial, followed by its negative when the flag is set
summand_lists = st.lists(st.tuples(torus8_polys, st.booleans()), max_size=6).map(
    lambda xs: [q for p, pair in xs for q in ((p, -p) if pair else (p,))])


def _stored(terms):
    return {m: (c.n, c.num, c.den) for m, c in terms.items()}


def _reference_fold(ps):
    out = {}
    for p in ps:
        for m, c in p.terms.items():
            s = out[m] + c if m in out else c
            if s.is_zero():
                del out[m]
            else:
                out[m] = s
    return out


_U1 = (1, 0, 0, 0)
_Z8SQ = GradedPoly(_TORUS8, {_U1: Cyclo.root_of_unity(8, 2)})


@settings(max_examples=80, deadline=None)
@given(summand_lists, st.integers(min_value=0, max_value=12))
@example([_Z8SQ, -_Z8SQ, GradedPoly(_TORUS8, {_U1: Cyclo.root_of_unity(4)})], 0)
def test_context_sum_is_the_left_fold_of_plus(ps, at):
    # a cancelled coefficient restarts: zeta(8)^2 - zeta(8)^2 + zeta(4) is
    # stored at conductor 4, not lifted to 8
    want = _stored(_reference_fold(ps))
    assert _stored(_TORUS8.sum(ps).terms) == want
    assert _stored(functools.reduce(operator.add, ps, _TORUS8.zero()).terms) == want
    foreign = torus_context().gen("u1")
    with pytest.raises(ContextMismatch) as err:
        _TORUS8.sum(ps[:at] + [foreign] + ps[at:])
    with pytest.raises(ContextMismatch) as by_mul:
        _TORUS8.one() * foreign
    assert str(err.value) == str(by_mul.value)


_GROUPS = [GroupSpec(2), GroupSpec(0, (2,)), GroupSpec(1, (4, 3)), GroupSpec(2, (8,))]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(range(len(_GROUPS))),
       st.lists(st.integers(min_value=-20, max_value=20), min_size=6, max_size=6))
def test_degree_arithmetic_matches_the_reduce_route(which, parts):
    # +, - and negation add int tuples and reduce only torsion parts; the
    # result is the degree GroupSpec.degree builds from the raw sums
    g = _GROUPS[which]
    n = g.ngens
    a, b = g.degree(*parts[:n]), g.degree(*parts[3:3 + n])
    for got, raw in ((a + b, map(int.__add__, a.parts, b.parts)),
                     (a - b, map(int.__sub__, a.parts, b.parts)),
                     (-a, (-x for x in a.parts))):
        want = g.degree(*raw)
        assert got == want and got.parts == want.parts
        assert all(type(x) is int for x in got.parts)


@pytest.mark.parametrize("g, h", [
    pytest.param(GroupSpec(1), GroupSpec(0, (2,)), id="free-vs-torsion"),
    pytest.param(GroupSpec(0, (2,)), GroupSpec(0, (4,)), id="torsion-orders"),
    pytest.param(GroupSpec(2), GroupSpec(1, (3,)), id="same-length"),
])
def test_degree_group_mismatch_raises(g, h):
    a, b = g.generator(0), h.generator(0)
    for op in (lambda: a + b, lambda: a - b, lambda: b + a, lambda: b - a):
        with pytest.raises(ConstraintViolation):
            op()


def _capped_context():
    fac = torus_factor([[0, Fraction(1, 4)], [-Fraction(1, 4), 0]])
    g = fac.group
    return Context(fac, [Var("x", g.zero(), "base", invertible=True),
                         Var("u1", g.generator(0), "even", cap=2),
                         Var("u2", g.generator(1), "even", cap=3)], name="capped")


_TABLE_CONTEXTS = [super_context(), zline_context(), _capped_context(),
                   super_context(truncation=1), zline_context(truncation=3),
                   _TORUS8]
_TABLE_MONOS = [all_monomials(ctx, 2) for ctx in _TABLE_CONTEXTS]


def _reference_product(ctx, m1, m2):
    # the rho factor of moving each x_a of m1 past each x_b of m2 with b < a,
    # then the validity rule read off the declarations
    k = sum(m1[a] * m2[b] * ctx._pair[a][b]
            for a in range(ctx.nvars) for b in range(a)) % ctx.conductor
    out = tuple(x + y for x, y in zip(m1, m2))
    for e, v in zip(out, ctx.variables):
        if e < 0 and not v.invertible:
            return None
        if (v.kind == "odd" and e > 1) or (v.cap is not None and e > v.cap):
            return None
    order = sum(e for e, v in zip(out, ctx.variables) if v.kind != "base")
    if ctx.truncation is not None and order > ctx.truncation:
        return None
    return k, out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mono_mul_table_matches_an_independent_rule(data):
    which = data.draw(st.sampled_from(range(len(_TABLE_CONTEXTS))))
    ctx, monos = _TABLE_CONTEXTS[which], _TABLE_MONOS[which]
    m1, m2 = data.draw(st.sampled_from(monos)), data.draw(st.sampled_from(monos))
    want = _reference_product(ctx, m1, m2)
    assert ctx.mono_mul(m1, m2) == want     # a miss, or a hit from an earlier example
    assert ctx.mono_mul(m1, m2) == want     # a hit


def test_mono_mul_tables_are_per_context():
    # xi*eta has order 2: kept under truncation 2, annihilated under 1, so a
    # table shared between the two contexts would answer one of them wrongly
    xi, eta, kept = (0, 0, 1, 0), (0, 0, 0, 1), (0, (0, 0, 1, 1))
    for low_first in (True, False):
        low, high = super_context(truncation=1), super_context(truncation=2)
        order = (low, high) if low_first else (high, low)
        for ctx in order + order:
            assert ctx.mono_mul(xi, eta) == (None if ctx is low else kept)
    # a context built by extend starts with its own table
    low = super_context(truncation=1)
    assert low.mono_mul(xi, eta) is None
    assert low.extend([], truncation=2).mono_mul(xi, eta) == kept


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=60).flatmap(
    lambda d: st.tuples(st.just(d), cyclo_elements(d))))
def test_from_ints_inverts_lift_up_to_conductor_120(case):
    # lifting to every multiple m <= 120 and descending back gives a's bytes
    d, a = case
    for m in range(d, 121, d):
        b = a.lift(m)
        b = Cyclo.from_ints(m, {j: x for j, x in enumerate(b.num) if x}, b.den, d)
        assert (b.n, b.num, b.den) == (a.n, a.num, a.den), m


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=120).flatmap(cyclo_elements))
def test_power_basis_is_the_printed_form(v):
    # coeffs reads the stored tensor slots back in the power basis, and
    # n_terms counts the printed terms, not the stored slots
    again = Cyclo(v.n, v.coeffs)
    assert again == v and again.text() == v.text()
    text = v.text()
    printed = 0 if text == "0" else 1 + text.count(" + ") + text.count(" - ")
    assert v.n_terms() == printed


def _grid(ctx, slots, rng, unit=False):
    """A degree-0 matrix over the degree tuple `slots` (generator parts):
    random homogeneous entries plus a scalar on the diagonal.  With unit,
    over the super context, the entries are a random scalar plus xi eta
    (even) or xi and eta (odd), so the Laurent part is rational and the
    inverse and the Berezinian exist."""
    g = ctx.factor.group
    degs = tuple(g.degree(*d) for d in slots)

    def entry(d):
        if not unit:
            return random_homogeneous(ctx, rng, d)
        xi, eta = ctx.gen("xi"), ctx.gen("eta")
        if d.is_zero():
            return ctx.scalar(random_scalar(rng)) + (xi * eta).scale(random_scalar(rng))
        return xi.scale(random_scalar(rng)) + eta.scale(random_scalar(rng))

    ents = [[entry(degs[k] - degs[l]) for l in range(len(degs))]
            for k in range(len(degs))]
    for k in range(len(degs)):
        ents[k][k] = ents[k][k] + ctx.scalar(random_scalar(rng))
    return GradedMatrix(ctx, degs, degs, g.zero(), ents)


def test_hot_paths_leave_no_cyclic_garbage():
    # whatever the determinant walk, the bounded span, the session runner
    # and the CLI build is freed by reference count when they return, so
    # the workloads' paths leave the collector nothing to sweep
    rng = random.Random("cyclic garbage")
    sctx, tctx = super_context(), torus8_context()
    grids = [_grid(sctx, [(0,)] * 5, rng), _grid(sctx, [(1,)] * 5, rng),
             _grid(tctx, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)], rng)]
    for f in grids:
        assert not rho_det(f).is_zero()
        assert cyclic_garbage(rho_det, f) == 0
    assert cyclic_garbage(inverse, _grid(sctx, [(0,)] * 4, rng, unit=True)) == 0
    ber = _grid(sctx, [(0,), (0,), (1,), (1,)], rng, unit=True)
    assert not rho_ber(ber).is_zero()
    assert cyclic_garbage(rho_ber, ber) == 0

    ctx, q = line_form_blowup()
    c = q.apply(ctx.gen("z"))
    # at closure_cap=1 the solver finds z in the 17-monomial bounded span
    assert exactness_solve(c, q, closure_cap=1).searched == 17
    assert cyclic_garbage(lambda: exactness_solve(c, q, closure_cap=1)) == 0

    demo = Path(__file__).resolve().parents[1] / "sessions" / "demo.rc"
    assert cyclic_garbage(run_session, demo.read_text(encoding="utf-8")) == 0
    assert cyclic_garbage(run_session, "scenarios all;") == 0
    # text mode only: the stdlib's indenting JSON encoder behind --json
    # makes a closure cycle per call
    with contextlib.redirect_stdout(io.StringIO()):
        assert cyclic_garbage(cli.main, ["run", str(demo)]) == 0
