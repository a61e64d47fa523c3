"""Normal ordering, ring axioms, series operations."""

import importlib
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import rhocalc.algebra as algebra
from rhocalc.algebra import PRODUCT_TABLE_CAP, Context, GradedPoly, Var, adjoin_eps, \
    lift_poly, poly_text, prime_context, rho_commutator, restrict_poly, substitute
from rhocalc.cyclo import Cyclo
from rhocalc.derivation import partial
from rhocalc.errors import (ConstraintViolation, ContextMismatch, NegativePower,
                            NotHomogeneous, NotInvertible, TruncationRequired,
                            UnsupportedConstantPart)
from rhocalc.grading import GroupSpec, super_factor, torus_factor, trivial_factor

from conftest import (random_derivation, random_homogeneous, random_poly,
                      super_context, torus8_context, torus_context,
                      zline_context)


def test_context_rejects_bad_variables():
    fac = super_factor()
    g = fac.group
    with pytest.raises(ConstraintViolation):
        Context(fac, [Var("x", g.degree(1), "base")])      # base must be degree 0
    with pytest.raises(ConstraintViolation):
        Context(fac, [Var("xi", g.degree(1), "even")])     # parity mismatch
    with pytest.raises(ConstraintViolation):
        Context(fac, [Var("xi", g.degree(1), "odd", invertible=True)])
    with pytest.raises(ConstraintViolation):
        Context(fac, [Var("x", g.zero(), "base"), Var("x", g.zero(), "base")])


def test_normalize_one_swap(sctx):
    xi, eta = sctx.gen("xi"), sctx.gen("eta")
    assert eta * xi == -(xi * eta)
    assert sctx.word(1, [("eta", 1), ("xi", 1)]) == -(xi * eta)


def test_odd_square_annihilates(sctx):
    xi = sctx.gen("xi")
    assert (xi * xi).is_zero()
    assert sctx.word(5, [("xi", 1), ("xi", 1)]).is_zero()
    assert ((xi * sctx.gen("eta")) ** 2).is_zero()


def test_torus_reorder_phase(tctx):
    # u2 u1 picks up the inverse quarter phase
    u1, u2 = tctx.gen("u1"), tctx.gen("u2")
    q_inv = Cyclo.root_of_unity(4).inverse()
    assert u2 * u1 == (u1 * u2).scale(q_inv)


def test_negative_power_requires_invertible(sctx):
    with pytest.raises(NegativePower):
        sctx.word(1, [("x", -1)])
    with pytest.raises(NegativePower):
        sctx.monomial(1, {"x": -2})
    assert sctx.monomial(1, {"z": -2}).terms  # declared invertible: fine


def test_normal_form_confluence(rng):
    # swapping two adjacent letters multiplies by the exact rho factor
    for ctx in (super_context(), torus_context(), zline_context(6)):
        names = [v.name for v in ctx.variables]
        for _ in range(40):
            letters = [(rng.choice(names), rng.randint(1, 2)) for _ in range(4)]
            base = ctx.word(1, letters)
            k = rng.randrange(3)
            swapped = letters[:k] + [letters[k + 1], letters[k]] + letters[k + 2:]
            va, vb = ctx.var(letters[k][0]), ctx.var(letters[k + 1][0])
            phase = ctx.factor.phase(va.degree * letters[k][1],
                                     vb.degree * letters[k + 1][1])
            assert base == ctx.word(Cyclo.from_phase(phase), swapped)


def test_mul_unit_and_rho_commutativity(rng):
    for ctx in (super_context(), torus_context()):
        one = ctx.one()
        for _ in range(30):
            f = random_homogeneous(ctx, rng)
            g = random_homogeneous(ctx, rng)
            assert f * one == f
            if f.is_zero() or g.is_zero():
                continue
            rho = ctx.factor.rho(f.degree_of(), g.degree_of())
            assert f * g == (g * f).scale(rho)
            assert rho_commutator(f, g).is_zero()


def test_associativity_fuzz(rng):
    for ctx in (super_context(), torus_context(), zline_context(5)):
        for _ in range(25):
            f, g, h = (random_poly(ctx, rng) for _ in range(3))
            assert (f * g) * h == f * (g * h)


def test_context_mismatch_raises():
    a, b = super_context(), torus_context()
    with pytest.raises(ContextMismatch):
        a.one() * b.one()


def test_a_zero_factor_still_checks_the_contexts():
    a, b = super_context(), torus_context()
    with pytest.raises(ContextMismatch):
        a.zero() * b.gen("u1")
    with pytest.raises(ContextMismatch):
        a.gen("xi") * b.zero()


def test_gen_gives_equal_polynomials_with_distinct_term_dicts(sctx):
    first, second = sctx.gen("xi"), sctx.gen("xi")
    assert first == second == sctx.monomial(1, {"xi": 1})
    assert first.terms is not second.terms
    # a generator outside the truncation is zero every time it is asked for
    flat = super_context(truncation=0)
    assert flat.gen("xi").is_zero() and flat.gen("xi").is_zero()
    assert flat.gen("x") == flat.monomial(1, {"x": 1})


def test_homogeneous_parts(sctx, rng):
    x, xi = sctx.gen("x"), sctx.gen("xi")
    f = x + xi
    assert f.homogeneous_part(xi.degree_of()) == xi
    assert f.homogeneous_part(sctx.factor.group.zero()) == x
    with pytest.raises(NotHomogeneous):
        f.degree_of()
    for _ in range(10):
        g = random_poly(sctx, rng)
        total = sctx.zero()
        for d in g.degrees():
            total = total + g.homogeneous_part(d)
        assert total == g


def test_invert_trivial_cases(sctx):
    assert sctx.one().invert() == sctx.one()
    z = sctx.gen("z")
    assert z.invert() == sctx.monomial(1, {"z": -1})
    xi, eta = sctx.gen("xi"), sctx.gen("eta")
    f = sctx.one() + xi * eta
    assert f.invert() == sctx.one() - xi * eta
    assert f * f.invert() == sctx.one()


def test_invert_fuzz(rng):
    ctx = super_context()
    zero = ctx.factor.group.zero()
    for _ in range(25):
        unit = ctx.monomial(Fraction(rng.randint(1, 5)), {"z": rng.randint(-2, 2)})
        nil = random_homogeneous(ctx, rng, degree=zero).i_positive_part()
        f = unit + nil * ctx.gen("xi") * ctx.gen("eta") + nil
        f = unit + f.i_positive_part()
        assert f * f.invert() == ctx.one()
        assert f.invert() * f == ctx.one()


def test_invert_errors(sctx):
    with pytest.raises(NotInvertible):
        sctx.gen("x").invert()                    # not declared invertible
    with pytest.raises(NotInvertible):
        (sctx.gen("z") + sctx.one()).invert()     # two Laurent terms
    with pytest.raises(NotInvertible):
        sctx.zero().invert()
    with pytest.raises(NotInvertible):
        sctx.gen("xi").invert()                   # not degree-preserving unit


def test_series_need_truncation():
    import math

    ctx = zline_context(truncation=None)
    wv = ctx.gen("w") * ctx.gen("v")      # degree 0, not nilpotent
    with pytest.raises(TruncationRequired):
        (ctx.one() + wv).invert()
    with pytest.raises(TruncationRequired):
        wv.exp()
    tctx = zline_context(truncation=11)
    wv = tctx.gen("w") * tctx.gen("v")
    inv = (tctx.one() + wv).invert()
    assert ((tctx.one() + wv) * inv) == tctx.one()  # exact mod the ideal power
    expw = wv.exp()
    assert expw.coefficient(tctx.zero_mono()) == Cyclo.one()
    for k in range(1, 6):
        mono = (0, 0, k, k)
        assert expw.coefficient(mono) == Cyclo.rational(
            Fraction(1, math.factorial(k)))


def test_exp_log_basics(sctx):
    assert sctx.zero().exp() == sctx.one()
    xi, eta = sctx.gen("xi"), sctx.gen("eta")
    assert (xi * eta).exp() == sctx.one() + xi * eta
    assert (sctx.one() + xi * eta).log() == xi * eta
    assert sctx.one().log() == sctx.zero()
    with pytest.raises(UnsupportedConstantPart):
        (sctx.one() + xi * eta).exp()             # constant part must vanish
    with pytest.raises(UnsupportedConstantPart):
        (xi * eta).log()                          # constant part must be one
    with pytest.raises(UnsupportedConstantPart):
        xi.exp()                                  # not degree 0


def test_exp_is_homomorphism(rng):
    ctx = zline_context(truncation=6)
    zero = ctx.factor.group.zero()
    for _ in range(20):
        f = random_homogeneous(ctx, rng, degree=zero).i_positive_part()
        g = random_homogeneous(ctx, rng, degree=zero).i_positive_part()
        assert (f + g).exp() == f.exp() * g.exp()
        assert (f.exp() * g.exp()).log() == f + g
        assert f.exp().log() == f
        assert (ctx.one() + f).invert() * (ctx.one() + f) == ctx.one()


def _torus_pairs_context(truncation):
    """Conductor-8 torus whose formal pairs u_i, v_i have opposite degrees,
    so the degree-0 formal ideal is not nilpotent."""
    fac = torus_factor([[0, Fraction(1, 8)], [-Fraction(1, 8), 0]])
    g = fac.group
    return Context(fac, [Var("u1", g.generator(0), "even"),
                         Var("v1", -g.generator(0), "even"),
                         Var("u2", g.generator(1), "even"),
                         Var("v2", -g.generator(1), "even")],
                   truncation, name="torus-pairs")


@pytest.mark.parametrize("ctx", [super_context(), _torus_pairs_context(6)],
                         ids=["super", "torus8-trunc6"])
def test_exp_log_round_trips(ctx, rng):
    zero = ctx.factor.group.zero()
    z8 = Cyclo.root_of_unity(8)
    for _ in range(15):
        h = (random_homogeneous(ctx, rng, degree=zero, terms=3)
             + random_homogeneous(ctx, rng, degree=zero).scale(z8)).i_positive_part()
        assert h.exp().log() == h
        assert (ctx.one() + h).log().exp() == ctx.one() + h


def test_exp_log_derivative_rules(rng):
    # d(exp f) = df * exp f and d(log f) = df * f^-1, mod one ideal power
    ctx = zline_context(truncation=6)
    zero = ctx.factor.group.zero()
    t = ctx.truncation
    for _ in range(10):
        f = random_homogeneous(ctx, rng, degree=zero).i_positive_part()
        ef = f.exp()
        for name in ("z", "th", "w"):
            d = partial(ctx, name)
            lhs = d.apply(ef).truncate(t - 1)
            rhs = (d.apply(f) * ef).truncate(t - 1)
            assert lhs == rhs
        lf = (ctx.one() + f)
        for name in ("z", "th", "w"):
            d = partial(ctx, name)
            lhs = d.apply(lf.log()).truncate(t - 1)
            rhs = (d.apply(lf) * lf.invert()).truncate(t - 1)
            assert lhs == rhs


def test_truncation_coherence(rng):
    hi = zline_context(truncation=6)
    lo = zline_context(truncation=3)
    for _ in range(20):
        f6 = random_poly(hi, rng, terms=4)
        g6 = random_poly(hi, rng, terms=4)
        f3 = GradedPoly(lo, dict(f6.truncate(3).terms))
        g3 = GradedPoly(lo, dict(g6.truncate(3).terms))
        prod = (f6 * g6).truncate(3)
        assert GradedPoly(lo, dict(prod.terms)) == f3 * g3


def test_lift_restrict_roundtrip(sctx, rng):
    big = sctx.extend([Var("eps", sctx.factor.group.zero(), "even", cap=1)])
    for _ in range(10):
        f = random_poly(sctx, rng)
        assert restrict_poly(lift_poly(f, big), sctx) == f


def test_substitute_identity_and_scaling(sctx, rng):
    images = {a: sctx.gen(v.name) for a, v in enumerate(sctx.variables)}
    for _ in range(10):
        f = random_poly(sctx, rng)
        assert substitute(f, images, sctx) == f
    # scaling an odd variable scales its linear terms
    xi = sctx.gen("xi")
    f = sctx.gen("x") * xi
    images2 = dict(images)
    images2[sctx.index("xi")] = xi.scale(3)
    assert substitute(f, images2, sctx) == f.scale(3)


def test_substitute_is_morphism(rng):
    ctx = super_context()
    # x -> x + xi*eta is a degree-preserving substitution
    images = {a: ctx.gen(v.name) for a, v in enumerate(ctx.variables)}
    images[ctx.index("x")] = ctx.gen("x") + ctx.gen("xi") * ctx.gen("eta")
    for _ in range(15):
        f = random_poly(ctx, rng)
        g = random_poly(ctx, rng)
        lhs = substitute(f * g, images, ctx)
        rhs = substitute(f, images, ctx) * substitute(g, images, ctx)
        assert lhs == rhs


def test_poly_text_is_sorted_and_stable(sctx):
    f = sctx.gen("x") + sctx.gen("xi") * sctx.gen("eta") + sctx.scalar(2)
    assert poly_text(f) == "2 + x + xi * eta"
    assert poly_text(-f) == "-2 - x - xi * eta"
    assert poly_text(sctx.zero()) == "0"
    g = sctx.monomial(Cyclo.root_of_unity(4), {"z": -1})
    assert poly_text(g) == "zeta(4) * z^-1"


def test_poly_text_converts_each_coefficient_once(monkeypatch):
    # each non-rational coefficient reads its power-basis form once, both to
    # count its printed terms and to print them
    evaluations = []
    coeffs = Cyclo.coeffs
    monkeypatch.setattr(Cyclo, "coeffs", property(
        lambda self: evaluations.append(self.n) or coeffs.fget(self)))
    ctx = torus8_context()
    z8 = Cyclo.root_of_unity(8)
    f = ctx.gen("u2").scale(1 + z8) + ctx.gen("u1").scale(z8)
    assert poly_text(f) == "(1 + zeta(8)) * u2 + zeta(8) * u1"
    assert evaluations == [8, 8]


def test_prime_context_preserves_products(rng):
    ctx = super_context()
    big = prime_context(ctx, [])
    for _ in range(10):
        f = random_poly(ctx, rng)
        g = random_poly(ctx, rng)
        lf = GradedPoly(big, dict(f.terms))
        lg = GradedPoly(big, dict(g.terms))
        assert lf * lg == GradedPoly(big, dict((f * g).terms))


def test_mono_mul_phase_is_an_integer_mod_the_conductor(rng):
    # mono_mul's phase k stands for zeta_N^k: it must be N times the rho
    # reordering phase, summed as Fractions with factor.phase, mod N
    t8 = torus8_context()
    fac, g8 = t8.factor, t8.factor.group
    primed = prime_context(t8, [Var("t1", fac.prime_degree(1, g8.generator(0)), "odd"),
                                Var("t2", fac.prime_degree(1, -g8.generator(1)), "odd")])
    sfac = super_factor()
    sprimed = prime_context(super_context(),
                            [Var("t", sfac.prime_degree(1, sfac.group.zero()), "odd")])
    for ctx in (t8, primed, sprimed):
        n = ctx.factor.conductor
        kept = 0
        for _ in range(300):
            m1, m2 = (tuple(rng.randint(0, 1 if v.cap == 1 else 3)
                            for v in ctx.variables) for _ in range(2))
            r = ctx.mono_mul(m1, m2)
            if r is None:
                continue
            kept += 1
            acc = Fraction(0)
            for a, va in enumerate(ctx.variables):
                for b, vb in enumerate(ctx.variables[:a]):
                    acc += m1[a] * m2[b] * ctx.factor.phase(va.degree, vb.degree)
            assert r[0] == (acc % 1) * n, (ctx, m1, m2)
            assert ctx.factor.root(r[0]) == Cyclo.from_phase(acc)
        assert kept > 100


@pytest.mark.parametrize("workload", ["det_ber", "modular_class"])
def test_bench_tasks_match_references_on_full_product_tables(monkeypatch, workload):
    # run every seed-1 task twice on the same built objects: the second pass
    # reads the product tables the first pass filled, and both passes must
    # give the output digests stored under bench/
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    rc = {m: importlib.import_module("rhocalc." + m)
          for m in ("cyclo", "grading", "algebra", "derivation", "geometry",
                    "matrix", "volume", "scenarios")}
    refs = checks.load_references(workload, 1)
    data = workloads.make_data(workload, 1, None)
    objs = workloads.build(rc, workload, data, None)
    assert len(refs) == len(data)
    for rerun in (False, True):
        for task, obj in zip(data, objs):
            result = workloads.RUNNERS[workload](rc, task, obj)
            text = workloads.TEXTS[workload](result)
            assert checks.digest(text) == refs[task["id"]], (rerun, task["id"])


def test_extended_contexts_read_one_root_table():
    # the roots live on the factor, which ctx.extend and adjoin_eps share
    ctx = torus8_context()
    g = ctx.factor.group
    big = ctx.extend([Var("w", g.zero(), "even")])
    aux, _ = adjoin_eps(ctx, g.generator(0))
    for k in range(ctx.conductor):
        assert big.factor.root(k) is ctx.factor.root(k) is aux.factor.root(k)


def _trusted_results(ctx, rng):
    """Results of every operation that adopts its terms without a re-scan,
    with cancellations and truncation forced in."""
    out = []
    for _ in range(10):
        f = random_poly(ctx, rng).scale(ctx.factor.root(rng.randrange(ctx.conductor)))
        g = random_poly(ctx, rng, terms=4)
        x = random_derivation(ctx, rng)
        out += [f + g, f - g, f - f, g + (-g), f * g, g * f, (f + g) * (f - g),
                f.scale(Fraction(-2, 3)), f.scale(0), -f, 3 - f,
                x.apply(f), x.apply(f * g), x.apply(g - g)]
    return out


@pytest.mark.parametrize("make", [
    pytest.param(super_context, id="super"),
    pytest.param(lambda: super_context(truncation=1), id="super-t1"),
    pytest.param(torus_context, id="torus4"),
    pytest.param(lambda: torus_context(truncation=2), id="torus4-t2"),
    pytest.param(torus8_context, id="torus8"),
    pytest.param(lambda: torus8_context().extend([], truncation=2), id="torus8-t2"),
    pytest.param(zline_context, id="zline"),
    pytest.param(lambda: zline_context(truncation=2), id="zline-t2"),
])
def test_trusted_results_are_clean(make):
    # ring operations and Derivation.apply build their result without the
    # validating constructor; it must find nothing to drop or change
    ctx = make()
    key = lambda p: {m: (c.n, c.num, c.den) for m, c in p.terms.items()}
    for p in _trusted_results(ctx, random.Random(f"trusted/{ctx.name}")):
        assert p.ctx is ctx
        assert not any(c.is_zero() for c in p.terms.values())
        assert all(ctx.mono_valid(m) for m in p.terms)
        assert key(GradedPoly(ctx, dict(p.terms))) == key(p)


def test_context_rejects_a_negative_truncation():
    fac = super_factor()
    with pytest.raises(ConstraintViolation):
        Context(fac, [Var("xi", fac.group.degree(1), "odd")], truncation=-1)


def test_degree_cache_stops_growing_at_its_cap(monkeypatch):
    # (1+x+y+z)^45 has 17,296 terms, and an unbounded cache kept a degree
    # for each; past the cap a degree is computed and not stored
    monkeypatch.setattr(algebra, "PRODUCT_TABLE_CAP", 40)
    g = GroupSpec(1)
    ctx = Context(trivial_factor(g), [Var(v, g.zero(), "base") for v in "xyz"])
    p = (ctx.one() + ctx.gen("x") + ctx.gen("y") + ctx.gen("z")) ** 6
    assert len(p.terms) == 84
    for _ in range(2):
        assert p.degrees() == {g.zero()}
        assert len(ctx._degree_cache) == 40
    assert all(ctx.mono_degree(m) == g.zero() for m in p.terms)
    assert len(ctx._degree_cache) == 40


def test_product_table_stops_growing_at_its_cap():
    # the square of (1+x+y+z)^10 has 286^2 = 81,796 monomial pairs; an
    # unbounded table stored them all (about 17 MB traced at its peak)
    g = GroupSpec(1)
    ctx = Context(trivial_factor(g), [Var(v, g.zero(), "base") for v in "xyz"])
    p = (ctx.one() + ctx.gen("x") + ctx.gen("y") + ctx.gen("z")) ** 10
    tracemalloc.start()
    try:
        sq = p * p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ctx._products) == PRODUCT_TABLE_CAP < len(p.terms) ** 2
    assert peak < 8e6, peak
    assert len(sq.terms) == 1771
    assert sq.coefficient((10, 10, 0)) == 184756     # 20! / (10! 10!)
