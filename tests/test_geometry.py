"""Charts, transitions, bundles, the de Rham calculus and the twisted
Schouten bracket."""

import tracemalloc
from fractions import Fraction

import pytest

from rhocalc.algebra import Context, Var, lift_poly
from rhocalc.cyclo import Cyclo
from rhocalc.derivation import Derivation, is_homological, partial
from rhocalc.errors import (GradingViolation, NotHomogeneous, NotHomological,
                            ShapeMismatch)
from rhocalc.geometry import (Atlas, Chart, TransitionMap, cartan_report,
                              chain_rule_check, cocycle_check, compose,
                              cotangent_bundle, de_rham, de_rham_transition,
                              identity_transition, interior_product, jacobian,
                              lie_derivative, lift_to_shifted_cotangent,
                              make_chart, q_structure_report, schouten,
                              shift_degree, shift_pi, shifted_cotangent,
                              tangent_bundle)
from rhocalc.grading import GroupSpec, super_factor, torus_factor, trivial_factor
from rhocalc.matrix import GradedMatrix

from conftest import (random_derivation, random_homogeneous, random_poly,
                      super_context)


def super_chart(name="U"):
    fac = super_factor()
    g = fac.group
    return make_chart(name, fac, [("x", g.zero(), False),
                                  ("xi", g.degree(1)),
                                  ("eta", g.degree(1))])


def super_atlas_nonlinear():
    """Two charts with an odd-quadratic shear; Jacobians have odd entries."""
    u = super_chart("U")
    v = super_chart("V")
    uc, vc = u.ctx, v.ctx
    fwd = TransitionMap(u, v, {
        vc.index("x"): uc.gen("x") + uc.gen("xi") * uc.gen("eta"),
        vc.index("xi"): uc.gen("xi"),
        vc.index("eta"): uc.gen("eta")})
    back = TransitionMap(v, u, {
        uc.index("x"): vc.gen("x") - vc.gen("xi") * vc.gen("eta"),
        uc.index("xi"): vc.gen("xi"),
        uc.index("eta"): vc.gen("eta")})
    atlas = Atlas()
    atlas.add(fwd)
    atlas.add(back)
    return atlas


def linear_three_chart_atlas():
    fac = trivial_factor(GroupSpec(1))
    g = fac.group
    charts = {n: make_chart(n, fac, [(n.lower() + "1", g.zero(), False),
                                     (n.lower() + "2", g.degree(1))])
              for n in ("A", "B", "C")}
    scale = {("A", "B"): 2, ("B", "C"): 3, ("A", "C"): 6}
    atlas = Atlas()
    for (a, b), s in list(scale.items()):
        src, tgt = charts[a], charts[b]
        imgs = {i: src.ctx.gen(v.name.replace(tgt.name.lower(), src.name.lower())).scale(s)
                for i, v in enumerate(tgt.ctx.variables)}
        atlas.add(TransitionMap(src, tgt, imgs))
        back = {i: tgt.ctx.gen(v.name.replace(src.name.lower(), tgt.name.lower())).scale(Fraction(1, s))
                for i, v in enumerate(src.ctx.variables)}
        atlas.add(TransitionMap(tgt, src, back))
    return atlas


def test_transition_validation(sctx=None):
    u = super_chart("U")
    v = super_chart("V")
    with pytest.raises(ShapeMismatch):
        TransitionMap(u, v, {0: u.ctx.gen("x")})
    bad = {v.ctx.index("x"): u.ctx.gen("xi"),
           v.ctx.index("xi"): u.ctx.gen("xi"),
           v.ctx.index("eta"): u.ctx.gen("eta")}
    with pytest.raises(GradingViolation):
        TransitionMap(u, v, bad)


def test_chart_allocates_nothing_that_grows_with_the_conductor():
    # the roots of unity are built per factor and only on first use
    theta = Fraction(1, 1000003)
    fac = torus_factor([[0, theta], [-theta, 0]])
    g = fac.group
    tracemalloc.start()
    try:
        make_chart("U", fac, [("u1", g.generator(0)), ("u2", g.generator(1))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_jacobian_identity_and_linear():
    u = super_chart("U")
    ident = identity_transition(u)
    assert jacobian(ident) == GradedMatrix.identity(u.ctx, u.degree_tuple)
    atlas = linear_three_chart_atlas()
    jac = jacobian(atlas.map("A", "B"))
    a = atlas.charts["A"].ctx
    assert jac.entry(0, 0) == a.scalar(2)
    assert jac.entry(1, 1) == a.scalar(2)
    assert jac.entry(0, 1).is_zero()


def test_jacobian_nonlinear_odd_entries():
    atlas = super_atlas_nonlinear()
    jac = jacobian(atlas.map("U", "V"))
    uc = atlas.charts["U"].ctx
    assert jac.entry(0, 1) == uc.gen("eta")
    assert jac.entry(0, 2) == -uc.gen("xi")
    assert jac.entry(0, 0) == uc.one()


def test_chain_rule_on_generators_and_random(rng):
    atlas = super_atlas_nonlinear()
    t = atlas.map("U", "V")
    extra = [random_poly(t.target.ctx, rng) for _ in range(5)]
    rep = chain_rule_check(t, extra)
    assert rep["ok"], rep["failures"][:1]
    # composing with the inverse gives the identity on generators
    rt = compose(atlas.map("V", "U"), t)
    ident = identity_transition(atlas.charts["U"])
    assert all(rt.images[k] == ident.images[k] for k in rt.images)


def test_atlas_inverse_check():
    assert super_atlas_nonlinear().check_inverses()
    assert linear_three_chart_atlas().check_inverses()


def test_tangent_cotangent_cocycles_linear():
    atlas = linear_three_chart_atlas()
    tb = tangent_bundle(atlas)
    rep = cocycle_check(tb)
    assert rep["ok"], rep["failures"]
    cb = cotangent_bundle(atlas)
    rep2 = cocycle_check(cb)
    assert rep2["ok"], rep2["failures"]


def test_tangent_cotangent_cocycles_nonlinear():
    atlas = super_atlas_nonlinear()
    tb = tangent_bundle(atlas)
    rep = cocycle_check(tb)
    assert rep["ok"], rep["failures"]
    cb = cotangent_bundle(atlas)
    rep2 = cocycle_check(cb)
    assert rep2["ok"], rep2["failures"]


def test_cocycle_reports_round_trips_and_triples_that_fail():
    # y = 2x and x = y are no inverse pair, and w = x is not w = 3y after
    # y = 2x: both round trips and both triples through W fail
    fac = trivial_factor(GroupSpec(1))
    u, v, w = (make_chart(n, fac, [(n.lower(), fac.group.zero(), False)])
               for n in "UVW")
    atlas = Atlas()
    for src, tgt, image in ((u, v, 2 * u.ctx.gen("u")), (v, u, v.ctx.gen("v")),
                            (v, w, 3 * v.ctx.gen("v")), (u, w, u.ctx.gen("u"))):
        atlas.add(TransitionMap(src, tgt, {0: image}))
    assert cocycle_check(tangent_bundle(atlas)) == {"ok": False, "failures": [
        {"kind": "inverse", "charts": ["U", "V"]},
        {"kind": "inverse", "charts": ["V", "U"]},
        {"kind": "triple", "charts": ["U", "V", "W"]},
        {"kind": "triple", "charts": ["V", "U", "W"]}]}


def test_shifts():
    atlas = linear_three_chart_atlas()
    tb = tangent_bundle(atlas)
    g = atlas.charts["A"].ctx.factor.group
    assert shift_pi(shift_pi(tb)) == tb
    assert shift_degree(tb, g.zero()) == tb
    i = g.degree(1)
    twice = shift_degree(shift_degree(tb, i), i)
    assert twice == shift_degree(tb, g.degree(2))
    assert twice != tb
    assert shift_pi(tb).effective_fiber_degrees()[0].parts[0] == 1


def test_de_rham_basics(rng):
    base = super_chart()
    dr = de_rham(base)
    d = dr.differential
    big = dr.chart.ctx
    for a, v in enumerate(base.ctx.variables):
        assert d.apply(big.gen(v.name)) == big.gen("d" + v.name)
    assert bool(is_homological(d))
    for _ in range(25):
        f = random_poly(big, rng)
        assert d.apply(d.apply(f)).is_zero()
    # graded Leibniz for d with the parity-extended twist
    fac = big.factor
    for _ in range(15):
        f = random_homogeneous(big, rng)
        g2 = random_poly(big, rng)
        if f.is_zero():
            continue
        w = Cyclo.from_phase(fac.phase(d.degree, f.degree_of()))
        assert d.apply(f * g2) == d.apply(f) * g2 + (f * d.apply(g2)).scale(w)


def test_de_rham_builds_the_doubled_chart_once_per_chart():
    base = super_chart()
    first, second = de_rham(base), de_rham(base)
    assert second.chart.ctx is first.chart.ctx
    assert second.differential is first.differential
    assert second.chart == first.chart and second.chart.name == "U^dR"
    # a chart of another name over the same context gets its own
    other = de_rham(Chart("W", base.ctx))
    assert other.chart.name == other.chart.ctx.name == "W^dR"
    assert other.chart.ctx is not first.chart.ctx
    assert other.differential is not first.differential


def test_lie_derivative_and_interior(rng):
    base = super_chart()
    bctx = base.ctx
    dr = de_rham(base)
    big = dr.chart.ctx
    for _ in range(10):
        x = random_derivation(bctx, rng)
        lx = lie_derivative(dr, x)
        ix = interior_product(dr, x)
        # on functions of the base coordinates, L_X is X
        f = random_poly(bctx, rng)
        assert lx.apply(dr.lift(f)) == dr.lift(x.apply(f))
        # the interior product reads off components
        for a, v in enumerate(bctx.variables):
            assert ix.apply(big.gen("d" + v.name)) == dr.lift(x.component(a))
            assert ix.apply(big.gen(v.name)).is_zero()


def test_cartan_identities_random(rng):
    base = super_chart()
    bctx = base.ctx
    for _ in range(8):
        x = random_derivation(bctx, rng)
        y = random_derivation(bctx, rng)
        rep = cartan_report(base, x, y,
                            samples=[random_poly(bctx, rng)])
        assert rep["ok"], rep


def homological_field(bctx):
    # Q = x d/dxi is homological: odd, Q(x) = 0, Q(xi) = x
    g = bctx.factor.group
    return Derivation(bctx, g.degree(1), {bctx.index("xi"): bctx.gen("x")}, "Q")


def test_q_structure_report():
    base = super_chart()
    q = homological_field(base.ctx)
    rep = q_structure_report(base, q)
    assert rep["ok"], rep
    bad = Derivation(base.ctx, base.ctx.factor.group.degree(1),
                     {base.ctx.index("xi"): base.ctx.gen("x"),
                      base.ctx.index("x"): base.ctx.gen("eta")}, "bad")
    with pytest.raises(NotHomological):
        q_structure_report(base, bad)


def test_lie_q_squares_to_zero_on_forms(rng):
    base = super_chart()
    dr = de_rham(base)
    q = homological_field(base.ctx)
    lq = lie_derivative(dr, q)
    d = dr.differential
    for _ in range(20):
        f = random_poly(dr.chart.ctx, rng)
        assert lq.apply(lq.apply(f)).is_zero()
        assert d.apply(lq.apply(f)) == lq.apply(d.apply(f))


# -- Schouten -----------------------------------------------------------------


def test_schouten_requires_homogeneous():
    base = super_chart()
    g = base.ctx.factor.group
    sc = shifted_cotangent(base, g.zero())
    ctx = sc.chart.ctx
    with pytest.raises(NotHomogeneous):
        schouten(sc, ctx.gen("x") + ctx.gen("xi"), ctx.gen("x"))


def test_schouten_degree_zero_is_poisson():
    # one even coordinate with its momentum: the canonical bracket
    fac = trivial_factor(GroupSpec(0))
    base = make_chart("L", fac, [("q", fac.group.zero(), False)])
    sc = shifted_cotangent(base, fac.group.zero())
    ctx = sc.chart.ctx
    q, p = ctx.gen("q"), ctx.gen("q_st")
    assert schouten(sc, p, q) == ctx.one()
    assert schouten(sc, q, p) == -ctx.one()
    assert schouten(sc, p, q * q) == q.scale(2)
    assert schouten(sc, p * p, q) == p.scale(2)
    assert schouten(sc, q, q).is_zero()


def _coordinate_lemma_form(sc, f, g):
    """Independent route: bracket via the z-coordinate pairing table."""
    ctx = sc.chart.ctx
    fac = ctx.factor
    df = f.degree_of()
    i = sc.shift
    table = {}
    for a, sa in sc.star.items():
        table[(sa, a)] = ctx.one()
        da = sc.base.ctx.variables[a].degree
        table[(a, sa)] = -ctx.one().scale(fac.rho(da, da + i))
    out = ctx.zero()
    for (za, zb), pair in table.items():
        va = ctx.variables[za]
        fa = partial(ctx, va.name).apply(f)
        gb = partial(ctx, ctx.variables[zb].name).apply(g)
        if fa.is_zero() or gb.is_zero():
            continue
        w = Cyclo.from_phase(fac.phase(va.degree, df - va.degree))
        out = out + (fa * pair * gb).scale(w)
    return out


def test_schouten_matches_coordinate_lemma(rng):
    base = super_chart()
    g = base.ctx.factor.group
    for i in (g.zero(), g.degree(1)):
        sc = shifted_cotangent(base, i)
        ctx = sc.chart.ctx
        for _ in range(20):
            f = random_homogeneous(ctx, rng, maxexp=1)
            h = random_homogeneous(ctx, rng, maxexp=1)
            if f.is_zero() or h.is_zero():
                continue
            assert schouten(sc, f, h) == _coordinate_lemma_form(sc, f, h)


def test_schouten_proposition_suite(rng):
    base = super_chart()
    g = base.ctx.factor.group
    fac = base.ctx.factor
    for i in (g.zero(), g.degree(1)):
        sc = shifted_cotangent(base, i)
        ctx = sc.chart.ctx
        for _ in range(20):
            f = random_homogeneous(ctx, rng, maxexp=1)
            h = random_homogeneous(ctx, rng, maxexp=1)
            k = random_homogeneous(ctx, rng, maxexp=1)
            if f.is_zero() or h.is_zero() or k.is_zero():
                continue
            df, dh, dk = f.degree_of(), h.degree_of(), k.degree_of()
            b = schouten(sc, f, h)
            # (i) degree bookkeeping
            assert b.has_degree(df + dh + i)
            # (ii) twisted antisymmetry
            w = Cyclo.from_phase(fac.phase(df + i, dh + i))
            assert b == -(schouten(sc, h, f)).scale(w)
            # (iii) twisted Jacobi
            lhs = schouten(sc, f, schouten(sc, h, k))
            rhs = schouten(sc, b, k) + schouten(sc, h, schouten(sc, f, k)).scale(w)
            assert lhs == rhs
            # (iv) Leibniz in the second slot
            w2 = Cyclo.from_phase(fac.phase(df + i, dh))
            assert schouten(sc, f, h * k) == b * k + (h * schouten(sc, f, k)).scale(w2)


def test_lift_zero_field_degenerate():
    base = super_chart()
    zero = Derivation(base.ctx, base.ctx.factor.group.degree(1), {}, "0")
    sc, fq, qt = lift_to_shifted_cotangent(zero, base.ctx.factor.group.zero(),
                                           base)
    assert fq.is_zero() and qt.is_zero()


def test_lift_homological_field(rng):
    base = super_chart()
    g = base.ctx.factor.group
    q = homological_field(base.ctx)
    for i in (g.zero(), g.degree(1)):
        sc, fq, qt = lift_to_shifted_cotangent(q, i, base)
        big = sc.chart.ctx
        assert fq.has_degree(q.degree - i)
        assert schouten(sc, fq, fq).is_zero()
        # the lift extends the field on base coordinates
        for a, v in enumerate(base.ctx.variables):
            assert qt.apply(big.gen(v.name)) == lift_poly(q.component(a), big)
        # and squares to zero
        assert is_homological(qt).homological
        for _ in range(5):
            f = random_poly(big, rng, terms=2)
            assert qt.apply(qt.apply(f)).is_zero()


def test_single_chart_bundles_trivial():
    u = super_chart("U")
    atlas = Atlas.single(u)
    tb = tangent_bundle(atlas)
    assert tb.transitions == {}
    assert cocycle_check(tb)["ok"]
    assert tb.fiber_degrees == u.degree_tuple
    cb = cotangent_bundle(atlas)
    assert cb.fiber_degrees == tuple(-d for d in u.degree_tuple)


def test_transition_invertibility_via_berezinian():
    from rhocalc.geometry import transition_invertible

    atlas = super_atlas_nonlinear()
    assert transition_invertible(atlas.map("U", "V"))
    # a degenerate substitution collapses a coordinate
    u, v = atlas.charts["U"], atlas.charts["V"]
    uc, vc = u.ctx, v.ctx
    degenerate = TransitionMap(u, v, {
        vc.index("x"): uc.gen("x"),
        vc.index("xi"): uc.gen("xi"),
        vc.index("eta"): uc.gen("xi")})
    assert not transition_invertible(degenerate)


def test_torus_brst_lift_brackets_to_zero():
    from rhocalc.scenarios import torus_scenario
    from rhocalc.geometry import lift_to_shifted_cotangent

    _, objs = torus_scenario()
    q = objs["q"]
    chart = objs["chart"]
    zero = chart.ctx.factor.group.zero()
    sc, fq, qt = lift_to_shifted_cotangent(q, zero, chart)
    assert schouten(sc, fq, fq).is_zero()
    assert is_homological(qt).homological


def test_shifted_tangent_atlas_has_unit_berezinian():
    # the lifted transition on the doubled charts always has Berezinian 1,
    # which is exactly why D(x,dx)*1 is a global volume there
    from rhocalc.geometry import de_rham_transition, jacobian_berezinian

    atlas = super_atlas_nonlinear()
    dr_u = de_rham(atlas.charts["U"])
    dr_v = de_rham(atlas.charts["V"])
    lifted = de_rham_transition(dr_u, dr_v, atlas.map("U", "V"))
    assert chain_rule_check(lifted)["ok"]
    ber = jacobian_berezinian(lifted)
    assert ber == dr_u.chart.ctx.one()
    # and the lift composes with the inverse to the identity
    back = de_rham_transition(dr_v, dr_u, atlas.map("V", "U"))
    rt = compose(back, lifted)
    ident = identity_transition(dr_u.chart)
    assert all(rt.images[k] == ident.images[k] for k in rt.images)


def test_lift_non_homological_rejected():
    base = super_chart()
    bctx = base.ctx
    bad = Derivation(bctx, bctx.factor.group.degree(1),
                     {bctx.index("xi"): bctx.gen("x"),
                      bctx.index("x"): bctx.gen("eta")}, "bad")
    with pytest.raises(NotHomological):
        lift_to_shifted_cotangent(bad, bctx.factor.group.zero(), base)


# -- first partials: one set per call ----------------------------------------------


def super_transition4():
    """A 4-coordinate super transition with a nonlinear, odd-mixing image."""
    fac = super_factor()
    g = fac.group
    coords = [("x", g.zero(), False), ("z", g.zero(), True),
              ("xi", g.degree(1)), ("eta", g.degree(1))]
    u, v = make_chart("U", fac, coords), make_chart("V", fac, coords)
    x, z, xi, eta = (u.ctx.gen(n) for n in ("x", "z", "xi", "eta"))
    return TransitionMap(u, v, {0: x + xi * eta * z, 1: z.scale(2) + x * z,
                                2: xi + x * eta, 3: eta * z})


def count_builds(monkeypatch):
    """Record every Derivation built, whatever module binds `partial`."""
    built = []
    init = Derivation.__init__

    def counting(self, ctx, degree, components, name="X"):
        built.append(name)
        init(self, ctx, degree, components, name)

    monkeypatch.setattr(Derivation, "__init__", counting)
    return built


def test_chain_rule_builds_each_partial_set_once(monkeypatch):
    t = super_transition4()
    n = t.source.ctx.nvars
    built = count_builds(monkeypatch)
    assert chain_rule_check(t)["ok"]
    # the Jacobian, the pulled-back samples and the samples: n partials each
    assert len(built) <= 3 * n, built


def test_lie_derivative_builds_partials_once(monkeypatch):
    t = super_transition4()
    base = t.source
    ctx = base.ctx
    dr = de_rham(base)
    x = Derivation(ctx, ctx.factor.group.degree(1),
                   {0: ctx.gen("x") * ctx.gen("xi"), 2: ctx.gen("z")}, "X")
    built = count_builds(monkeypatch)
    lie_derivative(dr, x)
    # n partials plus L_X itself, however many components X has
    assert len(built) <= ctx.nvars + 1, built


def test_schouten_builds_partials_once(monkeypatch):
    base = super_transition4().source
    g = base.ctx.factor.group
    sc = shifted_cotangent(base, g.degree(1))
    ctx = sc.chart.ctx
    f = ctx.gen("x_st") * ctx.gen("xi") + ctx.gen("z_st") * ctx.gen("eta")
    h = ctx.gen("x") * ctx.gen("xi_st") * ctx.gen("z")
    built = count_builds(monkeypatch)
    schouten(sc, f, h)
    assert len(built) <= ctx.nvars, built


def _loop_de_rham_images(src, tgt, t):
    """The lifted images as written out before `DeRhamChart.exterior`,
    kept as the byte oracle: dy^a = sum_b dx^b (dy^a/dx^b)."""
    base, big = src.base.ctx, src.chart.ctx
    images = {}
    for a in range(base.nvars):
        images[a] = lift_poly(t.images[a], big)
        acc = big.zero()
        for b, vb in enumerate(base.variables):
            entry = partial(base, vb.name).apply(t.images[a])
            if not entry.is_zero():
                dxb = big.gen(big.variables[src.dvar[b]].name)
                acc = acc + dxb * lift_poly(entry, big)
        images[tgt.dvar[a]] = acc
    return images


def _loop_lie_components(dr, x):
    """L_X's components as written out before `DeRhamChart.exterior`,
    kept as the byte oracle."""
    base, big = dr.base.ctx, dr.chart.ctx
    comps = {a: dr.lift(comp) for a, comp in x.components.items()}
    for b in range(base.nvars):
        acc = big.zero()
        xb = x.component(b)
        if not xb.is_zero():
            for a in range(base.nvars):
                da = partial(base, base.variables[a].name).apply(xb)
                if not da.is_zero():
                    acc = acc + big.gen(big.variables[dr.dvar[a]].name) * dr.lift(da)
        if not acc.is_zero():
            comps[dr.dvar[b]] = acc
    return comps


def torus_dual_context(theta):
    """u1, u2 with rho(u1, u2) = exp(2 pi i theta) and duals v1, v2, so that
    every coordinate degree has nonlinear monomials."""
    fac = torus_factor([[0, theta], [-theta, 0]])
    g = fac.group
    return Context(fac, [Var("u1", g.generator(0), "even"),
                         Var("u2", g.generator(1), "even"),
                         Var("v1", -g.generator(0), "even"),
                         Var("v2", -g.generator(1), "even")], name="torus")


def _same_bytes(got, want):
    assert got.text() == want.text()
    assert ({m: (c.n, c.coeffs) for m, c in got.terms.items()}
            == {m: (c.n, c.coeffs) for m, c in want.terms.items()})


@pytest.mark.parametrize("make_ctx", [
    super_context, lambda: torus_dual_context(Fraction(1, 4)),
    lambda: torus_dual_context(Fraction(1, 8))], ids=["super", "torus4", "torus8"])
def test_exterior_matches_loop_oracles_bytes(make_ctx, rng):
    ctx = make_ctx()
    u, v = Chart("U", ctx), Chart("V", ctx)
    dr_u, dr_v = de_rham(u), de_rham(v)
    for _ in range(6):
        # scalar multiples of zeta_N^k, so stored conductors are exercised
        imgs = {a: ctx.gen(w.name)
                + random_homogeneous(ctx, rng, w.degree, terms=3).scale(
                    ctx.factor.root(rng.randrange(ctx.conductor)))
                for a, w in enumerate(ctx.variables)}
        t = TransitionMap(u, v, imgs)
        got = de_rham_transition(dr_u, dr_v, t).images
        want = _loop_de_rham_images(dr_u, dr_v, t)
        assert list(got) == list(want)
        for k in want:
            _same_bytes(got[k], want[k])
        x = random_derivation(ctx, rng, terms=3).scale(
            ctx.factor.root(rng.randrange(ctx.conductor)))
        lx = lie_derivative(dr_u, x)
        want = _loop_lie_components(dr_u, x)
        assert list(lx.components) == list(want)
        for k in want:
            _same_bytes(lx.components[k], want[k])
