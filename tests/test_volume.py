"""Volume forms, divergence, exactness and modular classes."""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import rhocalc.volume as volume
from rhocalc.algebra import Context, Var
from rhocalc.cyclo import Cyclo
from rhocalc.derivation import Derivation, commutator, is_homological, partial
from rhocalc.errors import (CertificateMismatch, NotClosed, NotHomological,
                            NotInvertibleDensity, OverlapMismatch)
from rhocalc.geometry import Atlas, Chart, TransitionMap, make_chart
from rhocalc.grading import super_factor
from rhocalc.volume import (VolumeForm, divergence, divergence_on_chart,
                            exactness_solve, jacobian_berezinian,
                            lie_derivative_volume, modular_class,
                            volumes_equivalent)

from conftest import (cyclic_garbage, line_form_blowup, line_form_chart,
                      random_derivation, random_homogeneous)


def super_chart(name="U"):
    fac = super_factor()
    g = fac.group
    return make_chart(name, fac, [("x", g.zero(), False),
                                  ("z", g.zero(), True),
                                  ("xi", g.degree(1)),
                                  ("eta", g.degree(1))])


def test_lie_derivative_volume_examples():
    chart = super_chart()
    ctx = chart.ctx
    zero_field = Derivation(ctx, ctx.factor.group.zero(), {}, "0")
    vol = VolumeForm.on_chart(chart, ctx.one())
    assert lie_derivative_volume(zero_field, vol)[chart.name].is_zero()
    # one even Laurent coordinate, X = d/dz against density z
    volz = VolumeForm.on_chart(chart, ctx.gen("z"))
    dz = partial(ctx, "z")
    out = lie_derivative_volume(dz, volz)[chart.name]
    assert out == ctx.one()


def test_lie_derivative_volume_is_divergence_for_unit_density():
    # with s = 1 the frame coefficient of L_X(vol) is the divergence itself
    from rhocalc.scenarios import torus_scenario

    _, objs = torus_scenario()
    q, vol, chart = objs["q"], objs["vol"], objs["chart"]
    lie = lie_derivative_volume(q, vol)[chart.name]
    div = divergence(q, vol)[chart.name]
    assert lie == div
    assert lie == objs["expected"]


def test_divergence_euler_counts_dimensions():
    chart = super_chart()
    ctx = chart.ctx
    vol = VolumeForm.on_chart(chart, ctx.one())
    comps = {ctx.index("x"): ctx.gen("x"), ctx.index("z"): ctx.gen("z")}
    euler = Derivation(ctx, ctx.factor.group.zero(), comps, "E")
    assert divergence(euler, vol)[chart.name] == ctx.scalar(2)


def test_divergence_not_invertible_density():
    chart = super_chart()
    ctx = chart.ctx
    vol = VolumeForm.on_chart(chart, ctx.gen("x"))   # x not invertible
    with pytest.raises(NotInvertibleDensity):
        divergence(Derivation(ctx, ctx.factor.group.zero(), {}, "0"), vol)


def test_divergence_proposition_fuzz(rng):
    chart = super_chart()
    ctx = chart.ctx
    fac = ctx.factor
    zero = fac.group.zero()
    for _ in range(20):
        s = ctx.one() + random_homogeneous(ctx, rng, degree=zero).i_positive_part()
        vol = VolumeForm.on_chart(chart, s)
        x = random_derivation(ctx, rng)
        y = random_derivation(ctx, rng)
        f = random_homogeneous(ctx, rng)
        if f.is_zero():
            continue
        div_x = divergence_on_chart(x, s)
        div_y = divergence_on_chart(y, s)
        # (i) module twist
        fx = x.left_mul(f)
        lhs = divergence_on_chart(fx, s)
        w = Cyclo.from_phase(fac.phase(f.degree_of(), x.degree))
        assert lhs == f * div_x + x.apply(f).scale(w)
        # (ii) equivalent-volume shift
        gsh = random_homogeneous(ctx, rng, degree=zero).i_positive_part()
        vol2 = s * gsh.exp()
        assert divergence_on_chart(x, vol2) == div_x + x.apply(gsh)
        # (iii) bracket rule
        lhs3 = divergence_on_chart(commutator(x, y), s)
        w3 = Cyclo.from_phase(fac.phase(x.degree, y.degree))
        assert lhs3 == x.apply(div_y) - y.apply(div_x).scale(w3)


def test_volume_independence_of_modular_class(rng):
    chart = super_chart()
    ctx = chart.ctx
    g = ctx.factor.group
    q = Derivation(ctx, g.degree(1), {ctx.index("xi"): ctx.gen("x")}, "Q")
    assert is_homological(q).homological
    s1 = ctx.one()
    h = ctx.gen("xi") * ctx.gen("eta")
    s2 = s1 * h.exp()
    v1 = VolumeForm.on_chart(chart, s1)
    v2 = VolumeForm.on_chart(chart, s2)
    d1 = divergence(q, v1)[chart.name]
    d2 = divergence(q, v2)[chart.name]
    assert d2 - d1 == q.apply(h)
    r1 = modular_class(q, v1, 4)
    r2 = modular_class(q, v2, 4)
    assert r1.verdict == r2.verdict
    eq, wit = volumes_equivalent(v1, v2)
    assert eq and wit == {chart.name: h}
    # Q of the representative vanishes
    assert q.apply(d1).is_zero() and q.apply(d2).is_zero()


def test_volumes_equivalent_false_for_laurent_unit():
    chart = super_chart()
    ctx = chart.ctx
    v1 = VolumeForm.on_chart(chart, ctx.one())
    v2 = VolumeForm.on_chart(chart, ctx.gen("z"))
    eq, wit = volumes_equivalent(v1, v2)
    assert not eq and wit is None


def test_volumes_equivalent_returns_a_chart_dict_for_one_chart():
    # one chart gives the same (True, {chart: h}) shape as many charts
    chart = super_chart()
    ctx = chart.ctx
    h = ctx.gen("xi") * ctx.gen("eta")
    v1 = VolumeForm.on_chart(chart, ctx.scalar(3))
    v2 = VolumeForm.on_chart(chart, ctx.scalar(3) * h.exp())
    eq, wit = volumes_equivalent(v1, v2)
    assert eq is True and list(wit) == [chart.name]
    assert wit[chart.name] == h


def test_exactness_trivial_and_constructed(rng):
    chart = super_chart()
    ctx = chart.ctx
    g = ctx.factor.group
    q = Derivation(ctx, g.degree(1), {ctx.index("xi"): ctx.gen("x")}, "Q")
    res = exactness_solve(ctx.zero(), q)
    assert res.verdict == "exact" and res.certificate.is_zero()
    found = 0
    for _ in range(30):
        h0 = random_homogeneous(ctx, rng, terms=2)
        c = q.apply(h0)
        if c.is_zero():
            continue
        found += 1
        res = exactness_solve(c, q, degree_bound=5)
        assert res.verdict == "exact"
        assert q.apply(res.certificate) == c
    assert found >= 5


def test_exactness_laurent_log_obstruction():
    # z^k dz integrates to z^(k+1)/(k+1) except at k = -1, where the closure
    # proves there is no Laurent primitive
    dr = line_form_chart()
    ctx = dr.chart.ctx
    d = dr.differential
    res = exactness_solve(ctx.monomial(1, {"z": -1, "dz": 1}), d)
    assert res.verdict == "not_exact_degree_complete"
    c2 = ctx.monomial(3, {"z": 2, "dz": 1})
    res2 = exactness_solve(c2, d, degree_bound=5)
    assert res2.verdict == "exact"
    assert d.apply(res2.certificate) == c2


def test_exactness_inconclusive_when_closure_blows_up():
    # shifts in both Laurent directions make the candidate closure infinite;
    # without a bounded-span solution the solver must refuse to over-claim
    dr = line_form_chart()
    ctx = dr.chart.ctx
    g = ctx.factor.group
    comp = ctx.gen("dz") + ctx.monomial(1, {"z": 2, "dz": 1})
    q = Derivation(ctx, g.degree(1), {ctx.index("z"): comp}, "Q")
    c = ctx.monomial(1, {"z": -2, "dz": 1})
    assert q.apply(c).is_zero()
    res = exactness_solve(c, q, degree_bound=3, closure_cap=40)
    assert res.verdict == "inconclusive"
    assert res.stopped_by == "closure_cap"
    # the evidence stays out of the byte-stable payload
    assert "stopped_by" not in res.payload()
    # at the default cap the closure runs out of rounds first
    assert exactness_solve(c, q, degree_bound=3).stopped_by == "rounds"
    # a bound whose span holds 4,001 monomials z^k, one past the span cap,
    # stops the wide solve before it is built
    wide = exactness_solve(c, q, degree_bound=2000)
    assert (wide.verdict, wide.searched, wide.stopped_by) == \
        ("inconclusive", 128, "degree_bound")
    # the same differential still certifies honest exact cases: the
    # 39-monomial partial closure at the cap already holds a preimage of Q(z)
    c2 = q.apply(ctx.gen("z"))
    res2 = exactness_solve(c2, q, degree_bound=3, closure_cap=40)
    assert res2.verdict == "exact"
    assert q.apply(res2.certificate) == c2


def test_bounded_span_stops_past_the_cap(monkeypatch):
    # over three Laurent coordinates the l1 ball of radius 40 holds about
    # 86,000 monomials: the span stops at _SPAN_CAP + 1 of them, testing no
    # monomial after that
    fac = super_factor()
    g = fac.group
    ctx = Context(fac, [Var(v, g.zero(), "base", invertible=True) for v in "abc"])
    calls = []
    valid = Context.mono_valid
    monkeypatch.setattr(Context, "mono_valid",
                        lambda self, m: calls.append(m) or valid(self, m))
    assert volume._bounded_span(ctx, g.zero(), 40) is None
    assert len(calls) == volume._SPAN_CAP + 1
    del calls[:]
    assert len(volume._bounded_span(ctx, g.zero(), 3)) == len(calls) == 63


def test_exactness_certifies_through_the_bounded_span(monkeypatch):
    # at closure_cap=1 the closure is cut before it keeps a monomial, so
    # only the degree-bounded span (17 monomials at the default bound) can
    # find the preimage z of Q(z)
    ctx, q = line_form_blowup()
    c = q.apply(ctx.gen("z"))
    res = exactness_solve(c, q, closure_cap=1)
    assert (res.verdict, res.certificate, res.searched) == ("exact", ctx.gen("z"), 17)
    monkeypatch.setattr(volume, "_bounded_span", lambda *args: [])
    res = exactness_solve(c, q, closure_cap=1)
    assert (res.verdict, res.stopped_by) == ("inconclusive", "closure_cap")


def test_exactness_applies_q_once_per_monomial(monkeypatch):
    ctx, q = line_form_blowup()
    c = q.apply(ctx.gen("z"))
    calls = []
    apply = Derivation.apply

    def recording(self, f):
        calls.append(f)
        return apply(self, f)

    monkeypatch.setattr(Derivation, "apply", recording)
    res = exactness_solve(c, q)
    assert res.verdict == "exact" and res.searched > 100
    # first the closedness check on c, last the re-verification of the
    # certificate; every call between is one monomial, never repeated
    assert calls[0] == c and calls[-1] == res.certificate
    monos = [next(iter(f.terms)) for f in calls[1:-1]]
    assert all(len(f.terms) == 1 for f in calls[1:-1])
    assert len(monos) == len(set(monos)) >= res.searched
    # the images live on q: a second solve applies Q only to check c and
    # the certificate
    calls.clear()
    again = exactness_solve(c, q)
    assert calls == [c, res.certificate]
    assert again.payload() == res.payload()


def test_two_exactness_solves_leave_no_cyclic_garbage():
    ctx, q = line_form_blowup()
    c = q.apply(ctx.gen("z"))

    def two_solves():
        for _ in range(2):
            assert exactness_solve(c, q).verdict == "exact"
    assert cyclic_garbage(two_solves) == 0


def test_exactness_rejects_a_wrong_certificate(monkeypatch):
    ctx, q = line_form_blowup()
    c = q.apply(ctx.gen("z"))
    solve = volume.solve_linear

    def off_by_one(*args):
        sol = solve(*args)
        return None if sol is None else [x + x for x in sol]

    monkeypatch.setattr(volume, "solve_linear", off_by_one)
    with pytest.raises(CertificateMismatch):
        exactness_solve(c, q, closure_cap=40)


def test_exactness_hands_the_solver_sparse_nonzero_rows(monkeypatch):
    ctx, q = line_form_blowup()
    c = q.apply(ctx.gen("z"))
    solve = volume.solve_linear
    seen = []

    def recording(rows, rhs, n):
        seen.append((rows, n))
        return solve(rows, rhs, n)

    monkeypatch.setattr(volume, "solve_linear", recording)
    assert exactness_solve(c, q).verdict == "exact"
    assert seen
    for rows, n in seen:
        assert all(type(row) is dict for row in rows)
        assert all(0 <= j < n and not x.is_zero()
                   for row in rows for j, x in row.items())
        # about two nonzeros per row, where a dense row holds n cells
        assert sum(map(len, rows)) < 3 * len(rows) < n * len(rows)


def test_modular_class_digests_match_bench_references(monkeypatch):
    # every modular_class task of the benchmark, line-form blow-ups included,
    # against the output digests stored under bench/
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    rc = {m: importlib.import_module("rhocalc." + m)
          for m in ("cyclo", "grading", "algebra", "derivation", "geometry",
                    "volume", "scenarios")}
    for seed in (1, 2):
        refs = checks.load_references("modular_class", seed)
        data = workloads.make_data("modular_class", seed, None)
        objs = workloads.build(rc, "modular_class", data, None)
        assert len(refs) == len(data)
        for task, obj in zip(data, objs):
            result = workloads.RUNNERS["modular_class"](rc, task, obj)
            text = workloads.TEXTS["modular_class"](result)
            assert checks.digest(text) == refs[task["id"]], (seed, task["id"])


def test_exactness_requires_closed():
    chart = super_chart()
    ctx = chart.ctx
    g = ctx.factor.group
    q = Derivation(ctx, g.degree(1), {ctx.index("xi"): ctx.gen("x")}, "Q")
    with pytest.raises(NotClosed):
        exactness_solve(ctx.gen("xi"), q)   # Q(xi) = x != 0


def test_modular_class_of_a_representative_that_is_not_closed():
    # Q is homological but Q(-2 eta) = 2 u^2 != 0: the report says so and
    # makes no exactness claim
    fac = super_factor()
    g = fac.group
    ctx = Context(fac, [Var("x", g.zero(), "base"), Var("u", g.zero(), "even"),
                        Var("xi", g.degree(1), "odd"),
                        Var("eta", g.degree(1), "odd")], 2)
    chart = Chart("M", ctx)
    u, xi, eta = ctx.gen("u"), ctx.gen("xi"), ctx.gen("eta")
    q = Derivation(ctx, g.degree(1), {ctx.index("x"): -(u * xi),
                                      ctx.index("u"): (u * eta).scale(-2),
                                      ctx.index("eta"): -(u * u)}, "Q")
    assert is_homological(q)
    report = modular_class(q, VolumeForm.on_chart(chart, ctx.one()), 4)
    assert report.payload() == {"chart": "M", "representative": "-2 * eta",
                                "closed": False, "verdict": "inconclusive",
                                "certificate": None}


def test_modular_class_requires_homological():
    chart = super_chart()
    ctx = chart.ctx
    vol = VolumeForm.on_chart(chart, ctx.one())
    bad = Derivation(ctx, ctx.factor.group.degree(1),
                     {ctx.index("xi"): ctx.gen("x"),
                      ctx.index("x"): ctx.gen("eta")}, "bad")
    with pytest.raises(NotHomological):
        modular_class(bad, vol, 4)


# -- multi-chart consistency -----------------------------------------------------


def two_chart_super_atlas():
    """y = 2x + xi eta shear between two super charts with Laurent density."""
    fac = super_factor()
    g = fac.group
    def chart(n):
        return make_chart(n, fac, [("{}x".format(n.lower()), g.zero(), True),
                                   ("{}xi".format(n.lower()), g.degree(1)),
                                   ("{}eta".format(n.lower()), g.degree(1))])
    u, v = chart("U"), chart("V")
    uc, vc = u.ctx, v.ctx
    fwd = TransitionMap(u, v, {
        vc.index("vx"): uc.gen("ux").scale(2) + uc.gen("uxi") * uc.gen("ueta"),
        vc.index("vxi"): uc.gen("uxi"),
        vc.index("veta"): uc.gen("ueta")})
    half = Fraction(1, 2)
    back = TransitionMap(v, u, {
        uc.index("ux"): vc.gen("vx").scale(half) - (vc.gen("vxi") * vc.gen("veta")).scale(half),
        uc.index("uxi"): vc.gen("vxi"),
        uc.index("ueta"): vc.gen("veta")})
    atlas = Atlas()
    atlas.add(fwd)
    atlas.add(back)
    return atlas


def test_multichart_volume_compatibility_and_divergence():
    atlas = two_chart_super_atlas()
    u, v = atlas.charts["U"], atlas.charts["V"]
    uc, vc = u.ctx, v.ctx
    t_uv = atlas.map("U", "V")
    # build a compatible volume: fix s_V = 1 and pull back
    s_v = vc.one()
    s_u = jacobian_berezinian(t_uv) * t_uv.pullback(s_v)
    vol = VolumeForm(atlas, {"U": s_u, "V": s_v})
    rep = vol.compatibility_check()
    assert rep["ok"], rep["failures"]
    # a global field: d/dxi expressed in both charts (components match under
    # pullback of the transition; here xi is shared so components transfer)
    g = uc.factor.group
    qu = Derivation(uc, -g.degree(1), {uc.index("uxi"): uc.one()}, "X")
    qv = Derivation(vc, -g.degree(1), {vc.index("vxi"): vc.one()}, "X")
    divs = divergence({"U": qu, "V": qv}, vol)
    assert divs["U"] == t_uv.pullback(divs["V"])
    # breaking one density must trip the overlap check when the form is built
    with pytest.raises(OverlapMismatch, match=r"\(U,V\)"):
        VolumeForm(atlas, {"U": s_u + uc.gen("uxi") * uc.gen("ueta"), "V": s_v})


def test_multichart_divergence_overlap_mismatch():
    atlas = two_chart_super_atlas()
    u, v = atlas.charts["U"], atlas.charts["V"]
    uc, vc = u.ctx, v.ctx
    # Ber(J_UV) = 2, so s_U = 2 s_V
    vol = VolumeForm(atlas, {"U": uc.scalar(2), "V": vc.one()})
    g = uc.factor.group
    # deliberately inconsistent pair: nonzero divergence on U, zero on V
    qu = Derivation(uc, g.degree(1),
                    {uc.index("ux"): uc.gen("uxi") * uc.gen("ux")}, "X")
    qv = Derivation(vc, g.degree(1), {}, "X")
    assert not divergence_on_chart(qu, uc.one()).is_zero()
    with pytest.raises(OverlapMismatch):
        divergence({"U": qu, "V": qv}, vol)


def test_multichart_volumes_equivalent():
    # v2 = v1 (1 + xi eta) chartwise; the witness log(1 + xi eta) agrees on
    # the overlap, since the shear fixes xi and eta
    atlas = two_chart_super_atlas()
    uc, vc = atlas.charts["U"].ctx, atlas.charts["V"].ctx
    v1 = VolumeForm(atlas, {"U": uc.scalar(2), "V": vc.one()})
    v2 = VolumeForm(atlas, {
        "U": uc.scalar(2) * (uc.one() + uc.gen("uxi") * uc.gen("ueta")),
        "V": vc.one() + vc.gen("vxi") * vc.gen("veta")})
    eq, wit = volumes_equivalent(v1, v2)
    assert (eq, {k: h.text() for k, h in wit.items()}) == \
        (True, {"U": "uxi * ueta", "V": "vxi * veta"})
