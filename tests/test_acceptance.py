"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything here is exact field arithmetic; there are no tolerances anywhere.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from rhocalc.algebra import GradedPoly, lift_poly
from rhocalc.cyclo import Cyclo
from rhocalc.derivation import (Derivation, LieStructure, ce_differential,
                                commutator, infinitesimal_deformation,
                                is_homological)
from rhocalc.geometry import (cartan_report, de_rham, lie_derivative,
                              make_chart, q_structure_report, schouten,
                              shifted_cotangent)
from rhocalc.grading import GroupSpec, super_factor, torus_factor, trivial_factor
from rhocalc.matrix import (GradedMatrix, inverse, linearize_ber, linearize_det,
                            rho_ber, rho_det, rho_det_properties_check,
                            transpose)
from rhocalc.scenarios import (builtin_scenarios, cstar_scenario,
                               derham_scenario, shifted_cotangent_scenario,
                               torus_scenario)
from rhocalc.volume import (divergence, divergence_on_chart,
                            volumes_equivalent)

from conftest import (monomials_by_degree, random_derivation,
                      random_homogeneous, random_poly, random_scalar,
                      super_context, torus_context)


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


# -- 1: commutation factor axioms ---------------------------------------------------


def test_criterion_1_factor_axioms():
    factories = [
        ("super", super_factor()),
        ("trivial", trivial_factor(GroupSpec(2))),
        ("torus", torus_factor([[0, Fraction(1, 4)], [-Fraction(1, 4), 0]])),
    ]
    one = Cyclo.one()
    minus = Cyclo.rational(-1)
    total = 0
    for label, fac in factories:
        g = fac.group
        rng = random.Random(f"test_criterion_1_factor_axioms/{label}")
        for _ in range(1000):
            i, j, k = (g.degree(*[rng.randint(-4, 4) for _ in range(g.ngens)])
                       for _ in range(3))
            assert fac.rho(i, j) * fac.rho(j, i) == one
            assert fac.rho(i + j, k) == fac.rho(i, k) * fac.rho(j, k)
            rii = fac.rho(i, i)
            assert rii == one or rii == minus
            total += 1
    _verdict(1, total == 3000,
             "rho(i,j)rho(j,i)=1, biadditivity, rho(i,i)=+-1 on 1000 "
             "triples for super/trivial/torus factors (exact)")


# -- 2: graded determinant suite ----------------------------------------------------


def _super_entry(ctx, rng, want, terms=1):
    pool = [m for m in monomials_by_degree(ctx, 1).get(want, [])
            if m[ctx.index("z")] == 0
            and not (m[ctx.index("x")] > 0
                     and m[ctx.index("xi")] + m[ctx.index("eta")] == 0)]
    out = ctx.zero()
    for _ in range(terms):
        if not pool:
            return out
        out = out + GradedPoly(ctx, {rng.choice(pool):
                                     Cyclo.rational(random_scalar(rng))})
    return out


def _random_super_matrix(ctx, rng, degs, degree=None, invertible=False):
    g = ctx.factor.group
    degree = degree or g.zero()
    n = len(degs)
    while True:
        ents = [[_super_entry(ctx, rng, degs[k] - degs[l] + degree,
                              terms=rng.randint(1, 2))
                 for l in range(n)] for k in range(n)]
        if invertible:
            for k in range(n):
                ents[k][k] = ents[k][k] + ctx.scalar(random_scalar(rng))
        m = GradedMatrix(ctx, degs, degs, degree, ents)
        if not invertible:
            return m
        free = [[m.entry(k, l).coefficient(ctx.zero_mono()).as_fraction()
                 for l in range(n)] for k in range(n)]
        if _fraction_det(free) != 0:
            return m


def _fraction_det(rows):
    n = len(rows)
    total = Fraction(0)
    for sigma in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if sigma[i] > sigma[j])
        term = Fraction(1)
        for k in range(n):
            term *= rows[k][sigma[k]]
        total += -term if inv % 2 else term
    return total


def _torus_matrix(ctx, rng, degs):
    g = ctx.factor.group
    n = len(degs)
    ents = []
    for k in range(n):
        row = []
        for l in range(n):
            want = (degs[k] - degs[l]).parts
            if all(p == 0 for p in want):
                row.append(ctx.scalar(random_scalar(rng)))
            elif all(p >= 0 for p in want):
                row.append(ctx.monomial(random_scalar(rng),
                                        {"u1": want[0], "u2": want[1]}))
            else:
                row.append(ctx.zero())
        ents.append(row)
    return GradedMatrix(ctx, degs, degs, g.zero(), ents)


def test_criterion_2_rho_det_suite():
    sctx = super_context()
    tctx = torus_context()
    sg = sctx.factor.group
    tg = tctx.factor.group
    rng = random.Random(2024)
    checked = 0
    lin_checked = 0
    cases = []
    for _ in range(50):
        n = rng.randint(1, 4)
        cases.append(("super-even", (sg.zero(),) * n))
        n = rng.randint(1, 4)
        cases.append(("super-odd", (sg.degree(1),) * n))
    tor_degrees = [tg.zero(), tg.generator(0), tg.generator(1),
                   tg.degree(1, 1), tg.degree(2, 1)]
    for _ in range(100):
        n = rng.randint(1, 4)
        picks = sorted(rng.sample(range(len(tor_degrees)), k=min(n, 4)))
        cases.append(("torus", tuple(tor_degrees[p] for p in picks)))
    assert len(cases) == 200
    for kind, degs in cases:
        if kind.startswith("super"):
            f = _random_super_matrix(sctx, rng, degs)
            g2 = _random_super_matrix(sctx, rng, degs)
        else:
            f = _torus_matrix(tctx, rng, degs)
            g2 = _torus_matrix(tctx, rng, degs)
        rep = rho_det_properties_check(f, g2, scale_by=rng.randint(2, 5))
        assert rep["ok"], (kind, [d.parts for d in degs], rep)
        checked += 1
        if len(degs) <= 3:
            lhs, rhs = linearize_det(f)
            assert lhs == rhs
            lin_checked += 1
    # lemma (a): determinants of invertible matrices are units
    for _ in range(10):
        n = rng.randint(1, 4)
        inv = _random_super_matrix(sctx, rng, (sg.zero(),) * n, invertible=True)
        d = rho_det(inv)
        assert d.invert() * d == sctx.one()
        f_inv = inverse(inv)
        assert inv @ f_inv == GradedMatrix.identity(sctx, inv.rows)
    _verdict(2, checked == 200 and lin_checked >= 120,
             f"det lemma (a)-(e) on {checked} random matrices (n<=4, super & "
             f"torus) and det(1+eps F) = 1 + tr(eps F) on {lin_checked} (exact)")


# -- 3: graded Berezinian suite -----------------------------------------------------


def test_criterion_3_rho_ber_suite():
    ctx = super_context()
    g = ctx.factor.group
    degs = (g.zero(), g.zero(), g.degree(1), g.degree(1))
    rng = random.Random(30303)
    mats = [_random_super_matrix(ctx, rng, degs, invertible=True)
            for _ in range(100)]
    for f in mats:
        bf = rho_ber(f)
        # (iii) transpose invariance
        assert rho_ber(transpose(f)) == bf
        # (ii) the alternate Schur route
        f00 = f.submatrix([0, 1], [0, 1])
        f01 = f.submatrix([0, 1], [2, 3])
        f10 = f.submatrix([2, 3], [0, 1])
        f11 = f.submatrix([2, 3], [2, 3])
        alt = rho_det(f00) * rho_det(f11 - f10 @ inverse(f00) @ f01).invert()
        assert bf == alt
    # (i) multiplicativity on 50 pairs
    for k in range(0, 100, 2):
        f, g2 = mats[k], mats[k + 1]
        assert rho_ber(f @ g2) == rho_ber(f) * rho_ber(g2)
    # (iv) block factorization on structured variants
    blocks_ok = 0
    for f in mats[:25]:
        ents = [list(row) for row in f.entries]
        ents[0][1] = ctx.zero()
        ents[0][3] = ctx.zero()
        ents[2][1] = ctx.zero()
        ents[2][3] = ctx.zero()
        m = GradedMatrix(ctx, degs, degs, g.zero(), ents)
        lhs = rho_ber(m)
        b0 = rho_ber(m.submatrix([0, 2], [0, 2]))
        b1 = rho_ber(m.submatrix([1, 3], [1, 3]))
        if lhs.is_zero() or b0.is_zero() or b1.is_zero():
            continue
        assert lhs == b0 * b1
        blocks_ok += 1
    # Ber(1 + eps F) = 1 + weighted trace, both parities of |F|
    lin = 0
    for dF in (g.zero(), g.degree(1)):
        for _ in range(15):
            ents = [[_super_entry(ctx, rng, degs[k] - degs[l] + dF)
                     for l in range(4)] for k in range(4)]
            f = GradedMatrix(ctx, degs, degs, dF, ents)
            lhs, rhs = linearize_ber(f)
            assert lhs == rhs
            lin += 1
    _verdict(3, blocks_ok >= 15 and lin == 30,
             "Ber proposition (i)-(iv) incl. transpose invariance on 100 "
             "random GL0 2|2 matrices and Ber(1+eps F) = 1 + wtrace (exact)")


# -- 4: bracket encoding vs Jacobi ---------------------------------------------------


def _so3():
    fac = trivial_factor(GroupSpec(0))
    zero = fac.group.zero()
    consts = {}
    for perm in itertools.permutations(range(3)):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                  if perm[i] > perm[j])
        consts[perm] = Cyclo.rational(-1 if inv % 2 else 1)
    return LieStructure(fac, (zero, zero, zero), zero, consts)


def test_criterion_4_bracket_differential_equivalence():
    lie = _so3()
    ctx, q = ce_differential(lie)
    good = is_homological(q)
    bad_consts = dict(lie.constants)
    bad_consts[(0, 1, 0)] = Cyclo.rational(1)
    bad_consts[(1, 0, 0)] = Cyclo.rational(-1)
    lie_bad = LieStructure(lie.factor, lie.degrees, lie.bracket_degree,
                           bad_consts)
    ctx2, q2 = ce_differential(lie_bad)
    bad = is_homological(q2)
    ok = (good.homological and not bad.homological
          and bad.reason == "square" and bad.witness_var is not None
          and not bad.residue.is_zero())
    _verdict(4, ok,
             "so(3) constants give Q^2 = 0; a perturbed constant gives "
             f"Q^2 != 0 with witness on generator {bad.witness_var}")


# -- 5: de Rham calculus ---------------------------------------------------------------


def test_criterion_5_de_rham_calculus():
    fac = super_factor()
    g = fac.group
    base = make_chart("M", fac, [("x", g.zero(), False),
                                 ("xi", g.degree(1)),
                                 ("eta", g.degree(1))])
    bctx = base.ctx
    dr = de_rham(base)
    d = dr.differential
    big = dr.chart.ctx
    rng = random.Random(55)
    forms = [random_poly(big, rng, terms=3) for _ in range(100)]
    for f in forms:
        assert d.apply(d.apply(f)).is_zero()
    pair_reports = []
    for _ in range(8):
        x = random_derivation(bctx, rng)
        y = random_derivation(bctx, rng)
        rep = cartan_report(base, x, y, samples=forms[:5])
        assert rep["ok"], rep
        pair_reports.append(rep)
        # operator identities evaluated on random forms as well
        lx = lie_derivative(dr, x)
        ly = lie_derivative(dr, y)
        lxy = lie_derivative(dr, commutator(x, y))
        w = Cyclo.from_phase(big.factor.phase(lx.degree, ly.degree))
        for f in forms[:10]:
            lhs = lx.apply(ly.apply(f)) - ly.apply(lx.apply(f)).scale(w)
            assert lhs == lxy.apply(f)
            assert d.apply(lx.apply(f)) == lx.apply(d.apply(f))
    # homological field: all four brackets of d + L_Q vanish
    q = Derivation(bctx, g.degree(1), {bctx.index("xi"): bctx.gen("x")}, "Q")
    qrep = q_structure_report(base, q)
    assert qrep["ok"], qrep
    lq = lie_derivative(dr, q)
    for f in forms[:40]:
        assert lq.apply(lq.apply(f)).is_zero()
        assert d.apply(lq.apply(f)) == lq.apply(d.apply(f))
    _verdict(5, True,
             "d^2 = 0, Cartan identities, and the d + L_Q bracket expansion "
             "vanish on generators and 100 random forms (exact)")


# -- 6: Schouten suite ------------------------------------------------------------------


def test_criterion_6_schouten_suite():
    fac = super_factor()
    g = fac.group
    base = make_chart("M", fac, [("x", g.zero(), False), ("xi", g.degree(1))])
    rng = random.Random(66)
    triples = 0
    for i in (g.zero(), g.degree(1)):
        sc = shifted_cotangent(base, i)
        ctx = sc.chart.ctx
        while triples < (50 if i.is_zero() else 100):
            f = random_homogeneous(ctx, rng, maxexp=1)
            h = random_homogeneous(ctx, rng, maxexp=1)
            k = random_homogeneous(ctx, rng, maxexp=1)
            if f.is_zero() or h.is_zero() or k.is_zero():
                continue
            df, dh = f.degree_of(), h.degree_of()
            b = schouten(sc, f, h)
            assert b.has_degree(df + dh + i)
            w = Cyclo.from_phase(fac.phase(df + i, dh + i))
            assert b == -(schouten(sc, h, f)).scale(w)
            lhs = schouten(sc, f, schouten(sc, h, k))
            rhs = schouten(sc, b, k) + schouten(sc, h, schouten(sc, f, k)).scale(w)
            assert lhs == rhs
            w2 = Cyclo.from_phase(fac.phase(df + i, dh))
            assert schouten(sc, f, h * k) == b * k + (h * schouten(sc, f, k)).scale(w2)
            triples += 1
    # canonical degree-0 relations on an even coordinate and its momentum
    flat = trivial_factor(GroupSpec(0))
    line = make_chart("L", flat, [("q", flat.group.zero(), False)])
    sc0 = shifted_cotangent(line, flat.group.zero())
    c0 = sc0.chart.ctx
    qq, pp = c0.gen("q"), c0.gen("q_st")
    ok0 = (schouten(sc0, pp, qq) == c0.one()
           and schouten(sc0, qq, pp) == -c0.one()
           and schouten(sc0, pp, qq * qq) == qq.scale(2))
    _verdict(6, triples == 100 and ok0,
             "Schouten proposition (i)-(iv) on 100 random homogeneous triples "
             "for an even and an odd shift; degree-0 case is canonical (exact)")


# -- 7: divergence suite -----------------------------------------------------------------


def test_criterion_7_divergence_suite():
    fac = super_factor()
    g = fac.group
    base = make_chart("M", fac, [("x", g.zero(), False),
                                 ("z", g.zero(), True),
                                 ("xi", g.degree(1)),
                                 ("eta", g.degree(1))])
    ctx = base.ctx
    rng = random.Random(77)
    zero = g.zero()
    rounds = 0
    for _ in range(25):
        s = ctx.one() + random_homogeneous(ctx, rng, degree=zero).i_positive_part()
        x = random_derivation(ctx, rng)
        y = random_derivation(ctx, rng)
        f = random_homogeneous(ctx, rng)
        if f.is_zero():
            continue
        div_x = divergence_on_chart(x, s)
        div_y = divergence_on_chart(y, s)
        w = Cyclo.from_phase(fac.phase(f.degree_of(), x.degree))
        assert divergence_on_chart(x.left_mul(f), s) == \
            f * div_x + x.apply(f).scale(w)
        gsh = random_homogeneous(ctx, rng, degree=zero).i_positive_part()
        assert divergence_on_chart(x, s * gsh.exp()) == div_x + x.apply(gsh)
        w3 = Cyclo.from_phase(fac.phase(x.degree, y.degree))
        assert divergence_on_chart(commutator(x, y), s) == \
            x.apply(div_y) - y.apply(div_x).scale(w3)
        rounds += 1
    # the divergence of each scenario's homological field is closed
    closed = []
    for payload, objs in (torus_scenario(), derham_scenario()):
        q, vol = objs["q"], objs.get("vol") or objs.get("vol1")
        rep = divergence(q, vol)
        chart = sorted(rep)[0]
        closed.append(q.apply(rep[chart]).is_zero())
    _, cs = cstar_scenario()
    for v in ("vol1", "vol2"):
        rep = divergence(cs["q"], cs[v])
        chart = sorted(rep)[0]
        closed.append(cs["q"].apply(rep[chart]).is_zero())
    _, sh = shifted_cotangent_scenario()
    for label in ("even", "odd"):
        data = sh[label]
        rep = divergence(data["qt"], data["vol"])
        chart = sorted(rep)[0]
        closed.append(data["qt"].apply(rep[chart]).is_zero())
    _verdict(7, rounds >= 20 and all(closed),
             f"divergence proposition (i)-(iii) on {rounds} random inputs and "
             "Q(Div Q) = 0 in every scenario (exact)")


# -- 8: published closed forms -----------------------------------------------------------------


def test_criterion_8_closed_forms():
    # (a) the de Rham class vanishes
    pa, oa = derham_scenario()
    ok_a = (oa["report"].representative.is_zero()
            and oa["report"].verdict == "exact")
    # (b) punctured-line verdicts
    pb, ob = cstar_scenario()
    ctx = ob["derham"].chart.ctx
    ok_b = (ob["rep1"].representative.is_zero()
            and ob["rep1"].verdict == "exact"
            and ob["rep2"].representative == ctx.monomial(1, {"z": -1, "dz": 1})
            and ob["rep2"].verdict == "not_exact_degree_complete"
            and not volumes_equivalent(ob["vol1"], ob["vol2"])[0])
    # (c) shifted-cotangent scaling for one even and one odd shift
    pc, oc = shifted_cotangent_scenario()
    ok_c = True
    for label, factor in (("even", 0), ("odd", 2)):
        data = oc[label]
        big = data["sc"].chart.ctx
        expected = lift_poly(oc["base_div"], big).scale(factor)
        ok_c = ok_c and data["report"].representative == expected
    ok_c = ok_c and oc["even"]["report"].verdict == "exact"
    ok_c = ok_c and oc["odd"]["report"].verdict == "not_exact_degree_complete"
    # (d) the torus class
    pd, od = torus_scenario(m=2, theta12=Fraction(1, 4))
    ctx_t = od["chart"].ctx
    expected_t = ctx_t.zero()
    for a in (1, 2):
        expected_t = expected_t + ctx_t.word(-1, [("tau", 1), (f"eta{a}", 1)])
    ok_d = (od["report"].representative == expected_t
            and od["report"].verdict == "not_exact_degree_complete")
    _verdict(8, ok_a and ok_b and ok_c and ok_d,
             "closed forms: de Rham class 0; punctured-line classes 0 and "
             "dz/z (not exact, volumes inequivalent); shift scaling "
             "(1 - rho(i,i)); torus class -tau(eta1+eta2) (exact)")


# -- 9: infinitesimal Taylor ------------------------------------------------------------------


def test_criterion_9_infinitesimal_taylor():
    rng = random.Random(99)
    count = 0
    for ctx in (super_context(), torus_context()):
        while count < (100 if ctx.name == "super" else 200):
            f = random_poly(ctx, rng, terms=3)
            x = random_derivation(ctx, rng)
            lhs, rhs, _ = infinitesimal_deformation(f, x)
            assert lhs == rhs
            count += 1
    _verdict(9, count == 200,
             "f(x + eps X) = f + eps sum X^a df/dx^a on 200 random pairs (exact)")


# -- 10: determinism ---------------------------------------------------------------------------


def test_criterion_10_determinism():
    doc1 = json.dumps({"schema": 1, "scenarios": builtin_scenarios()},
                      indent=2, sort_keys=True) + "\n"
    doc2 = json.dumps({"schema": 1, "scenarios": builtin_scenarios()},
                      indent=2, sort_keys=True) + "\n"
    golden = (Path(__file__).parent / "golden" / "scenarios.json").read_text(
        encoding="utf-8")
    _verdict(10, doc1 == doc2 == golden,
             "built-in scenarios emit byte-identical golden JSON across runs")
