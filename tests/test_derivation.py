"""Twisted Leibniz action, commutators, homological checks, bracket encoding."""

import itertools
import random
from fractions import Fraction

import pytest

import rhocalc.derivation as derivation
from rhocalc.algebra import Context, GradedPoly, Var
from rhocalc.cyclo import Cyclo
from rhocalc.derivation import (Derivation, LieStructure, ce_differential,
                                commutator, infinitesimal_deformation,
                                is_homological, partial)
from rhocalc.errors import (ConstraintViolation, DegreeMismatch,
                            GradingViolation)
from rhocalc.grading import GroupSpec, super_factor, trivial_factor

from conftest import (all_monomials, chevalley_context, random_derivation,
                      random_homogeneous, random_poly, super_context,
                      torus8_context, torus_context, zline_context)


@pytest.mark.parametrize("make", [super_context, torus8_context,
                                  lambda: zline_context(truncation=4)])
def test_image_is_apply_of_the_unit_monomial(make, rng):
    ctx = make()
    for _ in range(3):
        x = random_derivation(ctx, rng)
        for m in all_monomials(ctx, maxexp=2):
            want = x.apply(GradedPoly(ctx, {m: Cyclo.one()}))
            assert x.image(m) == want
            assert x.image(m) is x.image(m)     # the second call reads the table


def test_image_table_stops_growing_at_the_cap(monkeypatch, sctx, rng):
    monkeypatch.setattr(derivation, "PRODUCT_TABLE_CAP", 5)
    x = random_derivation(sctx, rng, degree=sctx.factor.group.degree(1))
    monos = all_monomials(sctx, maxexp=2)
    assert len(monos) > 10
    for _ in range(2):
        for m in monos:
            assert x.image(m) == x.apply(GradedPoly(sctx, {m: Cyclo.one()}))
    assert list(x._images) == monos[:5]


def test_partial_on_powers(sctx):
    x, xi, eta = sctx.gen("x"), sctx.gen("xi"), sctx.gen("eta")
    assert partial(sctx, "x").apply(x * x) == x.scale(2)
    assert partial(sctx, "xi").apply(xi * eta) == eta
    # differentiating past the first odd factor picks up the sign
    assert partial(sctx, "eta").apply(xi * eta) == -xi
    assert partial(sctx, "x").apply(sctx.one()).is_zero()


def test_partial_against_kronecker(sctx):
    for v in sctx.variables:
        d = partial(sctx, v.name)
        for w in sctx.variables:
            expected = sctx.one() if v.name == w.name else sctx.zero()
            assert d.apply(sctx.gen(w.name)) == expected


def test_partials_twisted_commute(rng):
    # as operators: d_a d_b = rho(-|a|, -|b|) d_b d_a
    for ctx in (super_context(), torus_context(), zline_context(None)):
        fac = ctx.factor
        for va, vb in itertools.product(ctx.variables, repeat=2):
            da, db = partial(ctx, va.name), partial(ctx, vb.name)
            w = Cyclo.from_phase(fac.phase(-va.degree, -vb.degree))
            for _ in range(6):
                f = random_poly(ctx, rng)
                assert da.apply(db.apply(f)) == db.apply(da.apply(f)).scale(w)


def test_component_degree_enforced(sctx):
    g = sctx.factor.group
    with pytest.raises(GradingViolation):
        Derivation(sctx, g.zero(), {sctx.index("x"): sctx.gen("xi")})


def test_derivations_kill_units(sctx, rng):
    for _ in range(5):
        x = random_derivation(sctx, rng)
        assert x.apply(sctx.one()).is_zero()
        assert x.apply(sctx.scalar(Fraction(7, 3))).is_zero()


def test_euler_counts_exponents(sctx):
    comps = {a: sctx.gen(v.name) for a, v in enumerate(sctx.variables)}
    euler = Derivation(sctx, sctx.factor.group.zero(), comps, "E")
    m = sctx.monomial(1, {"x": 2, "z": -3, "xi": 1})
    assert euler.apply(m) == m.scale(0)
    m2 = sctx.monomial(2, {"x": 1, "xi": 1, "eta": 1})
    assert euler.apply(m2) == m2.scale(3)


def test_torus_partial(tctx):
    u1, u2 = tctx.gen("u1"), tctx.gen("u2")
    assert partial(tctx, "u1").apply(u1 * u2) == u2
    # the second factor is reached through a quarter twist
    d2 = partial(tctx, "u2")
    w = tctx.factor.rho(-tctx.var("u2").degree, tctx.var("u1").degree)
    assert d2.apply(u1 * u2) == u1.scale(w)


def test_leibniz_fuzz(rng):
    for ctx in (super_context(), torus_context(), zline_context(None),
                torus8_context(), chevalley_context()[0]):
        fac = ctx.factor
        for _ in range(35):
            x = random_derivation(ctx, rng)
            f = random_homogeneous(ctx, rng)
            g = random_poly(ctx, rng)
            if f.is_zero():
                continue
            w = Cyclo.from_phase(fac.phase(x.degree, f.degree_of()))
            assert x.apply(f * g) == x.apply(f) * g + (f * x.apply(g)).scale(w)


def leibniz_apply(x: Derivation, f: GradedPoly) -> GradedPoly:
    """X(f) as a sum of polynomial products prefix * X(x_a^e) * suffix.

    The product form `Derivation.apply` had before its term kernel, kept as
    the byte oracle: the kernel must make the same scalar products.
    """
    ctx, fac = x.ctx, x.ctx.factor
    out = ctx.zero()
    for mono, coef in f.terms.items():
        left_deg = fac.group.zero()
        for a, e in enumerate(mono):
            if e == 0:
                continue
            v = ctx.variables[a]
            comp = x.components.get(a)
            if comp is not None:
                if v.kind == "base":
                    block = ctx.monomial(e, {v.name: e - 1}) * comp
                elif v.kind == "odd":
                    block = comp
                else:
                    block = ctx.zero()
                    step = fac.phase(x.degree, v.degree)
                    for j in range(e):
                        left = ctx.monomial(Cyclo.from_phase(step * j) if step else 1,
                                            {v.name: j})
                        right = ctx.monomial(1, {v.name: e - 1 - j})
                        block = block + left * comp * right
                if not block.is_zero():
                    pre = mono[:a] + (0,) * (ctx.nvars - a)
                    suf = (0,) * (a + 1) + mono[a + 1:]
                    piece = (GradedPoly(ctx, {pre: Cyclo.one()}) * block
                             * GradedPoly(ctx, {suf: Cyclo.one()}))
                    phase = fac.phase(x.degree, left_deg)
                    c = coef if phase == 0 else coef * Cyclo.from_phase(phase)
                    out = out + piece.scale(c)
            left_deg = left_deg + v.degree * e
    return out


def assert_same_bytes(got: GradedPoly, want: GradedPoly):
    assert got.text() == want.text()
    assert ({m: (c.n, c.coeffs) for m, c in got.terms.items()}
            == {m: (c.n, c.coeffs) for m, c in want.terms.items()})


def test_kernel_matches_leibniz_oracle_bytes(rng):
    chev, q = chevalley_context()
    contexts = (super_context(), torus_context(), torus8_context(), chev,
                zline_context(None), zline_context(3))
    for ctx in contexts:
        fields = [partial(ctx, v.name) for v in ctx.variables]
        fields += [random_derivation(ctx, rng, terms=3) for _ in range(25)]
        if ctx is chev:
            fields.append(q)
        for x in fields:
            for _ in range(2):
                f = random_poly(ctx, rng, terms=5, maxexp=3)
                assert_same_bytes(x.apply(f), leibniz_apply(x, f))


def test_each_leibniz_block_is_built_once_per_derivation(rng, monkeypatch):
    built = []
    power_derivative = Derivation._power_derivative

    def recording(self, a, e, comp):
        built.append((a, e))
        return power_derivative(self, a, e, comp)

    monkeypatch.setattr(Derivation, "_power_derivative", recording)
    chev, q = chevalley_context()
    for ctx in (super_context(), torus_context(), torus8_context(), chev,
                zline_context(None), zline_context(3)):
        x = q if ctx is chev else random_derivation(ctx, rng, terms=3)
        while x.is_zero():
            x = random_derivation(ctx, rng, terms=3)
        # products with one shared factor repeat its powers x_a^e
        shared = random_poly(ctx, rng, terms=3, maxexp=2)
        polys = [shared * random_poly(ctx, rng, terms=2, maxexp=1)
                 for _ in range(4)] + [shared]
        built.clear()
        used = []
        for f in polys:
            assert_same_bytes(x.apply(f), leibniz_apply(x, f))
            used += [(a, e) for mono in f.terms for a, e in enumerate(mono)
                     if e and a in x.components]
        assert sorted(built) == sorted(set(used))
        assert len(used) > len(built) > 0


def test_kernel_drops_a_cancelled_coefficient_before_it_restarts():
    # X(u1) leaves zeta_8 at u1*u2*v2; on the term u1*u2*v2 the u1 factor
    # cancels it, then the u2 factor restarts it as zeta_4 at conductor 4
    ctx = torus8_context()
    u1, u2, v2 = ctx.gen("u1"), ctx.gen("u2"), ctx.gen("v2")
    z8, z4 = ctx.factor.root(1), ctx.factor.root(2)
    x = Derivation(ctx, ctx.factor.group.zero(),
                   {0: (u1 * u2 * v2 - u1).scale(z8), 1: u2.scale(z4)})
    f = u1 + u1 * u2 * v2
    got = x.apply(f)
    assert got.coefficient((1, 1, 0, 1)).n == 4
    assert "zeta(4) * u1 * u2 * v2" in got.text()
    assert_same_bytes(got, leibniz_apply(x, f))


def test_kernel_keeps_one_root_per_reordering():
    # in X(v1^3) the middle Leibniz term reorders twice by zeta_8^7: the
    # product zeta_8^14 stays at conductor 8, where zeta_8^6 alone is at 4
    ctx = torus8_context()
    comp = ctx.gen("u2") * ctx.gen("v1") * ctx.gen("v2")
    x = Derivation(ctx, ctx.factor.group.zero(), {2: comp})
    f = ctx.gen("v1", 3)
    got = x.apply(f)
    assert got.coefficient((0, 1, 3, 1)).n == 8
    assert_same_bytes(got, leibniz_apply(x, f))


def test_apply_makes_no_polynomial_products(rng, monkeypatch):
    calls = []
    mul = GradedPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    ctx = zline_context(None)
    x = Derivation(ctx, ctx.factor.group.degree(1),
                   {ctx.index("z"): ctx.gen("th"),
                    ctx.index("th"): ctx.gen("w"),
                    ctx.index("w"): ctx.gen("th") * ctx.gen("w")})
    f = random_poly(ctx, rng, terms=6) + ctx.monomial(3, {"z": -2, "th": 1, "w": 3})
    monkeypatch.setattr(GradedPoly, "__mul__", counted)
    got = x.apply(f)
    monkeypatch.undo()
    assert not calls
    assert_same_bytes(got, leibniz_apply(x, f))


def test_termwise_action(rng):
    ctx = super_context()
    for _ in range(20):
        x = random_derivation(ctx, rng)
        f = random_poly(ctx, rng, terms=4)
        total = ctx.zero()
        for mono, c in f.terms.items():
            total = total + x.apply(GradedPoly(ctx, {mono: c}))
        assert x.apply(f) == total


def test_commutator_properties(rng):
    for ctx in (super_context(), zline_context(None)):
        fac = ctx.factor
        for _ in range(15):
            x = random_derivation(ctx, rng)
            y = random_derivation(ctx, rng)
            z = random_derivation(ctx, rng)
            b = commutator(x, y)
            # the bracket is again a derivation: spot-check Leibniz
            f = random_homogeneous(ctx, rng)
            g = random_poly(ctx, rng)
            if not f.is_zero():
                w = Cyclo.from_phase(fac.phase(b.degree, f.degree_of()))
                assert b.apply(f * g) == b.apply(f) * g + (f * b.apply(g)).scale(w)
            # twisted antisymmetry
            rho = Cyclo.from_phase(fac.phase(x.degree, y.degree))
            assert (commutator(y, x).scale(rho) + b).is_zero() or \
                commutator(y, x).scale(rho) == -b
            # twisted Jacobi (degree-0 bracket)
            lhs = commutator(x, commutator(y, z))
            rhs = commutator(commutator(x, y), z)
            w = Cyclo.from_phase(fac.phase(x.degree, y.degree))
            rhs2 = commutator(y, commutator(x, z)).scale(w)
            assert lhs == rhs + rhs2


def test_partials_have_zero_bracket(sctx):
    for va, vb in itertools.product(sctx.variables, repeat=2):
        assert commutator(partial(sctx, va.name), partial(sctx, vb.name)).is_zero()


def test_euler_bracket_with_partial(sctx):
    z = sctx.gen("z")
    euler = Derivation(sctx, sctx.factor.group.zero(), {sctx.index("z"): z}, "E")
    dz = partial(sctx, "z")
    assert commutator(euler, dz) == dz.scale(-1)


def test_is_homological_zero_reports_parity(sctx):
    q = Derivation(sctx, sctx.factor.group.zero(), {}, "0")
    check = is_homological(q)
    assert not check.homological and check.reason == "parity"


def test_is_homological_square_witness(sctx):
    # Q(xi) = x, Q(eta) = x: odd degree, but Q^2(xi) != 0 when paired badly
    g = sctx.factor.group
    q = Derivation(sctx, g.degree(1),
                   {sctx.index("xi"): sctx.gen("x"),
                    sctx.index("x"): sctx.gen("eta") * sctx.scalar(1)}, "Q")
    check = is_homological(q)
    assert not check.homological
    assert check.reason == "square"
    assert check.witness_var == "xi"
    assert check.residue == sctx.gen("eta")


def test_is_homological_on_generator_square(sctx):
    g = sctx.factor.group
    q = Derivation(sctx, g.degree(1), {sctx.index("xi"): sctx.gen("x")}, "Q")
    assert is_homological(q).homological
    # matches full squaring on polynomials
    rng = random.Random(5)
    for _ in range(10):
        f = random_poly(sctx, rng)
        assert q.apply(q.apply(f)).is_zero()


def so3_structure() -> LieStructure:
    fac = trivial_factor(GroupSpec(0))
    zero = fac.group.zero()
    consts = {}
    for a, b, c in itertools.permutations(range(3)):
        sign = 1
        perm = (a, b, c)
        inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                  if perm[i] > perm[j])
        sign = -1 if inv % 2 else 1
        consts[(a, b, c)] = Cyclo.rational(sign)
    return LieStructure(fac, (zero, zero, zero), zero, consts)


def brute_force_jacobi(lie: LieStructure) -> bool:
    # oracle on structure constants, independent of the derivation engine
    m = lie.dim
    fac = lie.factor
    d = lie.bracket_degree

    def gamma(a, b, c):
        return lie.constants.get((a, b, c), Cyclo.zero())

    for a, b, c in itertools.product(range(m), repeat=3):
        for e in range(m):
            lhs = sum((gamma(b, c, x) * gamma(a, x, e) for x in range(m)),
                      Cyclo.zero())
            rhs1 = sum((gamma(a, b, x) * gamma(x, c, e) for x in range(m)),
                       Cyclo.zero())
            w = fac.rho(lie.degrees[a] + d, lie.degrees[b] + d)
            rhs2 = w * sum((gamma(a, c, x) * gamma(b, x, e) for x in range(m)),
                           Cyclo.zero())
            if lhs != rhs1 + rhs2:
                return False
    return True


def test_so3_bracket_is_jacobi_and_q_squares_to_zero():
    lie = so3_structure()
    assert brute_force_jacobi(lie)
    ctx, q = ce_differential(lie)
    assert is_homological(q).homological


def test_perturbed_constants_fail_jacobi_and_witness():
    # note: rescaling one epsilon pair stays Jacobi (so(2,1)-type); an extra
    # off-diagonal term is what actually breaks it
    lie = so3_structure()
    bad = dict(lie.constants)
    bad[(0, 1, 0)] = Cyclo.rational(1)
    bad[(1, 0, 0)] = Cyclo.rational(-1)
    lie2 = LieStructure(lie.factor, lie.degrees, lie.bracket_degree, bad)
    assert not brute_force_jacobi(lie2)
    ctx, q = ce_differential(lie2)
    check = is_homological(q)
    assert not check.homological and check.reason == "square"
    assert check.residue is not None and not check.residue.is_zero()


def test_abelian_bracket_gives_zero_homological_differential():
    fac = trivial_factor(GroupSpec(0))
    zero = fac.group.zero()
    lie = LieStructure(fac, (zero, zero), zero, {})
    ctx, q = ce_differential(lie)
    assert q.is_zero()
    # in the parity-extended factor the zero field of odd degree qualifies
    assert is_homological(q).homological


def test_structure_constant_validation():
    fac = super_factor()
    g = fac.group
    with pytest.raises(DegreeMismatch):
        LieStructure(fac, (g.degree(1),), g.zero(),
                     {(0, 0, 0): Cyclo.one()})
    # antisymmetry: [e,e] = e is impossible for an even generator
    with pytest.raises(ConstraintViolation):
        LieStructure(fac, (g.zero(),), g.zero(), {(0, 0, 0): Cyclo.one()})


def test_ce_degree_bookkeeping_super():
    # a two-element super bracket [e1, e1] = e2 with |e1| odd, |e2| even
    fac = super_factor()
    g = fac.group
    lie = LieStructure(fac, (g.degree(1), g.zero()), g.zero(),
                       {(0, 0, 1): Cyclo.one()})
    ctx, q = ce_differential(lie)
    assert is_homological(q).homological
    xi1 = ctx.gen("xi1")
    assert q.apply(ctx.gen("xi2")) == (xi1 * xi1).scale(Fraction(1, 2))
    assert not (xi1 * xi1).is_zero()   # parity-shifted duals of odd are even


def test_truncated_apply_agrees_one_tier_down(rng):
    # derivations lower the filtration by one, so a truncated computation is
    # trustworthy one tier below the truncation order
    full = zline_context(None)
    t = 4
    trunc = zline_context(t)
    for _ in range(15):
        xf = random_derivation(full, rng)
        ff = random_poly(full, rng, terms=4)
        comps = {a: GradedPoly(trunc, dict(p.terms))
                 for a, p in xf.components.items()}
        xt = Derivation(trunc, xf.degree, comps)
        ft = GradedPoly(trunc, dict(ff.terms))
        got = xt.apply(ft).truncate(t - 1)
        want = GradedPoly(trunc, dict(xf.apply(ff).truncate(t - 1).terms))
        assert got == want


def test_infinitesimal_taylor_examples(sctx):
    x = sctx.gen("x")
    X = Derivation(sctx, sctx.factor.group.zero(), {sctx.index("x"): x * x}, "X")
    lhs, rhs, ext = infinitesimal_deformation(x * x, X)
    assert lhs == rhs


def _z2_uv(truncation=2, second="v"):
    fac = trivial_factor(GroupSpec(2))
    g = fac.group
    return Context(fac, [Var("u", g.degree(1, 0), "even"),
                         Var(second, g.degree(0, 1), "even")], truncation)


def test_infinitesimal_taylor_keeps_the_first_order_term_under_truncation():
    # eps raises the order by one, so eps * u^2 survives a truncation at 2
    ctx = _z2_uv()
    u = ctx.gen("u")
    X = Derivation(ctx, ctx.factor.group.zero(), {ctx.index("u"): u}, "X")
    lhs, rhs, ext = infinitesimal_deformation(u * u, X)
    assert ext.truncation == 3
    assert lhs.text() == rhs.text() == "u^2 + 2 * u^2 * eps"


def test_infinitesimal_taylor_takes_a_fresh_eps_name():
    ctx = _z2_uv(second="eps")
    u = ctx.gen("u")
    X = Derivation(ctx, ctx.factor.group.zero(), {ctx.index("u"): u}, "X")
    lhs, rhs, ext = infinitesimal_deformation(u * u, X)
    assert [v.name for v in ext.variables] == ["u", "eps", "eps_"]
    assert lhs == rhs
    assert lhs.text() == "u^2 + 2 * u^2 * eps_"


def test_infinitesimal_taylor_fuzz(rng):
    for ctx in (super_context(), torus_context()):
        for _ in range(30):
            f = random_poly(ctx, rng)
            x = random_derivation(ctx, rng)
            lhs, rhs, _ = infinitesimal_deformation(f, x)
            assert lhs == rhs


@pytest.mark.parametrize("make", [
    pytest.param(super_context, id="super"),
    pytest.param(torus_context, id="torus4"),
    pytest.param(torus8_context, id="torus8"),
    pytest.param(lambda: chevalley_context()[0], id="chevalley"),
])
def test_partial_row_is_the_phase_k_row(make):
    # partial() reads its row off the context's pair phases
    ctx = make()
    for v in ctx.variables:
        d = partial(ctx, v.name)
        want = [ctx.factor.phase_k(d.degree, w.degree) for w in ctx.variables]
        assert d._row == want
        assert Derivation(ctx, d.degree, {}, "Y")._row == want
