"""Graded matrix invariants against classical oracles and exact identities."""

import importlib
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rhocalc.algebra import (Context, GradedPoly, Var, lift_poly,
                             prime_context)
from rhocalc import cyclo, matrix
from rhocalc.cyclo import Cyclo
from rhocalc.errors import (GradingViolation, MixedParity, NonzeroDegree,
                            NotInvertible, ShapeMismatch, TruncationRequired)
from rhocalc.grading import (CommutationFactor, GroupSpec, super_factor,
                             torus_factor, trivial_factor)
from rhocalc.matrix import (GradedMatrix, _Walk, classify_tuple,
                            inverse, left_act, linearize_ber, linearize_det,
                            rho_ber, rho_det, rho_det_properties_check, rho_tr,
                            right_act, split_point, transpose)
from conftest import (monomials_by_degree, random_homogeneous,
                      random_scalar, super_context, torus_context)


# -- oracles ------------------------------------------------------------------


def classical_det(entries):
    """Signed permutation sum for commuting entries (test-side oracle)."""
    n = len(entries)
    total = None
    for sigma in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if sigma[i] > sigma[j])
        term = entries[0][sigma[0]]
        for k in range(1, n):
            term = term * entries[k][sigma[k]]
        term = term.scale(-1) if inv % 2 else term
        total = term if total is None else total + term
    return total


def permutation_rho_det(f):
    """rho_det as the plain sum over permutations: every word is built from
    scratch and added with GradedPoly addition (the prefix walk's oracle)."""
    ctx, n = f.ctx, f.nrows
    bump = None if ctx.truncation is None else ctx.truncation + n
    if classify_tuple(ctx.factor, f.rows) == "even":
        tvars = [Var(f"_t{k + 1}", ctx.factor.prime_degree(1, d), "odd")
                 for k, d in enumerate(f.rows)]
        aux = prime_context(ctx, tvars, truncation=bump)
    else:
        tvars = [Var(f"_t{k + 1}", d, "odd") for k, d in enumerate(f.rows)]
        aux = ctx.extend(tvars, truncation=bump)
    lifted = [[lift_poly(e, aux) for e in row] for row in f.entries]
    ts = [aux.gen(v.name) for v in tvars]
    total = aux.zero()
    for sigma in itertools.permutations(range(n)):
        word = aux.one()
        for k in range(n):
            word = word * lifted[k][sigma[k]] * ts[sigma[k]]
        total = total + word
    return GradedPoly(ctx, {m[:ctx.nvars]: c for m, c in total.terms.items()})


def adjugate_inverse(f):
    """inverse() with its own permutation loops: the Laurent determinant and
    every cofactor by classical_det on a minor grid, and the geometric series
    with an alternating sign (the oracle of the shared walk in inverse)."""
    ctx, n = f.ctx, f.nrows
    free = f.map_entries(lambda e: e.i_free_part())
    det0_inv = classical_det(free).invert()
    adj = []
    for k in range(n):
        row = []
        for l in range(n):
            minor = [[free[r][c] for c in range(n) if c != k]
                     for r in range(n) if r != l]
            cof = classical_det(minor) if minor else ctx.one()
            row.append(cof.scale((-1) ** (k + l)) * det0_inv)
        adj.append(row)
    f0inv = GradedMatrix(ctx, f.rows, f.rows, f.degree, adj)
    rest = GradedMatrix(ctx, f.rows, f.rows, f.degree,
                        f.map_entries(lambda e: e.i_positive_part()))
    nil = f0inv @ rest
    geo, power, sign = GradedMatrix.identity(ctx, f.rows), nil, -1
    for _ in range(ctx.series_bound(slack=n) + 1):
        if all(e.is_zero() for row in power.entries for e in row):
            return geo @ f0inv
        geo = geo + GradedMatrix(ctx, f.rows, f.rows, f.degree,
                                 power.map_entries(lambda e: e.scale(sign)))
        power, sign = power @ nil, -sign
    raise TruncationRequired("oracle series does not terminate")


def adjugate_rho_ber(f):
    """rho_ber() on adjugate_inverse and a classical_det unit probe."""
    ctx, n = f.ctx, f.nrows
    ev = list(range(split_point(ctx.factor, f.rows)))
    od = list(range(len(ev), n))
    f00, f11 = f.submatrix(ev, ev), f.submatrix(od, od)
    try:
        f11_inv = adjugate_inverse(f11) if od else f11
        classical_det(f00.map_entries(lambda e: e.i_free_part())).invert()
    except NotInvertible:
        return ctx.zero()
    schur = f00 - f.submatrix(ev, od) @ f11_inv @ f.submatrix(od, ev) if od else f00
    return rho_det(schur) * rho_det(f11).invert()


def assert_same_bytes(got, want):
    """Same text and, coefficient by coefficient, the same conductor."""
    assert got.text() == want.text()
    assert {m: c.n for m, c in got.terms.items()} == \
        {m: c.n for m, c in want.terms.items()}


def scalar_matrix(ctx, degs, rows):
    g = ctx.factor.group
    return GradedMatrix(ctx, degs, degs, g.zero(),
                        [[ctx.scalar(v) for v in row] for row in rows])


# -- structure ---------------------------------------------------------------


def test_classify(sctx):
    g = sctx.factor.group
    assert classify_tuple(sctx.factor, (g.zero(), g.zero())) == "even"
    assert classify_tuple(sctx.factor, (g.degree(1),)) == "odd"
    assert classify_tuple(sctx.factor, (g.zero(), g.degree(1))) == "split"
    assert classify_tuple(sctx.factor, (g.degree(1), g.zero())) == "mixed"


def test_grading_enforced(sctx):
    g = sctx.factor.group
    with pytest.raises(GradingViolation):
        GradedMatrix(sctx, (g.zero(),), (g.zero(),), g.zero(),
                     [[sctx.gen("xi")]])
    with pytest.raises(ShapeMismatch):
        GradedMatrix(sctx, (g.zero(),), (g.zero(), g.zero()), g.zero(),
                     [[sctx.one()]])


def _entry_pool(ctx, want, maxexp=2):
    """Entry monomials: no Laurent variable, and the plain base variable only
    inside the formal ideal, so the filtration-free parts stay scalar."""
    iz, ix = ctx.index("z"), ctx.index("x")
    ixi, ieta = ctx.index("xi"), ctx.index("eta")
    pool = []
    for m in monomials_by_degree(ctx, maxexp).get(want, []):
        if m[iz] != 0:
            continue
        if m[ix] > 0 and m[ixi] + m[ieta] == 0:
            continue
        pool.append(m)
    return pool


def _rand_entry(ctx, rng, want, terms=2):
    pool = _entry_pool(ctx, want)
    if not pool:
        return ctx.zero()
    out = ctx.zero()
    for _ in range(terms):
        mono = rng.choice(pool)
        out = out + GradedPoly(ctx, {mono: Cyclo.rational(random_scalar(rng))})
    return out


def random_super_m0(ctx, rng, degs, ensure_invertible=False):
    """Random degree-0 matrix over the super context with slots degs."""
    g = ctx.factor.group
    n = len(degs)
    while True:
        ents = []
        for k in range(n):
            row = []
            for l in range(n):
                p = _rand_entry(ctx, rng, degs[k] - degs[l])
                if k == l and ensure_invertible:
                    p = p + ctx.scalar(random_scalar(rng))
                row.append(p)
            ents.append(row)
        m = GradedMatrix(ctx, degs, degs, g.zero(), ents)
        if not ensure_invertible:
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


def test_identity_and_actions(sctx, rng):
    g = sctx.factor.group
    degs = (g.zero(), g.degree(1))
    ident = GradedMatrix.identity(sctx, degs)
    m = random_super_m0(sctx, rng, degs)
    assert ident @ m == m and m @ ident == m
    one = sctx.one()
    assert left_act(one, m) == m
    # bimodule compatibility: (g F) G = g (F G)
    for _ in range(10):
        gpoly = random_homogeneous(sctx, rng)
        if gpoly.is_zero():
            continue
        f1 = random_super_m0(sctx, rng, degs)
        f2 = random_super_m0(sctx, rng, degs)
        assert left_act(gpoly, f1 @ f2) == left_act(gpoly, f1) @ f2
        assert right_act(f1 @ f2, gpoly) == f1 @ right_act(f2, gpoly)
        assert left_act(gpoly, f1).degree == gpoly.degree_of()


def test_transpose_matches_classical_supertranspose(sctx):
    # 1|1 block form; the twist puts the sign on the odd-row block:
    # st([[a, b],[c, d]]) = [[a, -c],[b, d]] (evaluated entrywise by hand:
    # the (0,1) slot carries rho(1, -1) = -1, the (1,0) slot rho(0, 1) = 1)
    g = sctx.factor.group
    I = (g.zero(), g.degree(1))
    a, d = sctx.scalar(2), sctx.scalar(7)
    b = sctx.gen("xi")
    c = sctx.gen("eta")
    m = GradedMatrix(sctx, I, I, g.zero(), [[a, b], [c, d]])
    t = transpose(m)
    assert t.entry(0, 0) == a
    assert t.entry(0, 1) == -c
    assert t.entry(1, 0) == b
    assert t.entry(1, 1) == d
    assert transpose(GradedMatrix.identity(sctx, I)) == \
        GradedMatrix.identity(sctx, tuple(-x for x in I))


def test_rho_det_classical_even(sctx, rng):
    g = sctx.factor.group
    for n in (1, 2, 3):
        degs = (g.zero(),) * n
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(n)]
        m = scalar_matrix(sctx, degs, rows)
        want = classical_det([[sctx.scalar(v) for v in row] for row in rows])
        assert rho_det(m) == want


def test_rho_det_classical_odd(sctx, rng):
    g = sctx.factor.group
    for n in (1, 2, 3):
        degs = (g.degree(1),) * n
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
                for _ in range(n)]
        m = scalar_matrix(sctx, degs, rows)
        want = classical_det([[sctx.scalar(v) for v in row] for row in rows])
        assert rho_det(m) == want


def test_rho_det_identity_and_errors(sctx):
    g = sctx.factor.group
    assert rho_det(GradedMatrix.identity(sctx, (g.zero(),) * 3)) == sctx.one()
    mixed = GradedMatrix.identity(sctx, (g.degree(1), g.zero()))
    with pytest.raises(MixedParity):
        rho_det(mixed)
    bad = GradedMatrix(sctx, (g.zero(),), (g.zero(),), g.degree(1),
                       [[sctx.gen("xi")]])
    with pytest.raises(NonzeroDegree):
        rho_det(bad)


def test_rho_det_properties_of_the_empty_matrix(sctx):
    # rho_det of the 0x0 matrix is 1, and every property holds vacuously
    z = GradedMatrix(sctx, (), (), sctx.factor.group.zero(), [])
    assert rho_det(z) == sctx.one()
    rep = rho_det_properties_check(z, z)
    assert rep == {"multiplicative": True, "row_additive": True,
                   "row_scaling": True, "repeated_row_zero": True, "ok": True}


def test_rho_det_lemma_properties_super(sctx, rng):
    g = sctx.factor.group
    for case in ("even", "odd"):
        degs = ((g.zero(),) * 3 if case == "even" else (g.degree(1),) * 3)
        for _ in range(12):
            f = random_super_m0(sctx, rng, degs)
            gm = random_super_m0(sctx, rng, degs)
            rep = rho_det_properties_check(f, gm)
            assert rep["ok"], rep
        inv = random_super_m0(sctx, rng, degs, ensure_invertible=True)
        # lemma (a): the determinant of an invertible matrix is a unit
        assert rho_det(inv).invert() * rho_det(inv) == sctx.one()


def torus_triangular(ctx, rng, degs):
    """Random degree-0 matrix over the torus; entries only where the degree
    difference is a nonnegative monomial."""
    g = ctx.factor.group
    buckets = {}
    n = len(degs)
    ents = []
    for k in range(n):
        row = []
        for l in range(n):
            want = degs[k] - degs[l]
            parts = want.parts
            if all(p == 0 for p in parts):
                row.append(ctx.scalar(random_scalar(rng)))
            elif all(p >= 0 for p in parts):
                row.append(ctx.monomial(random_scalar(rng),
                                        {"u1": parts[0], "u2": parts[1]}))
            else:
                row.append(ctx.zero())
        ents.append(row)
    return GradedMatrix(ctx, degs, degs, g.zero(), ents)


def test_rho_det_lemma_properties_torus(tctx, rng):
    g = tctx.factor.group
    # rows 0 and 2 of the second tuple share a degree, so its repeated-row
    # rule has a well-graded copy to test
    for degs in ((g.zero(), g.generator(0), g.degree(1, 1)),
                 (g.zero(), g.generator(0), g.zero())):
        for _ in range(12):
            f = torus_triangular(tctx, rng, degs)
            gm = torus_triangular(tctx, rng, degs)
            rep = rho_det_properties_check(f, gm)
            assert rep["ok"], rep


def test_the_properties_check_builds_only_well_graded_matrices(monkeypatch,
                                                               tctx, rng):
    # a row is copied only onto a row of its degree: with three distinct
    # degrees the repeated-row rule holds vacuously, and with rows 0 and 2
    # of one degree row 2 is copied onto row 0
    built = []
    init = GradedMatrix.__init__
    monkeypatch.setattr(GradedMatrix, "__init__",
                        lambda self, *a, **k: init(self, *a, **k) or built.append(self))
    g = tctx.factor.group
    for degs, copied in (((g.zero(), g.generator(0), g.degree(1, 1)), False),
                         ((g.zero(), g.generator(0), g.zero()), True)):
        for _ in range(4):
            f = torus_triangular(tctx, rng, degs)
            gm = torus_triangular(tctx, rng, degs)
            del built[:]
            assert rho_det_properties_check(f, gm)["ok"]
            assert any(m.entries[0] == m.entries[2] == f.entries[2]
                       for m in built) == copied
            for m in built:
                for k, i in enumerate(m.rows):
                    for l, j in enumerate(m.cols):
                        assert m.entries[k][l].has_degree(i - j + m.degree), (k, l)


def test_linearize_det_even_and_odd(sctx, rng):
    g = sctx.factor.group
    for degs in ((g.zero(), g.zero()), (g.degree(1), g.degree(1))):
        for dF in (g.zero(), g.degree(1)):
            ents = []
            for k in range(2):
                row = []
                for l in range(2):
                    want = degs[k] - degs[l] + dF
                    row.append(random_homogeneous(sctx, rng, degree=want,
                                                  terms=2, maxexp=1))
                ents.append(row)
            f = GradedMatrix(sctx, degs, degs, dF, ents)
            lhs, rhs = linearize_det(f)
            assert lhs == rhs


# -- Berezinian ---------------------------------------------------------------


def split_degs(sctx):
    g = sctx.factor.group
    return (g.zero(), g.zero(), g.degree(1), g.degree(1))


def random_gl0_split(sctx, rng):
    return random_super_m0(sctx, rng, split_degs(sctx), ensure_invertible=True)


def test_rho_ber_identity_and_blocks(sctx, rng):
    degs = split_degs(sctx)
    assert rho_ber(GradedMatrix.identity(sctx, degs)) == sctx.one()
    # block diagonal: Ber = det(F00) * det(F11)^-1
    for _ in range(5):
        f = random_gl0_split(sctx, rng)
        z = sctx.zero()
        ents = [[f.entry(k, l) if (k < 2) == (l < 2) else z
                 for l in range(4)] for k in range(4)]
        bd = GradedMatrix(sctx, degs, degs, sctx.factor.group.zero(), ents)
        try:
            want = rho_det(bd.submatrix([0, 1], [0, 1])) * \
                rho_det(bd.submatrix([2, 3], [2, 3])).invert()
        except NotInvertible:
            continue
        assert rho_ber(bd) == want


def test_rho_ber_singular_block_is_zero(sctx):
    g = sctx.factor.group
    degs = split_degs(sctx)
    ents = [[sctx.one() if k == l else sctx.zero() for l in range(4)]
            for k in range(4)]
    ents[3][3] = sctx.zero()          # F11 singular
    m = GradedMatrix(sctx, degs, degs, g.zero(), ents)
    assert rho_ber(m).is_zero()
    ents2 = [[sctx.one() if k == l else sctx.zero() for l in range(4)]
             for k in range(4)]
    ents2[0][0] = sctx.gen("xi") * sctx.gen("eta")   # F00 singular
    m2 = GradedMatrix(sctx, degs, degs, g.zero(), ents2)
    assert rho_ber(m2).is_zero()


def test_rho_ber_proposition_suite(sctx, rng):
    zero = sctx.factor.group.zero()
    for _ in range(12):
        f = random_gl0_split(sctx, rng)
        g2 = random_gl0_split(sctx, rng)
        bf, bg = rho_ber(f), rho_ber(g2)
        # (i) multiplicativity
        assert rho_ber(f @ g2) == bf * bg
        # (iii) transpose invariance
        assert rho_ber(transpose(f)) == bf
        # (ii) alternate Schur route, computed independently here
        f00 = f.submatrix([0, 1], [0, 1])
        f01 = f.submatrix([0, 1], [2, 3])
        f10 = f.submatrix([2, 3], [0, 1])
        f11 = f.submatrix([2, 3], [2, 3])
        alt = rho_det(f00) * rho_det(f11 - f10 @ inverse(f00) @ f01).invert()
        assert bf == alt
        # inverse matrices really invert
        assert f @ inverse(f) == GradedMatrix.identity(sctx, f.rows)


def test_rho_ber_block_factorization(sctx, rng):
    # 2|2 with the second even/odd columns zeroed above the diagonal blocks
    g = sctx.factor.group
    degs = split_degs(sctx)
    for _ in range(8):
        f = random_gl0_split(sctx, rng)
        ents = [list(row) for row in f.entries]
        ents[0][1] = sctx.zero()   # E01 = 0
        ents[0][3] = sctx.zero()   # F01 = 0
        ents[2][1] = sctx.zero()   # G01 = 0
        ents[2][3] = sctx.zero()   # H01 = 0
        m = GradedMatrix(sctx, degs, degs, g.zero(), ents)
        try:
            lhs = rho_ber(m)
            b0 = rho_ber(m.submatrix([0, 2], [0, 2]))
            b1 = rho_ber(m.submatrix([1, 3], [1, 3]))
        except NotInvertible:
            continue
        if lhs.is_zero() or b0.is_zero() or b1.is_zero():
            continue
        assert lhs == b0 * b1


def test_linearize_ber_random(sctx, rng):
    g = sctx.factor.group
    degs = split_degs(sctx)
    for dF in (g.zero(), g.degree(1)):
        for _ in range(6):
            ents = []
            for k in range(4):
                row = []
                for l in range(4):
                    want = degs[k] - degs[l] + dF
                    row.append(random_homogeneous(sctx, rng, degree=want,
                                                  terms=1, maxexp=1))
                ents.append(row)
            f = GradedMatrix(sctx, degs, degs, dF, ents)
            lhs, rhs = linearize_ber(f)
            assert lhs == rhs


# -- trace ---------------------------------------------------------------------


def test_rho_tr_counts_parity(sctx):
    g = sctx.factor.group
    degs = (g.zero(), g.zero(), g.zero(), g.degree(1))
    ident = GradedMatrix.identity(sctx, degs)
    assert rho_tr(ident) == sctx.scalar(2)      # 3 even - 1 odd
    degs0 = (g.zero(),) * 3
    assert rho_tr(GradedMatrix.identity(sctx, degs0)) == sctx.scalar(3)


def test_rho_tr_twisted_cyclicity(sctx, rng):
    g = sctx.factor.group
    I = (g.zero(), g.degree(1))
    J = (g.degree(1), g.zero())
    fac = sctx.factor
    for dF, dG in itertools.product((g.zero(), g.degree(1)), repeat=2):
        for _ in range(6):
            def rand(rows, cols, d):
                ents = []
                for k in range(2):
                    row = []
                    for l in range(2):
                        want = rows[k] - cols[l] + d
                        row.append(random_homogeneous(sctx, rng, degree=want,
                                                      terms=1, maxexp=1))
                    ents.append(row)
                return GradedMatrix(sctx, rows, cols, d, ents)
            f = rand(I, J, dF)
            g2 = rand(J, I, dG)
            w = Cyclo.from_phase(fac.phase(dF, dG))
            assert rho_tr(f @ g2) == rho_tr(g2 @ f).scale(w)


def test_rho_det_odd_nonconstant_tuple(rng):
    # odd slots of different degrees: index positions are permuted even though
    # the degrees repeat nowhere
    from conftest import zline_context

    ctx = zline_context(None)
    g = ctx.factor.group
    degs = (g.degree(1), g.degree(3))
    w, v = ctx.gen("w"), ctx.gen("v")
    for _ in range(10):
        def entry(k, l):
            want = degs[k] - degs[l]
            if want.is_zero():
                return ctx.scalar(random_scalar(rng))
            return (w if want.parts[0] > 0 else v).scale(random_scalar(rng))
        f = GradedMatrix(ctx, degs, degs, g.zero(),
                         [[entry(0, 0), entry(0, 1)],
                          [entry(1, 0), entry(1, 1)]])
        g2 = GradedMatrix(ctx, degs, degs, g.zero(),
                          [[entry(0, 0), entry(0, 1)],
                           [entry(1, 0), entry(1, 1)]])
        rep = rho_det_properties_check(f, g2)
        assert rep["ok"], rep
        lhs, rhs = linearize_det(f)
        assert lhs == rhs


def test_matrix_commutator_generally_nonzero(sctx):
    from rhocalc.matrix import matrix_commutator

    g = sctx.factor.group
    degs = (g.zero(), g.degree(1))
    a = GradedMatrix(sctx, degs, degs, g.zero(),
                     [[sctx.scalar(1), sctx.gen("xi")],
                      [sctx.gen("eta"), sctx.scalar(2)]])
    b = GradedMatrix(sctx, degs, degs, g.zero(),
                     [[sctx.scalar(3), sctx.zero()],
                      [sctx.gen("eta"), sctx.scalar(1)]])
    c = matrix_commutator(a, b)
    assert not all(e.is_zero() for row in c.entries for e in row)
    ident = GradedMatrix.identity(sctx, degs)
    assert all(e.is_zero() for row in matrix_commutator(a, ident).entries
               for e in row)


def test_linearize_of_zero_matrix(sctx):
    g = sctx.factor.group
    degs = (g.zero(), g.zero(), g.degree(1), g.degree(1))
    z = GradedMatrix.zeros(sctx, degs, degs, g.zero())
    lhs, rhs = linearize_ber(z)
    assert lhs == rhs and lhs == lhs.ctx.one()
    lhs2, rhs2 = linearize_det(GradedMatrix.zeros(sctx, degs[:2], degs[:2],
                                                  g.zero()))
    assert lhs2 == rhs2 == lhs2.ctx.one()


def _twisted_torus_context(theta=Fraction(1, 4)):
    """Torus generators plus opposite-degree partners: the degree-0 part is a
    genuinely twisted commutative algebra (u2 v1 = zeta4 v1 u2 etc.)."""
    fac = torus_factor([[0, theta], [-theta, 0]])
    g = fac.group
    return Context(fac, [Var("u1", g.generator(0), "even"),
                         Var("u2", g.generator(1), "even"),
                         Var("v1", -g.generator(0), "even"),
                         Var("v2", -g.generator(1), "even")],
                   name="torus2")


def _bucket_entry(ctx, rng, want, maxexp=1, terms=1):
    pool = monomials_by_degree(ctx, maxexp).get(want, [])
    out = ctx.zero()
    for _ in range(terms):
        if not pool:
            return out
        out = out + GradedPoly(ctx, {rng.choice(pool):
                                     Cyclo.rational(random_scalar(rng))})
    return out


def test_rho_det_full_matrices_twisted_torus(rng):
    # dense degree-0 matrices whose entries do not commute with each other;
    # theta 1/8 on the slots (0, e1, e2, e1 + e2) is the det_ber torus8 shape,
    # where multiplicativity (Covolo, Ovsienko and Poncin, J. Geom. Phys.
    # 2012) meets conductor 8
    for theta, tuples in [
            (Fraction(1, 4), [[(0, 0), (1, 0)], [(0, 0), (1, 0), (1, 1)],
                              [(1, 0), (0, 1), (0, 0)]]),
            (Fraction(1, 8), [[(0, 0), (1, 0), (0, 1), (1, 1)]])]:
        ctx = _twisted_torus_context(theta)
        g = ctx.factor.group
        assert ctx.gen("u2") * ctx.gen("v1") == (ctx.gen("v1") * ctx.gen("u2")).scale(
            Cyclo.root_of_unity(theta.denominator))
        for slots in tuples:
            degs = tuple(g.degree(*s) for s in slots)
            n = len(degs)
            for _ in range(8):
                def rand():
                    ents = [[_bucket_entry(ctx, rng, degs[k] - degs[l])
                             for l in range(n)] for k in range(n)]
                    for k in range(n):
                        ents[k][k] = ents[k][k] + ctx.scalar(random_scalar(rng))
                    return GradedMatrix(ctx, degs, degs, g.zero(), ents)
                f, g2 = rand(), rand()
                rep = rho_det_properties_check(f, g2)
                assert rep["ok"], rep
                lhs, rhs = linearize_det(f)
                assert lhs == rhs
                # invertibility: scalar diagonal dominates the free part here
                d = rho_det(f)
                if not d.i_free_part().is_zero():
                    try:
                        assert d.invert() * d == ctx.one()
                        fi = inverse(f)
                        assert f @ fi == GradedMatrix.identity(ctx, degs)
                    except TruncationRequired:
                        pass


def test_rho_ber_on_parity_extended_torus(rng):
    # even torus slots against odd ghost slots, entries with quarter phases
    from rhocalc.algebra import Context, Var
    from rhocalc.grading import torus_factor

    fac = torus_factor([[0, Fraction(1, 4)], [-Fraction(1, 4), 0]])
    pfac = fac.extend_prime()
    g = fac.group
    ctx = Context(pfac, [
        Var("tau", pfac.group.zero(), "base", invertible=True),
        Var("u1", fac.prime_degree(0, g.generator(0)), "even"),
        Var("u2", fac.prime_degree(0, g.generator(1)), "even"),
        Var("eta1", fac.prime_degree(1, g.zero()), "odd"),
        Var("eta2", fac.prime_degree(1, g.zero()), "odd"),
    ], name="torus-ghosts")
    pg = pfac.group
    degs = (pg.degree(0, 0, 0), pg.degree(1, 0, 0), pg.degree(1, 1, 0))
    assert [pfac.parity(d) for d in degs] == ["even", "odd", "odd"]

    def entry(k, l, dF):
        want = degs[k] - degs[l] + dF
        pool = [m for m in monomials_by_degree(ctx, 1).get(want, [])
                if m[0] == 0]          # keep tau out of the free parts
        if not pool:
            return ctx.zero()
        return GradedPoly(ctx, {rng.choice(pool):
                                Cyclo.rational(random_scalar(rng))})

    zero = pg.zero()
    produced = 0
    for _ in range(12):
        ents = [[entry(k, l, zero) for l in range(3)] for k in range(3)]
        for k in range(3):
            ents[k][k] = ents[k][k] + ctx.scalar(random_scalar(rng))
        f = GradedMatrix(ctx, degs, degs, zero, ents)
        bf = rho_ber(f)
        if bf.is_zero():
            continue
        produced += 1
        assert rho_ber(transpose(f)) == bf
        lhs, rhs = linearize_ber(f)
        assert lhs == rhs
        g2ents = [[entry(k, l, zero) for l in range(3)] for k in range(3)]
        for k in range(3):
            g2ents[k][k] = g2ents[k][k] + ctx.scalar(random_scalar(rng))
        g2 = GradedMatrix(ctx, degs, degs, zero, g2ents)
        if not rho_ber(g2).is_zero():
            assert rho_ber(f @ g2) == bf * rho_ber(g2)
    assert produced >= 8


def test_inverse_structural_nilpotency_terminates():
    # a strictly triangular formal part dies as a matrix power even though
    # its entries are not nilpotent elements: no truncation needed
    ctx = torus_context(truncation=None)
    g = ctx.factor.group
    degs = (g.zero(), g.generator(0))
    ents = [[ctx.one(), ctx.zero()],
            [ctx.gen("u1"), ctx.one()]]
    m = GradedMatrix(ctx, degs, degs, g.zero(), ents)
    assert m @ inverse(m) == GradedMatrix.identity(ctx, degs)


def test_inverse_truncation_required():
    from conftest import zline_context

    ctx = zline_context(None)
    g = ctx.factor.group
    degs = (g.zero(),)
    wv = ctx.gen("w") * ctx.gen("v")
    m = GradedMatrix(ctx, degs, degs, g.zero(), [[ctx.one() + wv]])
    with pytest.raises(TruncationRequired):
        inverse(m)
    tctx = zline_context(6)
    wv = tctx.gen("w") * tctx.gen("v")
    m = GradedMatrix(tctx, degs, degs, g.zero(), [[tctx.one() + wv]])
    assert m @ inverse(m) == GradedMatrix.identity(tctx, degs)


def test_rho_ber_needs_no_series_for_the_even_block():
    # F00 = [[1 + w*v]] is invertible (its Laurent part is 1) although its
    # inverse's series does not stop without a truncation order; Ber only
    # needs the unit test, so it agrees with det here
    from conftest import zline_context

    ctx = zline_context(None)
    g = ctx.factor.group
    degs = (g.zero(),)
    m = GradedMatrix(ctx, degs, degs, g.zero(),
                     [[ctx.one() + ctx.gen("w") * ctx.gen("v")]])
    assert rho_det(m).text() == "1 + w * v"
    assert rho_ber(m) == rho_det(m)


_TORUS_SLOTS = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)]


def _det_case(family, n, rng, truncation=None):
    """A seeded degree-0 matrix of the det_ber benchmark's families (and
    torusN for any theta 1/N), with about one entry in five set to zero."""
    if family.startswith("super"):
        ctx = super_context(truncation)
        g = ctx.factor.group
        degs = (g.zero() if family == "super-even" else g.degree(1),) * n
        ents = [list(row) for row in random_super_m0(ctx, rng, degs).entries]
    else:
        plain = _twisted_torus_context(Fraction(1, int(family[5:])))
        ctx = Context(plain.factor, plain.variables, truncation, name=family)
        g = ctx.factor.group
        degs = tuple(g.degree(*s) for s in _TORUS_SLOTS[:n])
        ents = [[_bucket_entry(ctx, rng, degs[k] - degs[l]) for l in range(n)]
                for k in range(n)]
        for k in range(n):
            ents[k][k] = ents[k][k] + ctx.scalar(random_scalar(rng))
    for row in ents:
        for l in range(n):
            if rng.random() < 0.2:
                row[l] = ctx.zero()
    return GradedMatrix(ctx, degs, degs, g.zero(), ents)


@pytest.mark.parametrize("family", ["super-even", "super-odd", "torus4", "torus8"])
def test_rho_det_prefix_walk_matches_the_permutation_sum(family):
    # same value, same conductor per coefficient and same text as the plain
    # permutation sum
    rng = random.Random(family)
    for n in (1, 2, 3, 4, 5):
        for _ in range(3 if n < 5 else 2):
            f = _det_case(family, n, rng)
            got, want = rho_det(f), permutation_rho_det(f)
            assert got.text() == want.text(), f.text()
            assert {m: c.n for m, c in got.terms.items()} == \
                {m: c.n for m, c in want.terms.items()}, f.text()


@pytest.mark.parametrize("family, truncations", [
    ("super-even", (0, 1, 2)), ("super-odd", (0, 1, 2)), ("torus4", (1, 2)),
    ("torus3", (None, 2)), ("torus5", (None, 2))])
def test_rho_det_matches_the_permutation_sum_truncated_and_at_odd_conductors(
        family, truncations):
    # rho_det prunes at the truncation order T of the base context, while the
    # permutation sum counts its t's against T + n; over theta 1/3 and 1/5 the
    # t's of an even tuple carry phases at conductor 2N, not N
    rng = random.Random(family)
    for t in truncations:
        for n in (1, 2, 3, 4):
            for _ in range(3):
                f = _det_case(family, n, rng, t)
                assert_same_bytes(rho_det(f), permutation_rho_det(f))


def test_rho_det_builds_no_context(monkeypatch, sctx, rng):
    g = sctx.factor.group
    cases = [random_super_m0(sctx, rng, (d,) * 3) for d in (g.zero(), g.degree(1))]
    built = []
    init = Context.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Context, "__init__", counting_init)
    for f in cases:
        rho_det(f)
    assert built == []


def test_rho_det_builds_cyclos_only_for_the_result(monkeypatch):
    # the walk runs on integer vectors: Cyclo constructions are bounded by
    # the entry and result terms, not by the term pairs (the Cyclo walk
    # built about 1.7 per term pair)
    built, pairs = [], []
    new, mono_mul = cyclo._new, Context.mono_mul
    monkeypatch.setattr(cyclo, "_new", lambda *a: built.append(a) or new(*a))
    monkeypatch.setattr(Context, "mono_mul",
                        lambda self, *a: pairs.append(a) or mono_mul(self, *a))
    for seed in range(3):
        f = _det_case("torus8", 5, random.Random(f"torus8-count{seed}"))
        del built[:], pairs[:]
        got = rho_det(f)
        terms = sum(len(e.terms) for row in f.entries for e in row) + len(got.terms)
        assert len(built) <= 2 * terms < len(pairs), (len(built), terms, len(pairs))


def test_inverse_walks_each_shared_prefix_once(monkeypatch, rng):
    # a dense 5x5 Laurent grid: the determinant and its 25 cofactors walk
    # 1,030 distinct (row prefix, used columns) words instead of 1,925, and
    # share 155 (row, column, used set) set-ups
    steps, setups = [], []
    step, setup = matrix._Walk.step, matrix._Walk._setup
    monkeypatch.setattr(matrix._Walk, "step",
                        lambda self, *a: steps.append(a[1:]) or step(self, *a))
    monkeypatch.setattr(matrix._Walk, "_setup",
                        lambda self, *a: setups.append(a) or setup(self, *a))
    ctx = super_context()
    g = ctx.factor.group
    degs = (g.zero(),) * 5
    f = GradedMatrix(ctx, degs, degs, g.zero(),
                     [[ctx.scalar(random_scalar(rng)) + ctx.gen("xi") * ctx.gen("eta")
                       for _ in range(5)] for _ in range(5)])
    got = inverse(f)
    assert len(steps) <= 1030 and len(setups) <= 155
    assert len(set(setups)) == len(setups)
    for got_row, want_row in zip(got.entries, adjugate_inverse(f).entries):
        for a, b in zip(got_row, want_row):
            assert_same_bytes(a, b)
    # a singular Laurent part raises after the same one walk: the
    # determinant's leaves and the cofactors' come from one pass
    del steps[:]
    ents = [list(row) for row in f.entries]
    ents[1] = ents[0]
    with pytest.raises(NotInvertible):
        inverse(GradedMatrix(ctx, degs, degs, g.zero(), ents))
    assert len(steps) <= 1030


def test_inverse_walks_the_determinant_and_its_cofactors_in_one_pass(monkeypatch,
                                                                     rng):
    # the determinant's leaves fold in the cofactors' walk, so no prefix
    # word is walked twice, however many levels the grid has
    steps = []
    step = matrix._Walk.step
    monkeypatch.setattr(matrix._Walk, "step",
                        lambda self, *a: steps.append(a[1:]) or step(self, *a))
    ctx = super_context()
    g = ctx.factor.group
    for n, bound in ((6, 7422), (7, 60620)):
        degs = (g.zero(),) * n
        f = GradedMatrix(ctx, degs, degs, g.zero(),
                         [[ctx.scalar(random_scalar(rng)) + ctx.gen("xi") * ctx.gen("eta")
                           for _ in range(n)] for _ in range(n)])
        del steps[:]
        got = inverse(f)
        assert len(steps) <= bound, n
        if n == 6:
            for got_row, want_row in zip(got.entries, adjugate_inverse(f).entries):
                for a, b in zip(got_row, want_row):
                    assert_same_bytes(a, b)


def test_rho_det_sets_up_each_row_column_and_used_set_once(monkeypatch):
    # a step's phase sums read the used columns only as a set, so each
    # (row, column, used set) is set up once, however many prefix words
    # reach it: n 2^(n-1) = 192 set-ups for the 1,956 steps of a dense 6x6
    steps, setups = [], []
    step, setup = matrix._Walk.step, matrix._Walk._setup
    monkeypatch.setattr(matrix._Walk, "step",
                        lambda self, *a: steps.append(a[1:3]) or step(self, *a))
    monkeypatch.setattr(matrix._Walk, "_setup",
                        lambda self, *a: setups.append(a) or setup(self, *a))
    # dense over theta 1/8 on the det_ber torus8 n6 slots
    ctx = _twisted_torus_context(Fraction(1, 8))
    g = ctx.factor.group
    degs = tuple(g.degree(*s) for s in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0), (1, 0)])
    rng = random.Random("dense torus8")
    ents = [[_bucket_entry(ctx, rng, degs[k] - degs[l]) for l in range(6)]
            for k in range(6)]
    for k in range(6):
        ents[k][k] = ents[k][k] + ctx.scalar(random_scalar(rng))
    f = GradedMatrix(ctx, degs, degs, g.zero(), ents)
    got = rho_det(f)
    assert len(steps) == 1956 and len(setups) <= 192
    assert len(set(setups)) == len(setups)
    assert_same_bytes(got, permutation_rho_det(f))


def test_the_walk_filters_zeros_after_a_merge_and_still_prunes(monkeypatch):
    # over four odd generators a, b, c, d the even entries ab + ac and
    # cd + bd multiply to a (b + c)^2 d = 0: their two term pairs meet on
    # abcd and cancel, and the walk must prune that prefix; (1 + x) and
    # (1 - x) meet on x inside one step, and the cancelled coefficient must
    # not pass its conductor on
    fac = super_factor()
    g = fac.group
    ctx = Context(fac, [Var("x", g.zero(), "base"),
                        *[Var(v, g.degree(1), "odd") for v in "abcd"]],
                  name="super4")
    a, b, c, d, x = (ctx.gen(v) for v in "abcdx")
    one = ctx.one()
    z8, z4 = (ctx.scalar(Cyclo.root_of_unity(n)) for n in (8, 4))
    ents = [[a * b + a * c, z8 * (one + x), x, one],
            [one - x, c * d + b * d, one, a * b],
            [one, x - one, z4 * (one + x), c * d],
            [x, z8 * (one - x), one - x, one + x]]
    degs = (g.zero(),) * 4
    f = GradedMatrix(ctx, degs, degs, g.zero(), ents)
    words = []
    step = matrix._Walk.step
    monkeypatch.setattr(matrix._Walk, "step",
                        lambda self, *a: words.append(step(self, *a)) or words[-1])
    got = rho_det(f)
    assert_same_bytes(got, permutation_rho_det(f))
    assert {} in words
    assert len(words) == 55    # as before the merge-only filter


def test_rho_det_is_multiplicative_on_small_torus8_tuples():
    # seeded pairs on the det_ber torus8 slots (0, e1) and (0, e1, e2)
    rng = random.Random("torus8-product")
    for n in (2, 3):
        for _ in range(6):
            x, y = _det_case("torus8", n, rng), _det_case("torus8", n, rng)
            assert rho_det(x @ y) == rho_det(x) * rho_det(y), (x.text(), y.text())


def test_rho_det_restarts_a_cancelled_coefficient(sctx):
    # the first two words zeta8 and -zeta8 cancel; the sum must forget their
    # conductor, as GradedPoly addition does, so -zeta4 does not print as
    # -zeta(8)^2
    g = sctx.factor.group
    z8, z4 = Cyclo.root_of_unity(8), Cyclo.root_of_unity(4)
    degs = (g.zero(),) * 3
    f = scalar_matrix(sctx, degs, [[z8, z4, 0], [1, 1, 1], [0, 1, 1]])
    assert rho_det(f).text() == permutation_rho_det(f).text() == "-zeta(4)"


def _sympy_expr(sympy, f, symbols):
    """A polynomial with rational coefficients as a sympy expression, with
    symbols[i] for variable i; a None symbol skips its variable, so the
    super symbols (x, z, e, None) read xi*eta as e."""
    out = 0
    for mono, c in f.terms.items():
        q = c.as_fraction()
        term = sympy.Rational(q.numerator, q.denominator)
        for e, sym in zip(mono, symbols):
            if e and sym is not None:
                term *= sym ** e
        out += term
    return out


def test_rho_det_matches_sympy_on_commuting_entries(rng):
    # the trivial factor (all base variables) and all-even super entries in
    # x, z and the nilpotent e = xi*eta: rho_det is the classical determinant
    sympy = pytest.importorskip("sympy")
    x, z, e = sympy.symbols("x z e")
    tfac = trivial_factor(GroupSpec(1))
    tg = tfac.group
    tctx = Context(tfac, [Var("x", tg.zero(), "base"), Var("z", tg.zero(), "base")])
    sctx = super_context()
    cases = [(tctx, [(a, b) for a in range(2) for b in range(2)], (x, z)),
             (sctx, [(a, b, c, c) for a in range(2) for b in range(2) for c in range(2)],
              (x, z, e, None))]
    for ctx, pool, symbols in cases:
        for n in range(1, 7):
            ents = [[GradedPoly(ctx, {m: Cyclo.rational(random_scalar(rng))
                                      for m in rng.sample(pool, rng.randint(0, 2))})
                     for _ in range(n)] for _ in range(n)]
            degs = (ctx.factor.group.zero(),) * n
            got = rho_det(GradedMatrix(ctx, degs, degs, degs[0], ents))
            dm = sympy.Matrix([[_sympy_expr(sympy, p, symbols) for p in row]
                               for row in ents]).to_DM()
            want = sympy.Poly(dm.domain.to_sympy(dm.det()), x, z, e)
            want = sum((c * x ** i * z ** j * e ** k
                        for (i, j, k), c in want.terms() if k < 2), sympy.Integer(0))
            assert sympy.expand(_sympy_expr(sympy, got, symbols) - want) == 0, n


def _unit_block(ctx, rng, n, monos, diagonal):
    """L U over commuting entries: L unit lower-triangular with entries on
    monos, U diagonal with diagonal() on its diagonal, so det = prod U_kk."""
    def entry():
        return GradedPoly(ctx, {m: Cyclo.rational(random_scalar(rng))
                                for m in rng.sample(monos, rng.randint(0, 2))})

    low = [[ctx.one() if k == l else entry() if l < k else ctx.zero()
            for l in range(n)] for k in range(n)]
    diag = [diagonal() for _ in range(n)]
    return [[low[k][l] * diag[l] for l in range(n)] for k in range(n)]


def test_inverse_matches_sympy_on_commuting_laurent_entries():
    # the trivial factor over base x and invertible z: every entry commutes,
    # the determinant of L U is a Laurent monomial, and the one walk's
    # adjugate over it is sympy's matrix inverse
    sympy = pytest.importorskip("sympy")
    x, z = sympy.symbols("x z")
    fac = trivial_factor(GroupSpec(1))
    g = fac.group
    ctx = Context(fac, [Var("x", g.zero(), "base"),
                        Var("z", g.zero(), "base", invertible=True)])
    monos = [(a, b) for a in range(2) for b in range(-1, 2)]
    rng = random.Random("inverse-sympy")

    def monomial():
        return ctx.monomial(Cyclo.rational(random_scalar(rng)), {"z": rng.randint(-2, 2)})

    for n in range(1, 6):
        for _ in range(3):
            degs = (g.zero(),) * n
            ents = _unit_block(ctx, rng, n, monos, monomial)
            got = inverse(GradedMatrix(ctx, degs, degs, g.zero(), ents))
            want = sympy.Matrix([[_sympy_expr(sympy, p, (x, z)) for p in row]
                                 for row in ents]).inv()
            for k in range(n):
                for l in range(n):
                    diff = _sympy_expr(sympy, got.entries[k][l], (x, z)) - want[k, l]
                    assert sympy.cancel(diff) == 0, (n, k, l)


def test_rho_ber_matches_sympy_on_block_diagonal_even_entries(sctx):
    # a block-diagonal super matrix whose blocks have even entries in x, z
    # and e = xi*eta: rho_ber is det(A) / det(D), and since e^2 = 0 the two
    # agree in their Taylor terms of order 0 and 1 in e
    sympy = pytest.importorskip("sympy")
    x, z, e = sympy.symbols("x z e")
    symbols = (x, z, e, None)
    g = sctx.factor.group
    monos = [(a, b, c, c) for a in range(2) for b in range(-1, 2) for c in range(2)]
    rng = random.Random("ber-sympy")

    def unit():
        return GradedPoly(sctx, {(0, rng.randint(-2, 2), 0, 0): Cyclo.rational(random_scalar(rng)),
                                 (0, 0, 1, 1): Cyclo.rational(random_scalar(rng))})

    for a, d in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (0, 2), (2, 0)]:
        blocks = _unit_block(sctx, rng, a, monos, unit), _unit_block(sctx, rng, d, monos, unit)
        n = a + d
        ents = [[sctx.zero()] * n for _ in range(n)]
        for off, block in zip((0, a), blocks):
            for k, row in enumerate(block):
                ents[off + k][off:off + len(row)] = row
        degs = tuple(g.degree(0 if k < a else 1) for k in range(n))
        got = _sympy_expr(sympy, rho_ber(GradedMatrix(sctx, degs, degs, g.zero(), ents)),
                          symbols)
        det_a, det_d = (sympy.Matrix([[_sympy_expr(sympy, p, symbols) for p in row]
                                      for row in block]).det() if block else 1
                        for block in blocks)
        for order in (0, 1):
            assert sympy.cancel(sympy.diff(got - det_a / det_d, e, order).subs(e, 0)) == 0, \
                (a, d, order)


def _root_scalar(rng, conductors):
    """A random rational times a random root of unity of one of the
    conductors (a plain rational for conductor 1)."""
    n = rng.choice(conductors)
    return Cyclo.root_of_unity(n, rng.randrange(n)) * random_scalar(rng)


@pytest.mark.parametrize("conductors", [(1,), (3,), (4,), (8,), (3, 4, 8)])
def test_laurent_det_matches_the_permutation_sum(sctx, conductors):
    # commuting entries in x, z and xi*eta: the shared walk's determinant and
    # each cofactor's minor give the oracle's text and conductors, so the
    # sign must stay a rational negation (a conductor-2 sign would lift a
    # rational coefficient to zeta(2) and a conductor-3 one to zeta(6))
    rng = random.Random(str(conductors))
    monos = [sctx.zero_mono(), (1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (1, 1, 0, 0), (0, 0, 1, 1)]

    def entry():
        if rng.random() < 0.2:
            return sctx.zero()
        return GradedPoly(sctx, {m: _root_scalar(rng, conductors)
                                 for m in rng.sample(monos, rng.randint(1, 2))})

    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            grid = [[entry() for _ in range(n)] for _ in range(n)]
            assert_same_bytes(_Walk(sctx, grid).expand()[None], classical_det(grid))
            if n > 1:
                k, l = rng.randrange(n), rng.randrange(n)
                rows = [r for r in range(n) if r != l]
                cols = [c for c in range(n) if c != k]
                minor = [[grid[r][c] for c in cols] for r in rows]
                assert_same_bytes(_Walk(sctx, minor).expand()[None],
                                  classical_det(minor))


def test_laurent_det_restarts_a_cancelled_coefficient(sctx):
    # zeta8 and -zeta8 cancel first; the sum then restarts at -zeta4's
    # conductor, so it prints as -zeta(4), not -zeta(8)^2
    z8, z4 = Cyclo.root_of_unity(8), Cyclo.root_of_unity(4)
    grid = [[sctx.scalar(v) for v in row]
            for row in [[z8, z4, 0], [1, 1, 1], [0, 1, 1]]]
    got = _Walk(sctx, grid).expand()[None]
    assert_same_bytes(got, classical_det(grid))
    assert got.text() == "-zeta(4)"
    assert [c.n for c in got.terms.values()] == [4]


def _torus_ctx(den):
    plain = _twisted_torus_context(Fraction(1, den))
    return Context(plain.factor, plain.variables, 3, name=f"torus{den}")


def _inverse_case(family, n, rng):
    """A degree-0 matrix whose Laurent part mixes rationals with roots of
    unity of conductors 3, 4 and 8: super with a split tuple (the even and
    odd blocks carry scalars), torus4/torus8/torus3 with repeated slots."""
    if family == "super":
        ctx = super_context()
        g = ctx.factor.group
        degs = tuple(g.degree(0 if k < (n + 1) // 2 else 1) for k in range(n))
        make = _rand_entry
    else:
        ctx = _torus_ctx(int(family[5:]))
        g = ctx.factor.group
        degs = tuple(g.degree(*s) for s in
                     [(0, 0), (0, 0), (1, 0), (1, 0), (0, 1)][:n])
        make = _bucket_entry
    ents = [[make(ctx, rng, degs[k] - degs[l]) for l in range(n)]
            for k in range(n)]
    for k in range(n):
        for l in range(n):
            if degs[k] == degs[l] and (k == l or rng.random() < 0.5):
                ents[k][l] = ents[k][l] + ctx.scalar(_root_scalar(rng, (1, 3, 4, 8)))
            elif rng.random() < 0.2:
                ents[k][l] = ctx.zero()
    return GradedMatrix(ctx, degs, degs, g.zero(), ents)


@pytest.mark.parametrize("family", ["super", "torus4", "torus8", "torus3"])
def test_inverse_and_ber_match_the_adjugate_oracle(family):
    # inverse's determinant and cofactors and rho_ber's unit probe run on
    # the shared walk: same entries, conductors and failures as before
    rng = random.Random(family)
    checked = 0
    for n in (1, 2, 3, 4):
        for _ in range(3):
            f = _inverse_case(family, n, rng)
            assert_same_bytes(rho_ber(f), adjugate_rho_ber(f))
            try:
                want = adjugate_inverse(f)
            except NotInvertible:
                with pytest.raises(NotInvertible):
                    inverse(f)
                continue
            got = inverse(f)
            for got_row, want_row in zip(got.entries, want.entries):
                for a, b in zip(got_row, want_row):
                    assert_same_bytes(a, b)
            checked += 1
    assert checked >= 8


def _mixed_class_context():
    """Z^2 x Z/2, phase 1/8 between the free generators and 1/2 on the
    torsion one: four even degree classes, two odd ones, a Laurent z, a
    plain base x, even formals u1, v1, u2 and odd formals th, ph."""
    fac = CommutationFactor(GroupSpec(2, (2,)), [[0, Fraction(1, 8), 0],
                                                 [Fraction(-1, 8), 0, 0],
                                                 [0, 0, Fraction(1, 2)]])
    g = fac.group
    return Context(fac, [Var("z", g.zero(), "base", invertible=True),
                         Var("x", g.zero(), "base"),
                         Var("u1", g.degree(1, 0, 0), "even"),
                         Var("v1", g.degree(-1, 0, 0), "even"),
                         Var("u2", g.degree(0, 1, 0), "even"),
                         Var("th", g.degree(0, 0, 1), "odd"),
                         Var("ph", g.degree(1, 0, 1), "odd")],
                   truncation=2, name="mixed")


def _mixed_class_case(ctx, rng):
    """A degree-0 matrix over 1-3 even rows of mixed classes and 0-2 odd
    rows: Laurent parts from 0, c, c z, c z^-1 and c x on the equal-degree
    entries, so the even block is a unit in about a quarter of the cases,
    plus one formal term where the degree has one."""
    g = ctx.factor.group
    even = [g.degree(*d) for d in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))]
    odd = [g.degree(*d) for d in ((0, 0, 1), (1, 0, 1))]
    degs = (tuple(rng.choice(even) for _ in range(rng.randint(1, 3)))
            + tuple(rng.choice(odd) for _ in range(rng.randint(0, 2))))
    buckets = monomials_by_degree(ctx, 1)
    z, x = ctx.gen("z"), ctx.gen("x")
    ents = []
    for k, dk in enumerate(degs):
        row = []
        for l, dl in enumerate(degs):
            want = dk - dl
            formal = [m for m in buckets.get(want, []) if ctx.i_order(m) > 0]
            e = ctx.zero()
            if formal and rng.random() < 0.7:
                e = GradedPoly(ctx, {rng.choice(formal): Cyclo.rational(random_scalar(rng))})
            if want.is_zero() and (k == l or rng.random() < 0.4):
                c = ctx.scalar(random_scalar(rng))
                e = e + rng.choice([c, c, c * z, c * z.invert(), c * x,
                                    ctx.zero()])
            row.append(e)
        ents.append(row)
    return GradedMatrix(ctx, degs, degs, g.zero(), ents)


def test_ber_tests_its_even_block_through_the_schur_determinant(monkeypatch):
    # the Laurent part of rho_det is the walk of the Laurent parts, over
    # mixed even degree classes and a 1/8 twist; so rho_ber, which reads it
    # off the Schur determinant, is zero exactly when the Laurent walk of
    # f00 or the inverse of f11 fails, and builds no walk of its own
    ctx = _mixed_class_context()
    rng = random.Random("mixed classes")
    walks = []
    init = _Walk.__init__
    monkeypatch.setattr(_Walk, "__init__",
                        lambda self, *a, **k: walks.append(a) or init(self, *a, **k))
    zero = units = 0
    for _ in range(60):
        f = _mixed_class_case(ctx, rng)
        ne = split_point(ctx.factor, f.rows)
        ev, od = list(range(ne)), list(range(ne, f.nrows))
        f00 = f.submatrix(ev, ev)
        laurent = _Walk(ctx, f00.map_entries(lambda e: e.i_free_part())).expand()[None]
        assert rho_det(f00).i_free_part() == laurent
        try:
            inverse(f.submatrix(od, od))
            laurent.invert()
            singular = False
        except NotInvertible:
            singular = True
        del walks[:]
        got = rho_ber(f)
        assert got.is_zero() == singular
        if not singular:
            assert len(walks) == 2 + bool(od)    # two rho_dets and f11's inverse
        assert_same_bytes(got, adjugate_rho_ber(f))
        zero += singular
        units += not singular
    assert zero >= 10 and units >= 10, (zero, units)


def test_det_ber_digests_match_bench_references(monkeypatch):
    # every det_ber task of the benchmark (det, Ber and inverse up to 6x6,
    # the last two through GradedMatrix.__matmul__) against the output
    # digests stored under bench/
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    rc = {m: importlib.import_module("rhocalc." + m)
          for m in ("cyclo", "grading", "algebra", "matrix")}
    for seed in (1, 2):
        refs = checks.load_references("det_ber", seed)
        data = workloads.make_data("det_ber", seed, None)
        objs = workloads.build(rc, "det_ber", data, None)
        assert len(refs) == len(data)
        for task, obj in zip(data, objs):
            result = workloads.RUNNERS["det_ber"](rc, task, obj)
            text = workloads.TEXTS["det_ber"](result)
            assert checks.digest(text) == refs[task["id"]], (seed, task["id"])


@pytest.mark.parametrize("family", ["super", "torus4", "torus8", "torus3"])
def test_inverse_and_ber_match_the_adjugate_oracle_at_n5(family):
    # n = 5 is where the determinant and the cofactors share prefix words
    rng = random.Random(family + "/5")
    for _ in range(3):
        f = _inverse_case(family, 5, rng)
        assert_same_bytes(rho_ber(f), adjugate_rho_ber(f))
        try:
            want = adjugate_inverse(f)
        except NotInvertible:
            with pytest.raises(NotInvertible):
                inverse(f)
            continue
        for got_row, want_row in zip(inverse(f).entries, want.entries):
            for a, b in zip(got_row, want_row):
                assert_same_bytes(a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["super-even", "super-odd", "torus4", "torus8", "torus3"]),
       st.sampled_from([None, 0, 1, 2]), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 32))
def test_rho_det_with_root_scalars_matches_the_permutation_sum(family, truncation,
                                                               n, seed):
    # entry scalars of conductor 3, 4 and 8 on any factor: the walk's
    # conductor is the lcm of the t-factor's and the entries', and every
    # coefficient ends at the permutation sum's conductor
    rng = random.Random(seed)
    f = _det_case(family, n, rng, truncation)
    ents = [[e.scale(_root_scalar(rng, (1, 3, 4, 8))) if rng.random() < 0.6 else e
             for e in row] for row in f.entries]
    f = GradedMatrix(f.ctx, f.rows, f.cols, f.degree, ents)
    assert_same_bytes(rho_det(f), permutation_rho_det(f))


def _prime_torus_case(n, rng, theta=Fraction(2, 10007)):
    """A degree-0 matrix over theta (default 2/10007) on the torus slots,
    the diagonal with a scalar and about one entry in five set to zero."""
    plain = _twisted_torus_context(theta)
    ctx = Context(plain.factor, plain.variables, name="torus10007")
    g = ctx.factor.group
    degs = tuple(g.degree(*s) for s in _TORUS_SLOTS[:n])
    ents = [[_bucket_entry(ctx, rng, degs[k] - degs[l]) if rng.random() < 0.8
             else ctx.zero() for l in range(n)] for k in range(n)]
    for k in range(n):
        ents[k][k] = ents[k][k] + ctx.scalar(random_scalar(rng))
    return GradedMatrix(ctx, degs, degs, g.zero(), ents)


def test_det_and_ber_at_a_prime_conductor_near_ten_thousand():
    # zeta(10007)^2 or zeta(10007) between mixed variables: the even tuple's
    # t-factor has conductor 20014, and the walk's roots, products and
    # descent stay linear in it (a table of Phi_N-reduced powers and a
    # phi(N)-square descent matrix per walk took about 10 GB here); over
    # theta = 1/10007 the oracles' roots such as zeta(10007)^-1 are 10006
    # power-basis terms, which their Cyclo arithmetic never expands
    cases = [_prime_torus_case(2 + seed % 3, random.Random(f"p10007/{seed}"))
             for seed in range(8)]
    cases += [_prime_torus_case(2 + seed % 2, random.Random(f"p10007/1/{seed}"),
                                Fraction(1, 10007)) for seed in range(4)]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = [(rho_det(f), rho_ber(f)) for f in cases]
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5 and peak < 20e6, (elapsed, peak)
    for f, (det, ber) in zip(cases, got):
        assert_same_bytes(det, permutation_rho_det(f))
        assert_same_bytes(ber, adjugate_rho_ber(f))
    conductors = {c.n for det, _ in got for c in det.terms.values()}
    assert {10007, 20014} <= conductors, conductors


def test_only_the_printed_form_divides_by_the_cyclotomic_polynomial(monkeypatch):
    # a Cyclo computes in the tensor basis, where no sum, product, lift,
    # inverse or descent divides by Phi_N; the power basis is only printed
    def no_division(*args):
        raise RuntimeError("divided by a cyclotomic polynomial")

    monkeypatch.setattr(cyclo, "_divmod", no_division)
    cyclo.power.cache_clear()
    rng = random.Random("no division")
    for n in (15, 21, 24, 105):
        a = Cyclo(n, [rng.randint(-3, 3) for _ in range(cyclo.totient(n))])
        b = Cyclo.root_of_unity(n, 7) + Fraction(1, 2)
        s, p = a + b, a * b
        assert p * b.inverse() == a and s - b == a
        assert a * a.inverse() == 1
        up = p.lift(2 * n)
        back = Cyclo.from_ints(2 * n, {j: x for j, x in enumerate(up.num) if x},
                               up.den, n)
        assert back.num == p.num and back.den == p.den
        f = _det_case(f"torus{n}", 3, rng)
        rho_det(f), rho_ber(f)
    f = _prime_torus_case(3, random.Random("p10007/1/1"), Fraction(1, 10007))
    rho_det(f), rho_ber(f)
    with pytest.raises(RuntimeError, match="divided"):
        Cyclo.root_of_unity(3, 2).text()
