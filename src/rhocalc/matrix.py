"""Graded matrices over a polynomial context: invariants and actions.

A matrix carries row/column degree tuples and a global degree; entry (k, l)
must be homogeneous of degree rows[k] - cols[l] + degree.  The graded
determinant is computed by the permutation expansion against implicit
alternating variables; the graded Berezinian by the Schur complement.
"""

from __future__ import annotations

import math
import operator

from .algebra import Context, GradedPoly, adjoin_eps, lift_poly
from .cyclo import Cyclo, _slot_maps, _times_slot, root
from .errors import (GradingViolation, MixedParity, NonzeroDegree,
                     NotInvertible, NotSplitTuple, ShapeMismatch,
                     TruncationRequired)
from .grading import EVEN, ODD, Degree


def classify_tuple(factor, degrees) -> str:
    """'even', 'odd', 'mixed', or 'split' (evens followed by odds)."""
    parities = [factor.parity(d) for d in degrees]
    if all(p == EVEN for p in parities):
        return "even"
    if all(p == ODD for p in parities):
        return "odd"
    k = parities.index(ODD)
    if all(p == ODD for p in parities[k:]):
        return "split"
    return "mixed"


def split_point(factor, degrees) -> int:
    """Number of leading even slots in a split tuple."""
    kind = classify_tuple(factor, degrees)
    if kind == "even":
        return len(degrees)
    if kind not in ("odd", "split"):
        raise NotSplitTuple("degree tuple must be evens followed by odds")
    return [factor.parity(d) for d in degrees].index(ODD)


class GradedMatrix:
    """Rectangular matrix of homogeneous entries with graded bookkeeping."""

    def __init__(self, ctx: Context, rows, cols, degree: Degree, entries):
        self.ctx = ctx
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.degree = degree
        ents = tuple(tuple(row) for row in entries)
        if len(ents) != len(self.rows) or any(len(r) != len(self.cols) for r in ents):
            raise ShapeMismatch("entry grid does not match the degree tuples")
        mono_degree = ctx.mono_degree     # cached per monomial
        for k, row in enumerate(ents):
            top = self.rows[k] + degree
            for l, e in enumerate(row):
                if e.terms:
                    want = top - self.cols[l]
                    if any(mono_degree(m) != want for m in e.terms):
                        raise GradingViolation(
                            f"entry ({k},{l}) must be homogeneous of degree {want.text()}")
        self.entries = ents

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def identity(ctx: Context, degrees) -> "GradedMatrix":
        degrees = tuple(degrees)
        n = len(degrees)
        one, zero = ctx.one(), ctx.zero()
        ents = [[one if k == l else zero for l in range(n)] for k in range(n)]
        return GradedMatrix(ctx, degrees, degrees, ctx.factor.group.zero(), ents)

    @staticmethod
    def zeros(ctx: Context, rows, cols, degree: Degree) -> "GradedMatrix":
        z = ctx.zero()
        ents = [[z for _ in cols] for _ in rows]
        return GradedMatrix(ctx, rows, cols, degree, ents)

    def entry(self, k: int, l: int) -> GradedPoly:
        return self.entries[k][l]

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.cols)

    # -- linear structure -----------------------------------------------------------

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        if (self.rows, self.cols, self.degree) != (other.rows, other.cols, other.degree):
            raise ShapeMismatch("sum of incompatible graded matrices")
        ents = [[a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)]
        return GradedMatrix(self.ctx, self.rows, self.cols, self.degree, ents)

    def __neg__(self) -> "GradedMatrix":
        ents = [[-a for a in row] for row in self.entries]
        return GradedMatrix(self.ctx, self.rows, self.cols, self.degree, ents)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self + (-other)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch("inner degree tuples differ")
        ctx = self.ctx
        cols = [[r[l] for r in other.entries] for l in range(other.ncols)]
        # a pair with a zero factor adds nothing; it is still multiplied
        # (and so raises ContextMismatch) when a factor is from another context
        ents = [[ctx.sum(a * b for a, b in zip(row, col)
                         if a.terms and b.terms or a.ctx is not ctx or b.ctx is not ctx)
                 for col in cols] for row in self.entries]
        return GradedMatrix(self.ctx, self.rows, other.cols,
                            self.degree + other.degree, ents)

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.degree == other.degree and self.entries == other.entries)

    __hash__ = None

    def map_entries(self, fn) -> list[list[GradedPoly]]:
        return [[fn(e) for e in row] for row in self.entries]

    def submatrix(self, row_idx, col_idx) -> "GradedMatrix":
        ents = [[self.entries[k][l] for l in col_idx] for k in row_idx]
        return GradedMatrix(self.ctx, [self.rows[k] for k in row_idx],
                            [self.cols[l] for l in col_idx], self.degree, ents)

    def text(self) -> list[list[str]]:
        return [[e.text() for e in row] for row in self.entries]


def left_act(g: GradedPoly, f: GradedMatrix) -> GradedMatrix:
    """(g F)_{kl} = rho(i_k, |g|) g f_{kl}."""
    dg = g.degree_of()
    ents = []
    for k, i in enumerate(f.rows):
        w = f.ctx.factor.rho(i, dg)
        ents.append([(g * e).scale(w) for e in f.entries[k]])
    return GradedMatrix(f.ctx, f.rows, f.cols, f.degree + dg, ents)


def right_act(f: GradedMatrix, g: GradedPoly) -> GradedMatrix:
    """(F g)_{kl} = rho(j_l, |g|) f_{kl} g."""
    dg = g.degree_of()
    weights = [f.ctx.factor.rho(j, dg) for j in f.cols]
    ents = [[(e * g).scale(weights[l]) for l, e in enumerate(row)]
            for row in f.entries]
    return GradedMatrix(f.ctx, f.rows, f.cols, f.degree + dg, ents)


def transpose(f: GradedMatrix) -> GradedMatrix:
    """Twisted transpose, landing in rows -cols, cols -rows."""
    ents = []
    for l, j in enumerate(f.cols):
        row = []
        for k, i in enumerate(f.rows):
            w = f.ctx.factor.rho(i, j - i)
            row.append(f.entries[k][l].scale(w))
        ents.append(row)
    return GradedMatrix(f.ctx, tuple(-j for j in f.cols),
                        tuple(-i for i in f.rows), f.degree, ents)


def matrix_commutator(f: GradedMatrix, g: GradedMatrix) -> GradedMatrix:
    """F G - rho(|F|, |G|) G F in the square matrix algebra."""
    w = f.ctx.factor.rho(f.degree, g.degree)
    prod2 = g @ f
    twisted = GradedMatrix(prod2.ctx, prod2.rows, prod2.cols, prod2.degree,
                           prod2.map_entries(lambda e: e.scale(-w)))
    return (f @ g) + twisted


def rho_tr(f: GradedMatrix) -> GradedPoly:
    """Weighted trace sum rho(i_k + |F|, i_k) f_kk."""
    if f.nrows != f.ncols:
        raise ShapeMismatch("trace of a non-square matrix")
    return f.ctx.sum(f.entries[k][k].scale(f.ctx.factor.rho(i + f.degree, i))
                     for k, i in enumerate(f.rows))


def _fold(acc: dict, word: dict) -> None:
    """acc += word as `Context.sum` adds: tags meet by lcm, and a coefficient
    that cancels is deleted, so it restarts at the next word's tag."""
    for m, (t, v) in word.items():
        s = acc.get(m)
        if s is None:
            acc[m] = (t, dict(v))
            continue
        w = s[1]
        for i, x in v.items():
            w[i] = w.get(i, 0) + x
        if any(w.values()):
            acc[m] = (math.lcm(s[0], t), w)
        else:
            del acc[m]


class _Walk:
    """The permutation walk of a determinant, on integer vectors at one
    conductor N.

    A word maps monomials to (tag, num).  num maps the tensor slots of
    Q(zeta_N), the slots a `Cyclo` stores (see `cyclo.root`), to numerators
    over the product of the walked rows' denominators (each row is scaled
    by the lcm of its coefficients' denominators); a root of unity has at
    most p - 1 terms per prime power p^k of N there, so a step costs what
    its nonzero numerators cost, whatever N is.  tag is the conductor that
    `Cyclo` arithmetic would have stored: the lcm of the factors' tags,
    where an entry coefficient's tag is its conductor and a root zeta_M^p
    has tag M / gcd(p, M).  N is lcm(big_n, entry conductors): the tags do
    not read N, so a larger one moves no byte.  A coefficient becomes a
    `Cyclo` only when the walk ends, stored at its tag by `Cyclo.from_ints`
    (the inverse of `lift`); a `Cyclo`'s text depends only on its value and
    its stored conductor, so the output is that of the `Cyclo` walk.

    With t-phases (big_n, tt, tv; see `rho_det`), each term pair of
    word * f_kl is scaled by zeta_big_n^p * zeta_big_n^q, two roots that
    keep both tags.  Without them (a grid of mutually commuting entries) the
    scale is the reordering root at the context's conductor times the
    rational sign of the inversions, which moves no tag.

    The phases a step reads are sums over the used columns as a set, so
    each (row, column, used set) is set up once per walk (`_setup`), and a
    step runs its zero filter only after two term pairs met on one
    monomial: a product of nonzero elements of a field is nonzero.
    """

    def __init__(self, ctx: Context, grid, big_n: int | None = None,
                 tt=None, tv=None):
        self.ctx, self.tt = ctx, tt
        self.big_n = big_n = ctx.conductor if big_n is None else big_n
        self.scale = big_n // ctx.conductor
        self.n = n = math.lcm(big_n, *[c.n for row in grid for e in row
                                       for c in e.terms.values()])
        self.dens = [math.lcm(*[c.den for e in row for c in e.terms.values()])
                     for row in grid]
        # per entry term: (monomial, t-phases, tag, c's (slot, numerator)
        # pairs moved to n by `lift`'s slot map, times den / c.den, memo)
        self.terms = [[[(m, [sum(map(operator.mul, m, t)) for t in tv] if tv else None,
                         c.n, [(_slot_maps(c.n, n)[0][j], x * (den // c.den))
                               for j, x in enumerate(c.num) if x], {})
                        for m, c in e.terms.items()] for e in row]
                      for row, den in zip(grid, self.dens)]

    def _scaled(self, term, key):
        """(tag, u, columns) of an entry term times its phases, key = p +
        big_n q: u holds the (slot, numerator) pairs of the scaled term, and
        columns, filled by `step` on first use, maps a slot i to those of
        u times tensor slot i."""
        bn, n = self.big_n, self.n
        q, p = divmod(key, bn)
        e = p * n // bn
        tag = math.lcm(term[2], bn // math.gcd(p, bn))
        sign = 1
        if self.tt is None:
            sign = -1 if q else 1
        else:
            tag = math.lcm(tag, bn // math.gcd(q, bn))
            e += q * n // bn
        u: dict = {}
        for j, x in term[3]:
            for slot, y in root(n, e, j):
                u[slot] = u.get(slot, 0) + sign * x * y
        u = [(slot, x) for slot, x in u.items() if x]
        return tag, u, {0: u}

    def _setup(self, k: int, l: int, mask: int):
        """(qn, row) for f_kl after the used columns of mask (bit a for
        column a): qn is big_n times the phase of t_l past the later used
        t's (without t-phases, the parity of their count), and row holds
        each entry term as (monomial, its t-phases past the used t's,
        term).  Both are sums over the used set, whatever its order."""
        tt, bn = self.tt, self.big_n
        used = [a for a in range(mask.bit_length()) if mask >> a & 1]
        if tt is None:
            qn = bn * (sum([a > l for a in used]) & 1)
        else:
            qn = bn * (sum([tt[a][l] for a in used if a > l]) % bn)
        row = [(term[0], sum(map(term[1].__getitem__, used)) if term[1] else 0, term)
               for term in self.terms[k][l]]
        return qn, row

    def step(self, word: dict, k: int, l: int, mask: int, setups: dict) -> dict:
        """word * f_kl with column l after the used columns of mask: one
        `mono_mul`, one read of the scaled term and a multiply-add per term
        pair, after the set-up `setups` keeps per (row, column, used set).
        Cancelled coefficients are dropped, as `GradedPoly.__mul__` drops
        them, only when two term pairs met on one monomial: any other
        coefficient is a product of a nonzero word coefficient, a nonzero
        entry coefficient and roots of unity in the field Q(zeta_N), which
        has no zero divisors."""
        place = k, l, mask
        setup = setups.get(place)
        if setup is None:
            setup = setups[place] = self._setup(k, l, mask)
        qn, row = setup
        bn, scale = self.big_n, self.scale
        mono_mul, lcm = self.ctx.mono_mul, math.lcm
        out: dict = {}
        merged = False
        for m1, (t1, a) in word.items():
            for m2, tp, term in row:
                r = mono_mul(m1, m2)
                if r is None:
                    continue
                key = (r[0] * scale + tp) % bn + qn
                s = term[4].get(key)
                if s is None:
                    s = term[4][key] = self._scaled(term, key)
                ts, u, cols = s
                acc = out.get(r[1])
                if acc is None:
                    acc = out[r[1]] = [lcm(t1, ts), {}]
                else:
                    acc[0] = lcm(acc[0], t1, ts)
                    merged = True
                v = acc[1]
                for i, ai in a.items():
                    try:
                        col = cols[i]
                    except KeyError:
                        col = cols[i] = _times_slot(self.n, u, i)
                    for slot, y in col:
                        v[slot] = v.get(slot, 0) + ai * y
        if merged:
            return {m: acc for m, acc in out.items() if any(acc[1].values())}
        return out

    def expand(self, cofactors: bool = False) -> dict:
        """{None: the determinant of the grid}, and with cofactors also
        {(k, l): the minor without column k and row l} for every such pair,
        all from one depth-first walk.

        The walk is in lexicographic column order: each prefix word, keyed
        by its rows and its used columns (a bitmask), is computed once and
        zero prefix words are pruned.  At each level the cofactors that skip
        this row branch off first, then the columns are walked; a cofactor's
        prefix words before its skipped row are the determinant's, and the
        sign reads the actual column indices, so a shared prefix is the same
        word.  Each step's set-up is computed once per (row, column, used
        set), however many prefix words reach it: a dense 6x6 determinant
        makes 6 * 2^5 = 192 set-ups for its 1,956 steps.  While it runs the
        walk holds one word per level; when expand returns, its words,
        set-ups and scaled-term memos are freed by reference count, with no
        cycle left for the garbage collector.  Each minor folds its leaf
        words in its own walk order, the left fold of its plain permutation
        sum.  The 0x0 minor walks one empty word, 1.
        """
        span = range(len(self.dens))
        folds: dict = {}
        setups: dict = {}

        def walk(word, j, used, skipped):
            if j == len(span):
                key = None if skipped is None else (
                    next(c for c in span if not used >> c & 1), skipped)
                _fold(folds.setdefault(key, {}), word)
                return
            if cofactors and skipped is None:
                walk(word, j + 1, used, j)
            for col in span:
                if not used >> col & 1:
                    nxt = self.step(word, j, col, used, setups)
                    if nxt:
                        walk(nxt, j + 1, used | 1 << col, skipped)

        try:
            walk({self.ctx.zero_mono(): (1, {0: 1})}, 0, 0, None)
        finally:
            walk = None     # walk's cell refers to walk: break the cycle
        den = math.prod(self.dens)
        out = {None: self._poly(folds.get(None, {}), den)}
        if cofactors:
            out.update({(k, l): self._poly(folds.get((k, l), {}), den // self.dens[l])
                        for k in span for l in span})
        return out

    def _poly(self, acc: dict, den: int) -> GradedPoly:
        return GradedPoly._clean(self.ctx, {m: Cyclo.from_ints(self.n, w, den, t)
                                            for m, (t, w) in acc.items()})


def rho_det(f: GradedMatrix) -> GradedPoly:
    """Graded determinant of a degree-0 matrix with all-even or all-odd tuple.

    The coefficient of t_1...t_n in sum_sigma f_{1,s(1)} t_{s(1)} ...
    f_{n,s(n)} t_{s(n)}, for alternating t's of degree (1, i_k) in the Z x G
    factor (even tuple) or i_k in G (odd tuple), so that the row-vanishing
    and product rules hold; the trivial factor gives the classical one.

    The t's stay implicit, as integer phases at the t-factor's conductor N':
    `_Walk` walks the permutations in f's context on integer vectors, and
    each term pair of word * f_kl costs one `mono_mul` (a product-table read
    after its first time in the context) and a multiply-add with the cached
    f_kl term times zeta_N'^p * zeta_N'^q (p: the base phase plus the term
    past the used t's; q: t_l past the later used t's), two roots whose
    tags both count.  The O(n 2^n) row product regroups the sums and would
    move printed conductors.
    """
    ctx = f.ctx
    if f.rows != f.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    if not f.degree.is_zero():
        raise NonzeroDegree("graded determinant needs a degree-0 matrix")
    kind = classify_tuple(ctx.factor, f.rows)
    if kind not in ("even", "odd"):
        raise MixedParity("degree tuple must be all even or all odd")
    fac, even = ctx.factor, kind == "even"
    big_n = (fac.extend_prime() if even else fac).conductor
    scale, half = big_n // ctx.conductor, (big_n // 2 if even else 0)
    # phases at N' of t_a past t_l and past each variable
    tt = [[half + scale * fac.phase_k(d, e) for e in f.rows] for d in f.rows]
    tv = [[scale * fac.phase_k(d, v.degree) for v in ctx.variables] for d in f.rows]
    return _Walk(ctx, f.entries, big_n, tt, tv).expand()[None]


def inverse(f: GradedMatrix) -> GradedMatrix:
    """Inverse of a degree-0 square matrix.

    Split off the filtration-free part (a matrix over the commuting Laurent
    coefficients), invert it by the classical adjugate, and complete by a
    geometric series in the filtration ideal.  The adjugate's determinant and
    its n^2 cofactors come from one walk of the Laurent grid
    (`_Walk.expand`) that computes each prefix word (row prefix, used
    columns) once: 1,030 steps for a 5x5 instead of 1,925 for 26 walks.
    Raises NotInvertible when the Laurent part is singular and
    TruncationRequired when the series does not terminate and no truncation
    order is set.

    Without a truncation order the series may run to the context's series
    bound with slack n: its powers die when every entry term carries a
    capped variable (the total cap bounds the power), or when the n x n
    series matrix is structurally nilpotent (e.g. triangular), which its
    n-th power already witnesses.
    """
    ctx = f.ctx
    if f.rows != f.cols:
        raise ShapeMismatch("inverse of a non-square matrix")
    if not f.degree.is_zero():
        raise NonzeroDegree("only degree-0 matrices are inverted")
    n = f.nrows
    if n == 0:
        return f
    free = f.map_entries(lambda e: e.i_free_part())
    cofs = _Walk(ctx, free).expand(cofactors=True)
    det0_inv = cofs[None].invert()
    adj = [[cofs[k, l].scale((-1) ** (k + l)) * det0_inv for l in range(n)]
           for k in range(n)]
    f0inv = GradedMatrix(ctx, f.rows, f.rows, f.degree, adj)
    rest = GradedMatrix(ctx, f.rows, f.rows, f.degree,
                        f.map_entries(lambda e: e.i_positive_part()))
    step = -(f0inv @ rest)   # sum_k step^k is the series of (1 + f0inv rest)^-1
    bound = ctx.series_bound(slack=n)
    geo, power = GradedMatrix.identity(ctx, f.rows), step
    for _ in range(bound):
        if _is_zero_matrix(power):
            break
        geo, power = geo + power, power @ step
    if not _is_zero_matrix(power):
        # entrywise nilpotency evidence and the structural slack are both
        # exhausted: the geometric series genuinely does not stop
        raise TruncationRequired(
            "matrix series does not terminate; set a truncation order")
    return geo @ f0inv


def _is_zero_matrix(f: GradedMatrix) -> bool:
    return all(e.is_zero() for row in f.entries for e in row)


def rho_ber(f: GradedMatrix) -> GradedPoly:
    """Graded Berezinian of a degree-0 matrix over a split degree tuple.

    Schur-complement value when both diagonal blocks are invertible, the
    literal zero polynomial otherwise.
    """
    ctx = f.ctx
    if f.rows != f.cols:
        raise ShapeMismatch("Berezinian of a non-square matrix")
    if not f.degree.is_zero():
        raise NonzeroDegree("graded Berezinian needs a degree-0 matrix")
    ne = split_point(ctx.factor, f.rows)
    n = f.nrows
    ev = list(range(ne))
    od = list(range(ne, n))
    f00 = f.submatrix(ev, ev)
    f01 = f.submatrix(ev, od)
    f10 = f.submatrix(od, ev)
    f11 = f.submatrix(od, od)
    try:
        f11_inv = inverse(f11)
        schur = f00 - f01 @ f11_inv @ f10 if od else f00
        det00 = rho_det(schur)
        # f00 is invertible iff its Laurent determinant is a unit (inverse()'s
        # test); each term of the odd f01 and f10 carries a formal variable,
        # so that determinant is the Laurent part of det00
        det00.i_free_part().invert()
    except NotInvertible:
        return ctx.zero()
    return det00 * rho_det(f11).invert()


def _adjoin_eps(f: GradedMatrix):
    """(aux, eps F) over the dual-number extension of f's context."""
    aux, eps = adjoin_eps(f.ctx, -f.degree)
    lifted = GradedMatrix(aux, f.rows, f.cols, f.degree,
                          [[lift_poly(e, aux) for e in row] for row in f.entries])
    return aux, left_act(eps, lifted)


def linearize_det(f: GradedMatrix):
    """(det(1 + eps F), 1 + trace(eps F)) over the dual-number extension."""
    aux, ef = _adjoin_eps(f)
    one = GradedMatrix.identity(aux, f.rows)
    lhs = rho_det(one + ef)
    return lhs, aux.sum([aux.one(), *(ef.entries[k][k] for k in range(f.nrows))])


def linearize_ber(f: GradedMatrix):
    """(Ber(1 + eps F), 1 + weighted trace(eps F)) over the dual numbers."""
    aux, ef = _adjoin_eps(f)
    one = GradedMatrix.identity(aux, f.rows)
    lhs = rho_ber(one + ef)
    rhs = aux.one() + rho_tr(ef)
    return lhs, rhs


def rho_det_properties_check(f: GradedMatrix, g: GradedMatrix,
                             scale_by=2) -> dict:
    """Check multiplicativity, additivity/scaling in the first row and
    repeated-row vanishing on a concrete pair; returns per-property verdicts."""
    report: dict = {}
    det_f = rho_det(f)
    det_g = rho_det(g)
    prod = rho_det(f @ g)
    report["multiplicative"] = (prod == det_f * det_g)

    def with_row(m: GradedMatrix, k: int, entries_row) -> GradedMatrix:
        ents = [list(r) for r in m.entries]
        ents[k] = list(entries_row)
        return GradedMatrix(m.ctx, m.rows, m.cols, m.degree, ents)

    if f.nrows == 0:    # no row to vary: the row rules hold vacuously
        report.update(row_additive=True, row_scaling=True)
    else:
        mixed = with_row(f, 0, g.entries[0])
        added = with_row(f, 0, [a + b for a, b in zip(f.entries[0], g.entries[0])])
        report["row_additive"] = (rho_det(added) == det_f + rho_det(mixed))
        scaled = with_row(f, 0, [e.scale(scale_by) for e in f.entries[0]])
        report["row_scaling"] = (rho_det(scaled) == det_f.scale(scale_by))
    # a row is copied only onto a row of its degree, so the copy stays
    # well graded; without two such rows the rule holds vacuously
    pair = next(((a, b) for b in range(f.nrows) for a in range(b)
                 if f.rows[a] == f.rows[b]), None)
    report["repeated_row_zero"] = (
        pair is None or rho_det(with_row(f, pair[0], f.entries[pair[1]])).is_zero())
    report["ok"] = all(report[k] for k in
                       ("multiplicative", "row_additive", "row_scaling",
                        "repeated_row_zero"))
    if not report["ok"]:
        report["counterexample"] = {"F": f.text(), "G": g.text()}
    return report
