"""Graded matrices over a polynomial context: invariants and actions.

A matrix carries row/column degree tuples and a global degree; entry (k, l)
must be homogeneous of degree rows[k] - cols[l] + degree.  The graded
determinant is computed by the permutation expansion against implicit
alternating variables; the graded Berezinian by the Schur complement.
"""

from __future__ import annotations

from .algebra import Context, GradedPoly, adjoin_eps, lift_poly
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

    def __init__(self, ctx: Context, rows, cols, degree: Degree, entries,
                 *, check: bool = True):
        self.ctx = ctx
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        self.degree = degree
        ents = tuple(tuple(row) for row in entries)
        if len(ents) != len(self.rows) or any(len(r) != len(self.cols) for r in ents):
            raise ShapeMismatch("entry grid does not match the degree tuples")
        if check:
            for k, i in enumerate(self.rows):
                for l, j in enumerate(self.cols):
                    want = i - j + degree
                    if not ents[k][l].has_degree(want):
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
        return GradedMatrix(self.ctx, self.rows, self.cols, self.degree, ents,
                            check=False)

    def __sub__(self, other: "GradedMatrix") -> "GradedMatrix":
        return self + (-other)

    def __matmul__(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch("inner degree tuples differ")
        ents = [[self.ctx.sum(a * other.entries[j][l] for j, a in enumerate(row))
                 for l in range(other.ncols)] for row in self.entries]
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
                            [self.cols[l] for l in col_idx], self.degree, ents,
                            check=False)

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
                           prod2.map_entries(lambda e: e.scale(-w)), check=False)
    return (f @ g) + twisted


def rho_tr(f: GradedMatrix) -> GradedPoly:
    """Weighted trace sum rho(i_k + |F|, i_k) f_kk."""
    if f.nrows != f.ncols:
        raise ShapeMismatch("trace of a non-square matrix")
    return f.ctx.sum(f.entries[k][k].scale(f.ctx.factor.rho(i + f.degree, i))
                     for k, i in enumerate(f.rows))


def _expand(start: GradedPoly, rows, cols, extend) -> GradedPoly:
    """Sum of the words of every bijection rows -> cols.

    extend(word, r, c, used) appends column c for row r; used holds the
    earlier rows' columns, and those greater than c are the inversions c
    closes.  The walk is depth first in lexicographic order: each prefix
    word is computed once and zero prefixes are pruned.  The leaf words go
    to `Context.sum` in walk order, the left fold of the plain permutation
    sum, so the result ends at that sum's conductors.
    """
    def walk(word: GradedPoly, k: int, used: tuple):
        if k == len(rows):
            yield word
            return
        for col in cols:
            if col not in used:
                nxt = extend(word, rows[k], col, used)
                if not nxt.is_zero():
                    yield from walk(nxt, k + 1, used + (col,))

    return start.ctx.sum(walk(start, 0, ()))


def rho_det(f: GradedMatrix) -> GradedPoly:
    """Graded determinant of a degree-0 matrix with all-even or all-odd tuple.

    The coefficient of t_1...t_n in sum_sigma f_{1,s(1)} t_{s(1)} ...
    f_{n,s(n)} t_{s(n)}, for alternating t's of degree (1, i_k) in the Z x G
    factor (even tuple) or i_k in G (odd tuple), so that the row-vanishing
    and product rules hold; the trivial factor gives the classical one.

    The t's stay implicit, as integer phases at the t-factor's conductor N':
    `_expand` walks the permutations in f's context, and each term pair of
    word * f_kl costs one `mono_mul` (a product-table read after its first
    time in the context) and one product with the cached f_kl term *
    zeta_N'^p * zeta_N'^q (p: the base phase plus the term past the used
    t's; q: t_l past the later used t's), two roots that keep every
    conductor.  The O(n 2^n) row product regroups the sums and would move
    printed conductors.  The 0x0 matrix walks one empty word, 1.
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
    tfac = fac.extend_prime() if even else fac
    big_n = tfac.conductor
    scale, half = big_n // ctx.conductor, (big_n // 2 if even else 0)
    # phases at N' of t_a past t_l, past each variable and past each entry term
    tt = [[half + scale * fac.phase_k(d, e) for e in f.rows] for d in f.rows]
    tv = [[scale * fac.phase_k(d, v.degree) for v in ctx.variables] for d in f.rows]
    terms = [[[(m, c, [sum(e * x for e, x in zip(m, row)) for row in tv])
               for m, c in entry.terms.items()] for entry in ents] for ents in f.entries]
    memo: dict = {}
    pairs: dict = {}    # unlike zeta_N'^(p+q), keeps both roots' conductors

    def extend(word, k, l, used):
        q = sum(tt[a][l] for a in used if a > l) % big_n
        row = [(j, m2, c2, sum(ph[a] for a in used))
               for j, (m2, c2, ph) in enumerate(terms[k][l])]
        out: dict = {}
        for m1, c1 in word.terms.items():
            for j, m2, c2, tp in row:
                r = ctx.mono_mul(m1, m2)
                if r is None:
                    continue
                p = (r[0] * scale + tp) % big_n
                s = memo.get((k, l, j, p, q))
                if s is None:
                    if (p, q) not in pairs:
                        pairs[p, q] = tfac.root(p) * tfac.root(q)
                    s = memo[k, l, j, p, q] = c2 * pairs[p, q] if p or q else c2
                c = c1 * s
                s = out.get(r[1])
                out[r[1]] = c if s is None else s + c
        # drop zeros only now, as GradedPoly.__mul__ does
        return GradedPoly._clean(ctx, {m: c for m, c in out.items() if not c.is_zero()})

    return _expand(ctx.one(), range(f.nrows), range(f.nrows), extend)


def _laurent_det(ctx: Context, grid, rows, cols) -> GradedPoly:
    # determinant of the rows x cols minor of a grid of mutually commuting
    # entries; the sign is a rational negation, so it moves no conductor
    def extend(word, r, c, used):
        nxt = word * grid[r][c]
        return -nxt if sum(u > c for u in used) & 1 else nxt
    return _expand(ctx.one(), rows, cols, extend)


def inverse(f: GradedMatrix) -> GradedMatrix:
    """Inverse of a degree-0 square matrix.

    Split off the filtration-free part (a matrix over the commuting Laurent
    coefficients), invert it by the classical adjugate, and complete by a
    geometric series in the filtration ideal.  The adjugate's determinant and
    cofactors come from rho_det's permutation walk (`_expand`), each cofactor
    walked over the minor's row and column indices of the one Laurent grid.
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
    det0_inv = _laurent_det(ctx, free, range(n), range(n)).invert()
    adj = []
    for k in range(n):
        row = []
        for l in range(n):
            minor_rows = [r for r in range(n) if r != l]
            minor_cols = [c for c in range(n) if c != k]
            cof = _laurent_det(ctx, free, minor_rows, minor_cols).scale((-1) ** (k + l))
            row.append(cof * det0_inv)
        adj.append(row)
    f0inv = GradedMatrix(ctx, f.rows, f.rows, f.degree, adj)
    rest = GradedMatrix(ctx, f.rows, f.rows, f.degree,
                        f.map_entries(lambda e: e.i_positive_part()), check=False)
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
        # f00 is invertible iff the determinant of its filtration-free part
        # is a Laurent unit, the test inverse() makes
        free00 = f00.map_entries(lambda e: e.i_free_part())
        _laurent_det(ctx, free00, ev, ev).invert()
    except NotInvertible:
        return ctx.zero()
    schur = f00 - f01 @ f11_inv @ f10 if od else f00
    return rho_det(schur) * rho_det(f11).invert()


def _adjoin_eps(f: GradedMatrix):
    """(aux, eps F) over the dual-number extension of f's context."""
    aux, eps = adjoin_eps(f.ctx, -f.degree)
    lifted = GradedMatrix(aux, f.rows, f.cols, f.degree,
                          [[lift_poly(e, aux) for e in row] for row in f.entries],
                          check=False)
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

    def with_row(m: GradedMatrix, entries_row) -> GradedMatrix:
        ents = [list(r) for r in m.entries]
        ents[0] = list(entries_row)
        return GradedMatrix(m.ctx, m.rows, m.cols, m.degree, ents, check=False)

    if f.nrows == 0:    # no row to vary: the row rules hold vacuously
        report.update(row_additive=True, row_scaling=True)
    else:
        mixed = with_row(f, g.entries[0])
        added = with_row(f, [a + b for a, b in zip(f.entries[0], g.entries[0])])
        report["row_additive"] = (rho_det(added) == det_f + rho_det(mixed))
        if isinstance(scale_by, GradedPoly):
            scaled = with_row(f, [scale_by * e for e in f.entries[0]])
            report["row_scaling"] = (rho_det(scaled) == scale_by * det_f)
        else:
            scaled = with_row(f, [e.scale(scale_by) for e in f.entries[0]])
            report["row_scaling"] = (rho_det(scaled) == det_f.scale(scale_by))
    report["repeated_row_zero"] = (f.nrows < 2
                                   or rho_det(with_row(f, f.entries[1])).is_zero())
    report["ok"] = all(report[k] for k in
                       ("multiplicative", "row_additive", "row_scaling",
                        "repeated_row_zero"))
    if not report["ok"]:
        report["counterexample"] = {"F": f.text(), "G": g.text()}
    return report
