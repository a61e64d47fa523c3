"""Sparse exact solver against the dense Gauss-Jordan it replaced, and
against sympy's rref.

The dense solver is kept here as the conductor and text oracle.  A `Cyclo`
prints in the conductor its arithmetic lifted to, so the sparse solver must
return not only the same values but the same conductors, hence the same
text.  On rational systems, sympy's reduced row echelon form gives the
values independently of the solver's code and pivot rule.
"""

import random
import sys
from fractions import Fraction

import pytest

from rhocalc import linsolve
from rhocalc.cyclo import Cyclo
from rhocalc.linsolve import solve_linear

CONDUCTORS = (1, 2, 3, 4, 8, 12)


def dense_solve_linear(rows, rhs):
    """The dense Gauss-Jordan solver, kept as the reference."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[c for c in row] + [rhs[i]] for i, row in enumerate(rows)]
    where = [-1] * n
    r = 0
    for col in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if not a[i][col].is_zero()), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][col].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and not a[i][col].is_zero():
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        where[col] = r
        r += 1
    sol = [a[where[c]][n] if where[c] >= 0 else Cyclo.zero() for c in range(n)]
    for i in range(m):
        acc = Cyclo.zero()
        for c in range(n):
            if not rows[i][c].is_zero() and not sol[c].is_zero():
                acc = acc + rows[i][c] * sol[c]
        if acc != rhs[i]:
            return None
    return sol


def sparse_solve(rows, rhs):
    """solve_linear on a dense system: each row keeps every entry but a
    zero of conductor 1, as the dense-input solver kept them."""
    n = len(rows[0]) if rows else 0
    return solve_linear([{j: x for j, x in enumerate(row)
                          if x.n != 1 or not x.is_zero()} for row in rows],
                        rhs, n)


def _entry(rng, density):
    n = rng.choice(CONDUCTORS)
    if rng.random() > density:
        # zeros come at every conductor, as lifted arithmetic leaves them
        return Cyclo(n, [0]) if rng.random() < 0.3 else Cyclo.zero()
    k = rng.randrange(n)
    coeffs = [0] * (k + 1)
    coeffs[k] = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    if rng.random() < 0.3:
        coeffs[0] += rng.randint(-2, 2)
    return Cyclo(n, coeffs)


def _system(rng, consistent):
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    density = rng.choice((0.2, 0.4, 0.7))
    rows = [[_entry(rng, density) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3 and m > 1:
        # a dependent row, so rank deficiency and free variables show up
        f = _entry(rng, 1.0)
        rows[-1] = [f * x for x in rows[0]]
    if consistent:
        x = [_entry(rng, 0.6) for _ in range(n)]
        rhs = []
        for row in rows:
            acc = Cyclo.zero()
            for a, b in zip(row, x):
                acc = acc + a * b
            rhs.append(acc)
    else:
        rhs = [_entry(rng, 0.8) for _ in range(m)]
    return rows, rhs


def _same(got, want):
    if want is None:
        return got is None
    return (got is not None and len(got) == len(want)
            and all(g.n == w.n and g.text() == w.text()
                    for g, w in zip(got, want)))


def _sparse_system(rng, consistent):
    """Up to 40 x 40 with at most 3 nonzeros a row, a few zeros of conductor
    above 1 the sparse rows keep, and some rows that are multiples or sums
    of earlier rows, so pivots fill, drop and swap rows far apart."""
    m, n = rng.randint(20, 40), rng.randint(20, 40)
    rows = []
    for i in range(m):
        row = [Cyclo.zero()] * n
        for j in rng.sample(range(n), rng.randint(1, 3)):
            row[j] = _entry(rng, 1.0)
        for j in rng.sample(range(n), rng.choice((0, 0, 1, 2))):
            row[j] = Cyclo(rng.choice(CONDUCTORS[1:]), [0])
        if i > 1 and rng.random() < 0.15:
            f, k, l = _entry(rng, 1.0), rng.randrange(i), rng.randrange(i)
            row = [f * x + y for x, y in zip(rows[k], rows[l])]
        rows.append(row)
    x = [_entry(rng, 0.5) for _ in range(n)]
    rhs = []
    for row in rows:
        acc = Cyclo.zero()
        for a, b in zip(row, x):
            acc = acc + a * b
        rhs.append(acc)
    if not consistent:
        # off in one row: inconsistent unless that row is free to move
        i = rng.randrange(m)
        rhs[i] = rhs[i] + _entry(rng, 1.0)
    return rows, rhs


@pytest.mark.parametrize("consistent", [True, False])
def test_sparse_matches_dense_on_larger_sparse_systems(consistent):
    rng = random.Random(f"linsolve-sparse/{consistent}")
    outcomes = set()
    lifted = kept = 0
    for _ in range(30):
        rows, rhs = _sparse_system(rng, consistent)
        kept += sum(1 for row in rows for x in row if x.n > 1 and x.is_zero())
        want = dense_solve_linear(rows, rhs)
        got = sparse_solve(rows, rhs)
        assert _same(got, want), (rows, rhs, got, want)
        outcomes.add(want is None)
        lifted += sum(1 for w in want or () if w.n > 1)
    assert outcomes == ({False} if consistent else {True, False})
    assert kept > 1000 and lifted > 100


@pytest.mark.parametrize("consistent", [True, False])
def test_sparse_matches_dense_text_and_conductor(consistent):
    rng = random.Random(f"linsolve/{consistent}")
    outcomes = set()
    lifted = 0
    for _ in range(150):
        rows, rhs = _system(rng, consistent)
        want = dense_solve_linear(rows, rhs)
        got = sparse_solve(rows, rhs)
        assert _same(got, want), (rows, rhs, got, want)
        outcomes.add(want is None)
        lifted += sum(1 for w in want or () if w.n > 1)
    # both verdicts occur, and many entries print above conductor 1
    assert outcomes == ({False} if consistent else {True, False})
    assert lifted > 30


def test_empty_system():
    assert sparse_solve([], []) == []
    assert dense_solve_linear([], []) == []


def test_free_variables_are_zero():
    one, two = Cyclo.one(), Cyclo.rational(2)
    z4 = Cyclo.root_of_unity(4)
    # x0 + x1 = 2: x1 is free
    sol = sparse_solve([[one, one]], [two])
    assert [s.text() for s in sol] == ["2", "0"]
    # the zero column is free, the pivot column carries zeta(4)'s conductor
    rows = [[Cyclo.zero(), z4, one], [Cyclo.zero(), Cyclo.zero(), Cyclo.zero()]]
    rhs = [two, Cyclo.zero()]
    got, want = sparse_solve(rows, rhs), dense_solve_linear(rows, rhs)
    assert _same(got, want)
    assert got[0].is_zero() and got[2].is_zero()
    assert got[1] == two * z4.inverse() and got[1].n == 4


def test_inconsistent_returns_none():
    one = Cyclo.one()
    assert sparse_solve([[one], [one]], [one, Cyclo.rational(2)]) is None
    assert sparse_solve([[Cyclo.zero()]], [one]) is None


def _rational_system(rng, m, n, band, consistent):
    """A sparse rational system with entries within `band` of the diagonal.
    With more than two rows the last row is the sum of the first two, and
    its rhs follows from theirs only when the system is to be consistent."""
    rows = [[Fraction(0)] * n for _ in range(m)]
    for i in range(m):
        for j in range(max(0, i - band), min(n, i + band + 1)):
            if rng.random() < 0.7:
                rows[i][j] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    if m > 2:
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        rhs[-1] = rhs[0] + rhs[1] + (0 if consistent else 1)
    elif not consistent:
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
    return rows, rhs


def rref_solution(sympy, rows, rhs):
    """The solution with every free variable 0, read off sympy's rref of
    the augmented matrix; None if the system is inconsistent."""
    n = len(rows[0])
    aug = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                         for x in [*row, b]] for row, b in zip(rows, rhs)])
    red, pivots = aug.rref()
    if n in pivots:
        return None
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = Fraction(int(red[i, n].p), int(red[i, n].q))
    return sol


@pytest.mark.parametrize("consistent", [True, False])
def test_solve_matches_sympy_rref(consistent):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"linsolve-rref/{consistent}")
    shapes = [(rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 3))
              for _ in range(60)] + [(120, 120, 2), (130, 110, 3)]
    outcomes = set()
    for m, n, band in shapes:
        rows, rhs = _rational_system(rng, m, n, band, consistent)
        want = rref_solution(sympy, rows, rhs)
        got = solve_linear([{j: Cyclo.rational(x) for j, x in enumerate(row) if x}
                            for row in rows],
                           [Cyclo.rational(b) for b in rhs], n)
        assert (got is None) == (want is None), (m, n, band)
        if want is not None:
            assert [g.as_fraction() for g in got] == want, (m, n, band)
        outcomes.add(want is None)
    assert outcomes == ({False} if consistent else {True, False})


def test_bidiagonal_solve_does_sparse_work(monkeypatch):
    # x_0 = b_0 and a_i x_i + c_i x_(i-1) = b_i, with 2n - 1 nonzeros
    n = 500
    rng = random.Random("linsolve-bidiagonal")
    diag = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
    sub = [Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)) for _ in range(n)]
    b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    rows = [{j: Cyclo.rational(v) for j, v in ((i - 1, sub[i]), (i, diag[i]))
             if j >= 0} for i in range(n)]
    rhs = [Cyclo.rational(v) for v in b]
    calls = []
    is_zero = Cyclo.is_zero

    def counted(self):
        calls.append(1)
        return is_zero(self)

    monkeypatch.setattr(Cyclo, "is_zero", counted)
    sol = solve_linear(rows, rhs, n)
    monkeypatch.undo()
    want, prev = [], Fraction(0)
    for i in range(n):
        prev = (b[i] - (sub[i] * prev if i else 0)) / diag[i]
        want.append(prev)
    assert [x.as_fraction() for x in sol] == want
    nnz = sum(map(len, rows))
    assert len(calls) < 20 * nnz


def _solver_lines(rows, rhs, n):
    """solve_linear's solution and the number of lines of linsolve.py it
    ran: a count of its steps, scans and dict reads included, that does not
    depend on the host's speed."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != linsolve.__file__:
            return None
        count += event == "line"
        return trace

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        sol = solve_linear(rows, rhs, n)
    finally:
        sys.settrace(old)
    return sol, count


def _line_form_system(n):
    """The exactness system of Q(z) = dz + z^2 dz over z^1 .. z^n: column
    k - 1 is Q(z^k) = k z^(k-1) dz + k z^(k+1) dz, two rows per column, and
    the rhs is Q of a seeded h."""
    rng = random.Random(f"linsolve-line-form/{n}")
    rows = [{} for _ in range(n + 2)]
    for k in range(1, n + 1):
        rows[k - 1][k - 1] = rows[k + 1][k - 1] = Cyclo.rational(k)
    h = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
    rhs = [sum((x.as_fraction() * h[j] for j, x in row.items()), Fraction(0))
           for row in rows]
    return rows, [Cyclo.rational(b) for b in rhs], h


def test_line_form_solve_work_grows_linearly():
    # a solver that scans every row for each pivot column runs about
    # 4 times the lines at twice the columns
    work = []
    for n in (200, 400):
        rows, rhs, h = _line_form_system(n)
        sol, lines = _solver_lines(rows, rhs, n)
        assert [x.as_fraction() for x in sol] == h
        work.append(lines)
    assert work[1] < 3 * work[0], work
