"""Sparse exact solver against the dense Gauss-Jordan it replaced.

The dense solver is kept here as the oracle.  A `Cyclo` prints in the
conductor its arithmetic lifted to, so the sparse solver must return not
only the same values but the same conductors, hence the same text.
"""

import random
from fractions import Fraction

import pytest

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


@pytest.mark.parametrize("consistent", [True, False])
def test_sparse_matches_dense_text_and_conductor(consistent):
    rng = random.Random(f"linsolve/{consistent}")
    outcomes = set()
    lifted = 0
    for _ in range(150):
        rows, rhs = _system(rng, consistent)
        want = dense_solve_linear(rows, rhs)
        got = solve_linear(rows, rhs)
        assert _same(got, want), (rows, rhs, got, want)
        outcomes.add(want is None)
        lifted += sum(1 for w in want or () if w.n > 1)
    # both verdicts occur, and many entries print above conductor 1
    assert outcomes == ({False} if consistent else {True, False})
    assert lifted > 30


def test_empty_system():
    assert solve_linear([], []) == []
    assert dense_solve_linear([], []) == []


def test_free_variables_are_zero():
    one, two = Cyclo.one(), Cyclo.rational(2)
    z4 = Cyclo.root_of_unity(4)
    # x0 + x1 = 2: x1 is free
    sol = solve_linear([[one, one]], [two])
    assert [s.text() for s in sol] == ["2", "0"]
    # the zero column is free, the pivot column carries zeta(4)'s conductor
    rows = [[Cyclo.zero(), z4, one], [Cyclo.zero(), Cyclo.zero(), Cyclo.zero()]]
    rhs = [two, Cyclo.zero()]
    got, want = solve_linear(rows, rhs), dense_solve_linear(rows, rhs)
    assert _same(got, want)
    assert got[0].is_zero() and got[2].is_zero()
    assert got[1] == two * z4.inverse() and got[1].n == 4


def test_inconsistent_returns_none():
    one = Cyclo.one()
    assert solve_linear([[one], [one]], [one, Cyclo.rational(2)]) is None
    assert solve_linear([[Cyclo.zero()]], [one]) is None
