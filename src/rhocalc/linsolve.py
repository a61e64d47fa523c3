"""Exact linear algebra over the cyclotomic scalars, eliminating on sparse rows.

`solve_linear` takes a sparse system and runs Gauss-Jordan on it.  Each
row is a dict {column: entry} that leaves out zeros of conductor 1; inside
the solver a row also keeps one conductor: the conductor of every entry the
dict leaves out, all of which are zero.  The rhs is column n of the same
dict.

Conductor rule.  A `Cyclo` prints in the conductor its arithmetic lifted to,
so skipping an operation on a zero could change the text of a result even
though its value is right.  The sparse rows keep the conductors the dense
elimination would give: an entry's conductor is the lcm of the conductor it
is stored at and its row's conductor.  Normalising a row by its pivot p folds
p's conductor into the row's conductor; subtracting f times the pivot row
from row i folds f's conductor and the pivot row's conductor into row i's.
A zero left by cancellation stays in the dict unless the row's conductor
already covers its own.  Solution entries are lifted to that lcm on the
way out, so they print exactly as the dense solver printed them.
"""

from __future__ import annotations

import math

from .cyclo import Cyclo


def solve_linear(rows: list[dict[int, Cyclo]], rhs: list[Cyclo], n: int):
    """One exact solution of A x = b over n unknowns, or None if the system
    is inconsistent.

    Gauss-Jordan over the field with first-nonzero pivoting, in column
    order; free variables are set to zero.  The pivot rule decides which
    solution is returned, so it is part of the output contract.
    """
    m = len(rows)
    zero = Cyclo.zero()
    a = [{**row, n: b} if b.n != 1 or not b.is_zero() else dict(row)
         for row, b in zip(rows, rhs)]
    cond = [1] * m
    where = [-1] * n
    r = 0
    for col in range(n):
        if r == m:
            break
        pivot = next((i for i in range(r, m)
                      if col in a[i] and not a[i][col].is_zero()), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        cond[r], cond[pivot] = cond[pivot], cond[r]
        prow = a[r]
        p = prow.pop(col)
        inv = p.inverse()
        for j, y in prow.items():
            prow[j] = y * inv
        cond[r] = math.lcm(cond[r], p.n)
        for i in range(m):
            f = a[i].get(col)
            if i == r or f is None or f.is_zero():
                continue
            row = a[i]
            del row[col]
            c = math.lcm(cond[i], f.n, cond[r])
            g = -f
            for j, y in prow.items():
                x = row.get(j)
                v = g * y if x is None else x + g * y
                if v.is_zero() and c % v.n == 0:
                    row.pop(j, None)
                else:
                    row[j] = v
            cond[i] = c
        where[col] = r
        r += 1
    sol = []
    for i in where:
        if i < 0:
            sol.append(zero)
            continue
        v = a[i].get(n, zero)
        sol.append(v.lift(math.lcm(v.n, cond[i])))
    for row, b in zip(rows, rhs):
        acc = zero
        for j, x in row.items():
            if not x.is_zero() and not sol[j].is_zero():
                acc = acc + x * sol[j]
        if acc != b:
            return None
    return sol
