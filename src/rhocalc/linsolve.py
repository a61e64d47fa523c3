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

Column index.  A scan of every row per pivot column costs O(m n) dict reads
however sparse the system is, so the solver keeps, for each column, the
set of rows whose dict holds an entry there, updated when an elimination
fills or drops an entry.  Rows stay in place and a position permutation
stands for the dense solver's swaps.  The pivot is the holder of the least
position >= r whose entry is nonzero, which is the row the positional scan
found, and only holders are eliminated; every other row would have been
skipped.  So each `Cyclo` operation, and with it the conductor rule, is the
one the scan made, and the output is byte for byte the same.
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
    holders = [set() for _ in range(n + 1)]     # column -> ids of rows holding it
    for i, row in enumerate(a):
        for j in row:
            holders[j].add(i)
    pos = list(range(m))        # row id -> position
    at = list(range(m))         # position -> row id
    where = [-1] * n
    r = 0
    for col in range(n):
        if r == m:
            break
        pivot = next((at[k] for k in sorted(pos[i] for i in holders[col])
                      if k >= r and not a[at[k]][col].is_zero()), None)
        if pivot is None:
            continue
        k, top = pos[pivot], at[r]
        at[r], at[k], pos[pivot], pos[top] = pivot, top, r, k
        prow = a[pivot]
        p = prow.pop(col)
        inv = p.inverse()
        for j, y in prow.items():
            prow[j] = y * inv
        cond[pivot] = math.lcm(cond[pivot], p.n)
        for i in holders[col]:
            row = a[i]
            f = row.get(col)        # None on the pivot row, whose entry is popped
            if f is None or f.is_zero():
                continue
            del row[col]
            c = math.lcm(cond[i], f.n, cond[pivot])
            g = -f
            for j, y in prow.items():
                x = row.get(j)
                v = g * y if x is None else x + g * y
                if v.is_zero() and c % v.n == 0:
                    if x is not None:
                        del row[j]
                        holders[j].discard(i)
                else:
                    if x is None:
                        holders[j].add(i)
                    row[j] = v
            cond[i] = c
        where[col] = pivot
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
