"""Output checks that do not trust rhocalc's own arithmetic.

Every execution's canonical output is hashed and compared with the digest
recorded at the parent commit (`references.json`) for that seed, or, for a
seed without references, with the digest of the task's first execution.
The first execution of each task also gets an independent check here, run
outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from workloads import _frac, _frac_det

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def load_references(workload: str, seed: int) -> dict | None:
    with open(REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    return refs.get(workload, {}).get(str(seed))


# -- Laurent polynomials in the commuting base variables, as {exps: Fraction} ---------------

def _lmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _ladd(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def laurent_det(grid, nbase: int) -> dict:
    """Classical determinant of commuting Laurent polynomials (Laplace
    expansion along the first row, minors memoized by column set)."""
    n = len(grid)
    memo: dict = {}

    def det(row: int, cols: tuple) -> dict:
        if row == n:
            return {(0,) * nbase: Fraction(1)}
        hit = memo.get(cols)
        if hit is not None:
            return hit
        acc: dict = {}
        for i, col in enumerate(cols):
            entry = grid[row][col]
            if entry:
                minor = det(row + 1, cols[:i] + cols[i + 1:])
                acc = _ladd(acc, _lmul(entry, minor), -1 if i % 2 else 1)
        memo[cols] = acc
        return acc

    return det(0, tuple(range(n)))


# the base (commuting, degree-0) variables of each det_ber family; every
# other variable is formal, so a term without them is filtration-free
_BASE_SLOTS = {"super": (0, 1), "torus4": (), "torus8": ()}


def _free_part_data(task) -> list[list[dict]]:
    base = _BASE_SLOTS[task["family"]]
    grid = []
    for row in task["entries"]:
        out_row = []
        for terms in row:
            e: dict = {}
            for mono, c in terms:
                if all(x == 0 for i, x in enumerate(mono) if i not in base):
                    key = tuple(mono[i] for i in base)
                    e[key] = e.get(key, 0) + _frac(c)
            out_row.append({m: c for m, c in e.items() if c})
        grid.append(out_row)
    return grid


def _free_part_result(task, poly) -> dict | None:
    """Filtration-free part of a result as {base exps: Fraction}, or None
    if a filtration-free coefficient is not rational."""
    base = _BASE_SLOTS[task["family"]]
    out = {}
    for mono, c in poly.terms.items():
        if all(x == 0 for i, x in enumerate(mono) if i not in base):
            if not c.is_rational():
                return None
            out[tuple(mono[i] for i in base)] = c.as_fraction()
    return out


def check_det_ber(rc, task, matrix, result, root) -> str | None:
    """None when the result passes, else a one-line reason."""
    grid = _free_part_data(task)
    if task["op"] == "rho_det":
        want = laurent_det(grid, len(_BASE_SLOTS[task["family"]]))
        got = _free_part_result(task, result)
        if got != want:
            return "free part of rho_det differs from the classical determinant"
        return None
    consts = [[e.get((0,) * len(_BASE_SLOTS[task["family"]]), Fraction(0))
               for e in row] for row in grid]
    if task["op"] == "rho_ber":
        p = sum(1 for d in task["degs"] if d == [0])
        a = [r[:p] for r in consts[:p]]
        d = [r[p:] for r in consts[p:]]
        want = {(0, 0): _frac_det(a) / _frac_det(d)}
        if _free_part_result(task, result) != want:
            return "free part of rho_ber differs from det(A0)/det(D0)"
        return None
    ident = rc["matrix"].GradedMatrix.identity(matrix.ctx, matrix.rows)
    if matrix @ result != ident:
        return "F @ inverse(F) is not the identity"
    inv0 = _frac_inverse(consts)
    got = [[_free_part_result(task, e).get((0, 0), Fraction(0))
            for e in row] for row in result.entries]
    if got != inv0:
        return "free part of inverse(F) differs from the inverse of F0"
    return None


def _frac_inverse(rows):
    n = len(rows)
    a = [list(r) + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _golden(root: str) -> dict:
    path = os.path.join(root, "tests", "golden", "scenarios.json")
    with open(path, encoding="utf-8") as fh:
        return {s["scenario"]: s for s in json.load(fh)["scenarios"]}


def check_modular_class(rc, task, obj, result, root) -> str | None:
    op = task["op"]
    if op == "scenario":
        if result != _golden(root)[task["scenario"]]:
            return "scenario payload differs from tests/golden/scenarios.json"
        return None
    if op == "ce":
        q, _ = obj
        if not result.closed:
            return "modular class representative is not closed"
        c, cert = result.representative, result.certificate
    else:
        c, q = obj
        cert = result.certificate
    if result.verdict == "exact":
        if q.apply(cert) != c:
            return "Q(certificate) != c for an exact verdict"
    # coboundaries d(h) and Q(z^k) are exact by construction; z^-1 dz is
    # closed and not exact, and so is every cochain with it added
    if op == "dr_exact" or (op == "blowup" and task["k"] is not None):
        if result.verdict != "exact":
            return f"coboundary reported {result.verdict}"
    if op == "dr_closed" and result.verdict == "exact":
        return "the class of z^-1 dz reported exact"
    return None


def check_dsl_session(rc, task, path, result, root) -> str | None:
    code, out = result
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    bad = [r["command"] for r in doc["reports"] if not r["ok"]]
    if bad:
        return f"statement failed: {bad[0]}"
    want = task.get("statements")
    if want is not None and len(doc["reports"]) != want:
        return f"{len(doc['reports'])} reports for {want} statements"
    return None


CHECKS = {"det_ber": check_det_ber, "modular_class": check_modular_class,
          "dsl_session": check_dsl_session}
