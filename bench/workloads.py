"""Seeded task data for the three benchmark workloads, and how to run it.

Task data is plain JSON-ready Python (lists, ints, strings) made from the
seed alone, without importing rhocalc.  `build` turns it into rhocalc
objects (that work counts toward set-up time), `RUNNERS` execute one task
and `TEXTS` give a result's canonical output text.

Each workload is a fixed *cycle* of distinct tasks: the seed picks the
entries, coefficients and monomials, never the task mix, so every seed
gives a cycle of the same shape and about the same cost.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction

WORKLOADS = ("det_ber", "modular_class", "dsl_session")


def _coef(rng: random.Random) -> list[int]:
    """A nonzero rational p/q as [p, q], |p| <= 4, q <= 3."""
    num = rng.randint(1, 4) * rng.choice((-1, 1))
    return [num, rng.randint(1, 3)]


def _frac(c) -> Fraction:
    return Fraction(c[0], c[1])


# -- det_ber: graded det / Ber / inverse ------------------------------------------------

# super chart x, z (base, z invertible), xi, eta (odd); monomials are
# exponent lists in that order
_SUPER_FREE = [[1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0]]
_SUPER_EVEN_FORMAL = [[0, 0, 1, 1], [1, 0, 1, 1], [0, 1, 1, 1]]
_SUPER_ODD = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0], [1, 0, 0, 1],
              [0, 1, 1, 0], [0, -1, 0, 1]]

# twisted torus u1, u2, v1, v2 of degrees e1, e2, -e1, -e2, all formal even
_TORUS_SLOTS = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0), (1, 0)]
_TORUS_POOL: dict[tuple[int, int], list[list[int]]] = {}
for _m in itertools.product(range(2), repeat=4):
    if any(_m):
        _TORUS_POOL.setdefault((_m[0] - _m[2], _m[1] - _m[3]), []).append(list(_m))

TORUS_PHASES = {"torus4": [1, 4], "torus8": [1, 8]}


def _terms(rng, pool, k):
    return [[m, _coef(rng)] for m in rng.sample(pool, min(k, len(pool)))]


def _frac_det(rows) -> Fraction:
    """Classical determinant over Q by elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _super_even_entry(rng):
    """A nonzero constant plus one formal even term."""
    return [[[0, 0, 0, 0], _coef(rng)]] + _terms(rng, _SUPER_EVEN_FORMAL, 1)


def _unit_free(rng, n, make):
    """Entries whose constant free parts form an invertible matrix."""
    while True:
        ents = [[make(k, l) for l in range(n)] for k in range(n)]
        free = [[sum((_frac(c) for m, c in e if not any(m)), Fraction(0))
                  for e in row] for row in ents]
        if _frac_det(free) != 0:
            return ents


def _det_task(rng, family, parity, n, idx):
    if family == "super":
        degs = [[0 if parity == "even" else 1]] * n
        pool = _SUPER_FREE + _SUPER_EVEN_FORMAL
        ents = [[_terms(rng, pool, 1) + ([[[0, 0, 0, 0], _coef(rng)]]
                                         if k == l else [])
                 for l in range(n)] for k in range(n)]
        tag = f"super-{parity}"
    else:
        slots = _TORUS_SLOTS[:n]
        degs = [list(s) for s in slots]
        ents = []
        for k in range(n):
            row = []
            for l in range(n):
                want = (slots[k][0] - slots[l][0], slots[k][1] - slots[l][1])
                e = _terms(rng, _TORUS_POOL[want], 1)
                if want == (0, 0):
                    e.append([[0, 0, 0, 0], _coef(rng)])
                row.append(e)
            ents.append(row)
        tag = family
    return {"id": f"det/{tag}/n{n}/{idx}", "op": "rho_det", "family": family,
            "degs": degs, "entries": ents}


def _ber_task(rng, p, q, idx):
    degs = [[0]] * p + [[1]] * q

    def make(k, l):
        if (k < p) == (l < p):
            return _super_even_entry(rng)
        return _terms(rng, _SUPER_ODD, 2)

    return {"id": f"ber/{p}|{q}/{idx}", "op": "rho_ber", "family": "super",
            "degs": degs, "entries": _unit_free(rng, p + q, make)}


def _inverse_task(rng, n, idx):
    def make(k, l):
        return _super_even_entry(rng)

    return {"id": f"inverse/n{n}/{idx}", "op": "inverse", "family": "super",
            "degs": [[0]] * n, "entries": _unit_free(rng, n, make)}


# Tasks per kind and matrix size.  n = 7 is left out (about a minute per
# determinant at the seed commit).  The counts place the cycle's median
# among the conductor-8 4x4 determinants and its tail (the 11th slowest
# task) among the conductor-8 5x5 ones, two groups of equal-cost tasks.
DET_SIZES = {("super", "even"): {3: 3, 4: 2, 5: 2, 6: 1},
             ("super", "odd"): {3: 3, 4: 2, 5: 2, 6: 1},
             ("torus4", "even"): {3: 3, 4: 4, 5: 4, 6: 1},
             ("torus8", "even"): {3: 3, 4: 7, 5: 10, 6: 1}}
BER_SHAPES = {(2, 2): 4, (3, 3): 4}
INVERSE_SIZES = {3: 4, 5: 2}


def det_ber_data(seed: int) -> list[dict]:
    rng = random.Random(f"det_ber/{seed}")
    tasks = []
    for (family, parity), sizes in DET_SIZES.items():
        for n, count in sizes.items():
            for i in range(count):
                tasks.append(_det_task(rng, family, parity, n, i))
    for (p, q), count in BER_SHAPES.items():
        for i in range(count):
            tasks.append(_ber_task(rng, p, q, i))
    for n, count in INVERSE_SIZES.items():
        for i in range(count):
            tasks.append(_inverse_task(rng, n, i))
    rng.shuffle(tasks)
    return tasks


def _det_contexts(rc):
    alg, gr = rc["algebra"], rc["grading"]
    sf = gr.super_factor()
    g = sf.group
    ctxs = {"super": alg.Context(sf, [
        alg.Var("x", g.zero(), "base"),
        alg.Var("z", g.zero(), "base", invertible=True),
        alg.Var("xi", g.degree(1), "odd"),
        alg.Var("eta", g.degree(1), "odd")], None, name="super")}
    for fam, (p, q) in TORUS_PHASES.items():
        ph = Fraction(p, q)
        tf = gr.torus_factor([[0, ph], [-ph, 0]])
        tg = tf.group
        ctxs[fam] = alg.Context(tf, [
            alg.Var("u1", tg.generator(0), "even"),
            alg.Var("u2", tg.generator(1), "even"),
            alg.Var("v1", -tg.generator(0), "even"),
            alg.Var("v2", -tg.generator(1), "even")], None, name=fam)
    return ctxs


def _poly(rc, ctx, terms):
    Cyclo = rc["cyclo"].Cyclo
    out = ctx.zero()
    for mono, c in terms:
        out = out + rc["algebra"].GradedPoly(
            ctx, {tuple(mono): Cyclo.rational(_frac(c))})
    return out


def build_det_ber(rc, data):
    ctxs = _det_contexts(rc)
    built = []
    for t in data:
        ctx = ctxs[t["family"]]
        g = ctx.factor.group
        degs = tuple(g.degree(*d) for d in t["degs"])
        ents = [[_poly(rc, ctx, e) for e in row] for row in t["entries"]]
        built.append(rc["matrix"].GradedMatrix(ctx, degs, degs, g.zero(), ents))
    return built


def _run_det_ber(rc, task, m):
    mat = rc["matrix"]
    if task["op"] == "rho_det":
        return mat.rho_det(m)
    if task["op"] == "rho_ber":
        return mat.rho_ber(m)
    return mat.inverse(m)


def det_ber_text(result) -> str:
    if hasattr(result, "entries"):
        return json.dumps(result.text())
    return result.text()


# -- modular_class: exactness solver and modular classes -------------------------------

# small super base charts for the de Rham problems: coords are
# (name, parity, invertible)
_DR_BASES = {
    "A": [("x", 0, False), ("xi", 1, False)],
    "B": [("x", 0, False), ("z", 0, True), ("xi", 1, False)],
    "C": [("x", 0, False), ("xi", 1, False), ("eta", 1, False)],
    "D": [("x", 0, False), ("z", 0, True), ("xi", 1, False), ("eta", 1, False)],
}

# Lie algebras over the trivial factor: name -> (dimension, brackets); the
# brackets [e_a, e_b] = value * e_c take seeded scales s and satisfy Jacobi
# for any s
_LIE = {
    "aff": (2, lambda s: [(0, 1, 1, s[0])]),
    "solv3": (3, lambda s: [(0, 1, 1, s[0]), (0, 2, 2, s[1])]),
    "heis": (3, lambda s: [(0, 1, 2, s[0])]),
    "sl2": (3, lambda s: [(0, 1, 1, 2 * s[0]), (0, 2, 2, -2 * s[0]),
                          (1, 2, 0, 1 / s[0])]),
}

# the line-form differential Q(z) = dz + z^2 dz of the closure blow-up test
BLOWUP_POWERS = (-3, -1, 1, 3)
SCENARIOS = ("torus", "derham", "cstar", "shifted_cotangent")

# de Rham problems: h is the sum of *every* monomial of one shape (base
# chart, form degree, super parity, largest exponent) with seeded
# coefficients, so a shape costs about the same under every seed.
# (shape, count); the three size classes keep the median and the tail of
# the cycle inside groups of equal-cost tasks.
DR_EXACT = [(("A", 1, 0, 2), 2), (("C", 0, 0, 2), 2),
            (("C", 1, 0, 2), 5), (("C", 1, 1, 2), 4),
            (("D", 0, 0, 2), 10)]
DR_CLOSED = [(("B", 0, 0, 2), 3)]


def _dr_monomials(shape):
    """Exponent lists on the de Rham chart (base coords, then their d's)
    of one shape: form degree, super parity and largest exponent."""
    base, form, parity, max_exp = shape
    coords = _DR_BASES[base]
    ranges = []
    for _, par, inv in coords:
        ranges.append(range(-1 if inv else 0, max_exp + 1) if par == 0
                      else range(0, 2))
    for _, par, _ in coords:            # dx of an even coordinate is odd
        ranges.append(range(0, 2) if par == 0 else range(0, max_exp + 1))
    nb = len(coords)
    odd = [i for i, (_, par, _) in enumerate(coords) if par]
    return [list(m) for m in itertools.product(*ranges)
            if any(m) and sum(m[nb:]) == form
            and sum(m[i] + m[nb + i] for i in odd) % 2 == parity]


def modular_class_data(seed: int) -> list[dict]:
    rng = random.Random(f"modular_class/{seed}")
    tasks = []
    for shape, count in DR_EXACT:
        for i in range(count):
            tasks.append({"id": "dr-exact/{}{}{}{}/{}".format(*shape, i),
                          "op": "dr_exact", "base": shape[0],
                          "h": [[m, _coef(rng)] for m in _dr_monomials(shape)]})
    for shape, count in DR_CLOSED:
        for i in range(count):
            tasks.append({"id": "dr-closed/{}{}{}{}/{}".format(*shape, i),
                          "op": "dr_closed", "base": shape[0],
                          "log": _coef(rng),
                          "h": [[m, _coef(rng)] for m in _dr_monomials(shape)]})
    for name in sorted(_LIE):
        tasks.append({"id": f"ce/{name}", "op": "ce", "lie": name,
                      "scales": [_coef(rng) for _ in range(3)]})
    for name in SCENARIOS:
        tasks.append({"id": f"scenario/{name}", "op": "scenario",
                      "scenario": name})
    for k in BLOWUP_POWERS:
        tasks.append({"id": f"blowup/Qz^{k}", "op": "blowup", "k": k,
                      "scale": _coef(rng)})
    tasks.append({"id": "blowup/z^-2dz", "op": "blowup", "k": None,
                  "scale": _coef(rng)})
    rng.shuffle(tasks)
    return tasks


def _dr_charts(rc):
    geo, gr = rc["geometry"], rc["grading"]
    sf = gr.super_factor()
    g = sf.group
    out = {}
    for name, coords in _DR_BASES.items():
        base = geo.make_chart(name, sf, [(c, g.degree(p), inv)
                                         for c, p, inv in coords])
        out[name] = geo.de_rham(base)
    return out


def _ce_problem(rc, task):
    der, gr, geo, vol = (rc["derivation"], rc["grading"], rc["geometry"],
                         rc["volume"])
    Cyclo = rc["cyclo"].Cyclo
    dim, brackets = _LIE[task["lie"]]
    fac = gr.trivial_factor(gr.GroupSpec(0))
    zero = fac.group.zero()
    consts = {}
    for a, b, c, v in brackets([_frac(x) for x in task["scales"]]):
        consts[(a, b, c)] = Cyclo.rational(v)
        consts[(b, a, c)] = Cyclo.rational(-v)
    lie = der.LieStructure(fac, (zero,) * dim, zero, consts)
    ctx, q = der.ce_differential(lie)
    chart = geo.Chart("CE-" + task["lie"], ctx)
    return q, vol.VolumeForm.on_chart(chart, ctx.one())


def _blowup_problem(rc, task, line):
    ctx = line.chart.ctx
    g = ctx.factor.group
    Cyclo = rc["cyclo"].Cyclo
    comp = ctx.gen("dz") + ctx.monomial(1, {"z": 2, "dz": 1})
    q = rc["derivation"].Derivation(ctx, g.degree(1), {ctx.index("z"): comp}, "Q")
    if task["k"] is None:
        c = ctx.monomial(1, {"z": -2, "dz": 1})
    else:
        c = q.apply(ctx.monomial(1, {"z": task["k"]}))
    return c.scale(Cyclo.rational(_frac(task["scale"]))), q


def build_modular_class(rc, data):
    geo, gr = rc["geometry"], rc["grading"]
    charts = _dr_charts(rc)
    fac = gr.trivial_factor(gr.GroupSpec(0))
    line = geo.de_rham(geo.make_chart("L", fac, [("z", fac.group.zero(), True)]))
    Cyclo = rc["cyclo"].Cyclo
    built = []
    for t in data:
        op = t["op"]
        if op in ("dr_exact", "dr_closed"):
            dr = charts[t["base"]]
            ctx = dr.chart.ctx
            c = dr.differential.apply(_poly(rc, ctx, t["h"]))
            if op == "dr_closed":
                c = c + ctx.monomial(Cyclo.rational(_frac(t["log"])),
                                     {"z": -1, "dz": 1})
            built.append((c, dr.differential))
        elif op == "ce":
            built.append(_ce_problem(rc, t))
        elif op == "blowup":
            built.append(_blowup_problem(rc, t, line))
        else:
            built.append(None)
    return built


def _run_modular_class(rc, task, obj):
    op = task["op"]
    if op in ("dr_exact", "dr_closed", "blowup"):
        c, q = obj
        return rc["volume"].exactness_solve(c, q)
    if op == "ce":
        q, vol = obj
        return rc["volume"].modular_class(q, vol)
    return getattr(rc["scenarios"], f"{task['scenario']}_scenario")()[0]


def modular_class_text(result) -> str:
    if isinstance(result, dict):
        return json.dumps(result, sort_keys=True)
    return json.dumps(result.payload(), sort_keys=True)


# -- dsl_session: whole sessions through the CLI ------------------------------------------

def _rat(q: Fraction) -> str:
    """A rational as session text; a negative one is parenthesized."""
    return f"({q})" if q < 0 else str(q)


def _pos(rng) -> str:
    c = _coef(rng)
    return f"{abs(c[0])}/{c[1]}"


def _mono_text(names, exps) -> str:
    out = []
    for nm, e in zip(names, exps):
        if e == 1:
            out.append(nm)
        elif e:
            out.append(f"{nm}^{e}")
    return " * ".join(out)


def _term(rng, names, exps, zeta=None) -> str:
    body = _mono_text(names, exps)
    coef = _pos(rng)
    if zeta:
        coef = f"{coef} * zeta({zeta})"
    return f"{coef} * {body}" if body else coef


def _sum(rng, names, monos, zeta=None) -> str:
    """A sum of the given monomials with seeded coefficients; the first
    term carries zeta(zeta) when given."""
    out = ""
    for i, m in enumerate(monos):
        t = _term(rng, names, m, zeta if i == 0 else None)
        out += t if i == 0 else (" - " if i % 2 else " + ") + t
    return out


def _pick(pool, k, i):
    """k consecutive entries of pool starting at i (cyclically)."""
    return [pool[(i + j) % len(pool)] for j in range(k)]


# Session statements use fixed monomials and seeded coefficients, so every
# seed gives sessions of the same shape and about the same cost.
_SUPER_EVEN = [[1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 1],
               [1, 0, 1, 1], [2, 0, 0, 0], [0, 2, 1, 1]]
_SUPER_ODDS = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1],
               [2, 0, 0, 1], [0, -1, 1, 0]]
_TORUS_MONOS = [[1, 0, 0, 1], [0, 1, 1, 0], [2, 1, 0, 0], [0, 0, 1, 2],
                [1, 1, 1, 1], [2, 0, 0, 1], [0, 2, 1, 0], [1, 2, 0, 0]]


def _super_session(rng) -> list[str]:
    n = ["x", "z", "xi", "eta"]
    ev = lambda k, i: _sum(rng, n, _pick(_SUPER_EVEN, k, i), 8)
    od = lambda k, i: _sum(rng, n, _pick(_SUPER_ODDS, k, i), 8)
    s = ["group Z/2;", "factor super;",
         "chart U { base x; base z invertible; formal xi deg (1); formal eta deg (1); }",
         "chart V { base y; base w invertible; formal vxi deg (1); formal veta deg (1); }"]
    s += [f"normalize {ev(3, i)} * ({od(2, i)}) on U;" for i in range(3)]
    s += [f"normalize ({od(2, i)}) * ({od(2, i + 3)}) on U;" for i in range(2)]
    s += [f"commutator {od(2, 0)}, {od(2, 2)} on U;",
          f"commutator {ev(2, 1)}, {od(2, 4)} on U;"]
    s += [f"derivation Q on U deg (1) {{ xi -> {_pos(rng)} * x; }}",
          f"derivation E on U deg (0) = {_pos(rng)} * x * d/dx + {_pos(rng)} * xi * d/dxi;",
          "qcheck Q;", "qcheck d on derham(U);", "commutator Q E;", "cartan Q E on U;"]
    for size in (2, 3):
        rows = "(" + ",".join(["(0)"] * size) + ")"
        grid = ",".join("[" + ",".join(
            f"{_pos(rng)} + {_term(rng, n, _SUPER_EVEN[3 + (k + l) % 2])}"
            if k == l else _term(rng, n, _SUPER_EVEN[3 + (k + l) % 2])
            for l in range(size)) + "]" for k in range(size))
        s += [f"matrix M{size} on U deg (0) rows {rows} cols {rows} = [{grid}];",
              f"det M{size};", f"trace M{size};"]
    b = [_pos(rng) for _ in range(4)]
    s += ["matrix S on U deg (0) rows ((0),(0),(1),(1)) cols ((0),(0),(1),(1)) =",
          f"  [[{b[0]}, 0, xi, 0],[0, {b[1]}, 0, eta],[eta, 0, {b[2]}, 0],[0, xi, 0, {b[3]}]];",
          "ber S;", "trace S;"]
    c = _pos(rng)
    s += [f"transition T : U -> V {{ y = x + {c} * xi * eta; w = z; vxi = xi; veta = eta; }}",
          f"transition R : V -> U {{ x = y - {c} * vxi * veta; z = w; xi = vxi; eta = veta; }}",
          "jacobian T;", "bundle TB = tangent(U, V);", "cocycle TB;"]
    s += ["cotangent CU of U deg (1);",
          f"schouten on CU : {_pos(rng)} * x_st * x, {_pos(rng)} * x^2;",
          "derham PT of U;", "volume w1 on PT = 1;", "divergence d_PT w1;",
          "modular d_PT w1;", "volume v1 on U = 1;",
          f"volume v2 on U = {_pos(rng)} * z;", "equivalent v1 v2;"]
    return s


def _torus_session(rng, den: int) -> list[str]:
    n = ["u1", "u2", "v1", "v2"]
    poly = lambda k, i: _sum(rng, n, _pick(_TORUS_MONOS, k, i), 2 * den)
    s = [f"factor torus [[0,1/{den}],[-1/{den},0]];", "trunc 6;",
         "chart T { formal u1 deg (1,0); formal u2 deg (0,1); formal v1 deg (-1,0); formal v2 deg (0,-1); }",
         "chart S { formal a1 deg (1,0); formal a2 deg (0,1); formal b1 deg (-1,0); formal b2 deg (0,-1); }"]
    s += [f"normalize ({poly(2, 2 * i)}) * ({poly(2, 2 * i + 1)}) on T;"
          for i in range(4)]
    s += [f"commutator {_term(rng, n, _TORUS_MONOS[i])}, "
          f"{_term(rng, n, _TORUS_MONOS[i + 3])} on T;" for i in range(3)]
    s += [f"derivation X on T deg (1,0) {{ u2 -> {_pos(rng)} * u1 * u2; }}",
          f"derivation Y on T deg (0,1) {{ u1 -> {_pos(rng)} * u1 * u2; v1 -> {_pos(rng)} * v1 * u2; }}",
          "commutator X Y;", "cartan X Y on T;", "qcheck d on derham(T);"]
    slots = [(0, 0), (1, 0), (0, 1)]
    for size in (2, 3):
        sl = slots[:size]
        rows = "(" + ",".join(f"({a},{b})" for a, b in sl) + ")"
        ents = []
        for k in range(size):
            row = []
            for l in range(size):
                want = (sl[k][0] - sl[l][0], sl[k][1] - sl[l][1])
                t = _term(rng, n, _TORUS_POOL[want][0])
                row.append(f"{_pos(rng)} + {t}" if want == (0, 0) else t)
            ents.append("[" + ", ".join(row) + "]")
        s += [f"matrix M{size} on T deg (0,0) rows {rows} cols {rows} = [{', '.join(ents)}];",
              f"det M{size};", f"ber M{size};", f"trace M{size};"]
    p, q = _frac(_coef(rng)), _frac(_coef(rng))
    s += [f"transition F : T -> S {{ a1 = {_rat(p)} * u1; a2 = {_rat(q)} * u2; b1 = v1; b2 = v2; }}",
          f"transition G : S -> T {{ u1 = {_rat(1 / p)} * a1; u2 = {_rat(1 / q)} * a2; v1 = b1; v2 = b2; }}",
          "jacobian F;", "bundle TB = tangent(T, S);", "cocycle TB;"]
    s += ["cotangent CT of T deg (1,0);",
          f"schouten on CT : {_pos(rng)} * u1_st * u2, {_pos(rng)} * u1 * u2;",
          "derham PT of T;", "volume w1 on PT = 1;", "divergence d_PT w1;",
          "modular d_PT w1;", "volume v1 on T = 1;",
          f"volume v2 on T = 1 + {_pos(rng)} * u1 * v1;", "equivalent v1 v2;"]
    return s


# sessions per factor; with the demo the cycle's median falls among the
# quarter-phase sessions and its tail among the 1/8-phase ones
SESSIONS = {"super": 20, "torus4": 21, "torus8": 21}
DEMO_PATH = os.path.join("sessions", "demo.rc")


def dsl_session_data(seed: int, root: str) -> list[dict]:
    rng = random.Random(f"dsl_session/{seed}")
    tasks = []
    for fam, count in SESSIONS.items():
        for i in range(count):
            lines = (_super_session(rng) if fam == "super"
                     else _torus_session(rng, 4 if fam == "torus4" else 8))
            tasks.append({"id": f"session/{fam}/{i}",
                          "text": "\n".join(lines) + "\n",
                          "statements": sum(1 for l in lines
                                            if not l.endswith("="))})
    with open(os.path.join(root, DEMO_PATH), encoding="utf-8") as fh:
        tasks.append({"id": "session/demo", "text": fh.read()})
    rng.shuffle(tasks)
    return tasks


def build_dsl_session(rc, data, workdir):
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for i, t in enumerate(data):
        path = os.path.join(workdir, f"s{i:03d}.rc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(t["text"])
        paths.append(path)
    return paths


def _run_dsl_session(rc, task, path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = rc["cli"].main(["run", path, "--json"])
    return code, buf.getvalue()


def dsl_session_text(result) -> str:
    return f"exit {result[0]}\n{result[1]}"


# -- dispatch -------------------------------------------------------------------------------

def make_data(workload: str, seed: int, root: str) -> list[dict]:
    if workload == "det_ber":
        return det_ber_data(seed)
    if workload == "modular_class":
        return modular_class_data(seed)
    return dsl_session_data(seed, root)


def build(rc, workload, data, workdir):
    if workload == "det_ber":
        return build_det_ber(rc, data)
    if workload == "modular_class":
        return build_modular_class(rc, data)
    return build_dsl_session(rc, data, workdir)


RUNNERS = {"det_ber": _run_det_ber, "modular_class": _run_modular_class,
           "dsl_session": _run_dsl_session}
TEXTS = {"det_ber": det_ber_text, "modular_class": modular_class_text,
         "dsl_session": dsl_session_text}


_TINY = {
    "det_ber": ("det/super-even/n3/0", "det/super-odd/n3/0", "det/torus4/n3/0",
                "det/torus8/n3/0", "ber/2|2/0", "inverse/n3/0"),
    "modular_class": ("dr-exact/A102/0", "dr-exact/C002/0",
                      "dr-closed/B002/0", "ce/aff", "scenario/derham"),
    "dsl_session": ("session/super/0", "session/torus4/0", "session/torus8/0",
                    "session/demo"),
}


def tiny(workload: str, data: list[dict]) -> list[dict]:
    """A few cheap tasks of each kind, for the benchmark's self-tests."""
    return [t for t in data if t["id"] in _TINY[workload]]
