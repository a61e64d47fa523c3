"""Chart-level graded geometry.

Charts are named polynomial contexts whose coordinates are the variables;
transitions are degree-preserving substitutions between charts.  Bundles are
finite atlases with fiber degree tuples and transition matrices in left-
coefficient form (linear fiber coordinates transform by xi_b = g * xi_a with
coefficients on the left); the tangent transitions are the Jacobians
reordered into that form, so the engine's exact reordering supplies every
twist factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (BASE, Context, GradedPoly, Var, lift_poly, prime_context,
                      substitute)
from .derivation import Derivation, commutator, gradients, is_homological
from .errors import (ContextMismatch, GradingViolation, NotHomological,
                     NotInvertible, OverlapMismatch, ShapeMismatch)
from .grading import ODD, CommutationFactor, Degree
from .matrix import GradedMatrix, rho_ber


@dataclass(frozen=True)
class Chart:
    """A named coordinate patch: its context's variables are the coordinates."""

    name: str
    ctx: Context

    @property
    def degree_tuple(self) -> tuple[Degree, ...]:
        return tuple(v.degree for v in self.ctx.variables)


def make_chart(name: str, factor: CommutationFactor, coords,
               truncation: int | None = None) -> Chart:
    """coords: iterable of (name, degree, invertible); kind is inferred."""
    vs = []
    for cname, degree, *rest in coords:
        invertible = bool(rest[0]) if rest else False
        if degree.is_zero():
            vs.append(Var(cname, degree, BASE, invertible=invertible))
        else:
            vs.append(Var(cname, degree, factor.parity(degree)))
    return Chart(name, Context(factor, vs, truncation, name=name))


@dataclass
class TransitionMap:
    """Coordinates of the target chart expressed in the source chart."""

    source: Chart
    target: Chart
    images: dict[int, GradedPoly]
    # set by the first jacobian(self); nothing changes the images after
    _jacobian: GradedMatrix | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if self.source.ctx.factor != self.target.ctx.factor:
            raise ContextMismatch("charts over different commutation factors")
        tv = self.target.ctx.variables
        if set(self.images) != set(range(len(tv))):
            raise ShapeMismatch("every target coordinate needs an image")
        for a, img in self.images.items():
            if img.ctx != self.source.ctx:
                raise ContextMismatch(f"image of {tv[a].name}")
            if not img.has_degree(tv[a].degree):
                raise GradingViolation(
                    f"image of {tv[a].name} must have degree {tv[a].degree.text()}")

    def pullback(self, f: GradedPoly) -> GradedPoly:
        """Rewrite a target-chart polynomial in source coordinates."""
        if f.ctx != self.target.ctx:
            raise ContextMismatch("pullback input")
        return substitute(f, self.images, self.source.ctx)


def identity_transition(chart: Chart) -> TransitionMap:
    imgs = {a: chart.ctx.gen(v.name) for a, v in enumerate(chart.ctx.variables)}
    return TransitionMap(chart, chart, imgs)


def compose(second: TransitionMap, first: TransitionMap) -> TransitionMap:
    """first: A -> B, second: B -> C; result expresses C in A coordinates."""
    if second.source.name != first.target.name:
        raise ContextMismatch("transition composition mismatch")
    imgs = {a: first.pullback(img) for a, img in second.images.items()}
    return TransitionMap(first.source, second.target, imgs)


def jacobian(t: TransitionMap) -> GradedMatrix:
    """Matrix of coordinate partials of the images, rows = target coords,
    built once per map."""
    if t._jacobian is None:
        src = t.source.ctx
        ents = gradients(src, [t.images[a] for a in range(len(t.images))])
        t._jacobian = GradedMatrix(src, t.target.degree_tuple, t.source.degree_tuple,
                                   src.factor.group.zero(), ents)
    return t._jacobian


def jacobian_berezinian(t: TransitionMap) -> GradedPoly:
    """Berezinian of the Jacobian, coordinates stably reordered to a split
    (evens-then-odds) tuple; this fixed convention is the cocycle used by
    the volume transformation rule."""
    jac = jacobian(t)
    fac = t.source.ctx.factor
    order = ([k for k, d in enumerate(jac.rows) if fac.parity(d) != ODD]
             + [k for k, d in enumerate(jac.rows) if fac.parity(d) == ODD])
    return rho_ber(jac.submatrix(order, order))


def transition_invertible(t: TransitionMap) -> bool:
    """A transition is invertible mod the formal ideal exactly when the
    Berezinian of its Jacobian is a unit."""
    try:
        jacobian_berezinian(t).invert()
    except NotInvertible:
        return False
    return True


def chain_rule_check(t: TransitionMap, extra_polys=()) -> dict:
    """Verify d/dx^b = sum_a (dy^a/dx^b) d/dy^a on generators and given polys."""
    src, tgt = t.source.ctx, t.target.ctx
    jac = jacobian(t)
    samples = [tgt.gen(v.name) for v in tgt.variables]
    samples.extend(extra_polys)
    lhs_rows = gradients(src, [t.pullback(f) for f in samples])
    failures = []
    for f, lhs_row, grad in zip(samples, lhs_rows, gradients(tgt, samples)):
        pulled = [t.pullback(dfa) for dfa in grad]
        for b, (vb, lhs) in enumerate(zip(src.variables, lhs_row)):
            rhs = src.sum(jac.entry(a, b) * pa for a, pa in enumerate(pulled))
            if lhs != rhs:
                failures.append({"poly": f.text(), "coordinate": vb.name,
                                 "lhs": lhs.text(), "rhs": rhs.text()})
    return {"ok": not failures, "failures": failures}


# -- atlases and bundles ---------------------------------------------------------


@dataclass
class Atlas:
    charts: dict[str, Chart] = field(default_factory=dict)
    maps: dict[tuple[str, str], TransitionMap] = field(default_factory=dict)

    @staticmethod
    def single(chart: Chart) -> "Atlas":
        return Atlas({chart.name: chart}, {})

    def add(self, t: TransitionMap):
        self.charts.setdefault(t.source.name, t.source)
        self.charts.setdefault(t.target.name, t.target)
        self.maps[(t.source.name, t.target.name)] = t

    def map(self, a: str, b: str) -> TransitionMap:
        if a == b:
            return identity_transition(self.charts[a])
        if (a, b) not in self.maps:
            raise OverlapMismatch(f"no transition from {a} to {b}")
        return self.maps[(a, b)]

    def pairs(self):
        return [(a, b) for (a, b) in self.maps if a != b]

    def check_inverses(self) -> bool:
        for (a, b) in self.pairs():
            if (b, a) not in self.maps:
                return False
            rt = compose(self.maps[(b, a)], self.maps[(a, b)])
            ident = identity_transition(self.charts[a])
            if any(rt.images[k] != ident.images[k] for k in rt.images):
                return False
        return True


@dataclass
class BundleSpec:
    """Locally free module data: fiber degrees plus transition matrices.

    transitions[(a, b)] has entries in chart a's context and sends the
    a-chart fiber column to the b-chart one.  `pi_shift` counts parity flips
    mod 2 (a double flip is literally the original bundle) and
    `degree_shift` accumulates translation of the fiber degrees.
    """

    atlas: Atlas
    fiber_degrees: tuple[Degree, ...]
    transitions: dict[tuple[str, str], GradedMatrix]
    pi_shifted: bool = False

    def effective_fiber_degrees(self):
        """Degrees in Z x G when parity-shifted, in G otherwise."""
        if not self.pi_shifted:
            return self.fiber_degrees
        fac = next(iter(self.atlas.charts.values())).ctx.factor
        return tuple(fac.prime_degree(1, d) for d in self.fiber_degrees)


def shift_pi(b: BundleSpec) -> BundleSpec:
    return BundleSpec(b.atlas, b.fiber_degrees, b.transitions,
                      pi_shifted=not b.pi_shifted)


def shift_degree(b: BundleSpec, i: Degree) -> BundleSpec:
    return BundleSpec(b.atlas, tuple(d - i for d in b.fiber_degrees),
                      b.transitions, pi_shifted=b.pi_shifted)


def pullback_matrix(m: GradedMatrix, t: TransitionMap) -> GradedMatrix:
    ents = [[t.pullback(e) for e in row] for row in m.entries]
    return GradedMatrix(t.source.ctx, m.rows, m.cols, m.degree, ents)


def frame_to_coordinate_matrix(jac: GradedMatrix) -> GradedMatrix:
    """Rewrite the dual-frame rule xi_new^a = sum_b xi^b J_ab (coefficient on
    the right) into left-coefficient form by exact reordering."""
    ents = []
    for a, ia in enumerate(jac.rows):
        row = []
        for b, ib in enumerate(jac.cols):
            w = jac.ctx.factor.rho(ib, ia - ib)
            row.append(jac.entries[a][b].scale(w))
        ents.append(row)
    return GradedMatrix(jac.ctx, jac.rows, jac.cols, jac.degree, ents)


def tangent_bundle(atlas: Atlas) -> BundleSpec:
    some = next(iter(atlas.charts.values()))
    fibers = some.degree_tuple
    trans = {}
    for (a, b) in atlas.pairs():
        trans[(a, b)] = frame_to_coordinate_matrix(jacobian(atlas.map(a, b)))
    return BundleSpec(atlas, fibers, trans)


def cotangent_bundle(atlas: Atlas) -> BundleSpec:
    """Fiber degrees -I; transition entries are the pulled-back partials of
    the inverse map, positionally transposed (q_a = sum_b dx^b/dy^a p_b)."""
    some = next(iter(atlas.charts.values()))
    fibers = tuple(-d for d in some.degree_tuple)
    trans = {}
    for (a, b) in atlas.pairs():
        back = jacobian(atlas.map(b, a))        # entries in b coordinates
        fwd = atlas.map(a, b)
        n = len(fibers)
        ents = [[fwd.pullback(back.entries[bb][aa]) for bb in range(n)]
                for aa in range(n)]
        trans[(a, b)] = GradedMatrix(atlas.map(a, b).source.ctx, fibers, fibers,
                                     some.ctx.factor.group.zero(), ents)
    return BundleSpec(atlas, fibers, trans)


def cocycle_check(b: BundleSpec) -> dict:
    """g_aa = 1, round trips g_ba g_ab = 1, and triple compositions."""
    atlas = b.atlas
    failures = []
    names = sorted(atlas.charts)
    for a in names:
        key = (a, a)
        if key in b.transitions:
            ident = GradedMatrix.identity(atlas.charts[a].ctx, b.fiber_degrees)
            if b.transitions[key] != ident:
                failures.append({"kind": "identity", "charts": [a]})
    for (a, c) in sorted(b.transitions):
        if a == c:
            continue
        if (c, a) in b.transitions:
            back = pullback_matrix(b.transitions[(c, a)], atlas.map(a, c))
            prod = back @ b.transitions[(a, c)]
            ident = GradedMatrix.identity(atlas.charts[a].ctx, b.fiber_degrees)
            if prod != ident:
                failures.append({"kind": "inverse", "charts": [a, c]})
    for a in names:
        for bb in names:
            for c in names:
                if len({a, bb, c}) < 3:
                    continue
                if ((a, bb) in b.transitions and (bb, c) in b.transitions
                        and (a, c) in b.transitions):
                    mid = pullback_matrix(b.transitions[(bb, c)], atlas.map(a, bb))
                    if mid @ b.transitions[(a, bb)] != b.transitions[(a, c)]:
                        failures.append({"kind": "triple", "charts": [a, bb, c]})
    return {"ok": not failures, "failures": failures}


# -- de Rham complex ------------------------------------------------------------


@dataclass
class DeRhamChart:
    """The parity-shifted tangent total space of a chart, with its differential."""

    base: Chart
    chart: Chart
    dvar: dict[int, int]           # base coordinate index -> dx index
    differential: Derivation

    def lift(self, f: GradedPoly) -> GradedPoly:
        return lift_poly(f, self.chart.ctx)

    def exterior(self, polys) -> list[GradedPoly]:
        """d f = sum_b dx^b lift(df/dx^b) for each base polynomial f, zero
        partials skipped."""
        big = self.chart.ctx
        dxs = [big.gen(big.variables[self.dvar[b]].name)
               for b in range(self.base.ctx.nvars)]
        return [big.sum(dx * self.lift(part) for dx, part in zip(dxs, grad)
                        if not part.is_zero())
                for grad in gradients(self.base.ctx, polys)]


def de_rham(base: Chart) -> DeRhamChart:
    """Doubled chart with odd/even dx's over the Z x G factor, and d."""
    ctx = base.ctx
    fac = ctx.factor
    pfac = fac.extend_prime()
    extra = []
    n = ctx.nvars
    for v in ctx.variables:
        dd = fac.prime_degree(1, v.degree)
        extra.append(Var("d" + v.name, dd, pfac.parity(dd)))
    big = prime_context(ctx, extra, name=base.name + "^dR")
    chart = Chart(base.name + "^dR", big)
    dvar = {a: n + a for a in range(n)}
    comps = {a: big.gen("d" + ctx.variables[a].name) for a in range(n)}
    d = Derivation(big, fac.prime_degree(1, fac.group.zero()), comps, name="d")
    return DeRhamChart(base, chart, dvar, d)


def de_rham_transition(src: DeRhamChart, tgt: DeRhamChart,
                       t: TransitionMap) -> TransitionMap:
    """Lift a base transition to the parity-shifted tangent total spaces:
    base coordinates substitute as before and dy^a = sum_b dx^b (dy^a/dx^b)."""
    if t.source.ctx != src.base.ctx or t.target.ctx != tgt.base.ctx:
        raise ContextMismatch("transition does not match the de Rham charts")
    imgs = [t.images[a] for a in range(src.base.ctx.nvars)]
    images = {}
    for a, (img, dimg) in enumerate(zip(imgs, src.exterior(imgs))):
        images[a] = src.lift(img)
        images[tgt.dvar[a]] = dimg
    return TransitionMap(src.chart, tgt.chart, images)


def lie_derivative(dr: DeRhamChart, x: Derivation) -> Derivation:
    """Operator on forms: transports both the base and the dx coordinates."""
    base = dr.base.ctx
    if x.ctx != base:
        raise ContextMismatch("vector field must live on the base chart")
    comps = {a: dr.lift(comp) for a, comp in x.components.items()}
    nonzero = sorted(x.components)
    dcomps = dr.exterior([x.components[b] for b in nonzero])
    comps.update((dr.dvar[b], dc) for b, dc in zip(nonzero, dcomps))
    return Derivation(dr.chart.ctx, base.factor.prime_degree(0, x.degree),
                      comps, f"L_{x.name}")


def interior_product(dr: DeRhamChart, x: Derivation) -> Derivation:
    base = dr.base.ctx
    if x.ctx != base:
        raise ContextMismatch("vector field must live on the base chart")
    big = dr.chart.ctx
    comps = {dr.dvar[a]: dr.lift(comp) for a, comp in x.components.items()}
    return Derivation(big, base.factor.prime_degree(-1, x.degree), comps,
                      f"i_{x.name}")


def cartan_report(base: Chart, x: Derivation, y: Derivation,
                  samples=()) -> dict:
    """Exact operator identities on the de Rham chart of `base`.

    All checks compare derivations componentwise (a derivation is determined
    by its generator values); `samples` adds form-level spot checks.
    """
    dr = de_rham(base)
    d = dr.differential
    big = dr.chart.ctx
    lx, ly = lie_derivative(dr, x), lie_derivative(dr, y)
    ix = interior_product(dr, x)
    report = {}
    report["d_squared_zero"] = bool(is_homological(d))
    report["lie_functorial"] = (commutator(lx, ly)
                                == lie_derivative(dr, commutator(x, y)))
    report["d_invariant"] = commutator(d, lx).is_zero()
    report["magic_formula"] = (commutator(d, ix) == lx)
    report["interior_reads_components"] = all(
        ix.apply(big.gen(big.variables[dr.dvar[a]].name)) == dr.lift(x.component(a))
        for a in range(base.ctx.nvars))
    for f in samples:
        g = dr.lift(f) if f.ctx == base.ctx else f
        report.setdefault("sample_checks", True)
        ok = (d.apply(lx.apply(g)) == lx.apply(d.apply(g)))
        report["sample_checks"] = report["sample_checks"] and ok
    report["ok"] = all(v for k, v in report.items() if isinstance(v, bool))
    return report


def q_structure_report(base: Chart, q: Derivation) -> dict:
    """Square-zero data for d, L_Q and their inhomogeneous sum.

    The bracket of the sum expands bilinearly into the four homogeneous
    brackets; each must vanish as an exact operator identity.
    """
    check = is_homological(q)
    if not check:
        raise NotHomological(check.reason)
    dr = de_rham(base)
    d = dr.differential
    lq = lie_derivative(dr, q)
    report = {
        "d_squared_zero": bool(is_homological(d)),
        "lie_q_squared_zero": commutator(lq, lq).is_zero(),
        "d_lie_q_bracket_zero": commutator(d, lq).is_zero(),
        "lie_q_d_bracket_zero": commutator(lq, d).is_zero(),
    }
    report["sum_bracket_zero"] = all(report.values())
    report["ok"] = report["sum_bracket_zero"]
    return report


# -- shifted cotangent charts and the twisted Schouten bracket ---------------------


@dataclass
class ShiftedCotangent:
    """[-i]T*: the chart doubled by star coordinates of degree -|x^a| - i."""

    base: Chart
    shift: Degree
    chart: Chart
    star: dict[int, int]

    def lift(self, f: GradedPoly) -> GradedPoly:
        return lift_poly(f, self.chart.ctx)


def shifted_cotangent(base: Chart, shift: Degree) -> ShiftedCotangent:
    ctx = base.ctx
    fac = ctx.factor
    extra = []
    for v in ctx.variables:
        d = -v.degree - shift
        kind = BASE if d.is_zero() else fac.parity(d)
        extra.append(Var(v.name + "_st", d, kind))
    big = ctx.extend(extra, name=f"{base.name}[-{shift.text()}]T*")
    n = ctx.nvars
    return ShiftedCotangent(base, shift, Chart(big.name, big),
                            {a: n + a for a in range(n)})


def schouten(sc: ShiftedCotangent, f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """Twisted Schouten bracket on the shifted cotangent chart.

    Coordinate formula summed over every base coordinate; both inputs must
    be homogeneous.  Degree of the output is |f| + |g| + shift.
    """
    ctx = sc.chart.ctx
    if f.ctx != ctx or g.ctx != ctx:
        raise ContextMismatch("schouten arguments")
    df = f.degree_of()
    g.degree_of()
    i = sc.shift
    fd, gd = gradients(ctx, [f, g])

    def summands():
        for a, sa in sc.star.items():
            da = sc.base.ctx.variables[a].degree
            if not fd[sa].is_zero() and not gd[a].is_zero():
                yield (fd[sa] * gd[a]).scale(ctx.factor.rho(df + da + i, da + i))
            if not fd[a].is_zero() and not gd[sa].is_zero():
                yield -(fd[a] * gd[sa]).scale(ctx.factor.rho(da, df + i))
    return ctx.sum(summands())


def lift_to_shifted_cotangent(q: Derivation, shift: Degree,
                              base: Chart | None = None):
    """Encode a homological field as a fiber-linear function and its bracket.

    Returns (sc, f_q, q_tilde): f_q = sum_a Q^a x*_a has degree |Q| - shift,
    brackets to zero with itself, and q_tilde = [f_q, -] extends Q to the
    shifted cotangent chart.
    """
    if not q.is_zero():
        check = is_homological(q)
        if not check:
            raise NotHomological(check.reason or "square")
    base = base or Chart("M", q.ctx)
    if base.ctx != q.ctx:
        raise ContextMismatch("field must live on the chart")
    sc = shifted_cotangent(base, shift)
    big = sc.chart.ctx
    fq = big.sum(lift_poly(comp, big) * big.gen(big.variables[sc.star[a]].name)
                 for a, comp in q.components.items())
    want = q.degree - shift
    if not fq.has_degree(want):
        raise GradingViolation("fiber-linear encoding is not homogeneous")
    comps = {z: schouten(sc, fq, big.gen(v.name))
             for z, v in enumerate(big.variables)}
    qt = Derivation(big, q.degree, comps, name=f"{q.name}~")
    return sc, fq, qt
