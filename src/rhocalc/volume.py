"""Berezin volume forms, divergence, and modular classes.

A volume form is a chartwise invertible degree-0 density against the
canonical coordinate frame; across overlaps the densities differ by the
graded Berezinian of the Jacobian.  The divergence of a vector field is the
chartwise weighted sum rho(|x^a|, |x^a| + |X|) s^{-1} d/dx^a (X^a s); for a
homological field it is closed, and its class is decided by an exact linear
solver over the monomial basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Context, GradedPoly
from .cyclo import Cyclo
from .derivation import Derivation, is_homological, partial
from .errors import (CertificateMismatch, ContextMismatch, NotClosed,
                     NotHomological, NotHomogeneous, NotInvertible,
                     NotInvertibleDensity, OverlapMismatch)
from .geometry import Atlas, Chart, jacobian_berezinian
from .grading import Degree
from .linsolve import solve_linear


@dataclass
class VolumeForm:
    """Chartwise densities s(x) against the canonical frame; a multi-chart
    form is checked against the Berezinian rule when it is built."""

    atlas: Atlas
    densities: dict[str, GradedPoly]

    def __post_init__(self):
        for name, chart in self.atlas.charts.items():
            s = self.densities.get(name)
            if s is None:
                raise OverlapMismatch(f"missing density on chart {name}")
            if s.ctx != chart.ctx:
                raise ContextMismatch(f"density on {name}")
            if not s.has_degree(chart.ctx.factor.group.zero()):
                raise NotHomogeneous(f"density on {name} must have degree 0")
        failures = self.compatibility_check()["failures"]
        if failures:
            a, b = failures[0]["charts"]
            raise OverlapMismatch(f"densities break the Berezinian rule on overlap ({a},{b})")

    @staticmethod
    def on_chart(chart: Chart, density: GradedPoly) -> "VolumeForm":
        return VolumeForm(Atlas.single(chart), {chart.name: density})

    def density(self, chart_name: str) -> GradedPoly:
        return self.densities[chart_name]

    def compatibility_check(self) -> dict:
        """s_a = Ber(J_ab) * pullback(s_b) on every declared overlap."""
        failures = []
        for a, b in self.atlas.pairs():
            t = self.atlas.maps[a, b]
            lhs = self.densities[a]
            rhs = jacobian_berezinian(t) * t.pullback(self.densities[b])
            if lhs != rhs:
                failures.append({"charts": [a, b], "lhs": lhs.text(),
                                 "rhs": rhs.text()})
        return {"ok": not failures, "failures": failures}


def _as_fields(x, atlas: Atlas) -> dict[str, Derivation]:
    if isinstance(x, Derivation):
        if len(atlas.charts) != 1:
            raise ContextMismatch("a multi-chart atlas needs per-chart fields")
        return {next(iter(atlas.charts)): x}
    return dict(x)


def _weighted_partials(x: Derivation, s: GradedPoly,
                       s_inv: GradedPoly | None = None) -> GradedPoly:
    """sum_a rho(|x^a|, |x^a| + |X|) d/dx^a (X^a s), each term times s_inv
    when one is given."""
    def summands(ctx):
        for a, comp in x.components.items():
            v = ctx.variables[a]
            term = partial(ctx, v.name).apply(comp * s)
            if s_inv is not None:
                term = s_inv * term
            yield term.scale(ctx.factor.rho(v.degree, v.degree + x.degree))
    return x.ctx.sum(summands(x.ctx))


def divergence_on_chart(x: Derivation, s: GradedPoly) -> GradedPoly:
    """sum_a rho(|x^a|, |x^a| + |X|) s^{-1} d/dx^a (X^a s)."""
    if s.ctx != x.ctx:
        raise ContextMismatch("density context")
    try:
        s_inv = s.invert()
    except NotInvertible as e:
        raise NotInvertibleDensity(str(e)) from e
    return _weighted_partials(x, s, s_inv)


def lie_derivative_volume(x, vol: VolumeForm) -> dict[str, GradedPoly]:
    """Coefficient of the frame in L_X(D(x) s(x)), per chart."""
    fields = _as_fields(x, vol.atlas)
    return {name: _weighted_partials(xc, vol.densities[name])
            for name, xc in fields.items()}


def divergence(x, vol: VolumeForm) -> dict[str, GradedPoly]:
    """Chartwise divergence; raises OverlapMismatch if charts disagree."""
    fields = _as_fields(x, vol.atlas)
    out = {name: divergence_on_chart(xc, vol.densities[name])
           for name, xc in fields.items()}
    for a, b in vol.atlas.pairs():
        if a in out and b in out and out[a] != vol.atlas.maps[a, b].pullback(out[b]):
            raise OverlapMismatch(f"divergence disagrees on overlap ({a},{b})")
    return out


# -- exactness ------------------------------------------------------------------


@dataclass
class ExactnessResult:
    verdict: str                      # exact | not_exact_degree_complete | inconclusive
    certificate: GradedPoly | None = None
    searched: int = 0
    # on an inconclusive verdict, the bound that stopped the search:
    # closure_cap | rounds | degree_bound; None on any other verdict
    stopped_by: str | None = None

    def payload(self) -> dict:
        return {"verdict": self.verdict,
                "certificate": self.certificate.text() if self.certificate is not None else None,
                "searched_monomials": self.searched}


DEGREE_BOUND = 8    # default l1 exponent bound of the bounded-span fallback


def exactness_solve(c: GradedPoly, q: Derivation,
                    degree_bound: int = DEGREE_BOUND,
                    closure_cap: int = 600) -> ExactnessResult:
    """Decide whether c = Q(h) has a polynomial solution.

    The candidate monomials of any preimage are closed off by inverse shift
    bookkeeping: Q replaces one variable occurrence by a component term, so
    each target monomial pins its possible sources.  If that closure reaches
    a fixpoint, solvability over the closed span is equivalent to exactness
    and a failed solve certifies non-exactness; if the closure blows past
    `closure_cap` or its 64 rounds, a bounded-span solve may still certify
    exactness, else the result is inconclusive.  An `exact` certificate h is
    re-verified as Q(h) == c before it is returned.  Every step reads the
    tables Q keeps (see `derivation`): the closedness check and the
    re-verification apply Q through its term kernel, the closure takes each
    monomial's candidate preimages from `q.sources` and each candidate's
    image from `q.image`, and the solves read `q.image` too.  So a second
    solve with one differential makes no monomial product and tests no
    monomial's validity, unless it falls back to the bounded span.  No
    candidate's degree is tested: c (`degree_of` raises otherwise) and Q's
    components are homogeneous, so each expanded monomial has degree |c|,
    each shift |Q|, and each candidate |c| - |Q|, since `mono_degree` is
    additive.
    """
    ctx = c.ctx
    if q.ctx != ctx:
        raise ContextMismatch("cochain and differential contexts differ")
    if c.is_zero():
        return ExactnessResult("exact", ctx.zero(), 0)
    if not q.apply(c).is_zero():
        raise NotClosed("the cochain is not closed")
    hdeg = c.degree_of() - q.degree
    # semi-naive closure: each round expands only the image monomials that
    # no earlier round expanded, since the candidates are a union over them
    span: set = set()
    frontier = set(c.terms)
    expanded = set(frontier)
    stopped_by = "rounds"
    for _ in range(64):
        fresh = {m for mu in frontier for m in q.sources(mu)} - span
        if not fresh:
            stopped_by = None
            break
        if len(span) + len(fresh) > closure_cap:
            stopped_by = "closure_cap"
            break
        span |= fresh
        frontier = {mu for m in fresh for mu in q.image(m).terms} - expanded
        expanded |= frontier

    result = _solve_over(ctx, sorted(span), c, q)
    if result is not None:
        return _certified(c, q, result, len(span))
    if stopped_by is None:
        return ExactnessResult("not_exact_degree_complete", None, len(span))
    wide = _bounded_span(ctx, hdeg, degree_bound)
    if wide is None:
        stopped_by = "degree_bound"
    else:
        result = _solve_over(ctx, sorted(set(wide) | span), c, q)
        if result is not None:
            return _certified(c, q, result, len(wide))
    return ExactnessResult("inconclusive", None, len(span), stopped_by)


def _certified(c: GradedPoly, q: Derivation, h: GradedPoly,
               searched: int) -> ExactnessResult:
    if q.apply(h) != c:
        raise CertificateMismatch("Q(certificate) differs from the cochain")
    return ExactnessResult("exact", h, searched)


def _solve_over(ctx: Context, basis, c: GradedPoly, q: Derivation):
    images = [q.image(m) for m in basis]
    eq_monos = set(c.terms)
    for img in images:
        eq_monos |= set(img.terms)
    eq_monos = sorted(eq_monos)
    # sparse rows straight from the images, whose terms are all nonzero
    rows = {mu: {} for mu in eq_monos}
    for j, img in enumerate(images):
        for mu, x in img.terms.items():
            rows[mu][j] = x
    zero = Cyclo.zero()
    rhs = [c.terms.get(mu, zero) for mu in eq_monos]
    sol = solve_linear(list(rows.values()), rhs, len(basis))
    if sol is None:
        return None
    # the basis monomials are distinct and the constructor drops zeros
    return GradedPoly(ctx, dict(zip(basis, sol)))


_SPAN_CAP = 4000


def _bounded_span(ctx: Context, hdeg: Degree, bound: int):
    """All valid monomials of degree hdeg with l1 exponent norm <= bound;
    None past _SPAN_CAP of them."""
    out = []
    mono = [0] * ctx.nvars

    def rec(idx: int, budget: int):
        if len(out) > _SPAN_CAP:
            return
        if idx == ctx.nvars:
            m = tuple(mono)
            if ctx.mono_valid(m) and ctx.mono_degree(m) == hdeg:
                out.append(m)
            return
        v = ctx.variables[idx]
        lo = -budget if v.invertible else 0
        hi = min(budget, v.cap) if v.cap is not None else budget
        for e in range(lo, hi + 1):
            mono[idx] = e
            rec(idx + 1, budget - abs(e))
        mono[idx] = 0

    try:
        rec(0, bound)
    finally:
        rec = None      # rec's cell refers to rec: break the cycle
    return None if len(out) > _SPAN_CAP else out


# -- modular class ----------------------------------------------------------------


@dataclass
class ModularClassReport:
    chart: str
    representative: GradedPoly
    closed: bool
    verdict: str
    certificate: GradedPoly | None = None
    searched: int = 0

    def payload(self) -> dict:
        return {
            "chart": self.chart,
            "representative": self.representative.text(),
            "closed": self.closed,
            "verdict": self.verdict,
            "certificate": self.certificate.text() if self.certificate is not None else None,
        }


def modular_class(q, vol: VolumeForm,
                  degree_bound: int = DEGREE_BOUND) -> ModularClassReport:
    """Divergence class of a homological field on the first chart by name:
    representative, closedness witness, and the exactness verdict from the
    bounded solver (whose closedness check decides `closed`)."""
    fields = _as_fields(q, vol.atlas)
    for name, qc in fields.items():
        check = is_homological(qc)
        if not check:
            raise NotHomological(f"{name}: {check.reason}")
    divs = divergence(q, vol)
    chart = sorted(divs)[0]
    rep = divs[chart]
    try:
        ex = exactness_solve(rep, fields[chart], degree_bound)
    except NotClosed:
        return ModularClassReport(chart, rep, False, "inconclusive")
    return ModularClassReport(chart, rep, True, ex.verdict, ex.certificate,
                              ex.searched)


def volumes_equivalent(v1: VolumeForm, v2: VolumeForm):
    """Search for a global h with s2 = s1 exp(h) chartwise.

    Within the Laurent model the ratio must have filtration-free part 1;
    otherwise (e.g. ratio z on the punctured line) there is no logarithm and
    the volumes are inequivalent.  Returns (True, {chart: h}) or
    (False, None), for one chart as for many.
    """
    if set(v1.atlas.charts) != set(v2.atlas.charts):
        raise ContextMismatch("volumes live on different atlases")
    hs: dict[str, GradedPoly] = {}
    for name in sorted(v1.atlas.charts):
        s1, s2 = v1.densities[name], v2.densities[name]
        try:
            ratio = s2 * s1.invert()
        except NotInvertible as e:
            raise NotInvertibleDensity(str(e)) from e
        if ratio.i_free_part() != ratio.ctx.one():
            return False, None
        hs[name] = ratio.log()
    for a, b in v1.atlas.pairs():
        if hs[a] != v1.atlas.maps[a, b].pullback(hs[b]):
            return False, None
    return True, hs
