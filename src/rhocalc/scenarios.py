"""Built-in worked scenarios with their closed-form answers.

Each builder assembles the geometry, computes the modular-class report, and
compares against the known closed form, returning a JSON-ready payload plus
the live objects for further inspection.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import lift_poly
from .derivation import Derivation
from .geometry import de_rham, lift_to_shifted_cotangent, make_chart
from .grading import GroupSpec, super_factor, torus_factor, trivial_factor
from .volume import VolumeForm, divergence, modular_class, volumes_equivalent


def torus_scenario(m: int = 2, theta12=Fraction(1, 4)):
    """BRST differential on the polynomial torus algebra; the class is
    -tau * sum(eta^a) where tau stands for the transcendental unit 2*pi*i,
    carried as an invertible central symbol."""
    theta12 = Fraction(theta12)
    theta = [[Fraction(0)] * m for _ in range(m)]
    if m >= 2:
        theta[0][1] = theta12
        theta[1][0] = -theta12
    fac = torus_factor(theta)
    pfac = fac.extend_prime()
    zero_g = fac.group.zero()
    coords = [("tau", pfac.group.zero(), True)]
    coords += [(f"u{a + 1}", fac.prime_degree(0, fac.group.generator(a)))
               for a in range(m)]
    coords += [(f"eta{a + 1}", fac.prime_degree(1, zero_g)) for a in range(m)]
    chart = make_chart("torus", pfac, coords)
    ctx = chart.ctx
    comps = {}
    for a in range(m):
        comps[ctx.index(f"u{a + 1}")] = ctx.word(
            -1, [("tau", 1), (f"eta{a + 1}", 1), (f"u{a + 1}", 1)])
    q = Derivation(ctx, fac.prime_degree(1, zero_g), comps, "Q")
    vol = VolumeForm.on_chart(chart, ctx.one())
    report = modular_class(q, vol)
    expected = ctx.sum(ctx.word(-1, [("tau", 1), (f"eta{a + 1}", 1)])
                       for a in range(m))
    payload = {
        "scenario": "torus",
        "params": {"m": m, "theta12": str(theta12)},
        "modular": report.payload(),
        "expected_representative": expected.text(),
        "matches_closed_form": (report.representative == expected
                          and report.verdict == ("exact" if expected.is_zero()
                                                 else "not_exact_degree_complete")),
        "diagnostics": {"conductor": ctx.conductor, "truncation": ctx.truncation},
    }
    return payload, {"chart": chart, "q": q, "vol": vol, "report": report,
                     "expected": expected}


def derham_scenario():
    """The de Rham differential on the shifted tangent space of a small
    super chart: zero divergence, hence a vanishing class."""
    fac = super_factor()
    base = make_chart("M", fac, [("x", fac.group.zero(), False),
                                 ("xi", fac.group.degree(1))])
    dr = de_rham(base)
    q = dr.differential
    vol = VolumeForm.on_chart(dr.chart, dr.chart.ctx.one())
    report = modular_class(q, vol)
    payload = {
        "scenario": "derham",
        "params": {"base": "one even and one odd coordinate"},
        "modular": report.payload(),
        "expected_representative": "0",
        "matches_closed_form": (report.representative.is_zero()
                          and report.verdict == "exact"),
        "diagnostics": {"conductor": dr.chart.ctx.conductor,
                        "truncation": dr.chart.ctx.truncation},
    }
    return payload, {"derham": dr, "q": q, "vol": vol, "report": report}


def _punctured_line():
    fac = trivial_factor(GroupSpec(0))
    base = make_chart("C*", fac, [("z", fac.group.zero(), True)])
    return de_rham(base)


def cstar_scenario():
    """Two volumes on the punctured line: D*1 has class zero, D*z has the
    representative dz/z which no Laurent function integrates, and the two
    volumes are not exponential-equivalent."""
    dr = _punctured_line()
    ctx = dr.chart.ctx
    q = dr.differential
    vol1 = VolumeForm.on_chart(dr.chart, ctx.one())
    vol2 = VolumeForm.on_chart(dr.chart, ctx.gen("z"))
    rep1 = modular_class(q, vol1)
    rep2 = modular_class(q, vol2)
    equivalent, _ = volumes_equivalent(vol1, vol2)
    expected2 = ctx.monomial(1, {"z": -1, "dz": 1})
    payload = {
        "scenario": "cstar",
        "params": {"volumes": ["1", "z"]},
        "modular_vol1": rep1.payload(),
        "modular_vol2": rep2.payload(),
        "volumes_equivalent": equivalent,
        "expected_representative_vol2": expected2.text(),
        "matches_closed_form": (rep1.representative.is_zero()
                          and rep1.verdict == "exact"
                          and rep2.representative == expected2
                          and rep2.verdict == "not_exact_degree_complete"
                          and not equivalent),
        "diagnostics": {"conductor": ctx.conductor, "truncation": ctx.truncation},
    }
    return payload, {"derham": dr, "q": q, "vol1": vol1, "vol2": vol2,
                     "rep1": rep1, "rep2": rep2}


def shifted_cotangent_scenario():
    """Degree shifts of the cotangent space over the punctured-line complex:
    lifting the differential rescales the class by (1 - rho(i,i)), so an
    even shift kills it and an odd shift doubles it."""
    dr = _punctured_line()
    ctx = dr.chart.ctx
    q = dr.differential
    group = ctx.factor.group
    base_vol = VolumeForm.on_chart(dr.chart, ctx.gen("z"))
    base_div = divergence(q, base_vol)[dr.chart.name]
    out = {}
    objects = {"derham": dr, "q": q, "base_vol": base_vol, "base_div": base_div}
    for label, shift in (("even", group.degree(2)), ("odd", group.degree(1))):
        sc, fq, qt = lift_to_shifted_cotangent(q, shift, dr.chart)
        big = sc.chart.ctx
        rho_ii = ctx.factor.rho(shift, shift)
        if rho_ii == 1:
            density = big.one()
        else:
            density = lift_poly(base_vol.density(dr.chart.name), big) ** 2
        vol = VolumeForm.on_chart(sc.chart, density)
        report = modular_class(qt, vol)
        expected = lift_poly(base_div, big).scale(1 - rho_ii.as_fraction())
        out[label] = {
            "shift": shift.text(),
            "modular": report.payload(),
            "expected_representative": expected.text(),
            "scaling_matches": report.representative == expected,
        }
        objects[label] = {"sc": sc, "fq": fq, "qt": qt, "vol": vol,
                          "report": report, "expected": expected}
    payload = {
        "scenario": "shifted_cotangent",
        "params": {"base": "punctured line with volume D*z"},
        "even": out["even"],
        "odd": out["odd"],
        "matches_closed_form": (out["even"]["scaling_matches"]
                          and out["even"]["modular"]["verdict"] == "exact"
                          and out["odd"]["scaling_matches"]
                          and out["odd"]["modular"]["verdict"]
                          == "not_exact_degree_complete"),
        "diagnostics": {"conductor": ctx.conductor, "truncation": ctx.truncation},
    }
    return payload, objects


# the worked scenarios in their fixed order, by their session-language names
SCENARIOS = {"torus": torus_scenario, "derham": derham_scenario,
             "cstar": cstar_scenario, "shift": shifted_cotangent_scenario}


def builtin_scenarios() -> list[dict]:
    """The four worked scenarios in a fixed order, payloads only."""
    return [build()[0] for build in SCENARIOS.values()]
