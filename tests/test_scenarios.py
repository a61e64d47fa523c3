"""The built-in worked scenarios against their closed forms and golden file."""

import json
from fractions import Fraction
from pathlib import Path

from rhocalc.algebra import lift_poly
from rhocalc.derivation import is_homological
from rhocalc.scenarios import (builtin_scenarios, cstar_scenario,
                               derham_scenario, shifted_cotangent_scenario,
                               torus_scenario)
from rhocalc.volume import volumes_equivalent

GOLDEN = Path(__file__).parent / "golden" / "scenarios.json"


def test_torus_scenario_closed_form():
    payload, objs = torus_scenario(m=2, theta12=Fraction(1, 4))
    assert payload["matches_closed_form"]
    report = objs["report"]
    ctx = objs["chart"].ctx
    assert report.representative == objs["expected"]
    assert report.verdict == "not_exact_degree_complete"
    assert report.closed
    # the class survives for other m as well
    payload3, objs3 = torus_scenario(m=3, theta12=Fraction(1, 8))
    assert payload3["matches_closed_form"]
    assert objs3["chart"].ctx.conductor == 8
    # at m = 0 the closed form is the empty sum, and the class 0 is exact
    for m in (0, 1):
        payload, objs = torus_scenario(m=m)
        assert payload["matches_closed_form"], m
        assert (objs["report"].verdict == "exact") == (m == 0)


def test_torus_brst_field_is_homological():
    _, objs = torus_scenario()
    assert is_homological(objs["q"]).homological
    rep = objs["report"].representative
    assert objs["q"].apply(rep).is_zero()


def test_derham_scenario():
    payload, objs = derham_scenario()
    assert payload["matches_closed_form"]
    assert objs["report"].representative.is_zero()
    assert objs["report"].verdict == "exact"


def test_cstar_scenario():
    payload, objs = cstar_scenario()
    assert payload["matches_closed_form"]
    ctx = objs["derham"].chart.ctx
    assert objs["rep1"].representative.is_zero()
    assert objs["rep2"].representative == ctx.monomial(1, {"z": -1, "dz": 1})
    assert objs["rep2"].verdict == "not_exact_degree_complete"
    eq, _ = volumes_equivalent(objs["vol1"], objs["vol2"])
    assert not eq


def test_shift_scenario_scaling_identity():
    payload, objs = shifted_cotangent_scenario()
    assert payload["matches_closed_form"]
    base_div = objs["base_div"]
    for label, factor in (("even", 0), ("odd", 2)):
        data = objs[label]
        big = data["sc"].chart.ctx
        expected = lift_poly(base_div, big).scale(factor)
        assert data["report"].representative == expected
    assert objs["even"]["report"].verdict == "exact"
    assert objs["odd"]["report"].verdict == "not_exact_degree_complete"


def test_builtin_scenarios_deterministic_and_golden():
    doc1 = json.dumps({"schema": 1, "scenarios": builtin_scenarios()},
                      indent=2, sort_keys=True) + "\n"
    doc2 = json.dumps({"schema": 1, "scenarios": builtin_scenarios()},
                      indent=2, sort_keys=True) + "\n"
    assert doc1 == doc2
    assert doc1 == GOLDEN.read_text(encoding="utf-8")
