"""Self-tests of the benchmark, each workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_UNITS, TARGETS, Tracer  # noqa: E402


def _run(workload, trace=False, seed=run.DEFAULT_SEED):
    out = io.StringIO()
    result = run.run_workload(workload, seed, 0.01, trace, tiny=True, out=out)
    return result, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(workload):
    result, text = _run(workload)
    last = json.loads(text.strip().splitlines()[-1])
    assert last == json.loads(json.dumps(result))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(run.REPORTED)
    for name, unit in run.END_TO_END_UNITS.items():
        line = rf"^ +{re.escape(name)} +\S+ +\S+ {re.escape(unit)}$"
        assert re.search(line, text, re.M), name
        if name in last["metrics"]:
            assert last["metrics"][name]["unit"] == unit


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_task_data(workload):
    a = json.dumps(workloads.make_data(workload, 5, run.ROOT), sort_keys=True)
    b = json.dumps(workloads.make_data(workload, 5, run.ROOT), sort_keys=True)
    c = json.dumps(workloads.make_data(workload, 6, run.ROOT), sort_keys=True)
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_failures_at_default_seed(workload):
    result, text = _run(workload)
    assert "references recorded at the parent commit" in text
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"], text


def test_seed_without_references_says_so():
    result, text = _run("modular_class", seed=987654)
    assert "no stored references for this seed" in text
    assert result["correct"], text


def _assert_unwrapped():
    """Every traced name in the modules the last run used is unwrapped."""
    rc = {m: sys.modules["rhocalc." + m] for m in run.MODULES}
    for layer, cls, names, _ in TARGETS:
        owner = rc[layer] if cls is None else getattr(rc[layer], cls)
        for name in names:
            assert not hasattr(vars(owner)[name], "__wrapped__"), (layer, name)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_uses_original_objects(workload):
    _run(workload)
    _assert_unwrapped()


def test_traced_run_reports_every_layer_metric_and_restores():
    result, text = _run("det_ber", trace=True)
    assert set(result["metrics"]) == set(LAYER_UNITS)
    assert result["correct"], text
    _assert_unwrapped()


def test_tracer_patches_imported_names():
    rc = run.import_rhocalc()
    originals = (rc["matrix"].rho_det, rc["linsolve"].solve_linear)
    tracer = Tracer(rc)
    patched = tracer.install()
    try:
        assert patched > sum(len(n) for _, _, n, _ in TARGETS)
        assert rc["dsl"].rho_det is rc["matrix"].rho_det
        assert rc["dsl"].rho_det.__wrapped__ is originals[0]
        assert rc["volume"].solve_linear.__wrapped__ is originals[1]
        assert tracer.unwrapped_references() == []
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert rc["dsl"].rho_det is originals[0]


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        n: run.END_TO_END_UNITS[n] for n in run.REPORTED}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
