"""Benchmark of rhocalc: one workload per run, closed loop, one task at a time.

    python3 bench/run.py --workload det_ber --seed 1 --seconds 30 --trace 0

Workloads: det_ber, modular_class, dsl_session (see bench/WORKLOADS.md).
Set-up imports rhocalc from ./src and builds the seeded inputs; it is
repeated SETUP_REPEATS times and `setup_s` is the median.  The timed loop
then runs whole cycles of the workload's tasks for about --seconds (at
least one cycle).  Every execution's output digest is
checked against the references recorded at the parent commit (or, for a
seed without references, against the task's first execution), and each
task's first result gets an independent check after the loop.

Task and set-up times are corrected for the host's CPU speed with a probe
run between tasks (bench/speed.py); raw wall values are printed next to
them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs an untraced loop
on half the budget, then one cycle with every layer wrapped (bench/tracer.py)
and prints the per-layer metrics per cycle, plus trace.overhead_frac.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import PROBE_REF_S, SpeedClock  # noqa: E402
from tracer import LAYER_UNITS, Tracer  # noqa: E402

MODULES = ("errors", "cyclo", "grading", "algebra", "derivation", "matrix",
           "geometry", "linsolve", "volume", "scenarios", "dsl", "cli")
SETUP_REPEATS = 5
DEFAULT_SEED = 1

END_TO_END_UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms",
                    "task_tail_ms": "ms", "fail_frac": "ratio",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# fail_frac is 0 on a correct run, so it is reported through the
# `attempted`/`failed` fields of the result rather than as a bounded metric
REPORTED = ("tasks_per_s", "task_p50_ms", "task_tail_ms", "peak_rss_mb",
            "setup_s")


def import_rhocalc() -> dict:
    """Fresh import of rhocalc from ./src; returns short name -> module."""
    src = os.path.join(ROOT, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in list(sys.modules):
        if name == "rhocalc" or name.startswith("rhocalc."):
            del sys.modules[name]
    pkg = importlib.import_module("rhocalc")
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise ImportError(f"rhocalc imported from {pkg.__file__}, not {src}")
    rc = {m: importlib.import_module("rhocalc." + m) for m in MODULES}
    rc["rhocalc"] = pkg
    return rc


def setup(workload: str, seed: int, tiny: bool = False):
    """Import and build SETUP_REPEATS times; returns the last build and the
    wall and speed-corrected times of each."""
    times = {"wall": [], "scaled": []}
    clock = SpeedClock()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rc = import_rhocalc()
        data = workloads.make_data(workload, seed, ROOT)
        if tiny:
            data = workloads.tiny(workload, data)
        objs = workloads.build(rc, workload, data, WORKDIR)
        dt = time.perf_counter() - t0
        times["wall"].append(dt)
        times["scaled"].append(dt * clock.factor())
    return rc, data, objs, times


class Loop:
    """Result of one timed loop: per-task samples and failures."""

    def __init__(self, n: int):
        self.samples: list[list[float]] = [[] for _ in range(n)]   # wall s
        self.scaled: list[list[float]] = [[] for _ in range(n)]    # corrected
        self.failed_runs = [0] * n
        self.reason: list[str | None] = [None] * n
        self.first: list = [None] * n
        self.cycles = 0
        self.elapsed = 0.0          # loop wall time without the probes
        self.probes: list[float] = []

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(self.failed_runs)

    def fail(self, i: int, reason: str, runs: int = 1):
        self.failed_runs[i] = min(len(self.samples[i]),
                                  self.failed_runs[i] + runs)
        self.reason[i] = self.reason[i] or reason


def run_loop(rc, workload, data, objs, expected, budget, max_cycles=None,
             tracer=None) -> Loop:
    """Run whole cycles while at least half of the next one fits in
    `budget` seconds, so a run measures about `budget` seconds."""
    runner = workloads.RUNNERS[workload]
    text = workloads.TEXTS[workload]
    loop = Loop(len(data))
    perf = time.perf_counter
    gc.collect()
    clock = SpeedClock()
    start = perf()
    while True:
        for i, task in enumerate(data):
            if tracer is not None:
                tracer.begin_task(task["id"])
            t0 = perf()
            try:
                result = runner(rc, task, objs[i])
                err = None
            except Exception as e:      # a failed task is counted, not fatal
                result, err = None, f"{type(e).__name__}: {e}"
            dt = perf() - t0
            if tracer is not None:
                tracer.end_task()
            loop.samples[i].append(dt)
            loop.scaled[i].append(dt * clock.factor())
            if err is None:
                d = checks.digest(text(result))
                if expected[i] is None:
                    expected[i] = d
                elif d != expected[i]:
                    err = "output differs from the reference digest"
            if err is not None:
                loop.fail(i, err)
            elif loop.first[i] is None:
                loop.first[i] = result
        loop.cycles += 1
        loop.elapsed = perf() - start - (clock.probe_s - clock.probes[0])
        loop.probes = clock.probes
        if max_cycles is not None and loop.cycles >= max_cycles:
            break
        if loop.elapsed * (loop.cycles + 0.5) / loop.cycles > budget:
            break
    return loop


def independent_checks(rc, workload, data, objs, loop: Loop):
    check = checks.CHECKS[workload]
    for i, task in enumerate(data):
        if loop.first[i] is None:
            continue
        try:
            reason = check(rc, task, objs[i], loop.first[i], ROOT)
        except Exception as e:
            reason = f"check raised {type(e).__name__}: {e}"
        if reason is not None:
            loop.fail(i, reason, runs=len(loop.samples[i]))


def tail_percentile(k: int) -> int:
    """Highest whole percentile with at least ten of k tasks beyond it."""
    for p in range(99, 0, -1):
        if k - math.ceil(p * k / 100) >= 10:
            return p
    return 100


def _timings(per_task: list[list[float]], loop_s: float, verified: int,
             setup_s: list[float]) -> dict:
    meds = sorted(statistics.median(s) for s in per_task)
    k = len(meds)
    tail = meds[max(math.ceil(tail_percentile(k) * k / 100), 1) - 1]
    return {"tasks_per_s": verified / loop_s,
            "task_p50_ms": statistics.median(meds) * 1e3,
            "task_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setup_s)}


def end_to_end(loop: Loop, setup: dict) -> tuple[dict, dict, dict]:
    """(corrected values, raw wall values, run info)."""
    k = len(loop.samples)
    p = tail_percentile(k)
    common = {
        "fail_frac": loop.failed / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    verified = loop.attempted - loop.failed
    values = _timings(loop.scaled, sum(map(sum, loop.scaled)), verified,
                      setup["scaled"]) | common
    raw = _timings(loop.samples, loop.elapsed, verified, setup["wall"]) | common
    info = {"tasks": k, "executions": loop.attempted, "cycles": loop.cycles,
            "tail_percentile": p,
            "beyond_tail": k - max(math.ceil(p * k / 100), 1),
            "probe_ms": statistics.median(loop.probes) * 1e3}
    return values, raw, info


def _expected(workload, seed, data):
    refs = checks.load_references(workload, seed)
    if refs is None:
        return [None] * len(data), False
    return [refs.get(t["id"]) for t in data], True


def _report_failures(data, loop: Loop, out):
    for i, reason in enumerate(loop.reason):
        if reason is not None:
            print(f"FAILED {data[i]['id']}: {reason}", file=out)


def traced_run(rc, workload, seed, data, objs, expected, untraced_tps, out):
    """One cycle with every layer wrapped; returns the loop and the
    per-layer metrics."""
    tracer = Tracer(rc)
    patched = tracer.install()
    try:
        loop = run_loop(rc, workload, data, objs, expected, 0, max_cycles=1,
                        tracer=tracer)
    finally:
        tracer.uninstall()
    if not tracer.restored():
        raise AssertionError("tracer left a wrapped name behind")
    independent_checks(rc, workload, data, objs, loop)
    _report_failures(data, loop, out)
    values = tracer.metrics(loop.cycles)
    traced_tps = (loop.attempted - loop.failed) / sum(map(sum, loop.scaled))
    values["trace.overhead_frac"] = 1 - traced_tps / untraced_tps
    os.makedirs(WORKDIR, exist_ok=True)
    tracer.write_spans(os.path.join(WORKDIR, f"spans-{workload}-{seed}.json"))
    total = tracer.incl_s["bench"]
    print(f"  traced: {patched} names wrapped, one cycle in "
          f"{loop.elapsed:.2f} s; time by layer (self = minus wrapped calls "
          f"inside; inclusive = outermost calls):", file=out)
    for name, own, incl in tracer.layer_table():
        print(f"    {name:<11} self {own:8.3f} s {100 * own / total:5.1f}%"
              f"   inclusive {incl:8.3f} s {100 * incl / total:5.1f}%", file=out)
    return loop, {n: {"value": v, "unit": LAYER_UNITS[n]}
                  for n, v in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, out=sys.stdout) -> dict:
    os.environ.pop("RHOCALC_TRUNC", None)   # the CLI default must be 8
    rc, data, objs, setup_times = setup(workload, seed, tiny)
    expected, have_refs = _expected(workload, seed, data)
    print(f"workload {workload}, seed {seed}: {len(data)} tasks per cycle; "
          + ("outputs checked against references recorded at the parent "
             "commit and by independent checks" if have_refs else
             "no stored references for this seed, independent checks only"),
          file=out)
    budget = seconds / 2 if trace else seconds
    loop = run_loop(rc, workload, data, objs, expected, budget)
    independent_checks(rc, workload, data, objs, loop)
    values, raw, info = end_to_end(loop, setup_times)
    _report_failures(data, loop, out)
    attempted, failed = loop.attempted, loop.failed
    print(f"  {info['executions']} executions in {info['cycles']} cycles, "
          f"{loop.elapsed:.2f} s; per-task medians over {info['tasks']} tasks; "
          f"tail is p{info['tail_percentile']} ({info['beyond_tail']} tasks "
          f"beyond it); speed probe median {info['probe_ms']:.3f} ms, "
          f"reference {PROBE_REF_S * 1e3:g} ms", file=out)
    print(f"  {'metric':<14} {'corrected':>12} {'raw wall':>12}", file=out)
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<14} {values[name]:>12.6g} {raw[name]:>12.6g} {unit}",
              file=out)
    if trace:
        traced, metrics = traced_run(rc, workload, seed, data, objs, expected,
                                     values["tasks_per_s"], out)
        attempted += traced.attempted
        failed += traced.failed
    else:
        metrics = {n: {"value": values[n], "unit": END_TO_END_UNITS[n]}
                   for n in REPORTED}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), file=out)
    return result


def record_references(seed: int):
    """Store the output digests of every task for `seed` (run this at the
    commit whose outputs are the reference)."""
    with open(checks.REFERENCES, encoding="utf-8") as fh:
        refs = json.load(fh)
    for workload in workloads.WORKLOADS:
        rc, data, objs, _ = setup(workload, seed)
        text = workloads.TEXTS[workload]
        runner = workloads.RUNNERS[workload]
        refs.setdefault(workload, {})[str(seed)] = {
            t["id"]: checks.digest(text(runner(rc, t, objs[i])))
            for i, t in enumerate(data)}
    with open(checks.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="store output digests for --seed and exit")
    args = ap.parse_args(argv)
    try:
        if args.record_references:
            record_references(args.seed)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError) as e:
        print(f"bench: cannot run: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
