"""Per-layer tracing of rhocalc from outside the library.

`Tracer.install()` wraps the public functions of each `rhocalc` module (on
their classes, and under every name any rhocalc module bound them to) and
`uninstall()` puts the original objects back.  A wrapper times its call and
charges the call's *self* time (its duration minus the time of wrapped calls
inside it) to the function's layer, which is the rhocalc module it belongs
to.  Hot calls (scalar, degree, monomial and polynomial ops) only bump
counters; coarse calls also record a span with the task id and the parent
span.  Everything stays in memory until `write_spans()`.
"""

from __future__ import annotations

import json
import time
import types
from collections import Counter, defaultdict

# (layer, owner class or None, attribute names, record a span?); the layer
# is the rhocalc module a function lives in, its key "<layer>.<name>"
TARGETS = [
    ("cyclo", "Cyclo", ["__add__", "__radd__", "__sub__", "__rsub__",
                        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                        "inverse", "__neg__", "lift"], False),
    ("grading", "CommutationFactor", ["phase", "rho"], False),
    ("grading", "Degree", ["__add__", "__sub__", "__neg__", "__mul__",
                           "__rmul__"], False),
    ("grading", "GroupSpec", ["reduce"], False),
    ("algebra", "Context", ["__init__", "mono_mul"], False),
    ("algebra", "GradedPoly", ["__mul__", "__rmul__", "__add__", "__radd__",
                               "__sub__", "__rsub__", "__neg__", "__pow__",
                               "scale", "invert", "exp", "log"], False),
    ("algebra", None, ["lift_poly", "substitute", "rho_commutator",
                       "prime_context", "poly_text"], False),
    ("derivation", "Derivation", ["apply"], True),
    ("derivation", None, ["commutator", "is_homological", "partial",
                          "ce_differential"], False),
    ("matrix", None, ["rho_det"], True),
    ("matrix", None, ["rho_ber", "inverse", "rho_tr", "transpose",
                      "matrix_commutator"], False),
    ("matrix", "GradedMatrix", ["__matmul__", "__add__", "__sub__",
                                "__neg__"], False),
    ("geometry", None, ["jacobian", "jacobian_berezinian", "cocycle_check",
                        "cartan_report", "schouten", "de_rham",
                        "lift_to_shifted_cotangent", "q_structure_report",
                        "chain_rule_check", "shifted_cotangent", "make_chart",
                        "tangent_bundle", "cotangent_bundle"], False),
    ("volume", None, ["exactness_solve"], True),
    ("volume", None, ["modular_class", "divergence", "divergence_on_chart",
                      "volumes_equivalent", "lie_derivative_volume"], False),
    ("linsolve", None, ["solve_linear"], True),
    ("dsl", None, ["run_session"], True),
    ("dsl", None, ["parse_session", "tokenize"], False),
    ("dsl", "Runner", ["run"], False),
    ("cli", None, ["main"], False),
]

_CYCLO_BINARY = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__"}
_CYCLO_OPS = _CYCLO_BINARY | {"inverse"}
_POLY_ADD = {"__add__", "__radd__", "__sub__", "__rsub__"}

LAYER_UNITS = {
    "cyclo.ops": "count", "cyclo.self_s": "s", "cyclo.lift.calls": "count",
    "cyclo.mixed_conductor_frac": "ratio",
    "grading.phase.calls": "count", "grading.degree_ops": "count",
    "grading.self_s": "s",
    "algebra.mono_mul.calls": "count", "algebra.mono_mul.kept_frac": "ratio",
    "algebra.poly_mul.calls": "count", "algebra.poly_mul.term_pairs": "count",
    "algebra.poly_add.calls": "count", "algebra.series.calls": "count",
    "algebra.context.builds": "count", "algebra.self_s": "s",
    "derivation.apply.calls": "count", "derivation.apply.repeat_frac": "ratio",
    "derivation.self_s": "s",
    "matrix.rho_det.calls": "count", "matrix.rho_det.self_s": "s",
    "matrix.rho_ber.self_s": "s", "matrix.inverse.calls": "count",
    "matrix.inverse.self_s": "s", "matrix.matmul.calls": "count",
    "geometry.calls": "count", "geometry.self_s": "s",
    "volume.exactness.calls": "count", "volume.exactness.self_s": "s",
    "volume.exactness.span": "count", "volume.inconclusive_frac": "ratio",
    "linsolve.solve.calls": "count", "linsolve.solve.self_s": "s",
    "linsolve.cells": "count", "linsolve.nosolution_frac": "ratio",
    "dsl.parse.self_s": "s", "dsl.run.self_s": "s", "dsl.statements": "count",
    "dsl.failed_frac": "ratio", "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Wraps rhocalc in place; one instance per traced run."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> rhocalc module
        self.patched: list[tuple[object, str, object]] = []
        self.stack: list[list] = []     # [start, child time, key, span id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self.spans: list[tuple] = []
        self.depth: Counter = Counter()     # open calls per layer
        self.incl_s: dict[str, float] = defaultdict(float)
        self.task = None
        self._seen: set = set()

    # -- tasks and spans ---------------------------------------------------------

    def begin_task(self, task_id: str):
        self.task = task_id
        self._seen = set()
        self.stack.append([time.perf_counter(), 0.0, "task", len(self.spans)])
        self.spans.append(None)

    def end_task(self):
        start, child, key, sid = self.stack.pop()
        end = time.perf_counter()
        self.self_s["bench.task"] += end - start - child
        self.incl_s["bench"] += end - start
        self.spans[sid] = ("task", self.task, sid, None, start, end)

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    # -- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, span: bool):
        key = f"{layer}.{name}"
        tracer = self
        stack = self.stack
        self_s = self.self_s
        incl_s = self.incl_s
        depth = self.depth
        count = self.count
        perf = time.perf_counter
        hook = _HOOKS.get((layer, name))
        nest_tag = None
        if layer == "cyclo" and name in _CYCLO_OPS:
            nest_tag = "cyclo.op"
        elif layer == "algebra" and name in _POLY_ADD:
            nest_tag = "algebra.add"

        def wrapper(*args, **kwargs):
            outer = not (nest_tag and stack and stack[-1][2] == nest_tag)
            sid = None
            if span:
                sid = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer._parent_span()
            frame = [perf(), 0.0, nest_tag or key, sid]
            stack.append(frame)
            entered = depth[layer]
            depth[layer] = entered + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[layer] = entered
                dur = end - frame[0]
                self_s[key] += dur - frame[1]
                if not entered:
                    incl_s[layer] += dur
                if stack:
                    stack[-1][1] += dur
                count[key] += 1
                if span:
                    tracer.spans[sid] = (key, tracer.task, sid, parent,
                                         frame[0], end)
            if hook is not None:
                hook(tracer, outer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> int:
        """Wrap every target; returns the number of names patched."""
        mods = list(self.modules.values())
        for layer, cls, names, span in TARGETS:
            mod = self.modules[layer]
            if cls is not None:
                owner = getattr(mod, cls)
                for name in names:
                    fn = owner.__dict__[name]
                    self._set(owner, name, self._wrap(fn, layer, name, span))
                continue
            for name in names:
                fn = getattr(mod, name)
                wrapper = self._wrap(fn, layer, name, span)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, attr, wrapper)
        leftover = self.unwrapped_references()
        if leftover:
            raise AssertionError(f"names left unwrapped: {leftover}")
        n_targets = sum(len(names) for _, _, names, _ in TARGETS)
        if len(self.patched) < n_targets:
            raise AssertionError(
                f"patched {len(self.patched)} names for {n_targets} targets")
        return len(self.patched)

    def unwrapped_references(self) -> list[str]:
        """Module-level names still bound to a function that was wrapped."""
        wrapped = {id(orig) for owner, _, orig in self.patched
                   if isinstance(owner, types.ModuleType)}
        return [f"{mname}.{attr}" for mname, m in self.modules.items()
                for attr, val in vars(m).items() if id(val) in wrapped]

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)

    def restored(self) -> bool:
        """Every patched name is bound to its original object again."""
        return all(vars(owner)[attr] is orig
                   for owner, attr, orig in self.patched)

    # -- results -------------------------------------------------------------------

    def metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics per cycle (counts and self seconds): every
        name of LAYER_UNITS but trace.overhead_frac, which needs the
        untraced run."""
        c, s = self.count, self.self_s

        def layer_self(layer):
            return sum(v for k, v in s.items() if k.startswith(layer + "."))

        def frac(num, den):
            return num / den if den else 0.0

        per = 1.0 / cycles
        ops = c["cyclo.ops"]
        m = {
            "cyclo.ops": ops * per,
            "cyclo.self_s": layer_self("cyclo") * per,
            "cyclo.lift.calls": c["cyclo.lift"] * per,
            "cyclo.mixed_conductor_frac": frac(c["cyclo.mixed"],
                                               c["cyclo.binary"]),
            "grading.phase.calls": (c["grading.phase"] + c["grading.rho"]) * per,
            "grading.degree_ops": sum(c[f"grading.{n}"] for n in (
                "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                "reduce")) * per,
            "grading.self_s": layer_self("grading") * per,
            "algebra.mono_mul.calls": c["algebra.mono_mul"] * per,
            "algebra.mono_mul.kept_frac": frac(c["algebra.mono_mul.kept"],
                                               c["algebra.mono_mul"]),
            "algebra.poly_mul.calls": c["algebra.poly_mul"] * per,
            "algebra.poly_mul.term_pairs": c["algebra.term_pairs"] * per,
            "algebra.poly_add.calls": c["algebra.poly_add"] * per,
            "algebra.series.calls": sum(c[f"algebra.{n}"] for n in (
                "invert", "exp", "log")) * per,
            "algebra.context.builds": c["algebra.__init__"] * per,
            "algebra.self_s": layer_self("algebra") * per,
            "derivation.apply.calls": c["derivation.apply"] * per,
            "derivation.apply.repeat_frac": frac(c["derivation.repeat"],
                                                 c["derivation.apply"]),
            "derivation.self_s": layer_self("derivation") * per,
            "matrix.rho_det.calls": c["matrix.rho_det"] * per,
            "matrix.rho_det.self_s": s["matrix.rho_det"] * per,
            "matrix.rho_ber.self_s": s["matrix.rho_ber"] * per,
            "matrix.inverse.calls": c["matrix.inverse"] * per,
            "matrix.inverse.self_s": s["matrix.inverse"] * per,
            "matrix.matmul.calls": c["matrix.__matmul__"] * per,
            "geometry.calls": sum(v for k, v in c.items()
                                  if k.startswith("geometry.")) * per,
            "geometry.self_s": layer_self("geometry") * per,
            "volume.exactness.calls": c["volume.exactness_solve"] * per,
            "volume.exactness.self_s": s["volume.exactness_solve"] * per,
            "volume.exactness.span": c["volume.span"] * per,
            "volume.inconclusive_frac": frac(c["volume.inconclusive"],
                                             c["volume.exactness_solve"]),
            "linsolve.solve.calls": c["linsolve.solve_linear"] * per,
            "linsolve.solve.self_s": s["linsolve.solve_linear"] * per,
            "linsolve.cells": c["linsolve.cells"] * per,
            "linsolve.nosolution_frac": frac(c["linsolve.nosolution"],
                                             c["linsolve.solve_linear"]),
            "dsl.parse.self_s": (s["dsl.parse_session"] + s["dsl.tokenize"]) * per,
            "dsl.run.self_s": s["dsl.run"] * per,
            "dsl.statements": c["dsl.statements"] * per,
            "dsl.failed_frac": frac(c["dsl.failed"], c["dsl.statements"]),
            "cli.self_s": s["cli.main"] * per,
        }
        return m

    def layer_table(self) -> list[tuple[str, float, float]]:
        """(layer, self seconds, inclusive seconds), slowest self first;
        "bench" is task time outside rhocalc, and its inclusive time is
        the whole traced task time."""
        own = defaultdict(float)
        for k, v in self.self_s.items():
            own[k.split(".")[0]] += v
        rows = [(layer, own[layer], self.incl_s[layer])
                for layer in set(own) | set(self.incl_s)]
        return sorted(rows, key=lambda r: -r[1])

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "task", "id", "parent", "start", "end"],
                       "spans": self.spans}, fh)


# -- counters bumped after a wrapped call returns ------------------------------------------

def _cyclo_binary(t, outer, args, result):
    if outer:
        t.count["cyclo.ops"] += 1
        t.count["cyclo.binary"] += 1
        other = args[1]
        if getattr(other, "n", 1) != args[0].n:
            t.count["cyclo.mixed"] += 1


def _cyclo_inverse(t, outer, args, result):
    if outer:
        t.count["cyclo.ops"] += 1


def _mono_mul(t, outer, args, result):
    if result is not None:
        t.count["algebra.mono_mul.kept"] += 1


def _poly_mul(t, outer, args, result):
    other = args[1]
    terms = getattr(other, "terms", None)
    if terms is not None:
        t.count["algebra.poly_mul"] += 1
        t.count["algebra.term_pairs"] += len(args[0].terms) * len(terms)


def _poly_add(t, outer, args, result):
    if outer:
        t.count["algebra.poly_add"] += 1


def _apply(t, outer, args, result):
    f = args[1]
    if len(f.terms) == 1:
        key = (id(args[0]), next(iter(f.terms)))
        if key in t._seen:
            t.count["derivation.repeat"] += 1
        else:
            t._seen.add(key)


def _exactness(t, outer, args, result):
    t.count["volume.span"] += result.searched
    if result.verdict == "inconclusive":
        t.count["volume.inconclusive"] += 1


def _solve(t, outer, args, result):
    rows = args[0]
    t.count["linsolve.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    if result is None:
        t.count["linsolve.nosolution"] += 1


def _runner_run(t, outer, args, result):
    t.count["dsl.statements"] += len(result)
    t.count["dsl.failed"] += sum(1 for r in result if not r.ok)


_HOOKS = {("cyclo", n): _cyclo_binary for n in _CYCLO_BINARY}
_HOOKS.update({
    ("cyclo", "inverse"): _cyclo_inverse,
    ("algebra", "mono_mul"): _mono_mul,
    ("algebra", "__mul__"): _poly_mul,
    ("derivation", "apply"): _apply,
    ("volume", "exactness_solve"): _exactness,
    ("linsolve", "solve_linear"): _solve,
    ("dsl", "run"): _runner_run,
})
_HOOKS.update({("algebra", n): _poly_add for n in _POLY_ADD})
