"""In-memory span tracer that instruments the ``pdsr`` package from outside.

Inside ``with tracing(tracer, pdsr):`` every public function of every
``pdsr`` module is replaced, at each module binding that callers resolve at
call time, with a wrapper that records a span; a few methods and the HiGHS
entry point are wrapped as well (see ``METHODS`` and ``FOREIGN``).  On exit
every original object is put back.  The package itself is never edited.

A span holds its name, the module binding it was called through, start and
end (``time.perf_counter``), its parent span, the run id that was current
when it opened, and attributes a probe read from the call.  Spans stay in
memory until the caller writes them out.  ``layer_metrics`` turns the spans
of one pipeline pass into the per-layer figures listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import math
import pkgutil
import threading
import time

# marks a wrapper and points back at what it replaced
ORIGINAL = "__perfbench_original__"

# (module, class, method, span name): methods worth a span of their own
METHODS = (
    ("pdsr.adn", "AdnProblem", "build_model", "adn.build_model"),
    ("pdsr.uc", "UcProblem", "build_model", "uc.build_model"),
    ("pdsr.milp", "MixedBinaryModel", "max_violation", "milp.verify"),
)
# (module, attribute, span name): non-pdsr callables bound inside pdsr
FOREIGN = (("pdsr.milp", "highs_milp", "milp.highs"),)


class Span:
    __slots__ = ("id", "name", "binding", "start", "end", "parent", "run_id",
                 "attrs")

    def __init__(self, sid, name, binding, parent, run_id):
        self.id = sid
        self.name = name
        self.binding = binding
        self.parent = parent
        self.run_id = run_id
        self.attrs = {}
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "binding": self.binding,
                "start": self.start, "end": self.end, "parent": self.parent,
                "run_id": self.run_id, "attrs": self.attrs}


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, binding, parent=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, binding, parent, self.run_id)
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name, binding, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, binding)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if probe is not None:
                probe(span, args, kwargs, result)
            return result

        setattr(traced, ORIGINAL, fn)
        return traced

    def wrap_pmap(self, fn, binding):
        """``pmap`` gets a span, and each task a child span of it, also
        when the task runs on a pool thread with an empty stack."""
        tracer = self

        @functools.wraps(fn)
        def traced(task, items, workers=1):
            items = list(items)
            span = tracer.open("parallel.pmap", binding)
            pooled = workers > 1 and len(items) > 1
            span.attrs["workers"] = min(workers, len(items)) if pooled else 1

            def run_task(item):
                child = tracer.open("parallel.task", binding, parent=span.id)
                try:
                    return task(item)
                finally:
                    tracer.close(child)

            try:
                return fn(run_task, items, workers)
            finally:
                tracer.close(span)

        setattr(traced, ORIGINAL, fn)
        return traced


# -- probes: counts read at the same boundary as the span ------------------


def _bound_args(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _probe_solution(span, args, kwargs, sol):
    span.attrs["nodes"] = int(sol.node_count)
    # an optimal solve now and then comes back without a finite gap
    if math.isfinite(sol.mip_gap):
        span.attrs["mip_gap"] = float(sol.mip_gap)


def _probe_stochastic(fn):
    bind = _bound_args(fn)

    def probe(span, args, kwargs, result):
        a = bind(args, kwargs)
        ids = tuple(s.id for s in a["scenarios"])
        weights = tuple(float(w) for w in a["weights"])
        span.attrs["key"] = hash((ids, weights))
    return probe


def _probe_fixed(fn):
    bind = _bound_args(fn)

    def probe(span, args, kwargs, result):
        a = bind(args, kwargs)
        span.attrs["key"] = hash((a["decision"].values.tobytes(),
                                  a["scenario"].id))
    return probe


PROBES = {
    "milp.solve_milp": lambda fn: _probe_solution,
    "tsso.solve_stochastic": _probe_stochastic,
    "tsso.evaluate_with_fixed_first_stage": _probe_fixed,
}


# -- instrumentation --------------------------------------------------------


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def pdsr_modules(package) -> list:
    """The package and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def _instrument(tracer: Tracer, package) -> list:
    """Wrap every public pdsr function at every pdsr binding; returns the
    (owner, attribute, original) triples that undo it."""
    undo = []
    modules = {}
    for mod in pdsr_modules(package):
        binding = _short(mod.__name__)
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            owner = getattr(value, "__module__", "") or ""
            if not owner.startswith(package.__name__ + "."):
                continue
            name = f"{_short(owner)}.{value.__name__}"
            if name == "parallel.pmap":
                wrapper = tracer.wrap_pmap(value, binding)
            else:
                make_probe = PROBES.get(name)
                wrapper = tracer.wrap(value, name, binding,
                                      make_probe(value) if make_probe else None)
            undo.append((mod, attr, value))
            setattr(mod, attr, wrapper)
        modules[mod.__name__] = mod
    for modname, attr, name in FOREIGN:
        mod = modules[modname]
        value = getattr(mod, attr)
        undo.append((mod, attr, value))
        setattr(mod, attr, tracer.wrap(value, name, _short(modname)))
    for modname, cls_name, attr, name in METHODS:
        cls = getattr(modules[modname], cls_name)
        value = cls.__dict__[attr]
        undo.append((cls, attr, value))
        setattr(cls, attr, tracer.wrap(value, name, _short(modname)))
    return undo


@contextlib.contextmanager
def tracing(tracer: Tracer, package):
    """Instrumented for the duration of the block, restored after it."""
    undo = _instrument(tracer, package)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def wrapped_bindings(package) -> list[str]:
    """Names of pdsr bindings that still hold a tracing wrapper."""
    left = []
    for mod in pdsr_modules(package):
        for attr, value in vars(mod).items():
            if hasattr(value, ORIGINAL):
                left.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(value):
                for m, v in vars(value).items():
                    if hasattr(v, ORIGINAL):
                        left.append(f"{mod.__name__}.{attr}.{m}")
    return left


# -- span arithmetic --------------------------------------------------------


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _union_length(
                [(max(lo, s.start), min(hi, s.end))
                 for lo, hi in children.get(s.id, ()) if hi > s.start
                 and lo < s.end])
            for s in spans}


def _outermost(spans, name):
    """Spans called ``name`` that are not nested in another of that name."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != name:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def _repeat_frac(spans) -> float:
    """Share of calls whose key was already seen earlier in the same
    command (run id)."""
    seen, repeats = set(), 0
    for s in sorted(spans, key=lambda s: s.start):
        key = (s.run_id, s.attrs["key"])
        repeats += key in seen
        seen.add(key)
    return repeats / len(spans) if spans else 0.0


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least 10 samples beyond."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]


# metric name -> (unit, better); values come from layer_metrics()
LAYER_METRICS = {
    "scenarios.load.calls": ("count", "lower"),
    "scenarios.load.s": ("s", "lower"),
    "projection.fingerprint.s": ("s", "lower"),
    "projection.load.calls": ("count", "lower"),
    "projection.load.s": ("s", "lower"),
    "projection.save.s": ("s", "lower"),
    "projection.diag.busy_s": ("s", "lower"),
    "projection.cross.busy_s": ("s", "lower"),
    "projection.cells": ("count", "lower"),
    "projection.cell_ms.p50": ("ms", "lower"),
    "projection.cell_ms.tail": ("ms", "lower"),
    "adn.build_model.calls": ("count", "lower"),
    "adn.build_model.s": ("s", "lower"),
    "uc.build_model.calls": ("count", "lower"),
    "uc.build_model.s": ("s", "lower"),
    "milp.solve_milp.calls": ("count", "lower"),
    "milp.solve_milp.self_s": ("s", "lower"),
    "milp.highs.s": ("s", "lower"),
    "milp.verify.s": ("s", "lower"),
    "milp.nodes": ("count", "lower"),
    "milp.root_closed_frac": ("ratio", "higher"),
    "milp.max_mip_gap": ("ratio", "lower"),
    "tsso.solve_stochastic.calls": ("count", "lower"),
    "tsso.solve_stochastic.s": ("s", "lower"),
    "tsso.solve_stochastic.repeat_frac": ("ratio", "lower"),
    "tsso.evaluate_fixed.calls": ("count", "lower"),
    "tsso.evaluate_fixed.s": ("s", "lower"),
    "tsso.evaluate_fixed.repeat_frac": ("ratio", "lower"),
    "parallel.pmap.s": ("s", "lower"),
    "parallel.utilization": ("ratio", "higher"),
    "clustering.compute_pdd.s": ("s", "lower"),
    "clustering.solve_clustering.calls": ("count", "lower"),
    "clustering.solve_clustering.s": ("s", "lower"),
    "baselines.run_baseline.s": ("s", "lower"),
    "evaluation.benchmark_solve.calls": ("count", "lower"),
    "evaluation.benchmark_solve.s": ("s", "lower"),
    "evaluation.optimality_gap.s": ("s", "lower"),
    "evaluation.scenario_effectiveness.s": ("s", "lower"),
    "evaluation.verification_costs.calls": ("count", "lower"),
    "evaluation.verification_costs.s": ("s", "lower"),
}

# metric stem -> span name (for .calls and inclusive .s metrics)
_SPAN_OF = {
    "scenarios.load": "scenarios.load_scenarios",
    "projection.fingerprint": "projection.fingerprint",
    "projection.load": "projection.load_matrix",
    "projection.save": "projection.save_matrix",
    "adn.build_model": "adn.build_model",
    "uc.build_model": "uc.build_model",
    "milp.solve_milp": "milp.solve_milp",
    "milp.highs": "milp.highs",
    "milp.verify": "milp.verify",
    "tsso.solve_stochastic": "tsso.solve_stochastic",
    "tsso.evaluate_fixed": "tsso.evaluate_with_fixed_first_stage",
    "parallel.pmap": "parallel.pmap",
    "clustering.compute_pdd": "clustering.compute_pdd",
    "clustering.solve_clustering": "clustering.solve_clustering",
    "baselines.run_baseline": "baselines.run_baseline",
    "evaluation.optimality_gap": "evaluation.optimality_gap",
    "evaluation.scenario_effectiveness": "evaluation.scenario_effectiveness",
    "evaluation.verification_costs": "evaluation.verification_costs",
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one pipeline pass (every LAYER_METRICS key)."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for stem, name in _SPAN_OF.items():
        out[f"{stem}.calls"] = len(by_name.get(name, ()))
        out[f"{stem}.s"] = sum(s.duration for s in _outermost(spans, name))

    diag = [s for s in by_name.get("tsso.solve_scenario_specific", ())
            if s.binding == "projection"]
    cross = [s for s in by_name.get("tsso.evaluate_with_fixed_first_stage", ())
             if s.binding == "projection"]
    out["projection.diag.busy_s"] = sum(s.duration for s in diag)
    out["projection.cross.busy_s"] = sum(s.duration for s in cross)
    out["projection.cells"] = len(cross)
    cell_ms = [1e3 * s.duration for s in cross]
    tail = tail_percentile(len(cell_ms))
    out["projection.cell_ms.p50"] = percentile(cell_ms, 50.0) if cell_ms else 0.0
    out["projection.cell_ms.tail"] = (percentile(cell_ms, tail)
                                      if tail is not None else 0.0)

    solves = by_name.get("milp.solve_milp", [])
    own = self_times(spans)
    out["milp.solve_milp.self_s"] = sum(own[s.id] for s in solves)
    out["milp.nodes"] = sum(s.attrs.get("nodes", 0) for s in solves)
    out["milp.root_closed_frac"] = (
        sum(s.attrs.get("nodes") == 1 for s in solves) / len(solves)
        if solves else 0.0)
    out["milp.max_mip_gap"] = max((s.attrs.get("mip_gap", 0.0) for s in solves),
                                  default=0.0)

    for stem in ("tsso.solve_stochastic", "tsso.evaluate_fixed"):
        done = [s for s in by_name.get(_SPAN_OF[stem], ()) if "key" in s.attrs]
        out[f"{stem}.repeat_frac"] = _repeat_frac(done)

    pmaps = by_name.get("parallel.pmap", [])
    capacity = sum(s.attrs["workers"] * s.duration for s in pmaps)
    busy = sum(s.duration for s in by_name.get("parallel.task", ()))
    out["parallel.utilization"] = busy / capacity if capacity > 0 else 0.0

    bench = [s for s in by_name.get("projection.solve_benchmark", ())
             if s.binding == "evaluation"]
    out["evaluation.benchmark_solve.calls"] = len(bench)
    out["evaluation.benchmark_solve.s"] = sum(s.duration for s in bench)

    missing = set(LAYER_METRICS) - set(out)
    if missing:
        raise KeyError(f"layer metrics not computed: {sorted(missing)}")
    return {k: out[k] for k in LAYER_METRICS}


def tail_label(spans) -> str:
    """Which percentile ``projection.cell_ms.tail`` reports, e.g. 'p95'."""
    n = sum(1 for s in spans if s.name == "tsso.evaluate_with_fixed_first_stage"
            and s.binding == "projection")
    p = tail_percentile(n)
    return "none" if p is None else f"p{p:g}"
