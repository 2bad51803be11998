"""Layer timing from outside: wrappers around each layer's entry points.

:class:`LayerTracer` replaces the entry points listed in :data:`ENTRY_POINTS`
with wrappers that record one span per call -- name, start, end, parent --
and a few counts taken from the call's arguments and result.  The parent is
the innermost open span *of the calling thread* (the span stack lives in a
``threading.local``), because a service job runs on a dispatcher thread,
not on the thread that submitted it.

A function imported by name (``from repro.petri.traps_siphons import
maximal_trap_with_support_outside``) is bound in every importing module, so
:meth:`LayerTracer.install` patches every ``repro`` module attribute that is
the original object, not only the defining module.  :meth:`uninstall`
restores them all and raises if any wrapper is left anywhere.

Nothing here changes what the wrapped calls compute; the tracer only adds
the cost of one Python call and two clock reads per call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("smtlite", "constraints", "petri", "verification", "engine", "service", "io", "obs")

_MARKER = "__perfbench_wrapper__"


def _builder_methods() -> list[str]:
    from repro.constraints.builders import ConstraintBuilder

    return [
        name
        for name, value in vars(ConstraintBuilder).items()
        if not name.startswith("_") and callable(value)
    ]


#: span name -> targets ``(module, attribute path)``.  Span names start with
#: the layer (the module under ``src/repro/``) the call belongs to.
ENTRY_POINTS = {
    "smtlite.check": [("repro.smtlite.solver", "Solver.check")],
    "smtlite.check_conjunction": [("repro.smtlite.solver", "Solver.check_conjunction")],
    "smtlite.theory.check": [
        ("repro.smtlite.scipy_backend", "ScipyTheorySolver.check"),
        ("repro.smtlite.theory", "ExactTheorySolver.check"),
    ],
    "smtlite.milp": [("scipy.optimize", "milp")],
    "smtlite.lp": [("scipy.optimize", "linprog")],
    "smtlite.core.extract": [("repro.smtlite.scipy_backend", "ScipyTheorySolver._extract_core")],
    "smtlite.core.probe": [
        ("repro.smtlite.scipy_backend", "ScipyTheorySolver._subset_proven_infeasible")
    ],
    "smtlite.core.shrink": [("repro.smtlite.scipy_backend", "ScipyTheorySolver._dichotomic_shrink")],
    "smtlite.core.minimize": [("repro.smtlite.theory", "TheorySolverBase.minimize_core")],
    "constraints.patterns": [("repro.constraints.builders", "terminal_support_patterns")],
    "constraints.simplify": [
        ("repro.constraints.simplify_cache", "simplify_system_cached"),
        ("repro.constraints.incremental", "ScopedSimplifier.add_delta"),
    ],
    "constraints.scope": [("repro.constraints.incremental", "ScopedSimplifier.push")],
    "constraints.backend": [("repro.constraints.backends", "create_solver")],
    "petri.trap_search": [("repro.petri.traps_siphons", "maximal_trap_with_support_outside")],
    "petri.siphon_search": [("repro.petri.traps_siphons", "maximal_siphon_with_support_outside")],
    "verification.ws3": [("repro.verification.ws3", "verify_ws3_impl")],
    "verification.strong_consensus": [
        ("repro.verification.strong_consensus", "check_strong_consensus_impl")
    ],
    "verification.refine": [("repro.verification.strong_consensus", "find_refinement")],
    "verification.lt": [("repro.verification.layered_termination", "check_layered_termination_impl")],
    "verification.correctness": [("repro.verification.correctness", "check_correctness_impl")],
    "engine.cache.get": [("repro.engine.cache", "ResultCache.get")],
    "engine.cache.put": [("repro.engine.cache", "ResultCache.put")],
    "service.submit": [("repro.service.service", "VerificationService.submit")],
    "service.run_job": [("repro.service.service", "VerificationService._run_check_job")],
    "service.journal.append": [("repro.service.journal", "JobJournal.append")],
    "service.respond": [("repro.service.serve", "ServeSession._respond")],
    "io.report_encode": [("repro.api.report", "VerificationReport.to_dict")],
    "io.report_decode": [("repro.api.report", "VerificationReport.from_dict")],
    "io.protocol_encode": [("repro.io.serialization", "protocol_to_dict")],
    "io.protocol_decode": [("repro.io.serialization", "protocol_from_dict")],
    "obs.metric": [
        ("repro.obs.metrics", "Counter.inc"),
        ("repro.obs.metrics", "Histogram.observe"),
        ("repro.obs.metrics", "Gauge.set"),
    ],
}


def entry_points() -> dict:
    """:data:`ENTRY_POINTS` plus every public method of the IR builder."""
    points = dict(ENTRY_POINTS)
    points["constraints.build"] = [
        ("repro.constraints.builders", f"ConstraintBuilder.{name}") for name in _builder_methods()
    ]
    return points


class LayerTracer:
    """Spans and counts of every wrapped call, while installed."""

    def __init__(self):
        #: (name, start, end, span_id, parent_id, thread id, counts or None)
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []  # (owner, attribute, original raw value)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, function):
        tracer = self
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            returned = False
            try:
                result = function(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = observe(args, kwargs, result) if returned and observe is not None else None
                tracer.spans.append((name, start, end, span_id, parent, threading.get_ident(), counts))

        functools.update_wrapper(wrapper, function)
        setattr(wrapper, _MARKER, name)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("the tracer is already installed")
        for name, targets in entry_points().items():
            for module_name, path in targets:
                module = importlib.import_module(module_name)
                owner_name, _, attribute = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = vars(owner)[attribute]
                if isinstance(raw, (staticmethod, classmethod)):
                    replacement = type(raw)(self._wrap(name, raw.__func__))
                    original = raw.__func__
                else:
                    replacement = self._wrap(name, raw)
                    original = raw
                self._patch(owner, attribute, raw, replacement)
                if not owner_name:
                    # Rebind every module that imported the function by name.
                    for other in _repro_modules():
                        for key, value in list(vars(other).items()):
                            if value is original and other is not owner:
                                self._patch(other, key, value, replacement)

    def _patch(self, owner, attribute: str, raw, replacement) -> None:
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute; raise if a wrapper survives."""
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches.clear()
        # A module imported while the tracer was installed may have bound a
        # wrapper by name; put the original back there too.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if getattr(value, _MARKER, None) is not None and hasattr(value, "__wrapped__"):
                    setattr(module, key, value.__wrapped__)
        leftovers = wrappers_left()
        if leftovers:
            raise RuntimeError(f"layer wrappers left installed: {leftovers}")

    # -- summaries ---------------------------------------------------------

    def summary(self, window_start: float, window_end: float) -> dict:
        return summarize(self.spans, window_start, window_end)

    def chrome_spans(self) -> list[dict]:
        """The spans in the dictionary form of :mod:`repro.obs.trace`."""
        offset = time.time() - time.perf_counter()
        pid = os.getpid()
        return [
            {
                "name": name,
                "span_id": f"pb{span_id}",
                "parent_id": None if parent is None else f"pb{parent}",
                "start": start + offset,
                "end": end + offset,
                "pid": pid,
                "tid": tid,
                "attrs": counts or {},
            }
            for name, start, end, span_id, parent, tid, counts in self.spans
        ]


def summarize(spans, window_start: float, window_end: float) -> dict:
    """Per-name calls, time and counts, self time by layer, uncovered share.

    Only the spans that start and end inside the window count, so work
    before it (a daemon's warm-up job) or after it (its drain) stays out.
    """
    spans = [tuple(span) for span in spans if window_start <= span[1] and span[2] <= window_end]
    by_id = {span[3]: span for span in spans}
    children_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4] is not None:
            children_time[span[4]] += span[2] - span[1]
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for name, start, end, span_id, parent, _tid, span_counts in spans:
        calls[name] += 1
        for key, value in (span_counts or {}).items():
            counts[key] += value
        # Time of a name counts its outermost calls only, so a re-entrant
        # entry point is not counted twice.
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[0] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            seconds[name] += end - start
        own = (end - start) - children_time.get(span_id, 0.0)
        self_by_layer[name.split(".", 1)[0]] += max(0.0, own)
    wall = window_end - window_start
    covered = _union_length((span[1], span[2]) for span in spans)
    return {
        "calls": dict(calls),
        "seconds": dict(seconds),
        "self_s": self_by_layer,
        "counts": dict(counts),
        "wall_s": wall,
        "uncovered_ratio": max(0.0, wall - covered) / wall if wall > 0 else 0.0,
    }


def _union_length(intervals) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def wrappers_left() -> list[str]:
    """Every place a layer wrapper is still bound (empty after uninstall)."""
    found = []
    places = [(module.__name__, vars(module)) for module in _repro_modules()]
    scipy_optimize = sys.modules.get("scipy.optimize")
    if scipy_optimize is not None:
        places.append(("scipy.optimize", vars(scipy_optimize)))
    for module_name, namespace in places:
        for key, value in list(namespace.items()):
            if getattr(value, _MARKER, None) is not None:
                found.append(f"{module_name}.{key}")
            elif isinstance(value, type) and getattr(value, "__module__", "").startswith("repro"):
                for attribute, raw in vars(value).items():
                    function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                    if getattr(function, _MARKER, None) is not None:
                        found.append(f"{module_name}.{key}.{attribute}")
    return sorted(set(found))


# ----------------------------------------------------------------------
# Counts taken at the wrapped boundaries
# ----------------------------------------------------------------------


def probe_timed_out(kwargs, result) -> bool:
    """Whether a time-limited MILP stopped at its limit (status 1)."""
    return (kwargs.get("options") or {}).get("time_limit") is not None and result.status == 1


def _observe_extract(args, kwargs, result) -> dict:
    constraints = args[1] if len(args) > 1 else kwargs["constraints"]
    return {"core.rows_in": len(constraints), "core.rows_out": len(result)}


def _observe_probe(args, kwargs, result) -> dict:
    return {"core.probes": 1, "core.probes_proven": int(bool(result))}


def _observe_milp(args, kwargs, result) -> dict | None:
    return {"core.probe_timeouts": 1} if probe_timed_out(kwargs, result) else None


def _observe_cache_get(args, kwargs, result) -> dict:
    return {"cache.gets": 1, "cache.hits": int(result is not None)}


#: Counts taken at a wrapped boundary, recorded on the call's span.
_OBSERVERS = {
    "smtlite.core.extract": _observe_extract,
    "smtlite.core.probe": _observe_probe,
    "smtlite.milp": _observe_milp,
    "engine.cache.get": _observe_cache_get,
}


class ProbeTimeoutCounter:
    """The one count every untraced pass also takes: core-probe timeouts.

    HiGHS probes run under a time limit, so a slower machine could time out
    where a faster one proves, and change the CEGAR trajectory.  Counting
    them on every pass shows when that happens.  Costs one Python call per
    MILP, not a span; the test is :func:`probe_timed_out`, as in the traced
    pass.
    """

    def __init__(self):
        self.timeouts = 0
        self._original = None

    def install(self) -> None:
        from scipy import optimize

        original = self._original = optimize.milp
        counter = self

        def milp(*args, **kwargs):
            result = original(*args, **kwargs)
            counter.timeouts += probe_timed_out(kwargs, result)
            return result

        optimize.milp = milp

    def uninstall(self) -> None:
        from scipy import optimize

        optimize.milp = self._original
