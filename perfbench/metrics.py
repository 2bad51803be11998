"""From an :class:`outcome.Outcome` to named metrics.

End-to-end metrics (``--trace 0``) are what a protocol designer or a daemon
client waits for.  Per-layer metrics (``--trace 1``) come from the traced
pass: ``*_s`` is the time of the outermost calls of an entry point summed
over the pass, counts are summed over the pass, ratios give their base in
``METRICS.md``.  The mapping from each layer metric to the end-to-end
metric it should move is in ``METRICS.md``.
"""

from __future__ import annotations

import json

import summary
from layers import LAYERS
from outcome import report_counts


def end_to_end(outcome) -> dict:
    verdicts = outcome.all_verdicts()
    return {
        "setup_s": summary.median(outcome.setups),
        "wall_s": summary.median(outcome.walls),
        "verdict_geomean_s": summary.geomean(summary.median(v) for v in outcome.verdicts.values()),
        "verdict_p50_s": summary.median(verdicts),
        "verdict_tail_s": summary.tail(verdicts)[0],
        "hit_p50_s": summary.geomean(summary.median(v) for v in outcome.hits.values()),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def describe(outcome) -> list[str]:
    verdicts = outcome.all_verdicts()
    value, percentile = summary.tail(verdicts)
    return [
        f"passes: {len(outcome.walls)} untraced, set-ups: {len(outcome.setups)}",
        f"verdict_tail_s is p{percentile:g} of {len(verdicts)} verdict times"
        + (" (the maximum: fewer than 20 samples)" if percentile == 100.0 else ""),
        f"hit samples: {sum(map(len, outcome.hits.values()))}",
    ]


def changed_trajectories(outcome) -> dict:
    """Instances whose counts did not repeat exactly across passes."""
    return {label: runs for label, runs in outcome.trajectories.items() if len(set(runs)) > 1}


def trajectory_report(outcome) -> list[str]:
    """Every instance's counts, so that runs and seeds can be compared too
    (the renaming keeps them equal), and a loud line for each that changed."""
    changed = changed_trajectories(outcome)
    lines = []
    for label, runs in sorted(outcome.trajectories.items()):
        if label in changed:
            lines.append(f"TRAJECTORY CHANGED: {label} {TRAJECTORY} = {runs}")
        else:
            lines.append(f"trajectory: {label} {TRAJECTORY} = {runs[0]} on {len(runs)} sample(s)")
    return lines


TRAJECTORY = "(iterations, theory checks, probe timeouts)"


PER_LAYER_UNITS = {
    "smtlite.check_s": "s",
    "smtlite.checks": "count",
    "smtlite.theory.check_s": "s",
    "smtlite.theory.checks": "count",
    "smtlite.theory.conflicts": "count",
    "smtlite.theory.cache_hit_ratio": "ratio",
    "smtlite.milp_s": "s",
    "smtlite.core.extract_s": "s",
    "smtlite.core.probes": "count",
    "smtlite.core.probe_proven_ratio": "ratio",
    "smtlite.core.probe_timeouts": "count",
    "smtlite.core.shrink_ratio": "ratio",
    "verification.cegar.iterations": "count",
    "verification.refine_s": "s",
    "verification.pattern_pairs": "count",
    "verification.pairs_solved": "count",
    "verification.lt_s": "s",
    "verification.correctness_s": "s",
    "verification.trajectory_changes": "count",
    "petri.trap_search_s": "s",
    "petri.trap_search.calls": "count",
    "petri.siphon_search_s": "s",
    "petri.siphon_search.calls": "count",
    "constraints.build_s": "s",
    "constraints.simplify_s": "s",
    "constraints.simplify.kept_ratio": "ratio",
    "constraints.scopes": "count",
    "engine.cache.get_s": "s",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.put_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.overhead_s": "s",
    "service.journal.append_s": "s",
    "service.shed_jobs": "count",
    "service.client_retries": "count",
    "io.report_bytes": "B",
    "io.report_encode_s": "s",
    "obs.trace_overhead_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.uncovered_ratio": "ratio",
}

#: Entry points that must record calls in the traced pass of each workload.
MUST_FIRE = {
    "cegar-deep": (
        "smtlite.check", "smtlite.theory.check", "smtlite.milp", "smtlite.core.extract",
        "smtlite.core.probe", "constraints.build", "constraints.simplify", "constraints.scope",
        "petri.trap_search", "verification.ws3", "verification.strong_consensus",
        "verification.refine", "verification.lt", "engine.cache.get", "engine.cache.put",
        "service.submit", "service.run_job", "io.report_encode", "obs.metric",
    ),
    "pattern-wide": (
        "smtlite.check", "smtlite.theory.check", "smtlite.milp", "smtlite.core.extract",
        "constraints.build", "constraints.patterns", "constraints.simplify", "constraints.scope",
        "petri.trap_search", "petri.siphon_search", "verification.ws3",
        "verification.strong_consensus", "verification.refine", "verification.lt",
        "verification.correctness", "engine.cache.get", "engine.cache.put", "service.submit",
        "service.run_job", "io.report_encode", "obs.metric",
    ),
    "serve-mix": (
        "smtlite.check", "constraints.build", "petri.trap_search", "verification.ws3",
        "verification.lt", "engine.cache.get", "engine.cache.put", "service.run_job",
        "service.journal.append", "service.respond", "io.report_encode", "io.protocol_decode",
        "obs.metric",
    ),
}


def per_layer(workload: str, outcome) -> dict:
    layers = outcome.layers
    calls, seconds, counts = layers["calls"], layers["seconds"], layers["counts"]
    silent = [name for name in MUST_FIRE[workload] if not calls.get(name)]
    silent += [layer for layer in LAYERS if layer not in {name.split(".")[0] for name in calls}]
    if silent:
        raise RuntimeError(f"layers recorded no calls on {workload}: {silent}")
    if layers.get("wrappers_left"):
        raise RuntimeError(f"layer wrappers left installed: {layers['wrappers_left']}")

    totals: dict = {}
    overhead = bytes_total = 0.0
    for report, latency in outcome.traced_reports:
        counts_of = report_counts(report)
        for key, value in counts_of.items():
            totals[key] = totals.get(key, 0.0) + value
        if latency is not None and "run_s" in counts_of:
            overhead += latency - counts_of["run_s"]
        bytes_total += len(json.dumps(report))

    def total(key):
        return totals.get(key, 0.0)

    values = {
        "smtlite.check_s": seconds.get("smtlite.check", 0.0),
        "smtlite.checks": calls.get("smtlite.check", 0),
        "smtlite.theory.check_s": seconds.get("smtlite.theory.check", 0.0),
        "smtlite.theory.checks": total("theory_checks"),
        "smtlite.theory.conflicts": total("theory_conflicts"),
        "smtlite.theory.cache_hit_ratio": summary.ratio(total("theory_cache_hits"), total("theory_checks")),
        "smtlite.milp_s": seconds.get("smtlite.milp", 0.0),
        "smtlite.core.extract_s": seconds.get("smtlite.core.extract", 0.0),
        "smtlite.core.probes": counts.get("core.probes", 0),
        "smtlite.core.probe_proven_ratio": summary.ratio(
            counts.get("core.probes_proven", 0), counts.get("core.probes", 0)
        ),
        "smtlite.core.probe_timeouts": counts.get("core.probe_timeouts", 0),
        "smtlite.core.shrink_ratio": summary.ratio(
            counts.get("core.rows_out", 0), counts.get("core.rows_in", 0)
        ),
        "verification.cegar.iterations": total("iterations"),
        "verification.refine_s": seconds.get("verification.refine", 0.0),
        "verification.pattern_pairs": total("pattern_pairs"),
        "verification.pairs_solved": total("pattern_pairs") - total("pruned_pairs"),
        "verification.lt_s": seconds.get("verification.lt", 0.0),
        "verification.correctness_s": seconds.get("verification.correctness", 0.0),
        "verification.trajectory_changes": len(changed_trajectories(outcome)),
        "petri.trap_search_s": seconds.get("petri.trap_search", 0.0),
        "petri.trap_search.calls": calls.get("petri.trap_search", 0),
        "petri.siphon_search_s": seconds.get("petri.siphon_search", 0.0),
        "petri.siphon_search.calls": calls.get("petri.siphon_search", 0),
        "constraints.build_s": seconds.get("constraints.build", 0.0),
        "constraints.simplify_s": seconds.get("constraints.simplify", 0.0),
        "constraints.simplify.kept_ratio": summary.ratio(total("simplify_kept"), total("simplify_in")),
        "constraints.scopes": calls.get("constraints.scope", 0),
        "engine.cache.get_s": seconds.get("engine.cache.get", 0.0),
        "engine.cache.hit_ratio": summary.ratio(counts.get("cache.hits", 0), counts.get("cache.gets", 0)),
        "engine.cache.put_s": seconds.get("engine.cache.put", 0.0),
        "service.queue_wait_s": total("queue_wait_s"),
        "service.run_s": total("run_s"),
        "service.overhead_s": overhead,
        "service.journal.append_s": seconds.get("service.journal.append", 0.0),
        "service.shed_jobs": outcome.shed_jobs,
        "service.client_retries": outcome.client_retries,
        "io.report_bytes": bytes_total / max(1, len(outcome.traced_reports)),
        "io.report_encode_s": seconds.get("io.report_encode", 0.0),
        "obs.trace_overhead_ratio": outcome.traced_wall / outcome.walls[-1],
        **{f"{layer}.self_s": layers["self_s"][layer] for layer in LAYERS},
        "trace.uncovered_ratio": layers["uncovered_ratio"],
    }
    return {name: float(value) for name, value in values.items()}
