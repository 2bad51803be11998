"""What one benchmark run measured, before it becomes metrics."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """Samples of one run.  Times are seconds."""

    setups: list = field(default_factory=list)  # one per set-up
    walls: list = field(default_factory=list)  # one per untraced pass
    verdicts: dict = field(default_factory=lambda: defaultdict(list))  # label -> times to a verdict
    hits: dict = field(default_factory=lambda: defaultdict(list))  # label -> cache-served resubmit times
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed operations whose answer was wrong
    problems: list = field(default_factory=list)  # failed operations, one line each
    trajectories: dict = field(default_factory=lambda: defaultdict(list))  # label -> counts per pass
    layers: dict | None = None  # layer summary of the traced pass
    traced_reports: list = field(default_factory=list)  # (report dict, client latency) of the traced pass
    traced_wall: float | None = None
    trace_path: str | None = None  # Chrome trace of the traced pass
    shed_jobs: int = 0  # jobs and connections the daemon turned away (serve-mix)
    client_retries: int = 0  # requests the client had to retry (serve-mix)

    def fail(self, message: str, count: int = 1, wrong: bool = False) -> None:
        self.failed += count
        self.wrong += count if wrong else 0
        self.problems.append(message)

    def all_verdicts(self) -> list:
        return [value for values in self.verdicts.values() for value in values]


def next_pass_fits(walls: list, last_overhead: float, elapsed: float, seconds: float) -> bool:
    """Whether one more pass of median length still ends within ``seconds``."""
    return elapsed + sorted(walls)[len(walls) // 2] + last_overhead <= seconds


def _walk(results):
    for result in results:
        yield result
        yield from _walk(result.get("parts", ()))


def report_counts(report: dict) -> dict:
    """Counts and event times a report carries about its own run."""
    counts: dict = defaultdict(float)
    for result in _walk(report.get("properties", ())):
        statistics = result.get("statistics") or {}
        if result["property"] in ("strong_consensus", "correctness"):
            counts["iterations"] += statistics.get("iterations", 0)
            counts["pattern_pairs"] += statistics.get("pattern_pairs", 0)
            counts["pruned_pairs"] += statistics.get("pruned_pairs", 0)
            solver = statistics.get("solver") or {}
            counts["theory_checks"] += solver.get("theory_checks", 0)
            counts["theory_conflicts"] += solver.get("theory_conflicts", 0)
            counts["theory_cache_hits"] += solver.get("theory_cache_hits", 0)
            simplifier = statistics.get("simplifier") or {}
            counts["simplify_in"] += simplifier.get("before", 0)
            counts["simplify_kept"] += simplifier.get("after", 0)
            scoped = statistics.get("scoped_simplifier") or {}
            counts["simplify_in"] += scoped.get("delta_in", 0)
            counts["simplify_kept"] += scoped.get("admitted", 0)
    events = {event.get("event"): event for event in (report.get("statistics") or {}).get("events", ())}
    if {"job_queued", "job_started", "job_finished"} <= set(events):
        counts["queue_wait_s"] = events["job_started"]["timestamp"] - events["job_queued"]["timestamp"]
        counts["run_s"] = events["job_finished"]["timestamp"] - events["job_started"]["timestamp"]
    return counts


def trajectory(report: dict, probe_timeouts: int) -> tuple:
    """The per-instance counts that must repeat exactly from pass to pass."""
    counts = report_counts(report)
    return (int(counts["iterations"]), int(counts["theory_checks"]), int(probe_timeouts))
