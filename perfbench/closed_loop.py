"""The closed-loop workloads: one cold verifying process, ``jobs=1``.

Every pass runs in a verifying process of its own, started cold: set-up
(start until the warm-up check is done) is timed for each of them.  In the
first pass the verifying process pauses after every instance while more
cold processes are started and timed, until the run has :data:`SETUPS`
set-ups, spread over the pass rather than bunched at its start.  Passes run
back to back while the next one still fits in the run's seconds, set-ups
included (at least one pass), and none inherits the caches an earlier pass
warmed, so the count of passes cannot tilt the times.  With tracing, the
run makes two untraced passes and one traced pass instead, and times no
extra set-ups.

While a pass runs, this process resubmits the warm-up protocol every
:data:`HIT_INTERVAL` seconds through a second session on the verifying
process's result cache, which serves it: the cache hits are spread over the
whole pass, like the time to the verdicts, instead of bunched at a few
moments a slower stretch of the machine could cover.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import oracle
import procs
import workloads
from outcome import Outcome, next_pass_fits, trajectory

SETUPS = 9
#: With tracing, the pass that runs traced; the passes before it run untraced.
TRACED_PASS = 2
#: Seconds allowed for the pass report after the last verdict.
TAIL_BUDGET = 60.0
HIT_INTERVAL = 0.1


class BudgetOverrun(RuntimeError):
    """An instance took longer than its kill budget: a failed operation."""


class Worker:
    def __init__(self, root: str, work: str, index):
        self.log = os.path.join(work, f"worker-{index}.log")
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
        started = time.perf_counter()
        self.process = procs.spawn(root, "worker.py", [self.cache_dir], self.log, stdin=True)
        self.channel = procs.Channel(self.process.stdout)
        message = self.channel.read(timeout=120.0)
        if not message or not message.get("ready"):
            self.kill()
            raise RuntimeError("the verifying process did not get ready:\n" + procs.log_tail(self.log))
        self.setup_s = time.perf_counter() - started

    def send(self, message: dict) -> None:
        self.process.stdin.write((json.dumps(message) + "\n").encode())
        self.process.stdin.flush()

    def run_pass(self, instances, command: dict, tick=None, between=None) -> dict:
        """One pass under the kill budget of each instance.

        ``tick`` is called every :data:`HIT_INTERVAL` seconds while waiting.
        With ``between``, the pass pauses after instance ``i`` while
        ``between(i)`` runs.
        """
        self.send({**command, "pause": between is not None})
        deadline, waiting_for = time.monotonic() + TAIL_BUDGET, "the pass to start"
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BudgetOverrun(f"{waiting_for}: over its budget")
            try:
                message = self.channel.read(timeout=min(remaining, HIT_INTERVAL))
            except EOFError:
                raise RuntimeError("the verifying process died:\n" + procs.log_tail(self.log)) from None
            if message is None:
                if tick is not None:
                    tick()
            elif "start" in message:
                instance = instances[message["start"]]
                deadline = time.monotonic() + instance.budget_s
                waiting_for = f"{instance.label} ({instance.protocol.name})"
            elif "done" in message:
                if between is not None:
                    between(message["done"])
                    self.send({"op": "next"})
                deadline, waiting_for = time.monotonic() + TAIL_BUDGET, "the next instance or the pass report"
            else:
                return message["pass"]

    def close(self) -> None:
        self.send({"op": "exit"})
        procs.stop(self.process)

    def kill(self) -> None:
        self.process.kill()
        procs.stop(self.process)


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, work: str) -> Outcome:
    outcome = Outcome()
    started = time.perf_counter()
    pass_index = 0
    while True:
        began = time.perf_counter()
        worker = Worker(root, work, pass_index)
        outcome.setups.append(worker.setup_s)
        traced = trace and pass_index == TRACED_PASS
        sampler = None if trace or pass_index else SetupSampler(root, work, outcome, workload)
        try:
            result = _pass(worker, outcome, workload, seed, pass_index, traced, work, sampler)
            worker.close()
        except BaseException:
            worker.kill()
            raise
        if traced:
            return outcome
        pass_index += 1
        now = time.perf_counter()
        overhead = now - began - result["wall"] - (sampler.seconds if sampler else 0.0)
        if not trace and not next_pass_fits(outcome.walls, overhead, now - started, seconds):
            return outcome


class SetupSampler:
    """Cold verifying processes started between the instances of a pass.

    After instance ``i`` of ``n`` it times as many set-ups as bring the run
    to ``1 + (SETUPS - 1) * (i + 1) // n``, counting the pass's own process.
    """

    def __init__(self, root: str, work: str, outcome: Outcome, workload: str):
        self.root, self.work, self.outcome = root, work, outcome
        self.instances = len(workloads.TEMPLATES[workload])
        self.seconds = 0.0  # time spent here, which is not the pass's

    def __call__(self, index: int) -> None:
        began = time.perf_counter()
        due = 1 + (SETUPS - 1) * (index + 1) // self.instances
        while len(self.outcome.setups) < due:
            worker = Worker(self.root, self.work, f"setup-{len(self.outcome.setups)}")
            self.outcome.setups.append(worker.setup_s)
            worker.close()
        self.seconds += time.perf_counter() - began


class CacheHits:
    """Resubmits of the warm-up protocol, served by the worker's result cache."""

    def __init__(self, cache_dir: str, outcome: Outcome):
        from repro.api import Verifier
        from repro.engine.cache import ResultCache

        self.outcome = outcome
        self.protocol = workloads.warmup_protocol()
        self.verifier = Verifier(jobs=1, cache=ResultCache(cache_dir))
        for _ in range(3):  # this session's own lazy start-up is not a hit's cost
            self._resubmit()

    def _resubmit(self) -> float:
        began = time.perf_counter()
        report = self.verifier.check(self.protocol)
        latency = time.perf_counter() - began
        self.outcome.attempted += 1
        if not (report.statistics.get("from_cache") and report.is_ws3):
            self.outcome.fail("a resubmit of the warm-up protocol was not a cached WS3 verdict", wrong=True)
        return latency

    def tick(self) -> None:
        self.outcome.hits["warm-up"].append(self._resubmit())

    def __enter__(self) -> "CacheHits":
        return self

    def __exit__(self, *exc_info) -> None:
        self.verifier.close()


def _pass(worker, outcome, workload, seed, pass_index, traced, work, between=None) -> dict:
    instances = workloads.closed_loop_pass(workload, seed, pass_index)
    command = {"op": "pass", "workload": workload, "seed": seed, "pass": pass_index, "trace": traced}
    if traced:
        command["trace_path"] = os.path.join(work, f"trace-{workload}-seed{seed}.json")
        result = worker.run_pass(instances, command)
    else:
        with CacheHits(worker.cache_dir, outcome) as hits:
            result = worker.run_pass(instances, command, tick=hits.tick, between=between)
    _record(outcome, instances, result, traced)
    if traced:
        outcome.layers = result["layers"]
        outcome.traced_wall = result["wall"]
        outcome.traced_reports = list(zip(result["reports"], result["elapsed"]))
        outcome.trace_path = command["trace_path"]
    else:
        outcome.walls.append(result["wall"])
        if pass_index == 0:
            outcome.peak_rss_mb = procs.peak_rss_mb(worker.process.pid)
    return result


def _record(outcome: Outcome, instances, result: dict, traced: bool) -> None:
    for index, instance in enumerate(instances):
        outcome.attempted += 1
        report = result["reports"][index]
        problems = oracle.check_report(instance, report)
        if problems:
            outcome.fail(f"{instance.label} ({instance.protocol.name}): " + "; ".join(problems), wrong=True)
        if not traced:
            outcome.verdicts[instance.label].append(result["elapsed"][index])
        outcome.trajectories[instance.label].append(trajectory(report, result["probe_timeouts"][index]))
