"""The ``serve-mix`` workload: a client in a closed loop against one daemon.

The daemon is ``repro-verify serve --tcp`` with two dispatcher threads, a
result cache and a job journal in fresh directories.  Set-up is the time
from its start until a warm-up job is answered.  The run times it for the
daemon it measures and, between passes, for more daemons started and
stopped again, spread over the run's seconds, :data:`SETUPS` in all.  A
pass drives the seeded job stream over one connection in a closed loop:
submit, wait for the result, next job.  Half the jobs are
new renamed protocols, half resubmit an earlier job.
With tracing, the untraced pass runs on that daemon and the traced pass on
a second daemon started under the layer wrappers.
"""

from __future__ import annotations

import json
import os
import signal
import tempfile
import time

import layers
import oracle
import procs
import workloads
from outcome import Outcome, next_pass_fits, trajectory

SETUPS = 9
DISPATCHERS = 2
#: Seconds one job may take before it counts as a budget overrun.
JOB_BUDGET = 30.0


def _client(host: str, port: int, seed: int):
    from repro.service.client import ClientRetryPolicy, VerificationClient

    retry = ClientRetryPolicy(max_attempts=2)
    return VerificationClient(host, port, timeout=JOB_BUDGET, retry=retry, seed=seed)


class Daemon:
    def __init__(self, root: str, work: str, index, trace_out: str | None = None):
        from repro.io.serialization import protocol_to_dict

        self.log = os.path.join(work, f"daemon-{index}.log")
        arguments = ["--trace-out", trace_out] if trace_out else []
        arguments += [
            "--", "serve", "--tcp", "127.0.0.1:0", "--workers", str(DISPATCHERS),
            "--cache-dir", tempfile.mkdtemp(prefix="cache-", dir=work),
            "--journal-dir", tempfile.mkdtemp(prefix="journal-", dir=work),
        ]
        started = time.perf_counter()
        self.process = procs.spawn(root, "serve_launcher.py", arguments, self.log, stdin=False)
        try:
            listening = procs.Channel(self.process.stdout).read(timeout=120.0)
            if not listening or listening.get("type") != "listening":
                raise RuntimeError("the daemon did not start:\n" + procs.log_tail(self.log))
            self.host, self.port = listening["host"], listening["port"]
            with _client(self.host, self.port, 0) as client:
                warmup_protocol = protocol_to_dict(workloads.warmup_protocol())
                job = client.submit(protocol=warmup_protocol, properties=["ws3"])
                warmup = client.result(job, wait=True, timeout=JOB_BUDGET)
            if warmup["report"]["properties"][0]["verdict"] != "holds":
                raise RuntimeError("the warm-up protocol must be in WS3")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def call(self, op: str) -> dict:
        with _client(self.host, self.port, 0) as client:
            return client.call({"op": op})

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        procs.stop(self.process, timeout=60.0)


def run(seed: int, seconds: float, trace: bool, root: str, work: str) -> Outcome:
    outcome = Outcome()
    daemon = Daemon(root, work, 0)
    outcome.setups.append(daemon.setup_s)
    try:
        _measure(daemon, outcome, seed, seconds, trace, root, work)
    finally:
        daemon.stop()
    if trace:
        trace_out = os.path.join(work, "layers.json")
        traced = Daemon(root, work, "traced", trace_out=trace_out)
        try:
            window = _pass(traced, outcome, seed, 1, traced=True)
            stats = traced.call("stats")
        finally:
            traced.stop()
        with open(trace_out, encoding="utf-8") as handle:
            recorded = json.load(handle)
        outcome.layers = layers.summarize(recorded["spans"], *window)
        outcome.layers["wrappers_left"] = recorded["wrappers_left"]
        outcome.traced_wall = window[1] - window[0]
        _count_shed(outcome, stats)
        outcome.trace_path = os.path.join(work, f"trace-serve-mix-seed{seed}.json")
        os.replace(trace_out + ".chrome.json", outcome.trace_path)
    return outcome


def _measure(daemon, outcome, seed, seconds, trace, root, work) -> None:
    """Passes on ``daemon`` while the next fits in ``seconds``, set-ups between them."""
    started = time.perf_counter()
    pass_index = 0
    while True:
        began = time.perf_counter()
        start, end = _pass(daemon, outcome, seed, pass_index, traced=False)
        outcome.walls.append(end - start)
        if pass_index == 0:
            outcome.peak_rss_mb = procs.peak_rss_mb(daemon.process.pid)
        pass_index += 1
        overhead = time.perf_counter() - began - (end - start)
        if trace:
            break
        # The set-ups due by now, if SETUPS are spread evenly over the run.
        due = min(SETUPS, 1 + int((SETUPS - 1) * (time.perf_counter() - started) / seconds))
        _sample_setups(outcome, root, work, due)
        now = time.perf_counter()
        if not next_pass_fits(outcome.walls, overhead, now - started, seconds):
            break
    if not trace:
        _sample_setups(outcome, root, work, SETUPS)
    _count_shed(outcome, daemon.call("stats"))


def _sample_setups(outcome, root: str, work: str, due: int) -> None:
    while len(outcome.setups) < due:
        extra = Daemon(root, work, f"setup-{len(outcome.setups)}")
        outcome.setups.append(extra.setup_s)
        extra.stop()


def _count_shed(outcome, stats: dict) -> None:
    """Jobs and connections the daemon turned away, from its ``stats`` op."""
    server = (stats.get("stats") or {}).get("server") or {}
    shed = int(server.get("shed_jobs", 0) + server.get("shed_connections", 0))
    if shed:
        outcome.shed_jobs += shed
        outcome.fail(f"the daemon shed {shed} job(s) or connection(s)", shed)


def _pass(daemon, outcome, seed: int, pass_index: int, traced: bool) -> tuple[float, float]:
    """One pass over the job stream; returns its time window."""
    from repro.io.serialization import protocol_to_dict
    from repro.service.client import ClientError

    stream = workloads.serve_mix_pass(seed, pass_index)
    payloads = [protocol_to_dict(job.instance.protocol) for job in stream]
    results = []
    with _client(daemon.host, daemon.port, seed) as client:
        client.jobs()  # connect before the clock starts
        start = time.perf_counter()
        for job, payload in zip(stream, payloads):
            began = time.perf_counter()
            try:
                job_id = client.submit(protocol=payload, properties=list(job.instance.properties))
                response, error = client.result(job_id, wait=True, timeout=JOB_BUDGET), None
            except ClientError as failure:
                response, error = None, f"client error: {failure}"
            results.append((time.perf_counter() - began, response, error))
        end = time.perf_counter()
        outcome.client_retries += client.statistics["retries"]
    for job, (latency, response, error) in zip(stream, results):
        _record(outcome, job, latency, response, error, traced)
    return start, end


def _record(outcome, job, latency: float, response, error, traced: bool) -> None:
    instance = job.instance
    outcome.attempted += 1
    if error is not None:
        outcome.fail(f"{instance.label}: {error}")
        return
    report = response.get("report") or {}
    problems = oracle.check_report(instance, report)
    if problems:
        outcome.fail(f"{instance.label} ({instance.protocol.name}): " + "; ".join(problems), wrong=True)
        return
    from_cache = bool((report.get("statistics") or {}).get("from_cache"))
    if traced:
        if not from_cache:
            outcome.traced_reports.append((report, latency))
        return
    if from_cache:
        outcome.hits[instance.label].append(latency)
    else:
        outcome.verdicts[instance.label].append(latency)
        outcome.trajectories[instance.label].append(trajectory(report, 0))
