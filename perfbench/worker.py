"""The verifying process of the closed-loop workloads.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH``.  It
builds one :class:`repro.api.Verifier` session (``jobs=1``, a result cache
in the directory given as its argument), runs the warm-up check, announces
``{"ready": true}`` and then answers commands, one JSON object per line on
stdin:

``{"op": "pass", "workload": ..., "seed": ..., "pass": k, "trace": false, "pause": false}``
    Decide the pass's instances one after the other.  Streams
    ``{"start": i}`` and ``{"done": i}`` around every instance so the parent
    can enforce its kill budget, then one ``{"pass": {...}}`` line with the
    reports.  The pass's ``wall`` is the sum of the times to a verdict.
    With ``"pause": true`` the worker waits for ``{"op": "next"}`` after
    each instance, while the parent times set-ups between them.
``{"op": "exit"}``
    Close the session and exit.

With ``"trace": true`` the pass runs under :class:`layers.LayerTracer`,
whose summary rides in the pass result; the spans are written as a Chrome
trace to ``"trace_path"``.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    channel = sys.stdout
    sys.stdout = sys.stderr  # anything the program prints stays off the channel

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    from repro.api import Verifier
    from repro.engine.cache import ResultCache

    import layers
    import workloads

    verifier = Verifier(jobs=1, cache=ResultCache(sys.argv[1]))
    warmup = verifier.check(workloads.warmup_protocol())
    if not warmup.is_ws3:
        raise SystemExit("the warm-up protocol must be in WS3")
    send({"ready": True})

    probe_timeouts = layers.ProbeTimeoutCounter()
    probe_timeouts.install()
    try:
        for command in iter(read_command, None):
            if command["op"] == "exit":
                break
            send({"pass": run_pass(verifier, command, send, probe_timeouts)})
    finally:
        probe_timeouts.uninstall()
        verifier.close()
    return 0


def read_command() -> dict | None:
    line = sys.stdin.readline()
    return json.loads(line) if line else None


def run_pass(verifier, command: dict, send, probe_timeouts) -> dict:
    import layers
    import workloads

    instances = workloads.closed_loop_pass(command["workload"], command["seed"], command["pass"])
    tracer = layers.LayerTracer() if command.get("trace") else None
    if tracer is not None:
        tracer.install()
    reports, elapsed, timeouts = [], [], []
    start = time.perf_counter()
    for index, instance in enumerate(instances):
        send({"start": index})
        before = probe_timeouts.timeouts
        began = time.perf_counter()
        report = verifier.check(
            instance.protocol, properties=list(instance.properties), predicate=instance.predicate
        )
        elapsed.append(time.perf_counter() - began)
        timeouts.append(probe_timeouts.timeouts - before)
        reports.append(report)
        send({"done": index})
        if command.get("pause") and read_command() != {"op": "next"}:
            raise SystemExit("expected the next command")
    end = time.perf_counter()
    result = {"wall": sum(elapsed), "elapsed": elapsed, "probe_timeouts": timeouts}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary(start, end)
        from repro.obs.trace import chrome_trace

        with open(command["trace_path"], "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(tracer.chrome_spans()), handle)
    result["reports"] = [report.to_dict() for report in reports]
    return result


if __name__ == "__main__":
    raise SystemExit(main())
