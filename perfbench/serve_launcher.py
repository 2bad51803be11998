"""Start ``repro-verify`` with the layer wrappers optionally installed.

    python perfbench/serve_launcher.py [--trace-out FILE] -- serve --tcp 127.0.0.1:0 ...

Without ``--trace-out`` this is ``repro-verify`` itself.  With it, the
wrappers of :mod:`layers` are installed before the daemon starts and
removed after it drains (SIGTERM); the spans, with the counts taken on
each, and the list of wrappers still bound after removal (empty when all
went well) are written to ``FILE`` as JSON, the spans also as a Chrome trace to ``FILE.chrome.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        raise SystemExit("usage: serve_launcher.py [--trace-out FILE] -- <repro-verify arguments>")
    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv[1:])

    import layers
    from repro.obs.trace import chrome_trace

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        code = cli_main(argv[1:])
    finally:
        try:
            tracer.uninstall()
        except RuntimeError:
            pass  # reported below, from the wrappers still bound
        with open(trace_out + ".chrome.json", "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(tracer.chrome_spans()), handle)
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "wrappers_left": layers.wrappers_left()}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
