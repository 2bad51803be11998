"""The repository benchmark: one workload, from a seed, every verdict checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cegar-deep --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/METRICS.md`` for why each was chosen):

``cegar-deep``
    threshold-n members with long CEGAR loops, in one cold verifying process.
``pattern-wide``
    many pattern pairs, layered termination and both kinds of refutation.
``serve-mix``
    a client in a closed loop against ``repro-verify serve --tcp``: new
    small protocols and resubmits the result cache serves.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` the run adds a traced pass and the
metrics are the per-layer ones, and the spans are written as a Chrome trace
under ``.perfbench-run/`` (rank them with ``repro-verify trace FILE --top N``).
The exit code is 0 only when every verdict is right and no operation
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_geomean_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "hit_p50_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cegar-deep", "pattern-wide", "serve-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops the processes it started (see the finally
    # blocks of the workloads).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repository checkout (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(root, "src"))
    base = os.path.join(root, ".perfbench-run")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        return _run(args, root, base, work)
    except (RuntimeError, OSError, EOFError) as error:  # a failure the run cannot go on from
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: str, base: str, work: str) -> int:
    import metrics

    if args.workload == "serve-mix":
        import serve_mix

        outcome = serve_mix.run(args.seed, args.seconds, bool(args.trace), root, work)
    else:
        import closed_loop

        outcome = closed_loop.run(args.workload, args.seed, args.seconds, bool(args.trace), root, work)
    if outcome.trace_path:
        kept = os.path.join(base, os.path.basename(outcome.trace_path))
        shutil.move(outcome.trace_path, kept)
        print(f"trace: {kept}")
    for line in outcome.problems:
        print(f"FAILED: {line}")
    for line in metrics.trajectory_report(outcome) + metrics.describe(outcome):
        print(line)
    values = metrics.per_layer(args.workload, outcome) if args.trace else metrics.end_to_end(outcome)
    units = metrics.PER_LAYER_UNITS if args.trace else END_TO_END
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = outcome.wrong == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
