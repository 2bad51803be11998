"""Fast self-tests of the benchmark.  Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from outcome import trajectory  # noqa: E402
from repro.api import Verifier  # noqa: E402
from repro.datatypes.multiset import Multiset  # noqa: E402
from repro.io.serialization import protocol_to_dict  # noqa: E402
from repro.protocols.library import coin_flip_protocol, flock_of_birds_threshold_n_protocol  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _fingerprint(instances):
    return [(i.label, json.dumps(protocol_to_dict(i.protocol), sort_keys=True)) for i in instances]


@pytest.mark.parametrize("workload", workloads.CLOSED_LOOP)
def test_same_seed_same_instances(workload):
    first = workloads.closed_loop_pass(workload, 7, 0)
    assert _fingerprint(first) == _fingerprint(workloads.closed_loop_pass(workload, 7, 0))
    assert _fingerprint(first) != _fingerprint(workloads.closed_loop_pass(workload, 8, 0))
    assert _fingerprint(first) != _fingerprint(workloads.closed_loop_pass(workload, 7, 1))
    assert sorted(i.label for i in first) == sorted(t.label for t in workloads.TEMPLATES[workload])


def test_same_seed_same_job_stream():
    def fingerprint(stream):
        return [(job.resubmit_of, _fingerprint([job.instance])) for job in stream]

    stream = workloads.serve_mix_pass(3, 0)
    assert fingerprint(stream) == fingerprint(workloads.serve_mix_pass(3, 0))
    assert fingerprint(stream) != fingerprint(workloads.serve_mix_pass(4, 0))
    assert stream[0].resubmit_of is None
    assert all(job.resubmit_of is None or job.resubmit_of < index for index, job in enumerate(stream))
    labels = sorted(job.instance.label for job in stream if job.resubmit_of is None)
    templates = workloads.TEMPLATES["serve-mix"]
    assert labels == sorted(t.label for t in templates for _ in range(workloads.NEW_PER_TEMPLATE))
    assert len(stream) == 2 * len(labels)


def test_renaming_keeps_the_counts():
    protocol = flock_of_birds_threshold_n_protocol(3)
    renamed = [workloads.rename_protocol(protocol, tag) for tag in ("sabcdef_", "szyxwvu_")]
    assert {q for r in renamed for q in r.states}.isdisjoint(protocol.states)
    with Verifier() as verifier:
        reports = [verifier.check(p).to_dict() for p in [protocol, *renamed]]
    counts = {trajectory(report, 0) for report in reports}
    assert len(counts) == 1 and next(iter(counts))[0] > 1
    assert len({report["protocol_hash"] for report in reports}) == 3


def _refuted(instance):
    with Verifier() as verifier:
        return verifier.check(
            instance.protocol, properties=list(instance.properties), predicate=instance.predicate
        ).to_dict()


def test_oracle_accepts_and_rejects_consensus_counterexamples():
    instance = workloads.Instance(
        "coin-flip", workloads.rename_protocol(coin_flip_protocol(), "sq_"), ("ws3",), {"ws3": False}, 30.0
    )
    report = _refuted(instance)
    assert oracle.check_report(instance, report) == []
    counterexample = _decode(report).result_for("strong_consensus").counterexample
    protocol = instance.protocol
    assert oracle.consensus_counterexample_problems(protocol, counterexample) == []
    grown = counterexample.terminal_true + Multiset({next(iter(counterexample.terminal_true.support())): 1})
    assert oracle.consensus_counterexample_problems(
        protocol, dataclasses.replace(counterexample, terminal_true=grown)
    )
    assert oracle.consensus_counterexample_problems(
        protocol, dataclasses.replace(counterexample, flow_false={})
    )
    swapped = dataclasses.replace(
        counterexample,
        terminal_true=counterexample.terminal_false,
        terminal_false=counterexample.terminal_true,
        flow_true=counterexample.flow_false,
        flow_false=counterexample.flow_true,
    )
    assert oracle.consensus_counterexample_problems(protocol, swapped)
    wrong = dataclasses.replace(instance, expected={"ws3": True})
    assert oracle.check_report(wrong, report)


def _pattern_wide(label):
    return next(i for i in workloads.closed_loop_pass("pattern-wide", 1, 0) if i.label == label)


def test_oracle_rejects_a_tampered_correctness_counterexample():
    instance = _pattern_wide("exclusive-majority-nonstrict")
    report = _refuted(instance)
    assert oracle.check_report(instance, report) == []
    counterexample = _decode(report).result_for("correctness").counterexample
    flipped = dataclasses.replace(counterexample, expected_output=1 - counterexample.expected_output)
    assert oracle.correctness_counterexample_problems(instance.protocol, instance.predicate, flipped)
    report["properties"][0]["counterexample"] = None
    assert oracle.check_report(instance, report)


def test_oracle_confirms_non_silence_only_where_it_holds():
    assert oracle.find_stuck_configuration(_pattern_wide("oscillating-majority").protocol) is not None
    assert oracle.find_stuck_configuration(workloads.rename_protocol(coin_flip_protocol(), "sq_")) is None
    assert oracle.find_stuck_configuration(_pattern_wide("majority").protocol) is None


def _decode(report):
    from repro.api.report import VerificationReport

    return VerificationReport.from_dict(report)


def test_tail_rule():
    assert summary.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert summary.tail(range(1, 20)) == (19.0, 100.0)
    assert summary.tail(range(1, 21)) == (10.0, 50.0)  # p50 leaves exactly 10 beyond
    value, percentile = summary.tail(range(1, 1001))
    assert (value, percentile) == (990.0, 99.0)
    value, percentile = summary.tail(range(1, 10001))
    assert (value, percentile) == (9990.0, 99.9)


def test_metric_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    import run

    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == metrics.PER_LAYER_UNITS
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"] + declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_wrappers_cover_names_imported_elsewhere_and_come_off():
    import repro.verification.strong_consensus as strong_consensus
    from repro.petri import traps_siphons

    original = traps_siphons.maximal_trap_with_support_outside
    tracer = layers.LayerTracer()
    tracer.install()
    start = time.perf_counter()
    try:
        assert strong_consensus.maximal_trap_with_support_outside is not original
        assert layers.wrappers_left()
        with Verifier() as verifier:
            verifier.check(flock_of_birds_threshold_n_protocol(3))
    finally:
        tracer.uninstall()
    assert strong_consensus.maximal_trap_with_support_outside is original
    assert layers.wrappers_left() == []
    calls = tracer.summary(start, time.perf_counter())["calls"]
    assert calls["petri.trap_search"] > 0 and calls["smtlite.check"] > 0


def test_layer_summary_counts_only_spans_inside_the_window():
    spans = [
        # (name, start, end, span_id, parent_id, thread id, counts)
        ("engine.cache.get", 0.5, 0.6, 1, None, 1, {"cache.gets": 1, "cache.hits": 0}),  # warm-up
        ("service.run_job", 2.0, 4.0, 2, None, 1, None),
        ("smtlite.check", 2.5, 3.5, 3, 2, 1, None),
        ("engine.cache.get", 3.6, 3.7, 4, 2, 1, {"cache.gets": 1, "cache.hits": 1}),
        ("service.journal.append", 9.0, 9.5, 5, None, 1, None),  # drain
    ]
    summary_ = layers.summarize(spans, 1.0, 5.0)
    assert summary_["calls"] == {"service.run_job": 1, "smtlite.check": 1, "engine.cache.get": 1}
    assert summary_["counts"] == {"cache.gets": 1, "cache.hits": 1}
    assert summary_["self_s"]["service"] == pytest.approx(2.0 - 1.0 - 0.1)
    assert summary_["uncovered_ratio"] == pytest.approx(0.5)
