"""Worker-process entry point: solve one subproblem envelope.

``solve_subproblem`` is the single function shipped to the process pool.
It dispatches on the subproblem ``kind`` to the solving routines exposed by
the verification modules, which are imported lazily (the verification layer
imports the engine, not the other way round at module load time).

Decoded protocols are cached per process keyed by their content hash, so a
worker that solves many subproblems of the same protocol — the common case:
one pattern pair per subproblem, dozens of pairs per protocol — pays the
deserialisation cost once.
"""

from __future__ import annotations

import contextlib
import os
import time

from repro.obs import trace

from repro.engine.subproblem import (
    Subproblem,
    SubproblemResult,
    encode_partition,
)
from repro.io.serialization import protocol_from_dict

#: Per-process cache of decoded protocols, keyed by content hash.  Bounded:
#: a long-lived pool serving thousands of distinct protocols must not grow
#: worker RSS forever (subproblems of one protocol arrive clustered, so a
#: small cache keeps the hit rate at ~100%).
_PROTOCOLS: dict = {}
_MAX_PROTOCOLS = 64

#: Per-process AnalysisContext cache, keyed the same way.  The coordinator
#: ships its already-computed portable artifacts inside the subproblem
#: envelope (``params["context"]``); everything else is computed lazily,
#: once per protocol per worker process, and shared across all the
#: subproblems of that protocol the process solves.
_CONTEXTS: dict = {}


def _protocol_for(subproblem: Subproblem):
    protocol = _PROTOCOLS.get(subproblem.protocol_key)
    if protocol is None:
        protocol = protocol_from_dict(subproblem.protocol_data)
        if len(_PROTOCOLS) >= _MAX_PROTOCOLS:
            evicted = next(iter(_PROTOCOLS))
            _PROTOCOLS.pop(evicted)
            # Evict the *same* protocol's context: a context must never
            # outlive the protocol object its artifacts were built from.
            _CONTEXTS.pop(evicted, None)
        _PROTOCOLS[subproblem.protocol_key] = protocol
    return protocol


def _context_for(subproblem: Subproblem, protocol):
    from repro.constraints.context import AnalysisContext

    context = _CONTEXTS.get(subproblem.protocol_key)
    if context is None:
        context = AnalysisContext(protocol).seed_protocol_key(subproblem.protocol_key)
        _CONTEXTS[subproblem.protocol_key] = context
    context.hydrate(subproblem.params.get("context"))
    return context


def solve_subproblem(subproblem: Subproblem) -> SubproblemResult:
    """Solve one subproblem and return a picklable result envelope."""
    from repro.testing import faults

    # The chaos suite's main injection site: a plan shipped through the
    # inherited environment (or installed in-process for the inline path)
    # can kill this worker, delay the subproblem past its deadline or raise
    # — before any real work starts, so a killed attempt loses nothing.
    faults.apply_fault(
        faults.fire("worker.solve", kind=subproblem.kind, index=subproblem.index),
        site="worker.solve",
    )
    start = time.perf_counter()
    if subproblem.kind == "poison":
        _poison(subproblem)
    handler = _HANDLERS[subproblem.kind]
    # Tracing: inline runs (no ``trace`` flag) nest directly under the
    # coordinator's open span; the envelope's flag asks for a *fresh* local
    # sink whose spans ride home in ``result.spans``.  The flag must win
    # over ``tracing_active()``: a forked pool worker inherits a copy of
    # the coordinator's sink contextvar, and spans recorded into that copy
    # would be silently lost with the process.
    sink = None
    if subproblem.params.get("trace"):
        sink = trace.TraceSink()
        stack = trace.collect(sink)
    else:
        stack = contextlib.nullcontext()
    with stack:
        with trace.span(
            "subproblem", kind=subproblem.kind, index=subproblem.index
        ) as opened:
            result = handler(subproblem)
            if opened is not None:
                opened.attrs["verdict"] = result.verdict
    if sink is not None:
        result.spans = sink.spans()
    result.statistics.setdefault("time", time.perf_counter() - start)
    result.statistics.setdefault("worker_pid", os.getpid())
    return result


# ----------------------------------------------------------------------
# Kind handlers
# ----------------------------------------------------------------------


def _solve_consensus_pair(subproblem: Subproblem) -> SubproblemResult:
    from repro.verification.strong_consensus import solve_pattern_pair_subproblem

    protocol = _protocol_for(subproblem)
    params = subproblem.params
    outcome = solve_pattern_pair_subproblem(
        protocol,
        pattern_true=params["pattern_true"],
        pattern_false=params["pattern_false"],
        seed_refinements=params["refinements"],
        theory=params.get("theory", "auto"),
        max_refinements=params.get("max_refinements", 10_000),
        protocol_key=subproblem.protocol_key,
        backend=params.get("backend"),
        context=_context_for(subproblem, protocol),
    )
    # The counterexample model is deliberately not shipped: on SAT the
    # coordinator re-derives the canonical one via the serial path, so only
    # the verdict and the discovered refinements matter.
    return SubproblemResult(
        kind=subproblem.kind,
        index=subproblem.index,
        verdict=outcome.verdict,
        data={"refinements": list(outcome.new_refinements)},
        statistics=outcome.statistics,
    )


def _solve_correctness_pattern(subproblem: Subproblem) -> SubproblemResult:
    from repro.verification.correctness import solve_correctness_pattern_subproblem

    protocol = _protocol_for(subproblem)
    params = subproblem.params
    outcome = solve_correctness_pattern_subproblem(
        protocol,
        predicate=params["predicate"],
        expected_output=params["expected_output"],
        pattern=params["pattern"],
        seed_refinements=params["refinements"],
        theory=params.get("theory", "auto"),
        max_refinements=params.get("max_refinements", 10_000),
        backend=params.get("backend"),
        context=_context_for(subproblem, protocol),
    )
    return SubproblemResult(
        kind=subproblem.kind,
        index=subproblem.index,
        verdict=outcome.verdict,
        data={"refinements": list(outcome.new_refinements)},
        statistics=outcome.statistics,
    )


def _solve_termination_strategy(subproblem: Subproblem) -> SubproblemResult:
    from repro.verification.layered_termination import attempt_strategy

    protocol = _protocol_for(subproblem)
    params = subproblem.params
    result = attempt_strategy(
        protocol,
        strategy=params["strategy"],
        max_layers=params.get("max_layers"),
        theory=params.get("theory", "auto"),
        backend=params.get("backend"),
        context=_context_for(subproblem, protocol),
    )
    data = {"strategy": params["strategy"], "reason": result.reason}
    if result.holds and result.certificate is not None:
        data["partition"] = encode_partition(result.certificate.partition)
    return SubproblemResult(
        kind=subproblem.kind,
        index=subproblem.index,
        verdict="holds" if result.holds else "fails",
        data=data,
        statistics=result.statistics,
    )


def _solve_check_protocol(subproblem: Subproblem) -> SubproblemResult:
    """Run the full property pipeline for one protocol, serially, in-worker.

    The result payload is the lossless report dictionary — exactly what the
    coordinator's serial path would produce and what the result cache
    stores — so across-protocol fan-out loses no artifacts.
    """
    from repro.api.options import VerificationOptions
    from repro.api.verifier import Verifier

    protocol = _protocol_for(subproblem)
    params = subproblem.params
    options = VerificationOptions.from_dict(params.get("options", {}))
    options = options.replace(jobs=1, cache_dir=None)
    with Verifier(options) as verifier:
        report = verifier.check(
            protocol,
            properties=params.get("properties", ("ws3",)),
            predicate=params.get("predicate"),
        )
    return SubproblemResult(
        kind=subproblem.kind,
        index=subproblem.index,
        verdict="holds" if report.ok else "fails",
        data={"report": report.to_dict()},
        statistics={"time": report.statistics.get("time", 0.0)},
    )


def _poison(subproblem: Subproblem) -> None:
    """Deliberately damage this worker (used by the fault-injection tests)."""
    mode = subproblem.params.get("mode", "exit")
    if mode == "exit":
        os._exit(17)
    raise RuntimeError("poisoned subproblem")


_HANDLERS = {
    "consensus-pair": _solve_consensus_pair,
    "correctness-pattern": _solve_correctness_pattern,
    "termination-strategy": _solve_termination_strategy,
    "check-protocol": _solve_check_protocol,
}
