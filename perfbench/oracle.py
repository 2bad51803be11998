"""The verdict oracle: expected answers from construction, certificates re-checked.

Every report the benchmark receives is compared with the verdict its
instance must have (:mod:`workloads`).  Every "fails" must carry evidence
that holds up without the solver stack:

* a StrongConsensus or correctness counterexample is re-checked with plain
  arithmetic -- the flow equations, terminality of the end configurations
  and the output disagreement -- and with the trap/siphon conditions of
  potential reachability (:mod:`repro.verification.flow`, which needs no
  solver);
* a failed layered termination is confirmed by an explicit-state search
  for a reachable configuration from which no terminal configuration is
  reachable: the protocol is then not silent, so it cannot be in WS3.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.api.report import VerificationReport
from repro.datatypes.multiset import Multiset
from repro.verification.flow import PotentialReachabilityWitness, check_potential_reachability

#: Population bound of the explicit-state search that confirms non-silence.
MAX_POPULATION = 4


def check_report(instance, report_dict: dict) -> list[str]:
    """Problems with one report, empty when it is right."""
    try:
        report = VerificationReport.from_dict(report_dict)
    except (KeyError, TypeError, ValueError) as error:
        return [f"undecodable report: {error!r}"]
    problems = []
    for name in instance.properties:
        result = report.result_for(name)
        if result is None:
            problems.append(f"{name}: missing from the report")
            continue
        verdict = result.verdict.value
        wanted = "holds" if instance.expected[name] else "fails"
        if verdict != wanted:
            problems.append(f"{name}: verdict {verdict!r}, expected {wanted!r}")
        elif wanted == "fails":
            problems.extend(f"{name}: {problem}" for problem in _evidence_problems(instance, report, name))
    return problems


def _evidence_problems(instance, report, name: str) -> list[str]:
    protocol = instance.protocol
    if name == "correctness":
        counterexample = report.result_for("correctness").counterexample
        if counterexample is None:
            return ["no counterexample"]
        predicate = instance.predicate if instance.predicate is not None else protocol.metadata["predicate"]
        return correctness_counterexample_problems(protocol, predicate, counterexample)
    consensus = report.result_for("strong_consensus")
    if consensus is not None and consensus.verdict.value == "fails":
        if consensus.counterexample is None:
            return ["strong consensus fails without a counterexample"]
        return consensus_counterexample_problems(protocol, consensus.counterexample)
    layered = report.result_for("layered_termination")
    if layered is not None and layered.verdict.value == "fails":
        if find_stuck_configuration(protocol) is None:
            return [
                f"layered termination fails, but within {MAX_POPULATION} agents every reachable"
                " configuration can still reach a terminal one"
            ]
        return []
    return ["fails without a failing part"]


# ----------------------------------------------------------------------
# Counterexamples
# ----------------------------------------------------------------------


def _enabled(transition, configuration: Mapping) -> bool:
    return all(configuration.get(state, 0) >= count for state, count in transition.pre.items())


def is_terminal(protocol, configuration: Multiset) -> bool:
    counts = dict(configuration.items())
    return not any(_enabled(transition, counts) for transition in protocol.transitions)


def reach_problems(protocol, source: Multiset, target: Multiset, flow: Mapping, side: str) -> list[str]:
    """The flow's transitions and counts, then Definition 12 (:mod:`repro.verification.flow`)."""
    known = set(protocol.transitions)
    for transition, occurrences in flow.items():
        if transition not in known:
            return [f"{side}: flow uses a transition the protocol does not have: {transition!r}"]
        if not isinstance(occurrences, int) or occurrences < 0:
            return [f"{side}: flow count {occurrences!r} is not a natural number"]
    holds, reason = check_potential_reachability(
        protocol, PotentialReachabilityWitness(source, target, dict(flow))
    )
    return [] if holds else [f"{side}: {reason}"]


def _initial_problems(protocol, initial: Multiset) -> list[str]:
    if initial.size() < 2:
        return ["initial configuration has fewer than two agents"]
    if not initial.support() <= protocol.initial_states():
        return ["initial configuration populates a non-initial state"]
    return []


def _populated_outputs(protocol, configuration: Multiset) -> set[int]:
    return {protocol.output_map[state] for state in configuration.support()}


def consensus_counterexample_problems(protocol, counterexample) -> list[str]:
    """Definition 14: one initial configuration, two terminal ones, disagreeing."""
    problems = _initial_problems(protocol, counterexample.initial)
    for side, target, flow, output in (
        ("true side", counterexample.terminal_true, counterexample.flow_true, 1),
        ("false side", counterexample.terminal_false, counterexample.flow_false, 0),
    ):
        problems += reach_problems(protocol, counterexample.initial, target, flow, side)
        if not is_terminal(protocol, target):
            problems.append(f"{side}: end configuration is not terminal")
        if output not in _populated_outputs(protocol, target):
            problems.append(f"{side}: no populated state has output {output}")
    return problems


def correctness_counterexample_problems(protocol, predicate, counterexample) -> list[str]:
    """An input whose potential execution ends terminal with the wrong output."""
    population = counterexample.input_population
    if population.size() < 2 or not population.support() <= set(protocol.input_alphabet):
        return ["input population is not a population over the input alphabet"]
    initial: dict = {}
    for symbol, count in population.items():
        state = protocol.input_map[symbol]
        initial[state] = initial.get(state, 0) + count
    problems = []
    if dict(counterexample.initial.items()) != initial:
        problems.append("initial configuration is not the image of the input")
    expected = int(predicate.evaluate(population))
    if counterexample.expected_output != expected:
        problems.append(f"claims output {counterexample.expected_output}, the predicate gives {expected}")
    problems += reach_problems(
        protocol, counterexample.initial, counterexample.terminal, counterexample.flow, "run"
    )
    if not is_terminal(protocol, counterexample.terminal):
        problems.append("end configuration is not terminal")
    if 1 - expected not in _populated_outputs(protocol, counterexample.terminal):
        problems.append(f"end configuration has no state of output {1 - expected}")
    return problems


# ----------------------------------------------------------------------
# Non-silence
# ----------------------------------------------------------------------


def _inputs(alphabet, size: int):
    if not alphabet:
        return
    if len(alphabet) == 1:
        yield {alphabet[0]: size}
        return
    for count in range(size + 1):
        for rest in _inputs(alphabet[1:], size - count):
            yield {alphabet[0]: count, **rest} if count else rest


def _successors(protocol, configuration: tuple) -> set[tuple]:
    counts = dict(configuration)
    result = set()
    for transition in protocol.transitions:
        if _enabled(transition, counts):
            following = dict(counts)
            for state, count in transition.pre.items():
                following[state] -= count
            for state, count in transition.post.items():
                following[state] = following.get(state, 0) + count
            result.add(tuple(sorted(((s, c) for s, c in following.items() if c), key=repr)))
    return result


def find_stuck_configuration(protocol, max_population: int = MAX_POPULATION):
    """A reachable configuration from which no terminal one is reachable, or ``None``.

    Every fair execution through such a configuration runs forever without
    reaching a terminal configuration, so the protocol is not silent and
    cannot be in WS3.
    """
    alphabet = list(protocol.input_alphabet)
    for size in range(2, max_population + 1):
        for population in _inputs(alphabet, size):
            start = protocol.initial_configuration(population)
            root = tuple(sorted(start.items(), key=repr))
            graph: dict[tuple, set[tuple]] = {}
            frontier = [root]
            while frontier:
                node = frontier.pop()
                if node not in graph:
                    graph[node] = _successors(protocol, node)
                    frontier.extend(graph[node])
            # Backwards from the terminal configurations.
            predecessors: dict[tuple, list[tuple]] = {node: [] for node in graph}
            for node, successors in graph.items():
                for successor in successors:
                    predecessors[successor].append(node)
            can_end = {node for node, successors in graph.items() if not successors}
            frontier = list(can_end)
            while frontier:
                for previous in predecessors[frontier.pop()]:
                    if previous not in can_end:
                        can_end.add(previous)
                        frontier.append(previous)
            stuck = [node for node in graph if node not in can_end]
            if stuck:
                return stuck[0]
    return None
