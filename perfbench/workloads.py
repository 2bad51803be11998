"""Seeded workload generation: instance lists, state renaming, job streams.

A workload is a fixed list of verification instances (closed loops) or a
fixed job stream (``serve-mix``).  One *pass* decides that list once.  The
seed and the pass number pick the instance order and rename every
protocol's states, so each pass carries new content -- no result cache can
serve it -- while its cost stays the same: the renaming keeps the
``repr`` order of the original states, which is the order the verifier's
builders, simplifier and solver variables follow.

Expected verdicts come from how each instance is built, never from the
verifier: the Table 1 library families are in WS3 and compute their
documented predicate; the deliberately faulty protocols are not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datatypes.multiset import Multiset
from repro.presburger.predicates import ThresholdPredicate
from repro.protocols.library import (
    broadcast_protocol,
    coin_flip_protocol,
    exclusive_majority_protocol,
    flock_of_birds_protocol,
    flock_of_birds_threshold_n_protocol,
    majority_protocol,
    oscillating_majority_protocol,
    remainder_protocol,
    threshold_table_protocol,
)
from repro.protocols.protocol import OrderedPartition, PopulationProtocol, Transition

CLOSED_LOOP = ("cegar-deep", "pattern-wide")
WORKLOADS = CLOSED_LOOP + ("serve-mix",)


@dataclass(frozen=True)
class Template:
    """One instance before renaming.

    ``expected`` maps each checked property to ``True`` (holds) or ``False``
    (fails).  ``nominal_s`` is the instance's time to a verdict on a 2-CPU
    x86 container at the commit that introduced the benchmark; the kill
    budget is a large multiple of it.  ``predicate`` overrides the
    protocol's documented predicate for ``correctness``.
    """

    label: str
    build: object
    properties: tuple = ("ws3",)
    expected: dict = field(default_factory=lambda: {"ws3": True})
    nominal_s: float = 1.0
    predicate: object = None


#: ``#B >= #A``: the non-strict majority predicate.  The exclusive-majority
#: protocol computes ``#B > #A``, so it fails this predicate on ties.
NON_STRICT_MAJORITY = ThresholdPredicate({"A": 1, "B": -1}, 1)

TEMPLATES = {
    # Single pattern pair each, with a CEGAR loop that grows with c.
    "cegar-deep": [
        Template(f"threshold-n-c{c}", (lambda c=c: flock_of_birds_threshold_n_protocol(c)), nominal_s=s)
        for c, s in ((6, 2.7), (7, 8.1), (8, 12.0))
    ],
    # Many pattern pairs, layered-termination work, both refutations.
    "pattern-wide": [
        Template("threshold-vmax2", lambda: threshold_table_protocol(2), nominal_s=7.7),
        Template("remainder-m5", lambda: remainder_protocol([1], 5, 3), nominal_s=2.2),
        Template("flock-c6", lambda: flock_of_birds_protocol(6), nominal_s=1.1),
        Template("majority", majority_protocol, nominal_s=0.15),
        Template(
            "oscillating-majority",
            oscillating_majority_protocol,
            expected={"ws3": False},
            nominal_s=2.9,
        ),
        Template(
            "exclusive-majority-nonstrict",
            exclusive_majority_protocol,
            properties=("correctness",),
            expected={"correctness": False},
            nominal_s=0.1,
            predicate=NON_STRICT_MAJORITY,
        ),
    ],
    # Small protocols a daemon client submits; ws3 only, because an inline
    # protocol on the wire carries no predicate for ``correctness``.
    "serve-mix": [
        Template("majority", majority_protocol, nominal_s=0.15),
        Template("broadcast", broadcast_protocol, nominal_s=0.05),
        Template("flock-c4", lambda: flock_of_birds_protocol(4), nominal_s=0.5),
        Template("coin-flip", coin_flip_protocol, expected={"ws3": False}, nominal_s=0.05),
        Template("exclusive-majority", exclusive_majority_protocol, nominal_s=0.15),
    ],
}

#: The warm-up check of set-up: a tiny protocol that no workload contains.
def warmup_protocol() -> PopulationProtocol:
    return rename_protocol(flock_of_birds_protocol(2), "warmup_")


@dataclass
class Instance:
    """One renamed instance of one pass."""

    label: str
    protocol: PopulationProtocol
    properties: tuple
    expected: dict
    budget_s: float
    predicate: object = None


def budget_for(nominal_s: float) -> float:
    """Kill budget: far above the instance's own time."""
    return max(30.0, 8.0 * nominal_s)


def rename_protocol(protocol: PopulationProtocol, tag: str) -> PopulationProtocol:
    """Rename every state to ``<tag><index>``, keeping their ``repr`` order.

    Input symbols, transition names and metadata (the documented predicate
    is over input symbols) are kept; the partition hint is renamed with the
    transitions.
    """
    order = sorted(protocol.states, key=repr)
    width = len(str(len(order)))
    names = {state: f"{tag}{index:0{width}d}" for index, state in enumerate(order)}

    def move(multiset: Multiset) -> Multiset:
        return Multiset({names[state]: count for state, count in multiset.items()})

    renamed = {t: Transition(move(t.pre), move(t.post), t.name) for t in protocol.transitions}
    hint = None
    if protocol.partition_hint is not None:
        hint = OrderedPartition(
            tuple(frozenset(renamed[t] for t in layer) for layer in protocol.partition_hint.layers)
        )
    return PopulationProtocol(
        states=[names[state] for state in order],
        transitions=[renamed[t] for t in protocol.transitions],
        input_alphabet=protocol.input_alphabet,
        input_map={symbol: names[state] for symbol, state in protocol.input_map.items()},
        output_map={names[state]: value for state, value in protocol.output_map.items()},
        name=f"{protocol.name}@{tag.rstrip('_')}",
        partition_hint=hint,
        metadata=protocol.metadata,
    )


def _tag(rng: random.Random) -> str:
    return "s" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6)) + "_"


def _instance(template: Template, rng: random.Random) -> Instance:
    return Instance(
        label=template.label,
        protocol=rename_protocol(template.build(), _tag(rng)),
        properties=template.properties,
        expected=dict(template.expected),
        budget_s=budget_for(template.nominal_s),
        predicate=template.predicate,
    )


def closed_loop_pass(workload: str, seed: int, pass_index: int) -> list[Instance]:
    """The instances of one closed-loop pass, in seeded order, renamed."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    templates = list(TEMPLATES[workload])
    rng.shuffle(templates)
    return [_instance(template, rng) for template in templates]


@dataclass
class Job:
    """One job of a ``serve-mix`` stream: new content, or a resubmit."""

    instance: Instance
    resubmit_of: int | None = None  # index of the earlier job it repeats


#: New jobs per template in one ``serve-mix`` pass; as many resubmits
#: follow, so every pass costs the same whatever the seed.
NEW_PER_TEMPLATE = 3


def serve_mix_pass(seed: int, pass_index: int) -> list[Job]:
    """One pass of ``serve-mix``: the seeded job stream of the client.

    The stream submits every ``serve-mix`` template :data:`NEW_PER_TEMPLATE`
    times as new renamed content, and as many resubmits of an earlier job,
    which the closed loop has already finished, so the daemon's result
    cache serves them.  The seed picks the order, the renaming and which
    job each resubmit repeats.
    """
    rng = random.Random(f"serve-mix/{seed}/{pass_index}")
    templates = [t for t in TEMPLATES["serve-mix"] for _ in range(NEW_PER_TEMPLATE)]
    rng.shuffle(templates)
    kinds = [True] * (len(templates) - 1) + [False] * len(templates)
    rng.shuffle(kinds)
    jobs: list[Job] = []
    new_jobs: list[int] = []
    fresh = iter(templates)
    for is_new in [True] + kinds:
        if is_new:
            new_jobs.append(len(jobs))
            jobs.append(Job(_instance(next(fresh), rng)))
        else:
            original = rng.choice(new_jobs)
            jobs.append(Job(jobs[original].instance, resubmit_of=original))
    return jobs
