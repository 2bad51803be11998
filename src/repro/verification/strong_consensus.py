"""StrongConsensus (Definition 14, Section 4.2) via the CEGAR loop of Section 6.

A protocol satisfies *StrongConsensus* if no initial configuration can
*potentially* reach (Definition 12: flow equations + trap/siphon constraints)
two terminal configurations whose outputs disagree.  Following the paper's
implementation we do not eagerly enumerate traps and siphons (there can be
exponentially many); instead we run a counterexample-guided refinement loop:

1. assert the flow equations, the initial/terminal/True/False constraints of
   Appendix D.2 and the trap/siphon constraints collected so far;
2. if unsatisfiable, StrongConsensus holds;
3. otherwise take the model ``(C0, C1, C2, x1, x2)``, compute (greedily, in
   polynomial time) the maximal ``U_j``-trap unpopulated in ``C_j`` and the
   maximal ``U_j``-siphon unpopulated in ``C0`` for ``j = 1, 2``;
4. if one of them witnesses a violated trap/siphon condition, add the
   corresponding constraint and repeat; otherwise the model is a genuine
   counterexample and StrongConsensus fails.

Constraint blocks are assembled by the shared IR builders
(:mod:`repro.constraints.builders`), normalised by the simplifier
(:mod:`repro.constraints.simplify`) and solved by whichever backend the
registry provides (:mod:`repro.constraints.backends`); structural artifacts
(terminal patterns, the trap/siphon basis) come from the per-protocol
:class:`~repro.constraints.context.AnalysisContext` so they are computed at
most once per protocol, however many properties a session checks.

Solving strategies
------------------

The paper hands the whole constraint system — whose only hard boolean
structure is the big conjunction-of-disjunctions ``Terminal(c)`` — to Z3.
Our from-scratch solvers are far weaker than Z3 at pruning that boolean
structure, so the default strategy factors it out combinatorially:
``Terminal(c)`` only constrains the *support* of ``c`` (it must be an
independent set of the "interaction conflict graph", with agents of a state
that reacts with itself capped at one), so we enumerate the maximal
independent sets once and solve one small, almost purely conjunctive system
per pair of candidate supports.  For all protocol families from the paper
the number of maximal independent sets is linear in the number of states.
The paper's monolithic encoding is kept as an alternative strategy (used by
the ablation benchmark and for small protocols).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.constraints.backends import create_solver, resolve_backend_name
from repro.constraints.builders import (  # noqa: F401  (re-exported legacy surface)
    ConstraintBuilder,
    TerminalPattern,
    terminal_support_patterns,
)
from repro.constraints.context import AnalysisContext
from repro.constraints.incremental import ScopedSolver, bump
from repro.constraints.simplify import SimplifyStats
from repro.constraints.simplify_cache import simplify_system_cached
from repro.engine import monitor
from repro.petri.traps_siphons import (
    maximal_siphon_with_support_outside,
    maximal_trap_with_support_outside,
)
from repro.protocols.protocol import Configuration, PopulationProtocol, Transition
from repro.smtlite.solver import SolverStatus
from repro.verification.results import RefinementStep, StrongConsensusCounterexample

#: Backwards-compatible alias: the builder used to be a private class here.
_ConstraintBuilder = ConstraintBuilder


@dataclass
class StrongConsensusResult:
    """Outcome of the StrongConsensus check."""

    holds: bool
    counterexample: StrongConsensusCounterexample | None = None
    refinements: list[RefinementStep] = field(default_factory=list)
    statistics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


# ----------------------------------------------------------------------
# Trap/siphon refinement
# ----------------------------------------------------------------------


def find_refinement(
    protocol: PopulationProtocol,
    source: Configuration,
    target: Configuration,
    flow: dict[Transition, int],
    supports=None,
) -> RefinementStep | None:
    """Find a trap/siphon constraint of Definition 12 violated by a model.

    Because traps (siphons) are closed under union it suffices to inspect the
    maximal trap unpopulated in the target (the maximal siphon unpopulated in
    the source).  ``supports`` is the optional precomputed trap/siphon basis
    (:attr:`AnalysisContext.transition_supports`).
    """
    support = [t for t, occurrences in flow.items() if occurrences > 0]
    if not support:
        return None
    empty_target = {state for state in protocol.states if target[state] == 0}
    trap = maximal_trap_with_support_outside(protocol, support, empty_target, supports=supports)
    if trap:
        feeds_trap = any(set(t.post.support()) & trap for t in support)
        if feeds_trap:
            return RefinementStep(kind="trap", states=frozenset(trap), iteration=-1)
    empty_source = {state for state in protocol.states if source[state] == 0}
    siphon = maximal_siphon_with_support_outside(protocol, support, empty_source, supports=supports)
    if siphon:
        drains_siphon = any(set(t.pre.support()) & siphon for t in support)
        if drains_siphon:
            return RefinementStep(kind="siphon", states=frozenset(siphon), iteration=-1)
    return None


# ----------------------------------------------------------------------
# Main entry point
# ----------------------------------------------------------------------


def check_strong_consensus_impl(
    protocol: PopulationProtocol,
    theory: str = "auto",
    strategy: str = "auto",
    max_refinements: int = 10_000,
    max_pattern_pairs: int = 250_000,
    jobs: int = 1,
    engine=None,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> StrongConsensusResult:
    """Decide StrongConsensus with the trap/siphon refinement loop of Section 6.

    ``strategy`` is one of ``"auto"``, ``"patterns"`` (enumerate terminal
    support patterns, the default for anything non-trivial) or
    ``"monolithic"`` (the paper's single constraint system with the
    ``Terminal`` disjunctions left to the solver).

    ``backend`` names a registered solver backend
    (:func:`repro.constraints.backends.available_backends`); ``context`` is
    an optional shared :class:`AnalysisContext` — a
    :class:`repro.api.Verifier` session passes the same one to every
    property check of a protocol.

    With ``jobs > 1`` (or a parallel ``engine``, a
    :class:`repro.engine.scheduler.VerificationEngine`), the independent
    pattern pairs of the ``"patterns"`` strategy are fanned out over worker
    processes; ``jobs=1`` runs the single-process persistent-solver path
    unchanged.  Verdicts and counterexamples are identical either way.
    """
    start = time.perf_counter()
    if strategy not in ("auto", "patterns", "monolithic"):
        raise ValueError(f"unknown StrongConsensus strategy {strategy!r}")
    if engine is not None and jobs != 1:
        raise ValueError("pass either jobs>1 or an engine, not both")
    if context is None:
        context = AnalysisContext(protocol)
    owned_engine = False
    if engine is None and jobs > 1:
        from repro.engine.scheduler import VerificationEngine

        engine = VerificationEngine(jobs=jobs)
        owned_engine = True
    chosen = strategy
    patterns: list[TerminalPattern] | None = None
    if strategy in ("auto", "patterns"):
        patterns = context.terminal_patterns
        true_patterns = [p for p in patterns if p.admits_output(protocol, 1)]
        false_patterns = [p for p in patterns if p.admits_output(protocol, 0)]
        num_pairs = len(true_patterns) * len(false_patterns)
        if strategy == "auto":
            chosen = "patterns" if num_pairs <= max_pattern_pairs else "monolithic"
        else:
            chosen = "patterns"

    try:
        if chosen == "patterns":
            if engine is not None and engine.parallel:
                result = _check_with_patterns_engine(
                    protocol, true_patterns, false_patterns, theory, max_refinements, engine,
                    backend, context,
                )
            else:
                result = _check_with_patterns(
                    protocol, true_patterns, false_patterns, theory, max_refinements, backend, context
                )
        else:
            result = _check_monolithic(protocol, theory, max_refinements, backend, context)
    finally:
        if owned_engine:
            engine.shutdown()
    result.statistics["strategy"] = chosen
    result.statistics["backend"] = resolve_backend_name(backend)
    result.statistics["time"] = time.perf_counter() - start
    if patterns is not None:
        result.statistics["patterns"] = len(patterns)
    return result


def check_strong_consensus(
    protocol: PopulationProtocol,
    theory: str = "auto",
    strategy: str = "auto",
    max_refinements: int = 10_000,
    max_pattern_pairs: int = 250_000,
    jobs: int = 1,
    engine=None,
    backend: str | None = None,
) -> StrongConsensusResult:
    """Deprecated: use :class:`repro.api.Verifier` instead.

    ``Verifier().check(protocol, properties=["strong_consensus"])`` returns
    the same verdict and counterexample in report form; this shim delegates
    to the same implementation, so verdicts are identical.
    """
    import warnings

    warnings.warn(
        "check_strong_consensus() is deprecated; use repro.api.Verifier"
        " (Verifier().check(protocol, properties=['strong_consensus']))",
        DeprecationWarning,
        stacklevel=2,
    )
    return check_strong_consensus_impl(
        protocol,
        theory=theory,
        strategy=strategy,
        max_refinements=max_refinements,
        max_pattern_pairs=max_pattern_pairs,
        jobs=jobs,
        engine=engine,
        backend=backend,
    )


# ----------------------------------------------------------------------
# Strategy 1: terminal-support-pattern enumeration
# ----------------------------------------------------------------------


def _consensus_solver(
    builder: ConstraintBuilder,
    solver,
    variables: tuple,
    seeds: Iterable[RefinementStep] = (),
    stats: SimplifyStats | None = None,
) -> ScopedSolver:
    """``solver`` with the pair-independent block and ``seeds`` at base level.

    The base is the initial population plus non-negativity of both derived
    configurations.  Bound tightening stays off: the persistent solver
    reuses this block across the whole pattern sweep, and folding the
    off-initial constraints into bounds would perturb the theory backend's
    solution trajectory — the refinement sequence must stay reproducible
    across worker counts.
    """
    scoped = ScopedSolver(solver, builder.consensus_base_system(variables), stats=stats)
    _promote_cuts(scoped, builder, variables, seeds)
    return scoped


def _promote_cuts(
    scoped: ScopedSolver, builder: ConstraintBuilder, variables: tuple, steps: Iterable[RefinementStep]
) -> None:
    """Assert cuts once, at base level, in their pair-independent form.

    The general form (``target_support=None``) is equivalent to the
    specialized per-pair form (the one that intersects the marked states
    with ``pattern.allowed``) *inside a pair's scope*: pattern membership
    forces every off-pattern state of the terminal configuration to zero,
    and non-negativity is part of the base, so the marked sums agree on
    every model the scope admits.  Siphon cuts never used ``target_support``
    to begin with.  Asserting the general form at base level is therefore
    sound for every pair (a Definition-12 refinement is pair-independent)
    and equivalent under each pair's scope.

    ``find_refinement`` can never rediscover a cut whose general form is
    already active (the model would have to violate it), so promotion
    introduces no duplicates across pairs — but the index still guards
    against textual repeats from symmetric pairs.
    """
    c0, c1, c2, x1, x2 = variables
    for step in steps:
        scoped.add(
            builder.refinement_constraint(step, c0, c1, x1),
            builder.refinement_constraint(step, c0, c2, x2),
        )
        bump("cuts_promoted_to_base")


def _pair_delta(
    builder: ConstraintBuilder,
    variables: tuple,
    pattern_true: TerminalPattern,
    pattern_false: TerminalPattern,
    memo: dict,
) -> list:
    """A pair's scoped delta: both pattern memberships and output presences.

    ``memo`` keeps the formulas across pairs: a sweep revisits every
    pattern many times.
    """
    _c0, c1, c2, _x1, _x2 = variables
    for config, pattern, output in ((c1, pattern_true, 1), (c2, pattern_false, 0)):
        if (output, pattern) not in memo:
            memo[(output, pattern)] = builder.pattern(config, pattern)
        if output not in memo:
            memo[output] = builder.has_output(config, output)
    return [memo[(1, pattern_true)], memo[(0, pattern_false)], memo[1], memo[0]]


def _check_with_patterns(
    protocol: PopulationProtocol,
    true_patterns: list[TerminalPattern],
    false_patterns: list[TerminalPattern],
    theory: str,
    max_refinements: int,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> StrongConsensusResult:
    if context is None:
        context = AnalysisContext(protocol)
    builder = context.builder
    refinements: list[RefinementStep] = []
    simplifier = SimplifyStats()
    statistics = {"iterations": 0, "traps": 0, "siphons": 0, "pattern_pairs": 0, "solver_instances": 1}

    # One persistent solver for all pattern pairs.  The base block and every
    # cut discovered so far live at base level (in general form); a pair's
    # scope carries only its pattern membership and output formulas,
    # normalised online against the simplifier's index.  Learned lemmas —
    # blocking clauses and memoized theory checks over the shared atoms —
    # survive across pairs, so later pairs start warm.
    solver = create_solver(backend, theory=theory)
    variables = builder.consensus_variables()
    c0, c1, c2, _x1, _x2 = variables
    scoped = _consensus_solver(builder, solver, variables, stats=simplifier)
    delta_memo: dict = {}

    def side_feasible(flow_config, pattern, output) -> bool:
        """Cheap theory-only pre-check of one side of a pattern pair.

        The conjunction (initial population, derived non-negativity, support
        pattern, output presence) is a subset of the pair's full constraint
        system, so infeasibility here soundly rules out every pair using this
        side.  The same false-pattern side recurs across pairs, so the
        underlying theory query is answered from the solver's memo cache
        after the first time.
        """
        result = solver.check_conjunction(
            [
                builder.initial(c0),
                builder.non_negative(flow_config),
                builder.pattern(flow_config, pattern),
                builder.has_output(flow_config, output),
            ]
        )
        return result.status is not SolverStatus.UNSAT

    def finish(result: StrongConsensusResult) -> StrongConsensusResult:
        statistics["solver"] = dict(solver.statistics)
        statistics["simplifier"] = simplifier.to_dict()
        statistics["scoped_simplifier"] = scoped.savings_summary()
        return result

    for pattern_true in true_patterns:
        true_side_ok = side_feasible(c1, pattern_true, 1)
        for pattern_false in false_patterns:
            # Cooperative checkpoint of the serial sweep: a cancelled
            # service job stops between pattern pairs.
            monitor.check_cancelled()
            statistics["pattern_pairs"] += 1
            if not true_side_ok or not side_feasible(c2, pattern_false, 0):
                statistics["pruned_pairs"] = statistics.get("pruned_pairs", 0) + 1
                continue
            pair_start = len(refinements)
            with scoped.scope():
                outcome = _solve_pattern_pair(
                    protocol,
                    builder,
                    scoped,
                    variables,
                    pattern_true,
                    pattern_false,
                    max_refinements,
                    refinements,
                    statistics,
                    context=context,
                    delta_memo=delta_memo,
                )
            _promote_cuts(scoped, builder, variables, refinements[pair_start:])
            if outcome is not None:
                return finish(
                    StrongConsensusResult(
                        holds=False,
                        counterexample=outcome,
                        refinements=refinements,
                        statistics=statistics,
                    )
                )
    return finish(StrongConsensusResult(holds=True, refinements=refinements, statistics=statistics))


def _solve_pattern_pair(
    protocol: PopulationProtocol,
    builder: ConstraintBuilder,
    scoped: ScopedSolver,
    variables: tuple,
    pattern_true: TerminalPattern,
    pattern_false: TerminalPattern,
    max_refinements: int,
    refinements: list[RefinementStep],
    statistics: dict,
    context: AnalysisContext | None = None,
    delta_memo: dict | None = None,
) -> StrongConsensusCounterexample | None:
    """Run the refinement loop for one pattern pair inside an open scope.

    Earlier pairs' cuts already live at base level in general form, so the
    scope's delta is just the pair's pattern memberships and output
    presence (see :func:`_pair_delta`), normalised against the persistent
    index; cuts found *during* this pair are asserted inside the scope (the
    caller re-promotes them to base after pop).
    """
    c0, c1, c2, x1, x2 = variables
    supports = context.transition_supports if context is not None else None
    memo = delta_memo if delta_memo is not None else {}
    scoped.add(*_pair_delta(builder, variables, pattern_true, pattern_false, memo))

    for _ in range(max_refinements):
        statistics["iterations"] += 1
        result = scoped.solver.check()
        if result.status is SolverStatus.UNSAT:
            return None
        if result.status is SolverStatus.UNKNOWN:
            raise RuntimeError("the constraint solver could not decide the StrongConsensus query")

        model = result.model
        initial = builder.configuration_from_model(model, c0)
        terminal_true = builder.configuration_from_model(model, c1)
        terminal_false = builder.configuration_from_model(model, c2)
        flow_true = builder.flow_from_model(model, x1)
        flow_false = builder.flow_from_model(model, x2)

        step = find_refinement(protocol, initial, terminal_true, flow_true, supports=supports)
        if step is None:
            step = find_refinement(protocol, initial, terminal_false, flow_false, supports=supports)
        if step is None:
            return StrongConsensusCounterexample(
                initial=initial,
                terminal_true=terminal_true,
                terminal_false=terminal_false,
                flow_true=flow_true,
                flow_false=flow_false,
            )
        step = RefinementStep(kind=step.kind, states=step.states, iteration=statistics["iterations"])
        refinements.append(step)
        statistics["traps" if step.kind == "trap" else "siphons"] += 1
        monitor.emit_refinement_found(step.kind, step.states, step.iteration)
        # Cuts are asserted in the form that is cheapest for the solver.
        # When the trap misses the pair's allowed support the specialized
        # constraint collapses to a two-literal clause (FALSE consequent) —
        # pruning the general form only recovers through repeated theory
        # checks.  Otherwise the general form is used: it is textually
        # identical across pairs and iterations, so the solver's memoized
        # theory checks stay warm, and it matches the cut later promoted to
        # base level.
        for target, flow, pattern in ((c1, x1, pattern_true), (c2, x2, pattern_false)):
            if step.kind == "trap" and not (set(step.states) & set(pattern.allowed)):
                scoped.add(
                    builder.refinement_constraint(step, c0, target, flow, target_support=pattern.allowed)
                )
            else:
                scoped.add(builder.refinement_constraint(step, c0, target, flow))
    raise RuntimeError(
        f"StrongConsensus refinement did not converge within {max_refinements} iterations"
    )


# ----------------------------------------------------------------------
# Pattern pairs as engine subproblems
# ----------------------------------------------------------------------


@dataclass
class PairOutcome:
    """Worker-side outcome of one pattern-pair subproblem.

    ``verdict`` is ``"unsat"`` (the pair admits no counterexample),
    ``"sat"`` (a genuine counterexample exists) or ``"pruned"`` (one side of
    the pair is infeasible on its own, so the pair was never solved).
    ``new_refinements`` are the trap/siphon steps discovered beyond the
    seeded ones — the coordinator merges them and seeds later waves.
    """

    verdict: str
    new_refinements: list[RefinementStep]
    statistics: dict
    counterexample: StrongConsensusCounterexample | None = None


#: Per-process memo of side-feasibility answers, keyed by protocol content
#: hash.  The same (pattern, output) side recurs across the pairs a worker
#: solves; feasibility is a mathematical property of the side alone, so the
#: cached answer is exactly what a fresh solver would compute.  Bounded
#: (FIFO) so a long-lived worker pool cannot grow without limit.
_SIDE_FEASIBILITY_CACHE: dict[tuple, bool] = {}
_MAX_SIDE_FEASIBILITY_CACHE = 4096


def _side_is_feasible(
    builder: ConstraintBuilder,
    solver,
    c0: dict,
    flow_config: dict,
    pattern: TerminalPattern,
    output: int,
    cache_key: tuple | None,
) -> bool:
    if cache_key is not None:
        cached = _SIDE_FEASIBILITY_CACHE.get(cache_key)
        if cached is not None:
            return cached
    result = solver.check_conjunction(
        [
            builder.initial(c0),
            builder.non_negative(flow_config),
            builder.pattern(flow_config, pattern),
            builder.has_output(flow_config, output),
        ]
    )
    feasible = result.status is not SolverStatus.UNSAT
    if cache_key is not None:
        if len(_SIDE_FEASIBILITY_CACHE) >= _MAX_SIDE_FEASIBILITY_CACHE:
            _SIDE_FEASIBILITY_CACHE.pop(next(iter(_SIDE_FEASIBILITY_CACHE)))
        _SIDE_FEASIBILITY_CACHE[cache_key] = feasible
    return feasible


def solve_pattern_pair_subproblem(
    protocol: PopulationProtocol,
    pattern_true: TerminalPattern,
    pattern_false: TerminalPattern,
    seed_refinements: Iterable[RefinementStep],
    theory: str = "auto",
    max_refinements: int = 10_000,
    protocol_key: str | None = None,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> PairOutcome:
    """Solve one pattern pair in isolation (the worker-process entry point).

    A fresh solver is built per pair, so the outcome — verdict, discovered
    refinements, counterexample model — depends only on the arguments, never
    on which other subproblems the hosting process solved before.  That is
    what makes parallel runs reproducible: the coordinator's wave plan fixes
    every seed, so scheduling timing cannot leak into the results.

    The seeded cuts are asserted once at base level in general form (see
    :func:`_promote_cuts`) and the pair's pattern/output block lives in a
    scoped delta — the same shape as the serial persistent-solver path, so
    verdicts are identical.
    """
    if context is None:
        context = AnalysisContext(protocol)
    builder = context.builder
    solver = create_solver(backend, theory=theory)
    variables = builder.consensus_variables()
    c0, c1, c2, _x1, _x2 = variables
    statistics = {"iterations": 0, "traps": 0, "siphons": 0}

    backend_name = resolve_backend_name(backend)
    true_key = (protocol_key, backend_name, theory, "true", pattern_true) if protocol_key else None
    false_key = (protocol_key, backend_name, theory, "false", pattern_false) if protocol_key else None
    if not _side_is_feasible(builder, solver, c0, c1, pattern_true, 1, true_key) or not (
        _side_is_feasible(builder, solver, c0, c2, pattern_false, 0, false_key)
    ):
        return PairOutcome(verdict="pruned", new_refinements=[], statistics=statistics)

    refinements = list(seed_refinements)
    seeded = len(refinements)
    scoped = _consensus_solver(builder, solver, variables, seeds=refinements)
    with scoped.scope():
        counterexample = _solve_pattern_pair(
            protocol,
            builder,
            scoped,
            variables,
            pattern_true,
            pattern_false,
            max_refinements,
            refinements,
            statistics,
            context=context,
        )
    statistics["scoped_simplifier"] = scoped.savings_summary()
    statistics["solver"] = dict(solver.statistics)
    new_refinements = refinements[seeded:]
    if counterexample is not None:
        return PairOutcome(
            verdict="sat",
            new_refinements=new_refinements,
            statistics=statistics,
            counterexample=counterexample,
        )
    return PairOutcome(verdict="unsat", new_refinements=new_refinements, statistics=statistics)


def consensus_pair_subproblems(
    protocol: PopulationProtocol,
    pairs: list[tuple[TerminalPattern, TerminalPattern]],
    seed_refinements: list[RefinementStep],
    theory: str,
    max_refinements: int,
    first_index: int,
    protocol_data: dict,
    protocol_key: str,
    backend: str | None = None,
    context_data: dict | None = None,
) -> list:
    """Package a slice of the pattern-pair enumeration as engine subproblems."""
    from repro.engine.subproblem import Subproblem

    return [
        Subproblem(
            kind="consensus-pair",
            index=first_index + offset,
            protocol_key=protocol_key,
            protocol_data=protocol_data,
            params={
                "pattern_true": pattern_true,
                "pattern_false": pattern_false,
                "refinements": tuple(seed_refinements),
                "theory": theory,
                "max_refinements": max_refinements,
                "backend": backend,
                "context": context_data or {},
            },
        )
        for offset, (pattern_true, pattern_false) in enumerate(pairs)
    ]


def _check_with_patterns_engine(
    protocol: PopulationProtocol,
    true_patterns: list[TerminalPattern],
    false_patterns: list[TerminalPattern],
    theory: str,
    max_refinements: int,
    engine,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> StrongConsensusResult:
    """Fan the pattern pairs over the engine's worker pool, wave by wave.

    Each wave dispatches ``jobs`` pairs seeded with every trap/siphon
    refinement merged so far (cross-worker sharing through the
    coordinator); new discoveries are merged back in deterministic pair
    order, so the wave plan — and hence the result — is independent of
    worker timing.  The first SAT pair stops dispatch and cancels queued
    siblings; the counterexample itself is then re-derived by the serial
    path, which both pins the reported model to the ``jobs=1`` one and
    keeps falsification answers canonical across worker counts.  (The
    serial re-run stops at its own first SAT pair, so it re-solves only the
    pair prefix up to the counterexample — cheap, since falsified protocols
    fail on an early pair.)

    The coordinator's already-computed analysis artifacts travel to the
    workers inside the subproblem envelopes (``params["context"]``), so no
    worker re-enumerates terminal patterns.
    """
    from repro.engine.scheduler import run_refinement_sweep
    from repro.io.serialization import protocol_to_dict

    if context is None:
        context = AnalysisContext(protocol)
    pairs = [(t, f) for t in true_patterns for f in false_patterns]
    protocol_data = protocol_to_dict(protocol)
    protocol_key = context.protocol_key
    context_data = context.export_data()
    statistics = {
        "iterations": 0,
        "traps": 0,
        "siphons": 0,
        "pattern_pairs": 0,
        "jobs": engine.jobs,
        "waves": 0,
        "solver_instances": 0,
    }
    sat_seen, refinements = run_refinement_sweep(
        engine,
        len(pairs),
        lambda start, end, seed: consensus_pair_subproblems(
            protocol,
            pairs[start:end],
            seed,
            theory,
            max_refinements,
            start,
            protocol_data,
            protocol_key,
            backend,
            context_data,
        ),
        statistics,
    )

    if sat_seen:
        serial = _check_with_patterns(
            protocol, true_patterns, false_patterns, theory, max_refinements, backend, context
        )
        serial.statistics["parallel"] = {
            "jobs": engine.jobs,
            "waves": statistics["waves"],
            "fallback": "serial-rerun",
        }
        return serial
    return StrongConsensusResult(holds=True, refinements=refinements, statistics=statistics)


# ----------------------------------------------------------------------
# Strategy 2: the paper's monolithic encoding
# ----------------------------------------------------------------------


def _check_monolithic(
    protocol: PopulationProtocol,
    theory: str,
    max_refinements: int,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> StrongConsensusResult:
    if context is None:
        context = AnalysisContext(protocol)
    builder = context.builder
    supports = context.transition_supports
    solver = create_solver(backend, theory=theory)
    simplifier = SimplifyStats()

    variables = builder.consensus_variables()
    c0, c1, c2, x1, x2 = variables

    # The flow equations are substituted away: c1 and c2 are expressions over
    # c0 and the flow vectors rather than fresh variables.  The whole
    # monolithic block benefits from the simplifier: transitions sharing a
    # pre multiset produce duplicate ``Terminal`` clauses, which are now
    # asserted once.
    system = builder.consensus_base_system(variables)
    system.add(builder.terminal(c1))
    system.add(builder.terminal(c2))
    system.add(builder.has_output(c1, 1))
    system.add(builder.has_output(c2, 0))
    simplify_system_cached(system, simplifier=simplifier).assert_into(solver)

    refinements: list[RefinementStep] = []
    statistics = {"iterations": 0, "traps": 0, "siphons": 0}

    def finish(result: StrongConsensusResult) -> StrongConsensusResult:
        statistics["solver"] = dict(solver.statistics)
        statistics["simplifier"] = simplifier.to_dict()
        return result

    for iteration in range(max_refinements):
        monitor.check_cancelled()
        statistics["iterations"] = iteration + 1
        result = solver.check()
        if result.status is SolverStatus.UNSAT:
            return finish(
                StrongConsensusResult(holds=True, refinements=refinements, statistics=statistics)
            )
        if result.status is SolverStatus.UNKNOWN:
            raise RuntimeError("the constraint solver could not decide the StrongConsensus query")

        model = result.model
        initial = builder.configuration_from_model(model, c0)
        terminal_true = builder.configuration_from_model(model, c1)
        terminal_false = builder.configuration_from_model(model, c2)
        flow_true = builder.flow_from_model(model, x1)
        flow_false = builder.flow_from_model(model, x2)

        step = find_refinement(protocol, initial, terminal_true, flow_true, supports=supports)
        if step is None:
            step = find_refinement(protocol, initial, terminal_false, flow_false, supports=supports)
        if step is None:
            counterexample = StrongConsensusCounterexample(
                initial=initial,
                terminal_true=terminal_true,
                terminal_false=terminal_false,
                flow_true=flow_true,
                flow_false=flow_false,
            )
            return finish(
                StrongConsensusResult(
                    holds=False,
                    counterexample=counterexample,
                    refinements=refinements,
                    statistics=statistics,
                )
            )

        step = RefinementStep(kind=step.kind, states=step.states, iteration=iteration)
        refinements.append(step)
        statistics["traps" if step.kind == "trap" else "siphons"] += 1
        monitor.emit_refinement_found(step.kind, step.states, step.iteration)
        solver.add(builder.refinement_constraint(step, c0, c1, x1))
        solver.add(builder.refinement_constraint(step, c0, c2, x2))

    raise RuntimeError(
        f"StrongConsensus refinement did not converge within {max_refinements} iterations"
    )
