"""Correctness of a (well-specified) protocol against a predicate.

Section 6 of the paper describes an extension of the well-specification
check: *given* a protocol that belongs to WS³ and a predicate φ over its
inputs, check that the protocol actually computes φ.  The constraint system
asks for an input ``X`` and a terminal configuration ``C`` potentially
reachable from ``I(X)`` such that ``O(C) ≠ φ(X)``; if no such pair exists
(after trap/siphon refinement) the protocol is correct.

Predicates must offer the small interface implemented by
:mod:`repro.presburger.predicates`:

* ``formula(input_vars)`` — a :class:`repro.smtlite.formula.Formula` saying
  "φ holds for the input whose symbol counts are ``input_vars``";
* ``negation_formula(input_vars)`` — the same for ¬φ;
* ``evaluate(input_population)`` — concrete evaluation (used by tests and by
  the explicit-state baseline).

The predicate's formulas are compiled into the constraint IR
(:func:`repro.presburger.ir.predicate_system`) together with the terminal
pattern block, simplified, and handed to whichever solver backend the
registry provides; like the StrongConsensus check, all structural
artifacts come from the shared :class:`AnalysisContext`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

from repro.constraints.backends import create_solver, resolve_backend_name
from repro.constraints.builders import ConstraintBuilder
from repro.constraints.context import AnalysisContext
from repro.constraints.incremental import ScopedSolver, bump
from repro.constraints.simplify import SimplifyStats
from repro.datatypes.multiset import Multiset
from repro.engine import monitor
from repro.protocols.protocol import PopulationProtocol
from repro.smtlite.formula import Formula
from repro.smtlite.solver import SolverStatus
from repro.verification.results import CorrectnessCounterexample, RefinementStep
from repro.verification.strong_consensus import find_refinement


class PredicateLike(TypingProtocol):
    """Structural interface required of predicates."""

    def formula(self, input_vars: dict) -> Formula: ...

    def negation_formula(self, input_vars: dict) -> Formula: ...

    def evaluate(self, input_population) -> bool: ...


@dataclass
class CorrectnessResult:
    """Outcome of the correctness check."""

    holds: bool
    counterexample: CorrectnessCounterexample | None = None
    refinements: list[RefinementStep] = field(default_factory=list)
    statistics: dict = field(default_factory=dict)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


def _correctness_solver(
    builder: ConstraintBuilder,
    solver,
    variables: tuple,
    seeds=(),
    stats: SimplifyStats | None = None,
) -> ScopedSolver:
    """``solver`` with the pattern-independent block and ``seeds`` at base level.

    The initial configuration is the image of the input under I, expressed
    directly over the input variables; the flow equations are likewise
    substituted away (c1 is an expression over the input and the flow).
    """
    scoped = ScopedSolver(solver, builder.correctness_base_system(variables), stats=stats)
    _promote_cuts(scoped, builder, variables, seeds)
    return scoped


def _promote_cuts(scoped: ScopedSolver, builder: ConstraintBuilder, variables: tuple, steps) -> None:
    """Assert cuts once, at base level, in general form.

    Equivalence with the specialized ``target_support`` form holds under
    pattern membership exactly as in the StrongConsensus check.
    """
    _input_vars, c0, c1, x1 = variables
    for step in steps:
        scoped.add(builder.refinement_constraint(step, c0, c1, x1))
        bump("cuts_promoted_to_base")


def correctness_tasks(
    protocol: PopulationProtocol, context: AnalysisContext | None = None
) -> list[tuple[int, object]]:
    """The deterministic enumeration of (expected output, pattern) tasks."""
    if context is None:
        context = AnalysisContext(protocol)
    patterns = context.terminal_patterns
    tasks = []
    for expected_output in (1, 0):
        wrong_output = 1 - expected_output
        for pattern in patterns:
            if pattern.admits_output(protocol, wrong_output):
                tasks.append((expected_output, pattern))
    return tasks


def check_correctness_impl(
    protocol: PopulationProtocol,
    predicate: PredicateLike,
    theory: str = "auto",
    max_refinements: int = 10_000,
    jobs: int = 1,
    engine=None,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> CorrectnessResult:
    """Check that a protocol computes ``predicate``.

    The check is sound for protocols in WS³: a well-specified silent protocol
    stabilises, for every input, to the output of some reachable terminal
    configuration, and every reachable terminal configuration is potentially
    reachable, so if no potentially-reachable terminal configuration carries
    the wrong output the protocol computes the predicate.

    With ``jobs > 1`` (or a parallel ``engine``), the independent
    (direction, terminal pattern) subproblems are fanned out over worker
    processes; ``jobs=1`` runs the persistent-solver path unchanged.
    """
    if engine is not None and jobs != 1:
        raise ValueError("pass either jobs>1 or an engine, not both")
    if context is None:
        context = AnalysisContext(protocol)
    owned_engine = False
    if engine is None and jobs > 1:
        from repro.engine.scheduler import VerificationEngine

        engine = VerificationEngine(jobs=jobs)
        owned_engine = True
    if engine is not None and engine.parallel:
        try:
            return _check_correctness_engine(
                protocol, predicate, theory, max_refinements, engine, backend, context
            )
        finally:
            if owned_engine:
                engine.shutdown()

    start = time.perf_counter()
    refinements: list[RefinementStep] = []
    simplifier = SimplifyStats()
    statistics = {"iterations": 0, "traps": 0, "siphons": 0, "solver_instances": 1}

    # One persistent solver for both output directions and all terminal
    # support patterns (cf. the StrongConsensus check): the input encoding,
    # flow variables, non-negativity constraints and every cut found so far
    # live at base level, the per-direction/per-pattern constraints live in
    # scoped deltas, and lemmas learned while refuting one pattern carry
    # over to the next.
    builder = context.builder
    variables = builder.correctness_variables()
    scoped = _correctness_solver(
        builder, create_solver(backend, theory=theory), variables, stats=simplifier
    )
    predicate_memo: dict[int, tuple] = {}

    def finish(result: CorrectnessResult) -> CorrectnessResult:
        statistics["solver"] = dict(scoped.solver.statistics)
        statistics["simplifier"] = simplifier.to_dict()
        statistics["scoped_simplifier"] = scoped.savings_summary()
        statistics["backend"] = resolve_backend_name(backend)
        statistics["time"] = time.perf_counter() - start
        return result

    patterns = context.terminal_patterns
    for expected_output in (1, 0):
        wrong_output = 1 - expected_output
        for pattern in patterns:
            if not pattern.admits_output(protocol, wrong_output):
                continue
            # Cooperative checkpoint of the serial sweep (service jobs).
            monitor.check_cancelled()
            statistics["pattern_pairs"] = statistics.get("pattern_pairs", 0) + 1
            pattern_start = len(refinements)
            with scoped.scope():
                outcome = _solve_pattern(
                    protocol,
                    builder,
                    scoped,
                    variables,
                    predicate,
                    expected_output,
                    pattern,
                    max_refinements,
                    refinements,
                    statistics,
                    context=context,
                    predicate_memo=predicate_memo,
                )
            _promote_cuts(scoped, builder, variables, refinements[pattern_start:])
            if outcome is not None:
                return finish(
                    CorrectnessResult(
                        holds=False,
                        counterexample=outcome,
                        refinements=refinements,
                        statistics=statistics,
                    )
                )
    return finish(CorrectnessResult(holds=True, refinements=refinements, statistics=statistics))


def _solve_pattern(
    protocol: PopulationProtocol,
    builder: ConstraintBuilder,
    scoped: ScopedSolver,
    variables: tuple,
    predicate: PredicateLike,
    expected_output: int,
    pattern,
    max_refinements: int,
    refinements: list[RefinementStep],
    statistics: dict,
    context: AnalysisContext | None = None,
    predicate_memo: dict | None = None,
) -> CorrectnessCounterexample | None:
    """Run the refinement loop for one pattern inside an open solver scope.

    Earlier patterns' cuts already live at base level in general form, so
    the delta is only the pattern membership, the wrong-output constraint
    and the (per-direction memoized) compiled predicate; new cuts are
    asserted in general form and re-promoted to base by the caller after
    pop.
    """
    from repro.presburger.ir import predicate_system

    input_vars, c0, c1, x1 = variables
    supports = context.transition_supports if context is not None else None
    memo = predicate_memo if predicate_memo is not None else {}
    entry = memo.get(expected_output)
    if entry is None:
        compiled = predicate_system(predicate, input_vars, negate=(expected_output == 0))
        entry = (dict(compiled.bounds), list(compiled.constraints))
        memo[expected_output] = entry
    pred_bounds, pred_constraints = entry
    # The predicate's fresh existential variables (e.g. remainder
    # quotients) are declared unscoped — solver scopes never retract
    # declarations, so the mirror system must not either.  Re-declaring
    # on a later scope with the same direction is idempotent.
    for variable, (lower, upper) in pred_bounds.items():
        scoped.declare(variable, lower, upper)
    scoped.add(
        builder.pattern(c1, pattern),
        builder.has_output(c1, 1 - expected_output),
        *pred_constraints,
    )

    for iteration in range(max_refinements):
        statistics["iterations"] += 1
        result = scoped.solver.check()
        if result.status is SolverStatus.UNSAT:
            return None
        if result.status is SolverStatus.UNKNOWN:
            raise RuntimeError("the constraint solver could not decide the correctness query")

        model = result.model
        initial = builder.configuration_from_model(model, c0)
        terminal = builder.configuration_from_model(model, c1)
        flow = builder.flow_from_model(model, x1)
        step = find_refinement(protocol, initial, terminal, flow, supports=supports)
        if step is None:
            input_population = Multiset(
                {
                    symbol: model.value(variable)
                    for symbol, variable in input_vars.items()
                    if model.value(variable) > 0
                }
            )
            return CorrectnessCounterexample(
                input_population=input_population,
                initial=initial,
                terminal=terminal,
                flow=flow,
                expected_output=expected_output,
            )
        step = RefinementStep(kind=step.kind, states=step.states, iteration=iteration)
        refinements.append(step)
        statistics["traps" if step.kind == "trap" else "siphons"] += 1
        monitor.emit_refinement_found(step.kind, step.states, step.iteration)
        scoped.add(builder.refinement_constraint(step, c0, c1, x1))
    raise RuntimeError(
        f"correctness refinement did not converge within {max_refinements} iterations"
    )


# ----------------------------------------------------------------------
# Correctness patterns as engine subproblems
# ----------------------------------------------------------------------


@dataclass
class CorrectnessPatternOutcome:
    """Worker-side outcome of one (direction, pattern) subproblem."""

    verdict: str  # "unsat" or "sat"
    new_refinements: list[RefinementStep]
    statistics: dict


def solve_correctness_pattern_subproblem(
    protocol: PopulationProtocol,
    predicate: PredicateLike,
    expected_output: int,
    pattern,
    seed_refinements,
    theory: str = "auto",
    max_refinements: int = 10_000,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> CorrectnessPatternOutcome:
    """Solve one (direction, pattern) subproblem on a fresh solver.

    Like its StrongConsensus counterpart, the outcome depends only on the
    arguments — never on sibling subproblems solved by the same process —
    which keeps parallel runs reproducible.  The seeded cuts are asserted
    once at base level in general form and the pattern's block lives in a
    scoped delta, mirroring the serial path.
    """
    if context is None:
        context = AnalysisContext(protocol)
    builder = context.builder
    refinements = list(seed_refinements)
    seeded = len(refinements)
    statistics = {"iterations": 0, "traps": 0, "siphons": 0}
    variables = builder.correctness_variables()
    scoped = _correctness_solver(
        builder, create_solver(backend, theory=theory), variables, seeds=refinements
    )
    with scoped.scope():
        outcome = _solve_pattern(
            protocol,
            builder,
            scoped,
            variables,
            predicate,
            expected_output,
            pattern,
            max_refinements,
            refinements,
            statistics,
            context=context,
        )
    statistics["scoped_simplifier"] = scoped.savings_summary()
    statistics["solver"] = dict(scoped.solver.statistics)
    return CorrectnessPatternOutcome(
        verdict="unsat" if outcome is None else "sat",
        new_refinements=refinements[seeded:],
        statistics=statistics,
    )


def correctness_pattern_subproblems(
    protocol: PopulationProtocol,
    predicate: PredicateLike,
    tasks: list,
    seed_refinements: list[RefinementStep],
    theory: str,
    max_refinements: int,
    first_index: int,
    protocol_data: dict,
    protocol_key: str,
    backend: str | None = None,
    context_data: dict | None = None,
) -> list:
    """Package a slice of the (direction, pattern) enumeration as subproblems."""
    from repro.engine.subproblem import Subproblem

    return [
        Subproblem(
            kind="correctness-pattern",
            index=first_index + offset,
            protocol_key=protocol_key,
            protocol_data=protocol_data,
            params={
                "predicate": predicate,
                "expected_output": expected_output,
                "pattern": pattern,
                "refinements": tuple(seed_refinements),
                "theory": theory,
                "max_refinements": max_refinements,
                "backend": backend,
                "context": context_data or {},
            },
        )
        for offset, (expected_output, pattern) in enumerate(tasks)
    ]


def _check_correctness_engine(
    protocol: PopulationProtocol,
    predicate: PredicateLike,
    theory: str,
    max_refinements: int,
    engine,
    backend: str | None = None,
    context: AnalysisContext | None = None,
) -> CorrectnessResult:
    """Fan the (direction, pattern) subproblems over the worker pool.

    Same coordination scheme as the parallel StrongConsensus check:
    deterministic waves of ``jobs`` subproblems, trap/siphon refinements
    merged between waves, and a serial re-run when a wrong-output witness is
    found so the reported counterexample is canonical.
    """
    from repro.engine.scheduler import run_refinement_sweep
    from repro.io.serialization import protocol_to_dict

    if context is None:
        context = AnalysisContext(protocol)
    start = time.perf_counter()
    tasks = correctness_tasks(protocol, context)
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
        len(tasks),
        lambda wave_start, wave_end, seed: correctness_pattern_subproblems(
            protocol,
            predicate,
            tasks[wave_start:wave_end],
            seed,
            theory,
            max_refinements,
            wave_start,
            protocol_data,
            protocol_key,
            backend,
            context_data,
        ),
        statistics,
    )

    if sat_seen:
        serial = check_correctness_impl(
            protocol,
            predicate,
            theory=theory,
            max_refinements=max_refinements,
            backend=backend,
            context=context,
        )
        serial.statistics["parallel"] = {
            "jobs": engine.jobs,
            "waves": statistics["waves"],
            "fallback": "serial-rerun",
        }
        return serial
    statistics["time"] = time.perf_counter() - start
    return CorrectnessResult(holds=True, refinements=refinements, statistics=statistics)


def check_correctness(
    protocol: PopulationProtocol,
    predicate: PredicateLike,
    theory: str = "auto",
    max_refinements: int = 10_000,
    jobs: int = 1,
    engine=None,
    backend: str | None = None,
) -> CorrectnessResult:
    """Deprecated: use :class:`repro.api.Verifier` instead.

    ``Verifier().check(protocol, properties=["correctness"], predicate=...)``
    returns the same verdict and counterexample in report form; this shim
    delegates to the same implementation, so verdicts are identical.
    """
    import warnings

    warnings.warn(
        "check_correctness() is deprecated; use repro.api.Verifier"
        " (Verifier().check(protocol, properties=['correctness'], predicate=...))",
        DeprecationWarning,
        stacklevel=2,
    )
    return check_correctness_impl(
        protocol,
        predicate,
        theory=theory,
        max_refinements=max_refinements,
        jobs=jobs,
        engine=engine,
        backend=backend,
    )
