"""A direct ILP solving loop (no SAT engine) for near-conjunctive systems.

The constraint systems produced by the pattern-based verification
strategies are *almost* purely conjunctive: the only boolean structure left
after the terminal-pattern factoring is a handful of two/three-literal
clauses from trap/siphon cuts.  For such systems the classical DPLL(T)
detour through a CNF conversion and a SAT engine is overhead: it is cheaper
to split the few disjunctions combinatorially and hand each resulting
*conjunction* of linear constraints straight to the integer-feasibility
backend (scipy's HiGHS MILP, or the exact branch-and-bound).

:class:`DirectILPSolver` implements exactly that loop behind the same
incremental interface as :class:`repro.smtlite.solver.Solver` (``int_var``,
``add``, ``push``/``pop``, ``check(assumptions=...)``,
``check_conjunction``), so the verification layer can swap one for the
other through the backend registry without changing a line:

1. the asserted formulas are normalised (NNF) and each is expanded into its
   *cases* — the conjunctions of atoms that satisfy it;
2. the cross product of the per-formula cases is enumerated depth-first in
   deterministic order, bounded by ``max_cases``;
3. each complete case is one memoized theory check; the first satisfiable
   case yields a model (re-verified exactly against every asserted
   formula), and if all cases are infeasible the system is unsatisfiable.

Systems whose case product exceeds the budget (the monolithic
StrongConsensus encoding, the Appendix D.1 partition search) are beyond
what a direct ILP attack can do; the solver then *falls back* to a lazily
constructed DPLL(T) mirror — unless built with ``fallback=False``, in which
case :class:`CaseBudgetExceeded` is raised and the caller (the portfolio
runner) picks another backend.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.smtlite.formula import (
    And,
    Atom,
    BoolConst,
    Formula,
    Or,
    to_nnf,
)
from repro.smtlite.solver import Model, SolverResult, SolverStatus
from repro.smtlite.terms import IntVar, LinearExpr
from repro.smtlite.theory import (
    CORE_PROBE_STATISTICS,
    TheoryConstraint,
    TheoryError,
    add_core_probe_statistics,
    default_theory_solver,
)


class CaseBudgetExceeded(RuntimeError):
    """The boolean structure of the system exceeds the direct case budget."""


def _constraint_of(atom: Atom) -> TheoryConstraint:
    expr = atom.expr
    return TheoryConstraint.from_expr(expr.coefficients, expr.constant)


class DirectILPSolver:
    """Incremental direct-ILP solver with a DPLL(T) escape hatch.

    Parameters
    ----------
    theory:
        Theory backend preference (``"auto"``, ``"scipy"``, ``"exact"``) —
        the same strings the DPLL(T) solver accepts.
    max_cases:
        Budget on the case product per :meth:`check`; beyond it the solver
        falls back (or raises, with ``fallback=False``).
    fallback:
        Whether to build a DPLL(T) mirror when the budget is exceeded.
    """

    def __init__(self, theory: str = "auto", max_cases: int = 512, fallback: bool = True):
        self._theory_name = theory
        self._theory = default_theory_solver(theory)
        self.max_cases = int(max_cases)
        self._fallback_enabled = bool(fallback)
        self._bounds: dict[str, tuple[int | None, int | None]] = {}
        self._frames: list[list[Formula]] = [[]]
        #: Construction history of the *live* state, replayed into the
        #: DPLL(T) mirror the first time a fallback is needed; afterwards
        #: ops go to the mirror directly and the log stops.  Popping a
        #: scope truncates its ops (variable declarations survive — bounds
        #: are not scoped), so retractable CEGAR scopes do not accumulate.
        self._log: list[tuple] = []
        self._log_marks: list[int] = []
        self._mirror = None
        self._memo: dict[tuple, tuple] = {}
        self._max_memo = 4096
        #: Known-infeasible cores with the bounds of their variables at learn
        #: time: any case containing such a core (under the same bounds) is
        #: unsat without a theory call.  This is the direct loop's analogue
        #: of DPLL(T) clause learning — one conflict refutes whole subtrees
        #: of the case product, which is what keeps repeated UNSAT sweeps
        #: (the tail of every CEGAR refinement) from exhausting the budget.
        self._known_cores: list[tuple[frozenset[TheoryConstraint], dict]] = []
        self._max_known_cores = 512
        #: Memoized case expansions per formula (the persistent CEGAR loops
        #: re-check the same base formulas hundreds of times; expansion is
        #: pure, so one normalisation per distinct formula suffices).
        self._case_memo: dict[Formula, list[frozenset[TheoryConstraint]]] = {}
        self._max_case_memo = 4096
        self.statistics = {
            "checks": 0,
            "direct_checks": 0,
            "cases_explored": 0,
            "theory_checks": 0,
            "memo_hits": 0,
            "core_subsumptions": 0,
            "fallbacks": 0,
            "pushes": 0,
            "pops": 0,
            # Core retention across scopes: cores are content-keyed (the
            # constraint set plus the bounds at learn time), so a core whose
            # constraints all live in still-active scopes stays valid and is
            # deliberately NOT cleared on pop — the direct loop's analogue of
            # DPLL(T) lemmas surviving backtracking.  ``cores_learned``
            # counts admissions; ``cores_retained_across_pops`` accumulates
            # the live-core count observed at each pop.
            "cores_learned": 0,
            "cores_retained_across_pops": 0,
            **dict.fromkeys(CORE_PROBE_STATISTICS, 0),
        }

    # ------------------------------------------------------------------
    # Problem construction (mirrors the smtlite Solver interface)
    # ------------------------------------------------------------------

    def _record(self, op: tuple) -> None:
        if self._mirror is not None:
            self._apply(self._mirror, op)
        elif self._fallback_enabled:
            self._log.append(op)

    @staticmethod
    def _apply(solver, op: tuple) -> None:
        kind = op[0]
        if kind == "var":
            solver.int_var(op[1], lower=op[2], upper=op[3])
        elif kind == "add":
            solver.add(op[1])
        elif kind == "push":
            solver.push()
        else:
            solver.pop()

    def int_var(
        self, name: str, lower: int | None = 0, upper: int | None = None
    ) -> LinearExpr:
        """Declare (or re-declare) an integer variable with bounds and return it."""
        self._bounds[name] = (lower, upper)
        self._record(("var", name, lower, upper))
        return IntVar(name)

    def int_vars(
        self, names: Iterable[str], lower: int | None = 0, upper: int | None = None
    ) -> list[LinearExpr]:
        return [self.int_var(name, lower, upper) for name in names]

    def add(self, *formulas: Formula) -> None:
        """Assert one or more formulas (conjunctively, retractable in a scope)."""
        for formula in formulas:
            if not isinstance(formula, Formula):
                raise TypeError(f"expected a Formula, got {formula!r}")
            self._frames[-1].append(formula)
            self._record(("add", formula))

    def push(self) -> None:
        self._frames.append([])
        self._log_marks.append(len(self._log))
        self._record(("push",))
        self.statistics["pushes"] += 1

    def pop(self) -> None:
        if len(self._frames) == 1:
            raise RuntimeError("pop() without a matching push()")
        self._frames.pop()
        mark = self._log_marks.pop()
        if self._mirror is not None:
            self._record(("pop",))
        else:
            # Drop the popped scope's ops from the replay log, keeping the
            # unscoped variable declarations made inside it.
            tail = self._log[mark:]
            del self._log[mark:]
            self._log.extend(op for op in tail if op[0] == "var")
        self.statistics["pops"] += 1
        if self._known_cores:
            retained = len(self._known_cores)
            self.statistics["cores_retained_across_pops"] += retained
            from repro.constraints.incremental import bump

            bump("cores_retained_across_pops", retained)
            bump("pops_with_live_cores")

    @property
    def num_scopes(self) -> int:
        return len(self._frames) - 1

    def _active_formulas(self) -> list[Formula]:
        return [formula for frame in self._frames for formula in frame]

    # ------------------------------------------------------------------
    # Case expansion
    # ------------------------------------------------------------------

    def _cases_of(self, formula: Formula) -> list[frozenset[TheoryConstraint]]:
        """The satisfying cases of an NNF formula, as conjunctions of atoms.

        Raises :class:`CaseBudgetExceeded` if the expansion outgrows the
        budget or meets structure a direct ILP attack cannot split
        (propositional variables).
        """
        if isinstance(formula, BoolConst):
            return [frozenset()] if formula.value else []
        if isinstance(formula, Atom):
            return [frozenset((_constraint_of(formula),))]
        if isinstance(formula, Or):
            cases: list[frozenset[TheoryConstraint]] = []
            for operand in formula.operands:
                cases.extend(self._cases_of(operand))
                if len(cases) > self.max_cases:
                    raise CaseBudgetExceeded(f"more than {self.max_cases} cases")
            return cases
        if isinstance(formula, And):
            cases = [frozenset()]
            for operand in formula.operands:
                operand_cases = self._cases_of(operand)
                cases = [
                    existing | branch for existing in cases for branch in operand_cases
                ]
                if len(cases) > self.max_cases:
                    raise CaseBudgetExceeded(f"more than {self.max_cases} cases")
            return cases
        raise CaseBudgetExceeded(f"structure not splittable directly: {type(formula).__name__}")

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def check(self, assumptions: Sequence[Formula] = ()) -> SolverResult:
        """Decide satisfiability of the asserted formulas (plus assumptions)."""
        self.statistics["checks"] += 1
        formulas = self._active_formulas() + list(assumptions)
        try:
            result = self._direct_check(formulas)
        except CaseBudgetExceeded:
            if not self._fallback_enabled:
                raise
            return self._fallback_check(assumptions)
        if result.status is SolverStatus.UNKNOWN and self._fallback_enabled:
            # A theory budget ran out on some case; the DPLL(T) mirror poses
            # smaller incremental queries and may still decide — UNKNOWN
            # must never depend on which backend happened to be selected.
            return self._fallback_check(assumptions)
        return result

    def _direct_check(self, formulas: Sequence[Formula]) -> SolverResult:
        self.statistics["direct_checks"] += 1
        case_lists: list[list[frozenset[TheoryConstraint]]] = []
        product_size = 1
        for formula in formulas:
            cases = self._case_memo.get(formula)
            if cases is None:
                cases = self._cases_of(to_nnf(formula))
                if len(self._case_memo) >= self._max_case_memo:
                    self._case_memo.pop(next(iter(self._case_memo)))
                self._case_memo[formula] = cases
            if not cases:
                return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))
            if len(cases) > 1:  # empty/singleton factors do not grow the product
                product_size *= len(cases)
                if product_size > self.max_cases:
                    raise CaseBudgetExceeded(
                        f"case product {product_size} exceeds the budget {self.max_cases}"
                    )
            case_lists.append(cases)

        # Deterministic depth-first product: formulas in assertion order,
        # cases in expansion order.  Identical unions (common when many
        # formulas share atoms) are checked once.
        seen_unions: set[frozenset[TheoryConstraint]] = set()
        unknown = False

        def explore(index: int, union: frozenset[TheoryConstraint]) -> SolverResult | None:
            nonlocal unknown
            if index == len(case_lists):
                if union in seen_unions:
                    return None
                seen_unions.add(union)
                self.statistics["cases_explored"] += 1
                try:
                    satisfiable, model = self._check_case(union)
                except TheoryError:
                    unknown = True
                    return None
                if satisfiable:
                    built = self._build_model(model, formulas)
                    return SolverResult(
                        SolverStatus.SAT, model=built, statistics=dict(self.statistics)
                    )
                return None
            for branch in case_lists[index]:
                found = explore(index + 1, union | branch)
                if found is not None:
                    return found
            return None

        found = explore(0, frozenset())
        if found is not None:
            return found
        if unknown:
            return SolverResult(SolverStatus.UNKNOWN, statistics=dict(self.statistics))
        return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))

    def _check_case(
        self, union: frozenset[TheoryConstraint]
    ) -> tuple[bool, dict[str, int] | None]:
        constraints = sorted(union, key=repr)
        # Only the case's own variables matter (cf. Solver._effective_bounds):
        # small, stable memo keys that later unrelated declarations cannot
        # invalidate, and exactly what the theory answer can depend on.
        bounds: dict[str, tuple[int | None, int | None]] = {}
        for constraint in constraints:
            for name, _ in constraint.coefficients:
                if name not in bounds:
                    bounds[name] = self._bounds.get(name, (0, None))
        key = (union, frozenset(bounds.items()))
        cached = self._memo.get(key)
        if cached is not None:
            self.statistics["memo_hits"] += 1
            return cached

        # A case containing a known-infeasible core (learned under the same
        # bounds for the core's variables) is unsat without a theory call.
        for core, core_bounds in self._known_cores:
            if core <= union and all(
                bounds.get(name, (0, None)) == bound for name, bound in core_bounds.items()
            ):
                self.statistics["core_subsumptions"] += 1
                return (False, None)

        self.statistics["theory_checks"] += 1
        result = self._theory.check(constraints, bounds)
        add_core_probe_statistics(self.statistics, result)
        value = (result.satisfiable, dict(result.model) if result.model else None)
        if len(self._memo) >= self._max_memo:
            self._memo.pop(next(iter(self._memo)))
        self._memo[key] = value
        if not result.satisfiable and len(self._known_cores) < self._max_known_cores:
            core_indices = result.core if result.core else range(len(constraints))
            core = frozenset(constraints[index] for index in core_indices)
            core_bounds = {
                name: bounds.get(name, (0, None))
                for constraint in core
                for name, _ in constraint.coefficients
            }
            self._known_cores.append((core, core_bounds))
            self.statistics["cores_learned"] += 1
            from repro.constraints.incremental import bump

            bump("cores_learned")
        return value

    def _build_model(self, ints: dict[str, int] | None, formulas: Sequence[Formula]) -> Model:
        values = dict(ints or {})
        names = set(self._bounds)
        for formula in formulas:
            names.update(formula.int_variables())
        for name in names:
            if name not in values:
                lower, upper = self._bounds.get(name, (0, None))
                if lower is not None:
                    values[name] = int(lower)
                elif upper is not None and upper < 0:
                    values[name] = int(upper)
                else:
                    values[name] = 0
        model = Model(values, {})
        for formula in formulas:
            if not formula.evaluate(values, {}):
                raise RuntimeError(
                    "internal error: the direct-ILP model does not satisfy an asserted "
                    f"formula; formula={formula!r}"
                )
        return model

    def _fallback_check(self, assumptions: Sequence[Formula]) -> SolverResult:
        self.statistics["fallbacks"] += 1
        if self._mirror is None:
            from repro.smtlite.solver import Solver

            self._mirror = Solver(theory=self._theory_name)
            for op in self._log:
                self._apply(self._mirror, op)
            # From here on ops go to the mirror directly; the log is dead.
            self._log.clear()
        return self._mirror.check(assumptions=assumptions)

    def check_conjunction(self, formulas: Iterable[Formula]) -> SolverResult:
        """Decide a pure conjunction of atoms with a single (memoized) theory call.

        Same contract as :meth:`repro.smtlite.solver.Solver.check_conjunction`:
        asserted formulas are not taken into account.
        """
        atoms: list[Atom] = []
        stack = list(formulas)
        while stack:
            formula = stack.pop()
            if isinstance(formula, Atom):
                atoms.append(formula)
            elif isinstance(formula, BoolConst):
                if not formula.value:
                    return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))
            elif isinstance(formula, And):
                stack.extend(formula.operands)
            else:
                raise TypeError(f"check_conjunction expects conjunctive formulas, got {formula!r}")
        union = frozenset(_constraint_of(atom) for atom in atoms)
        try:
            satisfiable, model = self._check_case(union)
        except TheoryError:
            return SolverResult(SolverStatus.UNKNOWN, statistics=dict(self.statistics))
        if satisfiable:
            return SolverResult(
                SolverStatus.SAT, model=Model(model or {}, {}), statistics=dict(self.statistics)
            )
        return SolverResult(SolverStatus.UNSAT, statistics=dict(self.statistics))
