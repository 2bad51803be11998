"""Theory backend based on scipy's HiGHS solvers.

This backend decides conjunctions of linear integer constraints with
``scipy.optimize.milp`` (branch-and-cut in HiGHS) and extracts conflict cores
from the dual multipliers of an *elastic* LP relaxation.  It is considerably
faster than the pure-Python exact backend on the larger constraint systems
produced by the threshold/remainder/flock-of-birds benchmarks.

Incrementality: the DPLL(T) loop and the CEGAR refinement of the
verification layer pose long sequences of closely related conjunctions, so
the backend keeps a grow-only variable→column index and caches the sparse
row of every constraint it has ever seen; each call assembles its matrix by
stacking cached rows instead of rebuilding the MILP from scratch.  Columns
belonging to variables of earlier calls are harmless: their coefficients are
zero and their bounds default to the natural numbers.  Shrinking one
conflict takes dozens of subset MILPs (candidate re-verification, ddmin
halving, deletion), so each core extraction loads the conflict's arrays once
into a persistent HiGHS model (:class:`_ProbeModel`) and every probe only
relaxes or restores the bounds of the rows whose membership changed.

Soundness: HiGHS works in floating point, so

* every model is rounded to integers and re-verified exactly
  (:func:`repro.smtlite.theory.verify_model`); if verification fails the
  query is re-run on the exact backend;
* a conflict core only ever shrinks through subset probes that HiGHS
  reports as proven infeasible (``kInfeasible``); a probe stopped by its
  time limit, or ending in any other status, keeps the larger core, and
  without a verified candidate the full constraint set is returned as the
  (always valid) core.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np
from scipy import optimize, sparse
from scipy.optimize._highspy import _core as highs

from repro.obs.metrics import REGISTRY
from repro.smtlite.theory import (
    CORE_PROBE_STATISTICS,
    Bounds,
    ExactTheorySolver,
    TheoryConstraint,
    TheoryResult,
    TheorySolverBase,
    verify_model,
)

_MARGINAL_TOLERANCE = 1e-7
_FEASIBILITY_TOLERANCE = 1e-6

_CORE_PROBES = REGISTRY.counter(
    "repro_core_probes_total",
    "Conflict-core subset probes of the scipy theory (probes, proven, timeouts)",
)


class ScipyTheorySolver(TheorySolverBase):
    """Linear integer arithmetic backend using scipy/HiGHS."""

    name = "scipy"

    def __init__(
        self,
        minimize_cores: bool = True,
        core_minimization_budget: int = 16,
        core_shrink_budget: int = 96,
        core_shrink_time_limit: float = 5.0,
    ):
        super().__init__()
        self.minimize_cores = minimize_cores
        self.core_minimization_budget = core_minimization_budget
        self.core_shrink_budget = core_shrink_budget
        self.core_shrink_time_limit = core_shrink_time_limit
        self._exact_fallback = ExactTheorySolver()
        # Grow-only variable -> column index shared by all calls.
        self._var_index: dict[str, int] = {}
        # Cached sparse row (data, column indices) per constraint.
        self._row_cache: dict[TheoryConstraint, tuple[list[float], list[int]]] = {}
        self.statistics = {
            "milp_calls": 0,
            "lp_calls": 0,
            "exact_fallbacks": 0,
            "row_cache_hits": 0,
            "row_cache_misses": 0,
            **dict.fromkeys(CORE_PROBE_STATISTICS, 0),
        }
        # The probe model of the conflict being shrunk (set by _extract_core).
        self._probe: _ProbeModel | None = None

    # ------------------------------------------------------------------

    def check(self, constraints: Sequence[TheoryConstraint], bounds: Bounds) -> TheoryResult:
        constraints = list(constraints)
        variables = sorted(
            {name for constraint in constraints for name in constraint.variables()} | set(bounds)
        )
        if not constraints:
            model = {name: self._default_value(bounds.get(name, (0, None))) for name in variables}
            return TheoryResult(True, model=model)
        if not variables:
            # Constant constraints only.
            if all(constraint.constant <= 0 for constraint in constraints):
                return TheoryResult(True, model={})
            core = [i for i, c in enumerate(constraints) if c.constant > 0]
            return TheoryResult(False, core=core)

        self._register_variables(bounds)
        matrix, rhs = self._constraint_matrix(constraints)
        lower, upper = self._bound_arrays(bounds)

        feasible, values = self._solve_milp(matrix, rhs, lower, upper)
        if feasible:
            model = {name: values[self._var_index[name]] for name in variables}
            if verify_model(constraints, bounds, model):
                return TheoryResult(True, model=model)
            self.statistics["exact_fallbacks"] += 1
            return self._exact_fallback.check(constraints, bounds)

        probes = [self.statistics[key] for key in CORE_PROBE_STATISTICS]
        core = self._extract_core(constraints, bounds, matrix, rhs, lower, upper)
        spent = {
            key: self.statistics[key] - before for key, before in zip(CORE_PROBE_STATISTICS, probes)
        }
        return TheoryResult(False, core=core, statistics=spent)

    # ------------------------------------------------------------------
    # MILP / LP building blocks
    # ------------------------------------------------------------------

    @staticmethod
    def _default_value(bound: tuple[int | None, int | None]) -> int:
        lower, upper = bound
        if lower is not None:
            return int(lower)
        if upper is not None:
            return int(upper)
        return 0

    def _register_variables(self, bounds: Bounds) -> None:
        index = self._var_index
        for name in bounds:
            if name not in index:
                index[name] = len(index)

    def _constraint_matrix(
        self, constraints: Sequence[TheoryConstraint]
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        index = self._var_index
        row_cache = self._row_cache
        data: list[float] = []
        row_indices: list[int] = []
        column_indices: list[int] = []
        rhs = np.empty(len(constraints))
        for row, constraint in enumerate(constraints):
            rhs[row] = -constraint.constant
            cached = row_cache.get(constraint)
            if cached is None:
                self.statistics["row_cache_misses"] += 1
                row_data: list[float] = []
                row_columns: list[int] = []
                for name, coefficient in constraint.coefficients:
                    column = index.get(name)
                    if column is None:
                        column = len(index)
                        index[name] = column
                    row_data.append(float(coefficient))
                    row_columns.append(column)
                cached = (row_data, row_columns)
                row_cache[constraint] = cached
            else:
                self.statistics["row_cache_hits"] += 1
            data.extend(cached[0])
            column_indices.extend(cached[1])
            row_indices.extend([row] * len(cached[0]))
        matrix = sparse.csr_matrix(
            (data, (row_indices, column_indices)), shape=(len(constraints), len(index))
        )
        return matrix, rhs

    def _bound_arrays(self, bounds: Bounds) -> tuple[np.ndarray, np.ndarray]:
        num_columns = len(self._var_index)
        lower = np.zeros(num_columns)
        upper = np.full(num_columns, np.inf)
        for name, (low, high) in bounds.items():
            position = self._var_index[name]
            lower[position] = -np.inf if low is None else float(low)
            upper[position] = np.inf if high is None else float(high)
        return lower, upper

    def _solve_milp(
        self,
        matrix: sparse.csr_matrix,
        rhs: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> tuple[bool, list[int] | None]:
        self.statistics["milp_calls"] += 1
        num_variables = matrix.shape[1]
        constraint = optimize.LinearConstraint(matrix, -np.inf, rhs)
        result = optimize.milp(
            c=np.zeros(num_variables),
            constraints=[constraint],
            integrality=np.ones(num_variables),
            bounds=optimize.Bounds(lower, upper),
        )
        if result.success and result.x is not None:
            return True, [int(round(value)) for value in result.x]
        return False, None

    # ------------------------------------------------------------------
    # Conflict cores
    # ------------------------------------------------------------------

    def _extract_core(
        self,
        constraints: Sequence[TheoryConstraint],
        bounds: Bounds,
        matrix: sparse.csr_matrix,
        rhs: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> list[int]:
        all_indices = list(range(len(constraints)))
        candidate = self._elastic_lp_core(matrix, rhs, lower, upper)
        self._probe = _ProbeModel(matrix, rhs, lower, upper)
        try:
            core = None
            if candidate and len(candidate) < len(constraints):
                # Re-verify the candidate with a dedicated MILP probe on the subset.
                if self._subset_proven_infeasible(constraints, bounds, candidate):
                    core = candidate
            if core is None:
                # No LP certificate (typically integrality-driven infeasibility).
                core = all_indices
            if self.minimize_cores and len(core) > 4:
                # Large cores make weak blocking clauses and the DPLL(T) loop
                # degenerates into near-enumeration of boolean assignments, so
                # spend a bounded number of subset probes shrinking them.
                core = self._dichotomic_shrink(constraints, bounds, core)
            if self.minimize_cores and 4 < len(core) <= self.core_minimization_budget:
                core = self.minimize_core(
                    constraints, bounds, core, max_checks=self.core_minimization_budget
                )
        finally:
            self._probe = None
        return core

    def _subset_proven_infeasible(
        self,
        constraints: Sequence[TheoryConstraint],
        bounds: Bounds,
        indices: Sequence[int],
        time_limit: float | None = None,
    ) -> bool:
        """True only when HiGHS *proves* the subset infeasible.

        Every probe of one extraction runs on that extraction's
        :class:`_ProbeModel`, which already holds ``constraints`` under
        ``bounds``.  Removing constraints can make the branch-and-bound much
        harder than the full system, so shrink probes carry a time limit; an
        undecided probe counts as "not proven", which is always sound (the
        caller just keeps a larger core).
        """
        status = self._probe.solve(indices, time_limit)
        if status == highs.HighsModelStatus.kInfeasible:
            events = ("core_probes", "core_probes_proven")
        elif status == highs.HighsModelStatus.kTimeLimit:
            events = ("core_probes", "core_probe_timeouts")
        else:
            events = ("core_probes",)
        for event in events:
            self.statistics[event] += 1
            _CORE_PROBES.inc(event=event)
        return status == highs.HighsModelStatus.kInfeasible

    def _dichotomic_shrink(
        self, constraints: Sequence[TheoryConstraint], bounds: Bounds, core: list[int]
    ) -> list[int]:
        """Shrink an unsatisfiable index set by dropping halving chunks.

        ddmin-style: try to remove chunks of decreasing size while the
        remainder stays infeasible.  Costs O(budget) time-limited subset MILP
        calls and typically reduces a full-assignment core to a handful of
        rows, which turns the learned blocking clause from a
        single-assignment exclusion into a real pruning lemma.
        """
        budget = self.core_shrink_budget
        if budget <= 0 or len(core) <= 4:
            return core
        deadline = time.perf_counter() + self.core_shrink_time_limit
        per_probe = max(self.core_shrink_time_limit / 8.0, 0.25)
        chunk = len(core) // 2
        while chunk >= 1 and budget > 0:
            position = 0
            while position < len(core) and budget > 0:
                if time.perf_counter() > deadline:
                    return core
                trial = core[:position] + core[position + chunk :]
                if not trial:
                    break
                budget -= 1
                if self._subset_proven_infeasible(constraints, bounds, trial, time_limit=per_probe):
                    core = trial
                else:
                    position += chunk
            chunk //= 2
        return core

    def _elastic_lp_core(
        self,
        matrix: sparse.csr_matrix,
        rhs: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> list[int] | None:
        """Dual-based core from the elastic LP ``min sum(s) s.t. Ax - s <= b``.

        If the minimal total violation is positive, the LP relaxation itself
        is infeasible and the rows with non-zero dual multipliers form a
        Farkas-style certificate.
        """
        self.statistics["lp_calls"] += 1
        num_constraints, num_variables = matrix.shape
        elastic = sparse.hstack([matrix, -sparse.identity(num_constraints, format="csr")], format="csr")
        objective = np.concatenate([np.zeros(num_variables), np.ones(num_constraints)])
        variable_bounds = [
            (None if np.isneginf(low) else low, None if np.isposinf(high) else high)
            for low, high in zip(lower, upper)
        ] + [(0, None)] * num_constraints
        result = optimize.linprog(
            objective,
            A_ub=elastic,
            b_ub=rhs,
            bounds=variable_bounds,
            method="highs",
        )
        if not result.success:
            return None
        if result.fun <= _FEASIBILITY_TOLERANCE:
            # LP relaxation is feasible: infeasibility is integrality-driven,
            # no cheap certificate available.
            return None
        marginals = getattr(result.ineqlin, "marginals", None)
        if marginals is None:
            return None
        return [index for index, value in enumerate(marginals) if abs(value) > _MARGINAL_TOLERANCE]


class _ProbeModel:
    """One conflict as a persistent HiGHS model that probes row subsets.

    Built once per core extraction from the arrays ``check()`` assembled.  A
    probe changes only the rows whose membership changed: a row entering
    the subset gets its bound ``(-inf, rhs]`` back, a row leaving it becomes
    free ``(-inf, +inf)`` (presolve drops free rows), so each probe decides
    the same MILP that a model of the subset's rows alone would.
    """

    def __init__(
        self, matrix: sparse.csr_matrix, rhs: np.ndarray, lower: np.ndarray, upper: np.ndarray
    ):
        num_rows, num_columns = matrix.shape
        columns = matrix.tocsc()
        self._highs = highs._Highs()
        self._highs.setOptionValue("output_flag", False)
        self._highs.passModel(
            num_columns,
            num_rows,
            columns.nnz,
            int(highs.MatrixFormat.kColwise),
            int(highs.ObjSense.kMinimize),
            0.0,
            np.zeros(num_columns),
            lower,
            upper,
            np.full(num_rows, -np.inf),
            rhs,
            columns.indptr.astype(np.int32),
            columns.indices.astype(np.int32),
            columns.data.astype(np.float64),
            np.full(num_columns, int(highs.HighsVarType.kInteger), dtype=np.int32),
        )
        self._rhs = rhs
        self._active = set(range(num_rows))

    def solve(self, indices: Sequence[int], time_limit: float | None) -> "highs.HighsModelStatus":
        """HiGHS's status for the subset ``indices`` under ``time_limit``."""
        model = self._highs
        subset = set(indices)
        for row in self._active - subset:
            model.changeRowBounds(row, -np.inf, np.inf)
        for row in subset - self._active:
            model.changeRowBounds(row, -np.inf, self._rhs[row])
        self._active = subset
        model.setOptionValue("time_limit", np.inf if time_limit is None else float(time_limit))
        model.run()
        return model.getModelStatus()
