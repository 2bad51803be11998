"""Conflict-core probes: the persistent HiGHS probe model against ``optimize.milp``.

Every subset probe of one core extraction runs on one :class:`_ProbeModel`
that toggles row bounds between probes.  Its answer must be the answer a
fresh ``optimize.milp`` call on the subset's rows alone gives, whatever the
order of the probes: rows dropped and re-added, limited and unlimited probes
interleaved (a time limit must not leak into the next probe).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.optimize._highspy import _core as highs

from repro.api import VerificationOptions, Verifier
from repro.obs.metrics import REGISTRY
from repro.protocols.library import flock_of_birds_threshold_n_protocol
from repro.smtlite.scipy_backend import ScipyTheorySolver, _ProbeModel
from repro.smtlite.theory import TheoryConstraint

#: Probe time limits: ``0.0`` stops a probe at HiGHS's first clock check, a
#: generous limit lets every probe finish; ``None`` is unlimited.
TIME_LIMITS = (None, 0.0, 30.0)

#: The pinned trajectory is the DPLL(T) backend's on the scipy theory; other
#: backends refine differently.
SMTLITE = VerificationOptions(backend="smtlite", theory="scipy")


def _milp_proves_infeasible(matrix, rhs, lower, upper, rows, time_limit) -> bool:
    num_columns = matrix.shape[1]
    result = optimize.milp(
        c=np.zeros(num_columns),
        constraints=[optimize.LinearConstraint(matrix[rows], -np.inf, rhs[rows])],
        integrality=np.ones(num_columns),
        bounds=optimize.Bounds(lower, upper),
        options=None if time_limit is None else {"time_limit": time_limit},
    )
    return result.status == 2


def _assert_probes_match_milp(arrays, probes) -> None:
    matrix, rhs, lower, upper = arrays
    model = _ProbeModel(matrix, rhs, lower, upper)
    for rows, time_limit in probes:
        proven = model.solve(rows, time_limit) == highs.HighsModelStatus.kInfeasible
        if time_limit == 0.0:
            # A zero limit stops HiGHS at its first clock check, and which
            # checks come first differs between the two models (one decides
            # a constant row before it): the probe may only be undecided.
            expected = proven and _milp_proves_infeasible(matrix, rhs, lower, upper, rows, None)
        else:
            expected = _milp_proves_infeasible(matrix, rhs, lower, upper, rows, time_limit)
        assert proven == expected, (rows, time_limit)


def _probe_sequences(num_rows: int):
    """Random subset sequences, so later probes re-add rows earlier ones dropped."""
    subset = st.lists(st.integers(0, num_rows - 1), min_size=1, max_size=num_rows, unique=True)
    probe = st.tuples(subset.map(sorted), st.sampled_from(TIME_LIMITS))
    return st.lists(probe, min_size=2, max_size=10)


@st.composite
def _random_system(draw):
    num_variables = draw(st.integers(1, 4))
    names = [f"x{index}" for index in range(num_variables)]
    constraints = []
    for _ in range(draw(st.integers(2, 8))):
        coefficients = {name: draw(st.integers(-3, 3)) for name in names}
        constraints.append(TheoryConstraint.from_expr(coefficients, draw(st.integers(-6, 6))))
    bounds = {name: (0, draw(st.one_of(st.none(), st.integers(0, 5)))) for name in names}
    return constraints, bounds


def _arrays(constraints, bounds):
    solver = ScipyTheorySolver()
    solver._register_variables(bounds)
    matrix, rhs = solver._constraint_matrix(constraints)
    lower, upper = solver._bound_arrays(bounds)
    return matrix, rhs, lower, upper


@settings(max_examples=60, deadline=None)
@given(system=_random_system(), data=st.data())
def test_probe_model_matches_milp_on_random_infeasible_systems(system, data):
    arrays = _arrays(*system)
    matrix, rhs, lower, upper = arrays
    all_rows = list(range(len(rhs)))
    assume(_milp_proves_infeasible(matrix, rhs, lower, upper, all_rows, None))
    _assert_probes_match_milp(arrays, data.draw(_probe_sequences(len(rhs))))


@pytest.fixture(scope="module")
def recorded_conflicts():
    """The arrays of every conflict core extracted on threshold-n c=4."""
    conflicts = []
    extract = ScipyTheorySolver._extract_core

    def recording(self, constraints, bounds, matrix, rhs, lower, upper):
        conflicts.append((matrix, rhs, lower, upper))
        return extract(self, constraints, bounds, matrix, rhs, lower, upper)

    ScipyTheorySolver._extract_core = recording
    try:
        with Verifier(SMTLITE) as verifier:
            verifier.check(flock_of_birds_threshold_n_protocol(4), properties=["strong_consensus"])
    finally:
        ScipyTheorySolver._extract_core = extract
    assert conflicts
    return conflicts


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_probe_model_matches_milp_on_recorded_conflicts(recorded_conflicts, data):
    arrays = data.draw(st.sampled_from(recorded_conflicts))
    num_rows = len(arrays[1])
    probes = data.draw(_probe_sequences(num_rows))
    # Start from the whole conflict, as an extraction does, then probe.
    _assert_probes_match_milp(arrays, [(list(range(num_rows)), None), *probes])


def test_time_limit_bounds_each_probe_not_the_model_lifetime():
    arrays = _arrays(
        [TheoryConstraint.from_expr({"x": 1}, -1), TheoryConstraint.from_expr({"x": -1}, 2)],
        {"x": (0, None)},
    )
    model = _ProbeModel(*arrays)
    limit = 0.05
    probes = 0
    # Use up several limits' worth of the model's cumulative run time...
    while model._highs.getRunTime() < 4 * limit and probes < 50_000:
        model.solve([0, 1], None)
        probes += 1
    assert model._highs.getRunTime() >= 4 * limit
    # ...after which a probe far cheaper than its limit must still decide.
    assert model.solve([0, 1], limit) == highs.HighsModelStatus.kInfeasible


def test_threshold_n_c6_trajectory_and_probe_statistics():
    probes = REGISTRY.counter("repro_core_probes_total")
    before = probes.value(event="core_probes")
    with Verifier(SMTLITE) as verifier:
        report = verifier.check(flock_of_birds_threshold_n_protocol(6), properties=["strong_consensus"])
    statistics = report.result_for("strong_consensus").statistics
    solver = statistics["solver"]
    assert (statistics["iterations"], solver["theory_checks"]) == (32, 77)
    assert solver["core_probes"] > solver["core_probes_proven"] > 0
    assert solver["core_probe_timeouts"] == 0
    assert probes.value(event="core_probes") - before == solver["core_probes"]


def test_direct_ilp_backend_reports_its_probes():
    probes = REGISTRY.counter("repro_core_probes_total")
    before = probes.value(event="core_probes")
    options = VerificationOptions(backend="scipy-ilp", theory="scipy")
    with Verifier(options) as verifier:
        report = verifier.check(flock_of_birds_threshold_n_protocol(4), properties=["strong_consensus"])
    solver = report.result_for("strong_consensus").statistics["solver"]
    assert solver["core_probes"] >= solver["core_probes_proven"] > 0
    # The registry also counts the probes of the run's other solvers.
    assert probes.value(event="core_probes") - before >= solver["core_probes"]
