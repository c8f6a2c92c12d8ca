"""Property tests: the method's invariants on generated hostile constraint
systems (rank-deficient rows, and m = n - 1 rows that leave one degree of
freedom).

Rows scaled by up to 1e±12 are generated for ``factor`` alone.  Nearly
dependent rows are not generated yet: at the tie 2r = n (where the
triangular anchor fails criterion 3, see ``factor``) and for rank-deficient
systems ``factor`` still anchors by the normal equations, which square the
condition number of ``R``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eqflow import (
    ConstraintSystem,
    SolverConfig,
    baseline_sqp,
    factor,
    restore_feasibility,
    solve,
)
from contract import check_trace
from helpers import (
    assert_status_rule,
    constrained_problems,
    one_freedom_systems,
    planted_rank_system,
    problem_on,
    rank_deficient_systems,
    svd_rank,
    traces_equal,
)

# Catalog objectives that take any n.  On some generated systems the steps
# of the four in _DRIFTING used to leave null(A) by more than roundoff; the
# last test keeps one such instance of each, and schwefel's still drifts.
_OBJECTIVES = (
    "sphere",
    "sum_squares",
    "trid",
    "rotated_hyper_ellipsoid",
    "quartic_noise",
    "griewank",
    "levy",
    "rastrigin",
    "ackley",
    "styblinski_tang",
)
_DRIFTING = ("rosenbrock", "zakharov", "dixon_price", "schwefel")

_SYSTEMS = st.one_of(rank_deficient_systems(), one_freedom_systems())
_CONFIG = SolverConfig(max_iter=200)

# Fixed examples: the suite must give the same verdict on every run.
_PROPERTY = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_conserves_feasibility(report):
    # The suite's roundoff bounds: 1e-8 on max|A x - b| at every iterate and,
    # by check_trace, on max|A s| relative to the step.
    assert report.feas <= 1e-8
    for rec in report.trace:
        assert rec.feas <= 1e-8
    check_trace(report)


@_PROPERTY
@given(problem=constrained_problems(_SYSTEMS, _OBJECTIVES + _DRIFTING))
def test_monotone_reproducible_and_documented(problem):
    report = solve(problem, _CONFIG)
    assert_status_rule(report, _CONFIG.tol)
    assert_status_rule(baseline_sqp(problem, _CONFIG), _CONFIG.tol)
    check_trace(report)

    rerun = solve(dataclasses.replace(problem, x0=problem.x0.copy()), _CONFIG)
    assert (rerun.status, rerun.stop_reason) == (report.status, report.stop_reason)
    assert (rerun.f_star, rerun.kkt, rerun.feas) == (report.f_star, report.kkt, report.feas)
    assert np.array_equal(rerun.x_star, report.x_star)
    assert traces_equal(rerun.trace, report.trace)


@_PROPERTY
@given(problem=constrained_problems(_SYSTEMS, _OBJECTIVES))
def test_steps_stay_in_null_space(problem):
    assert_conserves_feasibility(solve(problem, _CONFIG))


@_PROPERTY
@given(cs=_SYSTEMS, seed=st.integers(0, 2**32 - 1))
def test_row_scale_keeps_the_rank_and_the_feasible_set(cs, seed):
    # Each row scaled by its own factor in [1e-12, 1e12]: the same rank, and
    # a restored point meets every row to roundoff relative to the row.
    rng = np.random.default_rng(seed)
    d = 10.0 ** rng.uniform(-12.0, 12.0, size=cs.m)
    scaled = ConstraintSystem(a=d[:, None] * cs.a, b=d * cs.b)
    basis = factor(scaled)
    assert basis.rank == svd_rank(cs.a)
    x = restore_feasibility(basis, rng.uniform(-2.0, 2.0, size=cs.n))
    residual = np.abs(scaled.a @ x - scaled.b) / np.linalg.norm(scaled.a, axis=1)
    assert residual.max() <= 1e-12


@pytest.mark.parametrize(
    "name, n, m, r, system_seed, start_seed",
    [
        ("rosenbrock", 5, 4, 2, 85, 27),
        ("zakharov", 8, 7, 7, 293, 541),
        ("dixon_price", 10, 6, 1, 580, 811),
        pytest.param(
            "schwefel", 10, 10, 2, 39, 894,
            marks=pytest.mark.xfail(
                strict=True,
                reason="well-posed steps of up to ~1e2 add roundoff off null(A) "
                "step after step",
            ),
        ),
    ],
)
def test_drifting_objectives_stay_in_null_space(name, n, m, r, system_seed, start_seed):
    # One instance per objective left out above, each of which drifted.
    # While the ill-posed direction came from an LU solve in the full space,
    # feasibility reached 1.6e-6 (rosenbrock), 1.0e-7 and 1.2e-8; in the
    # tangent basis it stays below 2e-14.  schwefel's well-posed steps still
    # reach 3.3e-7.
    cs = planted_rank_system(np.random.default_rng(system_seed), n, m, r)
    problem = problem_on(cs, name, start_seed)
    assert_conserves_feasibility(solve(problem, _CONFIG))
