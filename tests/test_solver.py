"""Continuation solver: step scoring, time-step control, the full loop, and
its trace invariants."""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from eqflow import (
    CONVERGED,
    ILL_POSED,
    MAX_ITERATIONS,
    SINGLE_FEASIBLE_POINT,
    STEP_FAILURE,
    WELL_POSED,
    ConstraintSystem,
    DimensionError,
    IterationRecord,
    NonFiniteGradient,
    NonFiniteObjective,
    SolverConfig,
    baseline_sqp,
    factor,
    get_problem,
    project_gradient,
    quadratic_form,
    quadratic_oracle,
    restore_feasibility,
    solve,
)
import eqflow.solver as solver_module
from eqflow.hessian import fd_projected_hessian
from eqflow.problems import CONVEX_PROBLEMS, NONCONVEX_PROBLEMS, build_constraints
from eqflow.projection import tangent_basis
from eqflow.solver import trial_ratio, update_timestep
from contract import check_trace
from helpers import (
    assert_reports_equal,
    assert_status_rule,
    problem_on,
    random_constraints,
    scaled_dependent_row_sphere,
    traces_equal,
    with_exact_hessian,
)


class StubProblem:
    """Minimal problem object accepted by the solver."""

    def __init__(self, cs, x0, f, grad):
        self.cs = cs
        self.x0 = x0
        self.f = f
        self.grad = grad


def _infeasible_stationary_start():
    """A zero objective from an infeasible start; with restoration patched
    to do nothing, the start is stationary at feas 1."""
    cs = ConstraintSystem(a=np.array([[1.0, 1.0, 0.0, 0.0]]), b=np.array([1.0]))
    return StubProblem(cs, np.zeros(4), lambda x: 0.0, lambda x: np.zeros(4))


def _tolerance_met_below_the_dt_floor():
    """From the start (1, 0) on ``build_constraints(2)``, f drops from 1 to
    0 and the gradient vanishes anywhere but at the restored start, the
    first point a callback sees.  With ``dt0 = 1.5e-16`` the first
    (ill-posed) trial moves off it, is accepted with a ratio of about
    2.5e21, reaches kkt 0 and halves dt below the floor."""
    start = []

    def at_start(x):
        if not start:
            start.append(np.array(x))
        return np.array_equal(x, start[0])

    return StubProblem(
        build_constraints(2),
        np.array([1.0, 0.0]),
        lambda x: 1.0 if at_start(x) else 0.0,
        lambda x: np.array([600.0, -1200.0]) if at_start(x) else np.zeros(2),
    )


def _pinned_stub():
    """x = (1, 2, 3) is the only feasible point, where f = ||x||^2 is 14 and
    its gradient is far from zero."""
    cs = ConstraintSystem(a=np.eye(3), b=np.array([1.0, 2.0, 3.0]))
    return StubProblem(cs, np.zeros(3), lambda x: float(x @ x), lambda x: 2 * x)


def _one_sum_system():
    """The system ``x1 + x2 = 0`` in R^4."""
    return ConstraintSystem(a=np.array([[1.0, 1.0, 0.0, 0.0]]), b=np.array([0.0]))


def _sub_ulp_stub():
    """f = 1e6 + ||x - c||^2 / 2 with c = (0, 0, 1, -1), from
    c + 1e-5 (1, -1, 2, 1): the whole decrease to the optimum is a few ulps
    of f, so every trial's ratio measures rounding."""
    c = np.array([0.0, 0.0, 1.0, -1.0])
    return StubProblem(
        _one_sum_system(),
        c + 1e-5 * np.array([1.0, -1.0, 2.0, 1.0]),
        lambda x: 1e6 + 0.5 * float((x - c) @ (x - c)),
        lambda x: x - c,
    )


def _rounds_away_stub():
    """f = 1e-3 ||x - c||^2 / 2 with c = (0, 0, 1e10, -1e10), from
    c + (0, 0, 1, 1): under ``dt0=1e-4`` the shifted step moves only the
    coordinates near 1e10, by far less than their ulp."""
    c = np.array([0.0, 0.0, 1e10, -1e10])
    return StubProblem(
        _one_sum_system(),
        c + np.array([0.0, 0.0, 1.0, 1.0]),
        lambda x: 0.5e-3 * float((x - c) @ (x - c)),
        lambda x: 1e-3 * (x - c),
    )


def _rounds_away_after_steps_stub():
    """f = sum_i w_i (x_i - c_i)^2 / 2 with w = (1, 1, 1e-2, 1e-2) and
    c = (1e4, -1e4, 1e10, -1e10), from c + (1e-3, -1e-3, 1, 1): under
    ``dt0=1e-4`` the first two coordinates take accepted steps until their
    steps fall below an ulp of 1e4, and the steps of the last two stay below
    an ulp of 1e10 throughout.  ``hess`` is the exact diagonal."""
    w = np.array([1.0, 1.0, 1e-2, 1e-2])
    c = np.array([1e4, -1e4, 1e10, -1e10])
    problem = StubProblem(
        _one_sum_system(),
        c + np.array([1e-3, -1e-3, 1.0, 1.0]),
        lambda x: 0.5 * float(w * (x - c) @ (x - c)),
        lambda x: w * (x - c),
    )
    problem.hess = lambda x: np.diag(w)
    return problem


def _drifting_stub():
    """f = 1e-2 ||x - c||^2 / 2 on ``build_constraints(4)``, from the origin
    to a feasible c about 1e5 away: the roundoff of a step moves ``Ax - b``
    by up to 3e-11, and the point ends 5.8e-11 off it."""
    cs = build_constraints(4)
    c = restore_feasibility(factor(cs), 1e5 * np.random.default_rng(4).standard_normal(4))
    return StubProblem(
        cs, np.zeros(4), lambda x: 0.5e-2 * float((x - c) @ (x - c)), lambda x: 1e-2 * (x - c)
    )


def _curvature_phase_sub_ulp_stub():
    """f = 1e8 + sum_i log(2 cosh(10 (x_i - c_i))) / 10 with
    c = (0, 0, 1, -1), from c + (1, -1, 2, 1): the curvature of log cosh
    falls off away from c, so full shifted steps overshoot and are rejected
    until dt is small, and by then the decreases are below an ulp of 1e8."""
    c = np.array([0.0, 0.0, 1.0, -1.0])
    return StubProblem(
        _one_sum_system(),
        c + np.array([1.0, -1.0, 2.0, 1.0]),
        lambda x: 1e8 + float(np.sum(np.logaddexp(10.0 * (x - c), -10.0 * (x - c)))) / 10.0,
        lambda x: np.tanh(10.0 * (x - c)),
    )


class TestTrialRatio:
    def test_unit_slope_example(self):
        # g.s = -1, dt = 1: predicted decrease (1 + dt/2)/(1 + dt) = 0.75.
        rho, decrease = trial_ratio(
            1.0, 0.25, np.array([1.0]), np.array([-1.0]), dt=1.0
        )
        assert decrease == 0.75
        assert rho == 1.0

    def test_nonpositive_prediction_gives_sentinel(self):
        rho, decrease = trial_ratio(1.0, 0.5, np.array([1.0]), np.array([0.0]), 1.0)
        assert decrease == 0.0
        assert rho == float("-inf")
        rho, _ = trial_ratio(1.0, 0.5, np.array([1.0]), np.array([1.0]), 1.0)
        assert rho == float("-inf")

    def test_large_step_limit_halves_the_slope(self):
        # As dt grows the damping factor tends to 1/2.
        _, decrease = trial_ratio(0.0, 0.0, np.array([1.0]), np.array([-1.0]), 1e12)
        assert abs(decrease - 0.5) < 1e-9

    def test_nan_trial_value_propagates_to_ratio(self):
        rho, decrease = trial_ratio(
            1.0, float("nan"), np.array([1.0]), np.array([-1.0]), 1.0
        )
        assert decrease > 0.0
        assert np.isnan(rho)


class TestUpdateTimestep:
    @pytest.mark.parametrize(
        "rho,factor_expected",
        [
            (1.0, 2.0),
            (0.76, 2.0),
            (1.24, 2.0),
            (0.5, 1.0),
            (-0.1, 0.5),
            (float("-inf"), 0.5),
            (float("nan"), 0.5),
        ],
    )
    def test_band_table(self, rho, factor_expected):
        for dt in (1e-3, 0.7, 128.0):
            assert update_timestep(dt, rho) == factor_expected * dt

    def test_band_edges(self):
        assert update_timestep(1.0, 0.75) == 2.0  # |1-rho| == inner band
        assert update_timestep(1.0, 0.25) == 0.5  # |1-rho| == outer band


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["tol", "reg_shift", "dt0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_scalars(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            SolverConfig(**{name: value})

    def test_rejects_nonpositive_scalars(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt0=-1e-2)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 2.5, 300.0, True, np.bool_(True), "300"]
    )
    def test_rejects_max_iter_that_is_not_an_integer(self, value):
        with pytest.raises(ValueError, match="max_iter must be an integer of at least 1"):
            SolverConfig(max_iter=value)

    def test_accepts_numpy_integer_max_iter(self):
        report = solve(get_problem("griewank", n=20), SolverConfig(max_iter=np.int64(3)))
        assert report.status == MAX_ITERATIONS
        assert report.iterations == 3

    @pytest.mark.parametrize("name", ["tol", "reg_shift", "dt0"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), "1e-6", None, 1e-6 + 0j])
    def test_rejects_float_setting_that_is_not_a_real_number(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a real number, not a bool"):
            SolverConfig(**{name: value})

    def test_bool_settings_cannot_loosen_the_tolerance(self):
        # tol=True once read as 1.0: booth then stopped "Converged" at kkt 0.37.
        with pytest.raises(ValueError):
            SolverConfig(tol=True, dt0=True)

    def test_accepts_numpy_numbers_and_bools(self):
        plain = solve(get_problem("booth"))
        numpy_cfg = SolverConfig(
            tol=np.float64(1e-6),
            reg_shift=np.float32(1e-4),
            dt0=np.float64(1e-2),
        )
        report = solve(get_problem("booth"), numpy_cfg)
        assert report.status == CONVERGED
        assert traces_equal(report.trace, plain.trace)

    @pytest.mark.parametrize("value", [1, np.float32(0.01)], ids=["int", "float32"])
    def test_float_settings_are_stored_as_python_floats(self, value):
        # An int dt0 gave the first trace row an int dt, and a float32 dt0
        # ran the whole pseudo-time in single precision: rosenbrock at
        # n = 100 ended at another f than from the equal float.
        for name in ("tol", "reg_shift", "dt0"):
            assert type(getattr(SolverConfig(**{name: value}), name)) is float
        problem = get_problem("rosenbrock", n=100)
        report = solve(problem, SolverConfig(dt0=value))
        assert all(type(rec.dt) is float for rec in report.trace)
        assert_reports_equal(report, solve(problem, SolverConfig(dt0=float(value))))


class TestTerminalStatuses:
    def test_two_dim_quadratic_converges(self):
        report = solve(get_problem("booth"))
        assert report.status == CONVERGED
        assert report.stop_reason == "tolerance"
        assert abs(report.f_star - 9.0) < 1e-9
        assert np.allclose(report.x_star, [-1.0, 4.0], atol=1e-6)
        assert report.kkt <= 1e-6
        assert report.feas <= 1e-8
        assert report.iterations <= 50

    def test_flat_objective_converges_in_the_well_posed_phase(self):
        # griewank's curvature is far below one: a step never longer than the
        # paper's direction creeps to the iteration cap, so only the direction
        # lengthened by gamma reaches the tolerance without probing.
        report = solve(get_problem("griewank", n=100))
        assert report.status == CONVERGED
        assert report.iterations <= 20
        assert report.hessian_evals == 0
        assert {rec.phase for rec in report.trace} == {WELL_POSED}

    def test_stationary_start_needs_no_iterations(self):
        problem = get_problem("sphere", n=12)
        q, c, _ = quadratic_form("sphere", 12)
        x_star, _ = quadratic_oracle(problem.cs, q, c)
        problem.x0[:] = x_star
        report = solve(problem)
        assert report.status == CONVERGED
        assert report.iterations == 0
        assert report.trace == []
        assert report.objective_evals == 1
        assert report.gradient_evals == 1

    def test_fully_determined_point(self):
        report = solve(_pinned_stub())
        assert report.status == SINGLE_FEASIBLE_POINT
        assert report.stop_reason == "pinned"
        assert report.iterations == 0
        assert np.allclose(report.x_star, [1.0, 2.0, 3.0], atol=1e-12)
        assert report.feas <= 1e-10

    def test_iteration_cap(self):
        report = solve(get_problem("griewank", n=20), SolverConfig(max_iter=5))
        assert report.status == MAX_ITERATIONS
        assert report.stop_reason == "iteration-cap"
        assert report.iterations == 5

    @pytest.mark.parametrize(
        "cs, x0",
        [(build_constraints(4), np.ones(4)), (_one_sum_system(), np.zeros(4))],
        ids=["ones", "zeros"],
    )
    def test_impossible_decrease_reaches_dt_floor(self, cs, x0):
        # Constant objective with a lying non-zero gradient: every trial is
        # rejected and dt halves through the phase switch to the floor.  From
        # the ones start the zero curvature shrinks the step with dt**2 until
        # x + s == x at every coordinate; those trials are rejected as well.
        problem = StubProblem(cs, x0, lambda x: 1.0, lambda x: np.array([1.0, -2.0, 0.5, 3.0]))
        report = solve(problem)
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "dt-floor"
        assert report.iterations == len(report.trace) == 47
        assert report.accepted_steps == 0
        assert all(not rec.accepted for rec in report.trace)
        assert report.trace[-1].phase == ILL_POSED  # shrank through the switch
        assert solver_module._DT_SHRINK * report.trace[-1].dt < solver_module._DT_MIN
        assert report.trace[-1].dt >= solver_module._DT_MIN

    def test_step_that_rounds_away_ends_the_ill_posed_phase(self):
        # The run takes ill-posed steps until no trial moves x, with a
        # tolerance no point meets; the trials that round to x* score ratio
        # 0 and halve dt to the floor.
        report = solve(_rounds_away_after_steps_stub(), SolverConfig(dt0=1e-4, tol=1e-9))
        assert (report.status, report.stop_reason) == (STEP_FAILURE, "dt-floor")
        assert report.accepted_steps >= 5
        assert {rec.phase for rec in report.trace} == {ILL_POSED}
        assert len(report.trace) == report.iterations
        assert report.objective_evals == report.iterations + 1
        last = max(rec.k for rec in report.trace if rec.accepted)
        tail = report.trace[last:]
        assert len(tail) > 10
        assert all(not rec.accepted and rec.rho == 0.0 for rec in tail)
        assert all(rec.f == report.f_star for rec in tail)

    def test_first_trial_that_rounds_away_stops_the_run(self):
        # Every trial rounds away, so the run stops at the dt floor.
        report = solve(_rounds_away_stub(), SolverConfig(dt0=1e-4, tol=1e-9))
        assert (report.status, report.stop_reason) == (STEP_FAILURE, "dt-floor")
        assert report.iterations == len(report.trace) == 40
        assert report.accepted_steps == 0
        assert all(rec.rho == 0.0 for rec in report.trace)
        # One probe: a rejected trial keeps the curvature.
        assert report.hessian_evals == 1
        assert report.objective_evals == report.iterations + 1

    def test_trials_that_round_away_stop_at_the_iteration_cap(self):
        # The rejected trials count against max_iter like any other.
        report = solve(_rounds_away_stub(), SolverConfig(dt0=1e-4, tol=1e-9, max_iter=20))
        assert (report.status, report.stop_reason) == (MAX_ITERATIONS, "iteration-cap")
        assert report.iterations == len(report.trace) == 20
        assert report.accepted_steps == 0

    def test_infeasible_converged_point_is_not_reported_converged(self, monkeypatch):
        monkeypatch.setattr(solver_module, "restore_feasibility", lambda basis, x: x)
        report = solve(_infeasible_stationary_start())
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "feasibility-lost"
        assert report.feas == 1.0

    def test_normal_drift_past_tight_tol_is_not_reported_converged(self):
        # The restored start is feasible to 1e-14, but the roundoff of the
        # ill-posed steps over about 1e5 leaves the point 5.8e-11 off Ax = b:
        # the run reaches kkt <= tol with feas > tol.
        cfg = SolverConfig(dt0=1e-4, tol=1e-12)
        report = solve(_drifting_stub(), cfg)
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "feasibility-lost"
        assert report.kkt <= cfg.tol < report.feas
        assert report.trace[0].feas < 1e-14
        assert {rec.phase for rec in report.trace} == {ILL_POSED}

    def test_tolerance_met_below_the_dt_floor_converges(self):
        # The step that reaches kkt 0 also takes dt below the floor: the run
        # stops there, and its point is what gives it its status.
        report = solve(_tolerance_met_below_the_dt_floor(), SolverConfig(dt0=1.5e-16))
        assert (report.status, report.stop_reason) == (CONVERGED, "tolerance")
        assert (report.iterations, report.accepted_steps) == (1, 1)
        assert report.kkt == 0.0 and report.feas <= 1e-15
        (row,) = report.trace
        assert row.accepted and row.phase == ILL_POSED and row.rho > 1e21
        assert solver_module._DT_SHRINK * row.dt < solver_module._DT_MIN

    def test_nan_objective_is_rejected_not_raised(self):
        cs = build_constraints(4)
        calls = {"n": 0}

        def f(x):
            calls["n"] += 1
            return float(x @ x) if calls["n"] == 1 else float("nan")

        # x0 chosen so the start is not already stationary.
        problem = StubProblem(cs, np.array([1.0, 0.0, 2.0, -1.0]), f, lambda x: 2.0 * x)
        report = solve(problem)
        assert report.status == STEP_FAILURE
        assert report.accepted_steps == 0

    def test_non_finite_gradient_at_accepted_point_raises(self):
        cs = build_constraints(4)
        calls = {"n": 0}

        c = np.array([1.0, 0.0, 0.0, 2.0])  # not in the constraint row space

        def grad(x):
            calls["n"] += 1
            if calls["n"] >= 2:
                return np.array([np.nan, 0.0, 0.0, 0.0])
            return c

        problem = StubProblem(cs, np.ones(4), lambda x: float(c @ x), grad)
        with pytest.raises(NonFiniteGradient):
            solve(problem)

    def test_non_finite_gradient_at_start_raises(self):
        cs = build_constraints(4)
        problem = StubProblem(
            cs, np.ones(4), lambda x: 0.0, lambda x: np.full(4, np.inf)
        )
        with pytest.raises(NonFiniteGradient):
            solve(problem)

    def test_non_finite_objective_at_start_raises(self):
        # A finite gradient would otherwise let the run reject every trial
        # against a NaN reference value and stop with f_star = nan.
        problem = dataclasses.replace(get_problem("booth"), f=lambda x: float("nan"))
        with pytest.raises(NonFiniteObjective):
            solve(problem)

    def test_non_finite_objective_at_fully_determined_point_raises(self):
        # A pinned point is still a reported optimum; f_star = nan there
        # would otherwise count as a success.
        cs = ConstraintSystem(a=np.eye(2), b=np.array([1.0, 2.0]))
        problem = StubProblem(cs, np.zeros(2), lambda x: float("nan"), lambda x: 2 * x)
        with pytest.raises(NonFiniteObjective):
            solve(problem)

    # A long double wider than float64 holds 1e400; its cast to float64 is an
    # infinity, which the finiteness rules judge, not numpy's overflow warning.
    @pytest.mark.skipif(
        np.finfo(np.longdouble).maxexp <= np.finfo(float).maxexp,
        reason="np.longdouble is no wider than float64",
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", [solve, baseline_sqp])
    @pytest.mark.parametrize(
        "callback, error", [("f", NonFiniteObjective), ("grad", NonFiniteGradient)]
    )
    def test_wide_float_beyond_float64_is_not_finite(self, method, callback, error):
        booth = get_problem("booth")
        huge = np.longdouble("1e400")
        change = {"f": lambda x: huge, "grad": lambda x: booth.grad(x) * huge}[callback]
        problem = dataclasses.replace(booth, **{callback: change})
        with pytest.raises(error, match="at the initial point is not finite"):
            method(problem)


class TestSubUlpStop:
    """At the phase switch a run stops if its last trial predicted a positive
    decrease below ``_ULP_BAND`` (16) ulps of f: dt then shrank on ratios of
    roundoff, since f - f_trial moves in whole ulps and f carries a few ulps
    of summation error of its own."""

    def test_switch_caused_by_rounding_stops_the_run(self):
        report = solve(get_problem("rosenbrock", n=100))
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "sub-ulp"
        assert report.hessian_evals == 0
        # The stopping iteration evaluated no f and wrote no row.
        assert report.iterations == len(report.trace) == 41
        assert report.objective_evals == report.iterations + 1
        assert {rec.phase for rec in report.trace} == {WELL_POSED}
        last = report.trace[-1]
        assert 0.0 < last.decrease < math.ulp(report.f_star)
        assert update_timestep(last.dt, last.rho) < solver_module._PHASE_SWITCH_DT

    def test_constructed_switch_inside_the_ulp_band_stops_the_run(self):
        report = solve(_sub_ulp_stub())
        assert (report.status, report.stop_reason) == (STEP_FAILURE, "sub-ulp")
        assert report.iterations == len(report.trace) == 4
        assert report.accepted_steps == 0
        assert report.gradient_evals == 1
        assert report.hessian_evals == 0
        assert report.objective_evals == report.iterations + 1
        assert {rec.phase for rec in report.trace} == {WELL_POSED}
        last = report.trace[-1]
        assert 0.0 < last.decrease < solver_module._ULP_BAND * math.ulp(report.f_star)
        assert update_timestep(last.dt, last.rho) < solver_module._PHASE_SWITCH_DT

    def test_switch_inside_the_ulp_band_stops_the_run(self):
        # A stiff-workload start whose last trial predicted about one ulp,
        # so the ratios that shrank dt were noise: switching would buy a
        # 150-gradient probe and 282 more trials, 134 of them certified, to
        # the iteration cap, 2 ulps below this f.
        base = get_problem("sum_squares", n=300)
        noise = np.random.default_rng([0, 1]).standard_normal(base.n)
        report = solve(dataclasses.replace(base, x0=base.x0 + 1e-2 * noise))
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "sub-ulp"
        assert report.iterations == 18
        assert report.gradient_evals == 16
        assert report.hessian_evals == 0
        ulps = report.trace[-1].decrease / math.ulp(report.f_star)
        assert 1.0 <= ulps < solver_module._ULP_BAND

    def test_catalog_rosenbrock_stops_at_the_switch(self):
        # The last decrease is 0.28 ulp after 72 iterations on one BLAS
        # thread and 1.7 ulps after 74 on two; both are rounding.
        report = solve(get_problem("rosenbrock"))
        assert report.stop_reason == "sub-ulp"
        assert report.iterations in (72, 74)
        assert report.hessian_evals == 0

    def test_switch_above_the_ulp_band_still_probes(self):
        # The band must not swallow a switch that the ratio can resolve.
        report = solve(get_problem("rotated_hyper_ellipsoid"))
        assert report.hessian_evals == 1
        assert report.status == CONVERGED
        assert report.iterations == 22

    def test_non_positive_prediction_still_switches(self):
        # A lying gradient of size 1e-170: every predicted decrease underflows
        # to zero, so dt halves through the switch on a failed model, not on
        # roundoff in f, and the curvature phase takes over.
        g = 1e-170 * np.array([1.0, -2.0, 0.5, 3.0])
        problem = StubProblem(_one_sum_system(), np.zeros(4), lambda x: 1.0, lambda x: g)
        report = solve(problem, SolverConfig(tol=1e-200))
        phases = [rec.phase for rec in report.trace]
        first_ill = phases.index(ILL_POSED)
        assert first_ill == 4
        assert report.trace[first_ill - 1].decrease <= 0.0
        assert report.trace[first_ill].dt < solver_module._PHASE_SWITCH_DT
        assert report.hessian_evals == 1
        assert report.stop_reason == "dt-floor"

    def test_small_dt0_starts_in_the_curvature_phase(self):
        # The instance that stops sub-ulp from the default dt0 converges
        # when it starts below the switch level.
        report = solve(get_problem("rosenbrock", n=100), SolverConfig(dt0=1e-4))
        assert report.trace[0].phase == ILL_POSED
        assert report.trace[0].hessian_rebuilt
        assert report.status == CONVERGED

    def test_sub_ulp_trials_in_the_curvature_phase_do_not_stop_the_run(self):
        cfg = SolverConfig(dt0=1e-4, tol=1e-9, reg_shift=1e-8)
        report = solve(_curvature_phase_sub_ulp_stub(), cfg)
        assert report.status == CONVERGED
        sub_ulp = [
            i
            for i, rec in enumerate(report.trace)
            if rec.phase == ILL_POSED and 0.0 < rec.decrease < math.ulp(rec.f)
        ]
        # The run accepts a step after its first sub-ulp trial, and keeps
        # going past sub-ulp trials with dt below the switch level.
        assert any(rec.accepted for rec in report.trace[sub_ulp[0] + 1:])
        assert any(
            report.trace[i].dt < solver_module._PHASE_SWITCH_DT
            for i in sub_ulp[:-1]
        )


class TestTraceInvariants:
    def run_reports(self):
        return [
            solve(get_problem("booth")),
            solve(get_problem("zakharov", n=10)),
            solve(get_problem("trid", n=50), SolverConfig(max_iter=500)),
            solve(get_problem("sum_squares", n=60), SolverConfig(dt0=1e-4)),
            solve(get_problem("griewank", n=100)),  # steps lengthened by gamma
        ]

    def test_objective_decreases_on_accepted_steps(self):
        for report in self.run_reports():
            f_vals = [rec.f for rec in report.trace if rec.accepted]
            assert all(b < a for a, b in zip(f_vals, f_vals[1:]))

    def test_rejected_steps_change_nothing(self):
        for report in self.run_reports():
            prev_f = None
            for rec in report.trace:
                if not rec.accepted and prev_f is not None:
                    assert rec.f == prev_f
                prev_f = rec.f

    def test_feasibility_conserved_at_every_iterate(self):
        for report in self.run_reports():
            assert report.status == CONVERGED
            for rec in report.trace:
                assert rec.feas <= 1e-8

    def test_phase_switch_is_permanent(self):
        report = solve(get_problem("sum_squares", n=60), SolverConfig(dt0=1e-4))
        phases = [rec.phase for rec in report.trace]
        assert phases[0] == ILL_POSED  # dt0 below the switch level
        assert set(phases) == {ILL_POSED}
        report = solve(get_problem("booth"))
        assert {rec.phase for rec in report.trace} == {WELL_POSED}

    def test_model_decrease_lower_bound_in_identity_phase(self):
        # With preconditioner eigenvalues in (0, 2], the predicted decrease is
        # at least dt/(4 (1+dt)) ||pg||^2; a scale gamma > 1 divides them, so
        # the bound holds for lengthened steps too.
        for report in self.run_reports():
            for rec in report.trace:
                if rec.phase != WELL_POSED:
                    continue
                bound = rec.dt / (4.0 * (1.0 + rec.dt)) * rec.pg_norm**2
                assert rec.decrease >= bound - 1e-12

    def test_direction_reused_after_rejection(self):
        # A rejected identity-phase step leaves the pair and the projected
        # gradient as they were, so d comes out the same; only the
        # dt-dependent step scaling changes, so consecutive step norms are in
        # that exact ratio.
        report = solve(get_problem("zakharov", n=10))
        assert report.status == CONVERGED
        rejected = [
            i
            for i, rec in enumerate(report.trace[:-1])
            if not rec.accepted and rec.phase == WELL_POSED
        ]
        assert rejected, "expected at least one rejected step in this run"
        for i in rejected:
            r0, r1 = report.trace[i], report.trace[i + 1]
            if r1.phase != WELL_POSED:
                continue
            expected = (r1.dt / (1.0 + r1.dt)) / (r0.dt / (1.0 + r0.dt))
            assert r1.step_norm == pytest.approx(expected * r0.step_norm, rel=1e-9)

    def test_step_and_direction_stay_in_null_space(self):
        # Reconstruct every trial step from the objective-call arguments and
        # check the conservation law ||A s||_inf <= 1e-8 ||A||_inf ||s||_inf.
        for name, n, cfg in [
            ("booth", None, SolverConfig()),
            ("sum_squares", 60, SolverConfig(dt0=1e-4)),
        ]:
            problem = get_problem(name) if n is None else get_problem(name, n=n)
            cs = problem.cs
            norm_a = float(np.max(np.sum(np.abs(cs.a), axis=1)))
            trial_points = []
            inner_f = problem.f

            def spy_f(x, _inner=inner_f, _sink=trial_points):
                _sink.append(np.array(x))
                return _inner(x)

            spied = StubProblem(cs, problem.x0, spy_f, problem.grad)
            report = solve(spied, cfg)
            assert report.status == CONVERGED
            current = restore_feasibility(factor(cs), np.asarray(problem.x0, float))
            assert np.allclose(trial_points[0], current, atol=1e-12)
            for rec, point in zip(report.trace, trial_points[1:]):
                s = point - current
                s_inf = float(np.max(np.abs(s)))
                assert float(np.max(np.abs(cs.a @ s))) <= 1e-8 * norm_a * s_inf
                if rec.accepted:
                    current = point

    def test_recorded_step_infeasibility_is_small(self):
        for report in self.run_reports():
            check_trace(report)

    def test_deterministic_reruns_are_bit_identical(self):
        for name, n in [("booth", None), ("ackley", 20)]:
            problem_a = get_problem(name) if n is None else get_problem(name, n=n)
            problem_b = get_problem(name) if n is None else get_problem(name, n=n)
            r1, r2 = solve(problem_a), solve(problem_b)
            assert r1.status == r2.status
            assert r1.f_star == r2.f_star
            assert np.array_equal(r1.x_star, r2.x_star)
            assert traces_equal(r1.trace, r2.trace)


def fresh_residuals(problem, x):
    """``max|P g(x)|`` and ``max|A x - b|``, computed from scratch."""
    pg = project_gradient(factor(problem.cs), problem.grad(x))
    return (
        float(np.max(np.abs(pg))),
        float(np.max(np.abs(problem.cs.a @ x - problem.cs.b))),
    )


# Runs whose traces cross blocks of the trace's residual products when they
# run under ``small_block``: at n=40 dixon_price writes more than two blocks
# of rows, and at n=120 it ends in StepFailure with more than a block of
# rejected rows after its last accepted step.  Neither crosses two full
# blocks at the default size.  Both reject trials in both phases: their
# switches come from ratios, not from decreases below one ulp of f.
_BLOCK_RUNS = [
    ("dixon_price", 40, SolverConfig(reg_shift=1e-12)),
    ("dixon_price", 120, SolverConfig(reg_shift=1e-12)),
]


@pytest.fixture
def small_block(monkeypatch):
    """Residual blocks of 32 vectors, so the traces of ``_BLOCK_RUNS`` and
    of the leaky run cross two full blocks and end in a partial one;
    returns the block size."""
    block = 32
    monkeypatch.setattr(solver_module, "_RESIDUAL_BLOCK", block)
    return block


def _trailing_rejections(rows):
    return next((i for i, rec in enumerate(reversed(rows)) if rec.accepted), len(rows))


def _leaky_run(monkeypatch):
    """trid at n = 30 with a projection patched to leak 1e-6 g into the
    normal space, so that each accepted well-posed step moves ``Ax - b`` by
    its own amount: feas climbs from about 1e-6 to 4e-3 over 200 rows."""
    monkeypatch.setattr(
        solver_module, "project_gradient",
        lambda basis, g: project_gradient(basis, g) + 1e-6 * np.asarray(g),
    )
    return get_problem("trid", n=30), SolverConfig(max_iter=200)


def _solve_with_points(problem, cfg):
    """``solve``, with every point at which it calls the objective."""
    points = []

    def spy_f(x, _inner=problem.f):
        points.append(np.array(x))
        return _inner(x)

    report = solve(dataclasses.replace(problem, f=spy_f), cfg)
    assert len(points) == len(report.trace) + 1
    return report, points


def _rows_with_fresh_residuals(cs, trace, points):
    """Each row with ``max|A (x_trial - x)|`` and ``max|A x - b|`` computed
    one vector at a time from the objective's arguments, and the roundoff
    bound of either product at the row's two points."""
    norm_a = float(np.max(np.sum(np.abs(cs.a), axis=1)))
    norm_b = float(np.max(np.abs(cs.b)))
    current = points[0]
    for rec, x_trial in zip(trace, points[1:]):
        x_scale = max(float(np.max(np.abs(x_trial))), float(np.max(np.abs(current))))
        bound = 32 * np.finfo(float).eps * (norm_a * x_scale + norm_b)
        step_infeas = float(np.max(np.abs(cs.a @ (x_trial - current))))
        if rec.accepted:
            current = x_trial
        feas = float(np.max(np.abs(cs.a @ current - cs.b)))
        yield rec, step_infeas, feas, bound


class TestStoredResiduals:
    """``kkt``, ``feas`` and ``pg_norm`` are computed once per point; no stored
    value may outlive the point it belongs to."""

    @pytest.mark.usefixtures("small_block")
    def test_rejected_rows_repeat_the_previous_residuals(self):
        for name, n, cfg in [("dixon_price", 40, SolverConfig())] + _BLOCK_RUNS:
            rows = solve(get_problem(name, n=n), cfg).trace
            pairs = list(zip(rows, rows[1:]))
            rejected = [rec for _, rec in pairs if not rec.accepted]
            assert {rec.phase for rec in rejected} == {WELL_POSED, ILL_POSED}
            for prev, rec in pairs:
                if not rec.accepted:
                    assert (rec.kkt, rec.feas) == (prev.kkt, prev.feas)
                if not prev.accepted:
                    # A row's pg_norm belongs to the point its trial started from.
                    assert rec.pg_norm == prev.pg_norm

    @pytest.mark.parametrize("method", [solve, baseline_sqp])
    def test_report_residuals_match_the_final_point(self, method, small_block):
        # The cap keeps SQP short; solve stops on its own after 41 steps.
        runs = [("rosenbrock", 100, SolverConfig(max_iter=60))]
        if method is solve:
            runs += _BLOCK_RUNS
        for name, n, cfg in runs:
            problem = get_problem(name, n=n)
            report = method(problem, cfg)
            assert (report.kkt, report.feas) == fresh_residuals(problem, report.x_star)
            if report.trace:
                last = report.trace[-1]
                assert (last.kkt, last.feas) == (report.kkt, report.feas)
            if (name, n, cfg) in _BLOCK_RUNS:
                assert len(report.trace) > 2 * small_block or (
                    report.status == STEP_FAILURE
                    and _trailing_rejections(report.trace) > small_block
                )

    def test_trace_residuals_measure_the_constraints(self, small_block, monkeypatch):
        # Each row is checked against the products computed one vector at a
        # time, and most rows' values differ from the previous row's by more
        # than the bound, so a value put on the wrong row fails.
        problem, cfg = _leaky_run(monkeypatch)
        report, points = _solve_with_points(problem, cfg)
        assert len(report.trace) > 2 * small_block and report.feas > 1e-6
        moved, previous = 0, None
        for rec, step_infeas, feas, bound in _rows_with_fresh_residuals(
            problem.cs, report.trace, points
        ):
            assert abs(rec.step_infeas - step_infeas) <= bound, f"at k={rec.k}"
            assert abs(rec.feas - feas) <= bound, f"at k={rec.k}"
            if previous is not None:
                moved += abs(feas - previous[0]) > bound and abs(step_infeas - previous[1]) > bound
            previous = feas, step_infeas
        assert moved > 2 * small_block

    @pytest.mark.parametrize("case, waiting", [
        # 13 rows, accepted and not: steps and points both wait.
        ("booth", "both"),
        # The leaky run's 200 rows cross one block of 128, and its feas
        # moves row by row, so a value put on the wrong side of the split
        # fails.
        ("leaky", "both"),
        # One rejected trial: its step waits, and the start, which never
        # moved, is the report's own point, so no point waits.
        ("booth-rejected", "steps"),
    ])
    def test_report_turns_both_buffers_into_residuals(self, monkeypatch, case, waiting):
        # The report stacks the steps and points still waiting for one
        # product with A; each row must still hold its own vectors' residuals.
        at_report = []

        def spy_report(run, *args, _inner=solver_module._Run.report):
            at_report.append((len(run.steps), len(run.points)))
            return _inner(run, *args)

        monkeypatch.setattr(solver_module._Run, "report", spy_report)
        if case == "leaky":
            problem, cfg = _leaky_run(monkeypatch)
        else:
            problem = get_problem("booth")
            cfg = SolverConfig(max_iter=1, dt0=10.0) if case == "booth-rejected" else SolverConfig()
        report, points = _solve_with_points(problem, cfg)
        (steps_waiting, points_waiting), = at_report
        assert steps_waiting > 0
        assert (points_waiting > 0) == (waiting == "both")
        if waiting == "steps":
            assert [rec.accepted for rec in report.trace] == [False]
        for rec, step_infeas, feas, bound in _rows_with_fresh_residuals(
            problem.cs, report.trace, points
        ):
            assert abs(rec.step_infeas - step_infeas) <= bound, f"at k={rec.k}"
            assert abs(rec.feas - feas) <= bound, f"at k={rec.k}"
        assert report.trace[-1].feas == report.feas

    def test_output_does_not_depend_on_the_block_size(self, monkeypatch):
        # Block size 1 computes each residual as soon as its vector waits, so
        # both buffers are empty when the report is built.
        waiting_at_report = []

        def spy_report(run, *args, _inner=solver_module._Run.report):
            waiting_at_report.append(len(run.steps) + len(run.points))
            return _inner(run, *args)

        monkeypatch.setattr(solver_module._Run, "report", spy_report)
        runs = [(get_problem(name, n=n), cfg, False) for name, n, cfg in _BLOCK_RUNS]
        for problem, cfg, leaky in runs + [(None, None, True)]:
            results = []
            with monkeypatch.context() as patched:
                if leaky:
                    problem, cfg = _leaky_run(patched)
                for block in (1, 3, solver_module._RESIDUAL_BLOCK):
                    patched.setattr(solver_module, "_RESIDUAL_BLOCK", block)
                    results.append(_solve_with_points(problem, cfg))
            assert waiting_at_report[-3] == 0
            (first, first_points), *others = results
            for report, points in others:
                assert len(points) == len(first_points)
                assert all(np.array_equal(p, q) for p, q in zip(points, first_points))
                assert_reports_equal(first, report, ignore_rows=("step_infeas", "feas"))
                checked = _rows_with_fresh_residuals(problem.cs, first.trace, first_points)
                for rec, (rec_1, _, _, bound) in zip(report.trace, checked):
                    assert abs(rec.step_infeas - rec_1.step_infeas) <= bound, f"at k={rec.k}"
                    assert abs(rec.feas - rec_1.feas) <= bound, f"at k={rec.k}"



# A well-posed run, and one that probes curvature from its first iteration.
_RECORD_RUNS = [
    (get_problem("booth"), SolverConfig(), WELL_POSED),
    (get_problem("sum_squares", n=100), SolverConfig(dt0=1e-4), ILL_POSED),
]


class TestTraceRecords:
    """The solver fills its trace records from tuples; each must still be a
    whole frozen :class:`IterationRecord` whose fields hold what they name."""

    @pytest.mark.parametrize("problem, cfg, phase", _RECORD_RUNS)
    def test_records_are_frozen_dataclasses(self, problem, cfg, phase):
        report = solve(problem, cfg)
        for rec in report.trace:
            assert type(rec) is IterationRecord
            again = IterationRecord(**dataclasses.asdict(rec))
            assert rec == again and hash(rec) == hash(again)
            assert dataclasses.replace(rec, k=0) == dataclasses.replace(again, k=0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                rec.k = 0
            for field in dataclasses.fields(rec):
                assert type(getattr(rec, field.name)).__name__ == field.type, field.name

    @pytest.mark.parametrize("problem, cfg, phase", _RECORD_RUNS)
    def test_fields_hold_what_they_name(self, problem, cfg, phase):
        # Each row against values computed afresh at the points where the run
        # called f, so a record built with two fields swapped fails.
        report, points = _solve_with_points(problem, cfg)
        basis = factor(problem.cs)

        def residuals(x):
            pg = project_gradient(basis, problem.grad(x))
            return float(np.max(np.abs(pg))), float(np.linalg.norm(pg))

        assert {rec.phase for rec in report.trace} == {phase}
        current, dt = points[0], cfg.dt0
        for k, (rec, x_trial) in enumerate(zip(report.trace, points[1:]), start=1):
            f_left, pg_norm = problem.f(current), residuals(current)[1]
            f_trial = problem.f(x_trial)
            step_norm = np.linalg.norm(x_trial - current)
            if rec.accepted:
                current = x_trial
            assert (rec.k, rec.f, rec.kkt, rec.pg_norm, rec.dt) == (
                k, problem.f(current), residuals(current)[0], pg_norm, dt
            )
            assert rec.step_norm == pytest.approx(step_norm, rel=1e-9)
            accepts = rec.rho >= 1e-6 and rec.decrease >= 1e-10 * rec.step_norm * rec.pg_norm
            assert rec.accepted == accepts
            if rec.certified:
                assert 0.0 <= f_left - f_trial <= 16 * math.ulp(f_left)
            else:
                assert rec.rho == (f_left - f_trial) / rec.decrease
            assert rec.phase == ILL_POSED or not rec.hessian_rebuilt
            dt = update_timestep(dt, rec.rho)
        assert sum(rec.hessian_rebuilt for rec in report.trace) == report.hessian_evals

    def test_certified_ratio_scores_the_realized_move(self):
        # Each certified ratio is the trapezoid on x_trial - x, the move the
        # trial point makes, bit for bit, not on the computed step s.
        stub = _curvature_phase_sub_ulp_stub()
        points = []

        def spy_f(x):
            points.append(np.array(x))
            return stub.f(x)

        problem = StubProblem(stub.cs, stub.x0, spy_f, stub.grad)
        report = solve(problem, SolverConfig(dt0=1e-4, tol=1e-9, reg_shift=1e-8))
        assert len(points) == len(report.trace) + 1
        current, certified = points[0], 0
        for rec, x_trial in zip(report.trace, points[1:]):
            if rec.certified:
                certified += 1
                move = x_trial - current
                estimate = -0.5 * float((stub.grad(current) + stub.grad(x_trial)) @ move)
                assert rec.rho == estimate / rec.decrease, f"at k={rec.k}"
            if rec.accepted:
                current = x_trial
        assert certified > 0

    def test_step_inside_the_ulp_band_earns_no_trust(self):
        # f = 1e6 + ||x - c||^2 / 2 with its exact Hessian, from 1e-3 off c.
        # The first trial is scored by f, since nothing is trusted yet, and
        # decreases f by 6 ulps, which its trapezoid estimate matches within
        # 0.25.  The second trial decreases f by 12 ulps and meets every
        # other condition of certification; only the 16-ulp floor on the
        # trusted step's decrease leaves it to f.
        c = np.array([0.0, 0.0, 1.0, -1.0])
        points, values = [], []

        def f(x):
            points.append(np.array(x))
            values.append(1e6 + 0.5 * float((x - c) @ (x - c)))
            return values[-1]

        problem = StubProblem(
            _one_sum_system(), c + 1e-3 * np.array([1.0, -1.0, 2.0, 1.0]), f, lambda x: x - c
        )
        problem.hess = lambda x: np.eye(4)
        report = solve(problem, SolverConfig(dt0=1e-4, reg_shift=1e-12, max_iter=2))
        first, second = report.trace
        assert first.phase == second.phase == ILL_POSED
        assert first.accepted and not first.certified
        actual = values[0] - values[1]
        assert 0.0 < actual <= 16 * math.ulp(values[0])
        estimate = -0.5 * float((points[0] - c + points[1] - c) @ (points[1] - points[0]))
        assert abs(estimate - actual) <= 0.25 * actual
        assert second.decrease > 0.0
        assert 0.0 <= values[1] - values[2] <= 16 * math.ulp(values[1])
        assert not second.certified
        assert second.rho == (values[1] - values[2]) / second.decrease


def probe_gradients(report):
    """The gradient calls of curvature probes: all but those at the start,
    at accepted points and at rejected certified trials (an accepted
    certified trial's gradient is its point's)."""
    others = 1 + report.accepted_steps + sum(
        rec.certified and not rec.accepted for rec in report.trace
    )
    return report.gradient_evals - others


class TestEvaluationAccounting:
    def test_identity_phase_counts(self):
        report = solve(get_problem("booth"))
        assert report.objective_evals == report.iterations + 1
        assert report.gradient_evals == report.accepted_steps + 1
        assert report.hessian_evals == 0

    def test_curvature_probing_costs_n_minus_r_gradients(self):
        n = 30
        problem = get_problem("sum_squares", n=n)
        report = solve(problem, SolverConfig(dt0=1e-4))
        assert report.status == CONVERGED
        assert report.hessian_evals >= 1
        assert report.hessian_evals == sum(rec.hessian_rebuilt for rec in report.trace)
        assert probe_gradients(report) == report.hessian_evals * (n - factor(problem.cs).rank)

    def test_exact_hessian_skips_probing(self):
        n = 30
        cfg = SolverConfig(dt0=1e-4)
        report = solve(with_exact_hessian(get_problem("sum_squares", n=n)), cfg)
        assert report.status == CONVERGED
        assert report.hessian_evals >= 1
        assert report.hessian_evals == sum(rec.hessian_rebuilt for rec in report.trace)
        assert report.gradient_evals == report.accepted_steps + 1
        fd = solve(get_problem("sum_squares", n=n), SolverConfig(dt0=1e-4))
        assert abs(report.f_star - fd.f_star) <= 1e-9 * max(1.0, abs(fd.f_star))


class TestCurvatureCachePolicy:
    def test_rebuild_pattern_follows_acceptance_history(self):
        report = solve(get_problem("sum_squares", n=60), SolverConfig(dt0=1e-4))
        trace = report.trace
        assert trace[0].hessian_rebuilt  # nothing cached at phase entry
        for prev, cur in zip(trace, trace[1:]):
            if cur.phase != ILL_POSED:
                continue
            if not prev.accepted:
                expected = False  # rejected: refresh the shift only
            elif abs(prev.rho - 1.0) > 0.25:
                expected = True  # poor agreement: re-probe curvature
            else:
                expected = False  # good agreement: reuse factors outright
            assert cur.hessian_rebuilt == expected, f"at k={cur.k}"

    def test_identity_phase_never_probes(self):
        report = solve(get_problem("booth"))
        assert all(not rec.hessian_rebuilt for rec in report.trace)

    def test_non_finite_probe_is_evaluated_once(self):
        # The gradient is NaN everywhere but at the (restored) start; the
        # first probe off the start raises at once instead of being repeated.
        cs = build_constraints(4)
        start = []
        calls = []

        def grad(x):
            if not start:
                start.append(np.array(x))
            calls.append(np.array_equal(x, start[0]))
            return 2.0 * x if calls[-1] else np.full(4, np.nan)

        x0 = np.array([1.0, 0.0, 2.0, -1.0])
        problem = StubProblem(cs, x0, lambda x: float(x @ x), grad)
        with pytest.raises(NonFiniteGradient, match="probe"):
            solve(problem, SolverConfig(dt0=1e-4))
        assert calls.count(False) == 1
        assert calls[-1] is False

    def test_non_finite_analytic_hessian_raises(self):
        n = 30
        problem = dataclasses.replace(
            get_problem("sum_squares", n=n), hess=lambda x: np.full((n, n), np.nan)
        )
        cfg = SolverConfig(dt0=1e-4)
        with pytest.raises(NonFiniteGradient, match="Hessian"):
            solve(problem, cfg)

    @pytest.mark.parametrize("shape", [(30,), (30, 29), (29, 30)])
    def test_misshapen_analytic_hessian_raises(self, shape):
        # Each shape is refused where the Hessian is read, with its own
        # message, before any product with the tangent basis.
        problem = dataclasses.replace(
            get_problem("sum_squares", n=30), hess=lambda x: np.ones(shape)
        )
        cfg = SolverConfig(dt0=1e-4)
        with pytest.raises(DimensionError, match=r"Hessian callback .* expected \(30, 30\)"):
            solve(problem, cfg)


class TestFinalCurvature:
    """A run that probes curvature ends at a minimum on null(A), not at a
    saddle, and its report says what curvature it saw last."""

    # Unclipped, both runs end Converged at a saddle: dixon_price at f 900.27
    # with one negative reduced eigenvalue, and styblinski_tang at f -5,868.67
    # with 296 of 300 on one BLAS thread (it hits the cap on two).  At
    # n <= 300, styblinski_tang reaches its saddle before the ill-posed phase.
    @pytest.mark.parametrize("name, n", [("dixon_price", 100), ("styblinski_tang", 600)])
    def test_probed_run_ends_at_a_minimum(self, name, n):
        problem = get_problem(name, n=n)
        report = solve(problem)
        assert report.status == CONVERGED
        check_trace(report, name)
        assert report.hessian_evals >= 1
        assert report.hessian_evals == sum(rec.hessian_rebuilt for rec in report.trace)
        assert report.min_curvature > 0.0
        # Forward differences along the tangent basis, each of length 1e-6,
        # resolve the spectrum to about sqrt(u) of its largest magnitude.
        x = report.x_star
        q2 = tangent_basis(factor(problem.cs))
        lam = np.linalg.eigvalsh(fd_projected_hessian(problem.grad, q2, x, problem.grad(x)))
        assert lam[0] >= -math.sqrt(np.finfo(float).eps / 2) * np.max(np.abs(lam))

    def test_min_curvature_is_the_last_reduced_hessians_smallest_eigenvalue(self):
        # sum_squares has the constant Hessian diag(2, 4, ..., 2n), so every
        # build reduces the same matrix.
        n = 30
        problem = with_exact_hessian(get_problem("sum_squares", n=n))
        report = solve(problem, SolverConfig(dt0=1e-4))
        assert report.hessian_evals >= 1
        q2 = tangent_basis(factor(problem.cs))
        reduced = q2.T @ quadratic_form("sum_squares", n)[0] @ q2
        assert report.min_curvature == pytest.approx(np.linalg.eigvalsh(reduced)[0], rel=1e-12)

    @pytest.mark.parametrize("method", [solve, baseline_sqp])
    def test_min_curvature_is_nan_without_a_build(self, method):
        report = method(get_problem("booth"))
        assert report.hessian_evals == 0
        assert math.isnan(report.min_curvature)


class TestStatusRule:
    def test_status_follows_the_final_point(self, monkeypatch):
        # Outside pinned points, Converged exactly when kkt and feas both meet
        # tol, whichever rule stopped the run, for both methods: on the
        # two-dimensional catalog, the feasibility-lost and iteration-cap
        # instances above, the stops at the dt floor (below it at once and on
        # trials that round away), the sub-ulp stub, a pinned point, and
        # generated systems.
        default = SolverConfig()
        two_dim = [
            name for name in CONVEX_PROBLEMS + NONCONVEX_PROBLEMS
            if get_problem(name).n == 2
        ]
        runs = [(get_problem(name), default, None) for name in two_dim]
        runs += [
            (get_problem("griewank", n=20), SolverConfig(max_iter=5), None),
            (_drifting_stub(), SolverConfig(dt0=1e-4, tol=1e-12), None),
            (
                _infeasible_stationary_start(),
                default,
                ("restore_feasibility", lambda basis, x: x),
            ),
            (_tolerance_met_below_the_dt_floor(), SolverConfig(dt0=1.5e-16), None),
            (_sub_ulp_stub(), default, None),
            (_pinned_stub(), default, None),
            (_rounds_away_stub(), SolverConfig(dt0=1e-4, tol=1e-9), None),
        ]
        rng = np.random.default_rng(25)
        runs += [
            (problem_on(random_constraints(rng, 12), name, seed), default, None)
            for seed, name in enumerate(["sphere", "rosenbrock", "trid", "levy"])
        ]
        assert len(two_dim) == 5
        for method in (solve, baseline_sqp):
            for problem, cfg, patch in runs:
                with monkeypatch.context() as patched:
                    if patch is not None:
                        patched.setattr(solver_module, *patch)
                    assert_status_rule(method(problem, cfg), cfg.tol)


def _column(g):
    return np.asarray(g).reshape(-1, 1)


def _first_entry(g):
    return float(g[0])


class TestMisshapenCallbacks:
    @pytest.mark.parametrize("method", [solve, baseline_sqp])
    @pytest.mark.parametrize(
        "misshape, shape",
        [(_column, r"\(4, 1\)"), (_first_entry, r"\(\)")],
        ids=["column", "scalar"],
    )
    def test_misshapen_gradient_at_start_raises(self, method, misshape, shape):
        cs = build_constraints(4)
        problem = StubProblem(
            cs, np.ones(4), lambda x: float(x @ x), lambda x: misshape(2.0 * x)
        )
        message = rf"gradient at the initial point has shape {shape}, expected \(4,\)"
        with pytest.raises(DimensionError, match=message):
            method(problem)

    def test_misshapen_probe_gradient_raises(self):
        # The gradient has shape (4,) at the (restored) start and (4, 1) off
        # it, so the run gets as far as the first curvature probe.
        cs = build_constraints(4)
        start = []

        def grad(x):
            if not start:
                start.append(np.array(x))
            return 2.0 * x if np.array_equal(x, start[0]) else _column(2.0 * x)

        x0 = np.array([1.0, 0.0, 2.0, -1.0])
        problem = StubProblem(cs, x0, lambda x: float(x @ x), grad)
        with pytest.raises(DimensionError, match="gradient at a curvature probe has shape"):
            solve(problem, SolverConfig(dt0=1e-4))

    @pytest.mark.parametrize("method", [solve, baseline_sqp])
    def test_objective_that_is_not_a_scalar_raises(self, method):
        booth = get_problem("booth")
        problem = dataclasses.replace(booth, f=lambda x: np.array([booth.f(x)]))
        message = r"objective at the initial point has shape \(1,\), expected \(\)"
        with pytest.raises(DimensionError, match=message):
            method(problem)

    # A cast to float would turn each of these into a number, booth's own
    # for most, and the run would go on; numpy's complex scalar would also
    # warn ComplexWarning, a RuntimeWarning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", [solve, baseline_sqp])
    @pytest.mark.parametrize(
        "change, got",
        [
            (lambda v: None, "NoneType of object"),
            (lambda v: 1j, "complex of complex128"),
            (lambda v: "booth", "str of <U5"),
            (lambda v: 10**400, "int of object"),
            (str, "str of <U"),
            (lambda v: str(v).encode(), r"bytes of \|S"),
            (lambda v: v > 0.0, "bool of bool"),
            (lambda v: np.bool_(v > 0.0), "bool_? of bool"),
            (lambda v: np.complex128(v + 1j), "complex128 of complex128"),
            (Fraction, "Fraction of object"),
            (Decimal, "Decimal of object"),
        ],
        ids=[
            "none", "complex", "string", "int-beyond-float", "numeric-string", "bytes",
            "bool", "numpy-bool", "numpy-complex", "fraction", "decimal",
        ],
    )
    def test_objective_that_is_not_a_real_scalar_raises(self, method, change, got):
        booth = get_problem("booth")
        problem = dataclasses.replace(booth, f=lambda x: change(booth.f(x)))
        message = f"objective at the initial point is not real: {got}"
        with pytest.raises(DimensionError, match=message):
            method(problem)

    @pytest.mark.parametrize(
        "change, got",
        [
            (lambda v: v + 1j, "ndarray of complex128 values"),
            (lambda v: list(v + 1j), "list of complex128 values"),
            (lambda v: np.full(v.shape, "booth"), "ndarray of <U5 values"),
            (lambda v: {"value": v}, "dict of object values"),
            (lambda v: v > 0.0, "ndarray of bool values"),
            (lambda v: v.astype(str), r"ndarray of <U\d+ values"),
            (lambda v: [10**400] + list(v.flat[1:]), "list of object values"),
        ],
        ids=[
            "complex", "complex-list", "string", "object", "bool", "numeric-string",
            "int-beyond-float",
        ],
    )
    @pytest.mark.parametrize(
        "method, callback, where",
        [
            (solve, "grad", "gradient at the initial point"),
            (baseline_sqp, "grad", "gradient at the initial point"),
            # baseline_sqp calls no Hessian callback.
            (solve, "hess", "Hessian callback at the current point"),
        ],
        ids=["solve-grad", "sqp-grad", "solve-hess"],
    )
    def test_gradient_or_hessian_that_is_not_real_raises(
        self, method, callback, where, change, got
    ):
        # A cast to float would drop an imaginary part, with a ComplexWarning,
        # read a bool as 0 or 1 and a numeric string as its number, and let
        # the run converge; a list holding an int beyond the float range
        # would raise OverflowError.
        base = get_problem("sum_squares", n=30)
        hess = quadratic_form("sum_squares", 30)[0]
        true = {"grad": base.grad, "hess": lambda x: hess}[callback]
        problem = dataclasses.replace(base, **{callback: lambda x: change(true(x))})
        with pytest.raises(DimensionError, match=f"{where} is not real: {got}"):
            method(problem, SolverConfig(dt0=1e-4))

    @pytest.mark.parametrize("method", [solve, baseline_sqp])
    @pytest.mark.parametrize(
        "change",
        [lambda v: int(1e6 * v), lambda v: np.float32(v), np.array],
        ids=["int", "float32", "zero-d-array"],
    )
    def test_integer_and_float_objectives_are_read_as_their_value(self, method, change):
        booth = get_problem("booth")
        as_given = method(dataclasses.replace(booth, f=lambda x: change(booth.f(x))))
        as_float = method(dataclasses.replace(booth, f=lambda x: float(change(booth.f(x)))))
        assert type(as_given.f_star) is float
        assert_reports_equal(as_given, as_float)

    @pytest.mark.parametrize("method", [solve, baseline_sqp])
    def test_gradient_of_python_ints_is_read_as_its_value(self, method):
        booth = get_problem("booth")

        def ints(x):
            return [int(v) for v in np.rint(1e6 * booth.grad(x))]

        as_given = method(dataclasses.replace(booth, grad=ints))
        as_float = method(dataclasses.replace(booth, grad=lambda x: np.array(ints(x), float)))
        assert_reports_equal(as_given, as_float)


def _wide_zakharov():
    # A start drawn from [-3, 3]^10 (four numbers are drawn first); the
    # gradient there is about 3e5.
    rng = np.random.default_rng([0, 204])
    rng.uniform(-3.0, 3.0, size=4)
    return dataclasses.replace(get_problem("zakharov"), x0=rng.uniform(-3.0, 3.0, size=10))


def _wide_beale():
    rng = np.random.default_rng([111, 947])
    rng.uniform(size=18)
    return dataclasses.replace(get_problem("beale"), x0=rng.uniform(-3.0, 3.0, size=2))


def _perturbed_dixon_price():
    base = get_problem("dixon_price", n=300)
    return dataclasses.replace(
        base, x0=base.x0 + 1e-2 * np.random.default_rng(73).standard_normal(300)
    )


@pytest.mark.parametrize("make", [_wide_zakharov, _wide_beale, _perturbed_dixon_price])
def test_ill_posed_starts_stay_feasible(make):
    # Each of these runs spends most of its iterations in the ill-posed phase,
    # where every step leaks into the normal space by the roundoff of the
    # shifted solve; the sum over the run must stay below 1e-8.
    report = solve(make())
    assert any(rec.phase == ILL_POSED for rec in report.trace)
    assert report.feas <= 1e-8


def test_rank_deficient_scaled_constraints_stay_feasible():
    report = solve(scaled_dependent_row_sphere())
    assert report.status == CONVERGED
    assert report.feas <= 1e-8


def test_row_scale_does_not_drop_a_constraint():
    # Every other row of a full-rank 10-by-40 system scaled by 1e-12.  Unless
    # factor equilibrates the rows, its rank test counts the small ones as
    # dependent: rank 5, and a Converged run whose point violates five rows
    # by 2.67 relative to their norms.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 40))
    b = a @ rng.standard_normal(40)
    scale = np.where(np.arange(10) % 2 == 0, 1.0, 1e-12)
    cs = ConstraintSystem(a=scale[:, None] * a, b=scale * b)
    assert factor(cs).rank == 10
    c = rng.standard_normal(40)
    problem = StubProblem(cs, np.zeros(40), lambda x: 0.5 * float((x - c) @ (x - c)), lambda x: x - c)
    report = solve(problem)
    assert report.status == CONVERGED
    residual = np.abs(cs.a @ report.x_star - cs.b) / np.linalg.norm(cs.a, axis=1)
    assert residual.max() <= 1e-12
    # The closest point to c on the unscaled system.
    x_ref = c - a.T @ np.linalg.solve(a @ a.T, a @ c - b)
    assert np.allclose(report.x_star, x_ref, atol=1e-6)
