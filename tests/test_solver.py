"""Continuation solver: step scoring, time-step control, the full loop, and
its trace invariants."""

import dataclasses

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
    NonFiniteGradient,
    NonFiniteObjective,
    SingularFactor,
    SolverConfig,
    factor,
    get_problem,
    project_gradient,
    quadratic_form,
    quadratic_oracle,
    restore_feasibility,
    solve,
)
import eqflow.solver as solver_module
from eqflow.hessian import build_and_factor, solve_shifted
from eqflow.problems import build_constraints
from eqflow.solver import trial_ratio, update_timestep
from helpers import traces_equal


class StubProblem:
    """Minimal problem object accepted by the solver."""

    def __init__(self, cs, x0, f, grad):
        self.cs = cs
        self.x0 = x0
        self.f = f
        self.grad = grad


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
        cs = ConstraintSystem(a=np.eye(3), b=np.array([1.0, 2.0, 3.0]))
        problem = StubProblem(cs, np.zeros(3), lambda x: float(x @ x), lambda x: 2 * x)
        report = solve(problem)
        assert report.status == SINGLE_FEASIBLE_POINT
        assert report.stop_reason == "pinned"
        assert report.iterations == 0
        assert np.allclose(report.x_star, cs.b, atol=1e-12)
        assert report.feas <= 1e-10

    def test_iteration_cap(self):
        report = solve(get_problem("griewank", n=20), SolverConfig(max_iter=5))
        assert report.status == MAX_ITERATIONS
        assert report.stop_reason == "iteration-cap"
        assert report.iterations == 5

    def test_impossible_decrease_exhausts_timestep(self):
        # Constant objective with a lying non-zero gradient: every trial is
        # rejected and dt halves through the phase switch.  The curvature is
        # zero, so the step shrinks with dt**2 until x + s == x at every
        # coordinate of x0 = ones, and the run stops there, long before the
        # dt floor.
        cs = build_constraints(4)
        problem = StubProblem(
            cs,
            np.ones(4),
            lambda x: 1.0,
            lambda x: np.array([1.0, -2.0, 0.5, 3.0]),
        )
        report = solve(problem)
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "step-rounds-away"
        assert report.iterations == len(report.trace) == 29
        assert report.accepted_steps == 0
        assert all(not rec.accepted for rec in report.trace)
        assert report.trace[-1].phase == ILL_POSED  # shrank through the switch

    def test_impossible_decrease_at_zero_reaches_dt_floor(self):
        # The same lying gradient from the origin: every nonzero step moves a
        # zero coordinate, so no trial rounds away and dt halves to the floor.
        cs = ConstraintSystem(a=np.array([[1.0, 1.0, 0.0, 0.0]]), b=np.array([0.0]))
        problem = StubProblem(
            cs,
            np.zeros(4),
            lambda x: 1.0,
            lambda x: np.array([1.0, -2.0, 0.5, 3.0]),
        )
        report = solve(problem)
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "dt-floor"
        assert report.iterations == len(report.trace) == 47
        assert report.accepted_steps == 0
        assert solver_module._DT_SHRINK * report.trace[-1].dt < solver_module._DT_MIN
        assert report.trace[-1].dt >= solver_module._DT_MIN

    def test_step_that_rounds_away_ends_the_ill_posed_phase(self):
        n = 100
        problem = get_problem("rotated_hyper_ellipsoid", n=n)
        cfg = SolverConfig(use_exact_hessian=True)
        report = solve(problem, cfg)
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "step-rounds-away"
        last = report.trace[-1]
        assert last.phase == ILL_POSED and not last.accepted
        # The stopping trial evaluated no f and wrote no row.
        assert len(report.trace) == report.iterations
        assert report.objective_evals == report.iterations + 1

        # Replay the trials that halving dt down to the floor would have
        # run: not one of them moves x*.
        basis = factor(problem.cs)
        x_star = report.x_star
        pg = project_gradient(basis, problem.grad(x_star))
        raw = problem.hess(x_star)
        hess = project_gradient(basis, project_gradient(basis, raw).T).T
        dt, replayed = last.dt, 0
        while dt * solver_module._DT_SHRINK >= solver_module._DT_MIN:
            dt *= solver_module._DT_SHRINK
            d = solve_shifted(build_and_factor(hess, cfg.reg_shift, dt), -pg)
            assert np.array_equal(x_star + (dt / (1.0 + dt)) * d, x_star), dt
            replayed += 1
        assert replayed > 10

    def test_infeasible_converged_point_is_not_reported_converged(self, monkeypatch):
        # Restoration that does nothing leaves an infeasible, stationary start.
        monkeypatch.setattr(solver_module, "restore_feasibility", lambda basis, x: x)
        cs = ConstraintSystem(a=np.array([[1.0, 1.0, 0.0, 0.0]]), b=np.array([1.0]))
        problem = StubProblem(cs, np.zeros(4), lambda x: 0.0, lambda x: np.zeros(4))
        report = solve(problem)
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "feasibility-lost"
        assert report.feas == 1.0

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


class TestTraceInvariants:
    def run_reports(self):
        return [
            solve(get_problem("booth")),
            solve(get_problem("zakharov", n=10)),
            solve(get_problem("trid", n=50), SolverConfig(max_iter=500)),
            solve(get_problem("sum_squares", n=60), SolverConfig(dt0=1e-4)),
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
        # at least dt/(4 (1+dt)) ||pg||^2.
        for report in self.run_reports():
            for rec in report.trace:
                if rec.phase != WELL_POSED:
                    continue
                bound = rec.dt / (4.0 * (1.0 + rec.dt)) * rec.pg_norm**2
                assert rec.decrease >= bound - 1e-12

    def test_direction_reused_after_rejection(self):
        # A rejected identity-phase step keeps d; only the dt-dependent step
        # scaling changes, so consecutive step norms are in that exact ratio.
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
            for rec in report.trace:
                assert rec.step_infeas <= 1e-8 * max(1.0, rec.step_norm)

    def test_deterministic_reruns_are_bit_identical(self):
        for name, n in [("booth", None), ("ackley", 20)]:
            problem_a = get_problem(name) if n is None else get_problem(name, n=n)
            problem_b = get_problem(name) if n is None else get_problem(name, n=n)
            r1, r2 = solve(problem_a), solve(problem_b)
            assert r1.status == r2.status
            assert r1.f_star == r2.f_star
            assert np.array_equal(r1.x_star, r2.x_star)
            assert traces_equal(r1.trace, r2.trace)


class TestEvaluationAccounting:
    def test_identity_phase_counts(self):
        report = solve(get_problem("booth"))
        assert report.objective_evals == report.iterations + 1
        assert report.gradient_evals == report.accepted_steps + 1
        assert report.hessian_evals == 0

    def test_curvature_probing_costs_n_plus_one_gradients(self):
        n = 30
        report = solve(get_problem("sum_squares", n=n), SolverConfig(dt0=1e-4))
        assert report.status == CONVERGED
        assert report.hessian_evals >= 1
        probes = report.gradient_evals - (report.accepted_steps + 1)
        assert probes == report.hessian_evals * (n + 1)

    def test_exact_hessian_skips_probing(self):
        n = 30
        cfg = SolverConfig(dt0=1e-4, use_exact_hessian=True)
        report = solve(get_problem("sum_squares", n=n), cfg)
        assert report.status == CONVERGED
        assert report.hessian_evals >= 1
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

    def test_singular_factor_retry_does_not_reprobe(self, monkeypatch):
        # The first factorization fails once: dt is halved and the cached
        # curvature factored again, without a second probe at the same point.
        original = solver_module.build_and_factor
        raised = []

        def singular_once(hess, shift, dt):
            if not raised:
                raised.append(dt)
                raise SingularFactor("forced")
            return original(hess, shift, dt)

        monkeypatch.setattr(solver_module, "build_and_factor", singular_once)
        n = 30
        report = solve(get_problem("sum_squares", n=n), SolverConfig(dt0=1e-4))
        assert raised == [1e-4]
        assert report.trace[0].dt == 0.5e-4
        assert report.hessian_evals == sum(rec.hessian_rebuilt for rec in report.trace)
        probes = report.gradient_evals - (report.accepted_steps + 1)
        assert probes == report.hessian_evals * (n + 1)

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
        cfg = SolverConfig(dt0=1e-4, use_exact_hessian=True)
        with pytest.raises(NonFiniteGradient, match="Hessian"):
            solve(problem, cfg)


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
