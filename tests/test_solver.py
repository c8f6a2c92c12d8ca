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
    SolverConfig,
    factor,
    get_problem,
    quadratic_form,
    quadratic_oracle,
    restore_feasibility,
    solve,
    trial_ratio,
    update_timestep,
)
from eqflow.problems import build_constraints
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
        cfg = SolverConfig()
        for dt in (1e-3, 0.7, 128.0):
            assert update_timestep(dt, rho, cfg) == factor_expected * dt

    def test_band_edges(self):
        cfg = SolverConfig()
        assert update_timestep(1.0, 0.75, cfg) == 2.0  # |1-rho| == inner band
        assert update_timestep(1.0, 0.25, cfg) == 0.5  # |1-rho| == outer band


class TestConfigValidation:
    def test_rejects_bad_bands(self):
        with pytest.raises(ValueError):
            SolverConfig(ratio_band_inner=0.8, ratio_band_outer=0.5)

    def test_rejects_bad_growth(self):
        with pytest.raises(ValueError):
            SolverConfig(dt_grow=0.9)
        with pytest.raises(ValueError):
            SolverConfig(dt_shrink=1.5)

    def test_rejects_nonpositive_scalars(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(dt0=-1e-2)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)


class TestTerminalStatuses:
    def test_two_dim_quadratic_converges(self):
        report = solve(get_problem("booth"))
        assert report.status == CONVERGED
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
        assert report.iterations == 0
        assert np.allclose(report.x_star, cs.b, atol=1e-12)
        assert report.feas <= 1e-10

    def test_iteration_cap(self):
        report = solve(get_problem("griewank", n=20), SolverConfig(max_iter=5))
        assert report.status == MAX_ITERATIONS
        assert report.iterations == 5

    def test_impossible_decrease_exhausts_timestep(self):
        # Constant objective with a lying non-zero gradient: every trial is
        # rejected, dt halves to the floor, and the run aborts.
        cs = build_constraints(4)
        problem = StubProblem(
            cs,
            np.ones(4),
            lambda x: 1.0,
            lambda x: np.array([1.0, -2.0, 0.5, 3.0]),
        )
        report = solve(problem)
        assert report.status == STEP_FAILURE
        assert report.accepted_steps == 0
        assert all(not rec.accepted for rec in report.trace)
        assert report.trace[-1].phase == ILL_POSED  # shrank through the switch

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
