"""Continuation solver for smooth objectives under linear equality constraints.

The method follows the flow of the projected gradient system ``x' = -Pg(x)``
to a stationary point, discretized with an adaptive pseudo-time step ``dt``.
Each iteration solves a preconditioned model system ``B d = -Pg`` and takes

    s = dt/(1 + dt) * d,     x_trial = x + s,

so the step interpolates between a short scaled-gradient move (small ``dt``)
and a full model step (large ``dt``).  ``dt`` is adapted with trust-region
logic: the agreement ratio between the actual objective decrease and the
model decrease decides whether ``dt`` grows, holds, or shrinks — no line
search is performed, and rejected trial points are simply discarded.

The preconditioner runs in two one-way phases:

* well-posed phase — while ``dt`` stays above a switch threshold, ``B`` is a
  memory-one quasi-Newton matrix applied in closed form (O(n) per iteration);
* ill-posed phase — once ``dt`` falls below the threshold (a sign of stiff,
  badly conditioned curvature), ``B`` becomes the shifted finite-difference
  tangent-space Hessian ``(shift/dt) I + H``, factored by LU and cached under
  a rebuild policy driven by step acceptance and ratio quality.

Every direction lies in the null space of the constraint matrix by
construction, so feasibility established once by an initial orthogonal
restoration is conserved for the whole run without correction steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import NonFiniteGradient, NonFiniteObjective, SingularFactor
from .hessian import (
    ProjectedHessian,
    RegularizedFactor,
    build_and_factor,
    fd_projected_hessian,
    solve_shifted,
)
from .lbfgs import LbfgsPair, apply_inverse, make_pair, zero_pair
from .projection import (
    ProjectorBasis,
    factor,
    project_gradient,
    restore_feasibility,
)

__all__ = [
    "WELL_POSED",
    "ILL_POSED",
    "CONVERGED",
    "MAX_ITERATIONS",
    "STEP_FAILURE",
    "SINGLE_FEASIBLE_POINT",
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "SolverReport",
    "trial_ratio",
    "update_timestep",
    "solve",
]

# Preconditioner phases (one-way transition, see module docstring).
WELL_POSED = "well-posed"
ILL_POSED = "ill-posed"

# Terminal statuses.
CONVERGED = "Converged"
MAX_ITERATIONS = "MaxIterations"
STEP_FAILURE = "StepFailure"
SINGLE_FEASIBLE_POINT = "SingleFeasiblePoint"


@dataclass
class SolverConfig:
    """Tuning knobs with their standard defaults.

    Attributes
    ----------
    tol:
        Stopping tolerance on the max-norm projected gradient; convergence
        additionally requires the feasibility residual to be below it.
    max_iter:
        Cap on outer iterations (trials, accepted or not).
    reg_shift:
        Base regularization scale; the ill-posed phase shifts the curvature
        matrix by ``reg_shift / dt``.
    dt0:
        Initial pseudo-time step.
    accept_ratio_min:
        Smallest agreement ratio at which a trial step is accepted.
    accept_decrease_min:
        The model decrease must also exceed this times ``||s|| * ||pg||``.
    ratio_band_inner / ratio_band_outer:
        Bands on ``|1 - ratio|`` steering the time-step update: inside the
        inner band the step doubles, between the bands it holds, outside the
        outer band it halves.
    dt_grow / dt_shrink:
        The grow/shrink factors applied by :func:`update_timestep`.
    curvature_floor:
        Relative curvature threshold below which a quasi-Newton pair is
        discarded as unusable.
    phase_switch_dt:
        The ``dt`` level that triggers the permanent switch to the
        factorized second-order preconditioner.
    fd_eps:
        Finite-difference increment for curvature probes.
    rank_tol:
        Relative rank threshold for the constraint factorization.
    dt_min:
        Hard floor: the run aborts with status StepFailure if ``dt`` is
        driven below this by persistent rejections.
    use_exact_hessian:
        When True and the problem supplies an analytic Hessian callback, the
        ill-posed phase projects that instead of finite differencing.
    """

    tol: float = 1e-6
    max_iter: int = 300
    reg_shift: float = 1e-4
    dt0: float = 1e-2
    accept_ratio_min: float = 1e-6
    accept_decrease_min: float = 1e-10
    ratio_band_inner: float = 0.25
    ratio_band_outer: float = 0.75
    dt_grow: float = 2.0
    dt_shrink: float = 0.5
    curvature_floor: float = 1e-6
    phase_switch_dt: float = 1e-3
    fd_eps: float = 1e-6
    rank_tol: float = 1e-10
    dt_min: float = 1e-16
    use_exact_hessian: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio_band_inner < self.ratio_band_outer:
            raise ValueError("need 0 < ratio_band_inner < ratio_band_outer")
        if not self.dt_grow > 1.0 > self.dt_shrink > 0.0:
            raise ValueError("need dt_grow > 1 > dt_shrink > 0")
        for name in ("tol", "reg_shift", "dt0", "accept_ratio_min",
                     "accept_decrease_min", "curvature_floor",
                     "phase_switch_dt", "fd_eps", "rank_tol", "dt_min"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolverState:
    """Mutable loop state; exposed for tests and debugging, not part of the
    stable API."""

    k: int
    x: np.ndarray
    f: float
    g: np.ndarray
    pg: np.ndarray
    dt: float
    phase: str
    last_step_accepted: bool
    pair: LbfgsPair
    d: Optional[np.ndarray] = None
    hessian: Optional[ProjectedHessian] = None
    factor: Optional[RegularizedFactor] = None
    rho_prev: float = 0.0


@dataclass(frozen=True)
class IterationRecord:
    """One row of the per-iteration trace (append-only).

    ``f``/``kkt``/``feas`` are the values *after* the iteration (unchanged on
    rejection); ``dt`` and ``rho`` belong to the trial evaluated in this
    iteration.  The 2-norm diagnostics (``decrease``, ``step_norm``,
    ``pg_norm``, ``step_infeas``) feed the conservation and model-decrease
    property tests.
    """

    k: int
    f: float
    kkt: float
    feas: float
    dt: float
    rho: float
    accepted: bool
    phase: str
    hessian_rebuilt: bool
    wall_time_ns: int
    decrease: float
    step_norm: float
    pg_norm: float
    step_infeas: float


@dataclass
class SolverReport:
    """Result of a solve: terminal point, residuals, counters, trace."""

    status: str
    x_star: np.ndarray
    f_star: float
    kkt: float
    feas: float
    iterations: int
    accepted_steps: int
    objective_evals: int
    gradient_evals: int
    hessian_evals: int
    wall_time: float
    trace: list[IterationRecord] = field(default_factory=list)


def trial_ratio(
    f_current: float, f_trial: float, g: np.ndarray, s: np.ndarray, dt: float
) -> tuple[float, float]:
    """Agreement ratio between actual and model decrease for a trial step.

    The local model predicts a decrease of ``-((1 + dt/2)/(1 + dt)) * g^T s``.
    Returns ``(ratio, decrease)``; when the predicted decrease is not positive
    the ratio is the ``-inf`` sentinel, which forces rejection and the
    shrink branch of the time-step update.
    """
    decrease = -((1.0 + 0.5 * dt) / (1.0 + dt)) * float(g @ s)
    if decrease <= 0.0:
        return float("-inf"), decrease
    return (f_current - f_trial) / decrease, decrease


def update_timestep(dt: float, rho: float, config: SolverConfig) -> float:
    """Trust-region style time-step update.

    Grows ``dt`` when the ratio is near one, holds it in the middle band, and
    shrinks it otherwise.  NaN ratios (non-finite trial values) and the
    ``-inf`` sentinel both fall through to the shrink branch.
    """
    deviation = abs(1.0 - rho)
    if deviation <= config.ratio_band_inner:
        return config.dt_grow * dt
    if deviation < config.ratio_band_outer:
        return dt
    return config.dt_shrink * dt


def _max_abs(v: np.ndarray) -> float:
    return float(np.max(np.abs(v))) if v.size else 0.0


def solve(problem: Any, config: Optional[SolverConfig] = None) -> SolverReport:
    """Minimize ``problem.f`` over ``{x : Ax = b}`` from ``problem.x0``.

    ``problem`` must provide ``cs`` (the constraint system), ``x0``, ``f`` and
    ``grad`` callbacks (pure functions), and may provide ``hess``.

    The iteration follows the scheme in the module docstring; per iteration:
    the phase is switched (permanently) if ``dt`` has fallen below the
    threshold; a direction is computed — fresh after an accepted step, reused
    after a rejected one in the well-posed phase, or obtained from the cached
    or rebuilt factorization in the ill-posed phase; the trial point is
    scored by :func:`trial_ratio`; acceptance requires both the ratio and the
    model-decrease floors; ``dt`` is updated by :func:`update_timestep`.

    Raises
    ------
    NonFiniteObjective
        If the objective at the (restored) initial point is non-finite.
    NonFiniteGradient
        If a gradient evaluation at an accepted point is non-finite, or if
        curvature probing fails even after one shrink-and-retry of ``dt``.
    SingularFactor
        If the shifted curvature matrix stays singular after one
        shrink-and-retry of ``dt``.
    """
    cfg = config if config is not None else SolverConfig()
    cs = problem.cs
    n = cs.n
    t_start = time.perf_counter()

    counters = {"f": 0, "g": 0, "h": 0}

    def fval(x: np.ndarray) -> float:
        counters["f"] += 1
        return float(problem.f(x))

    def gval(x: np.ndarray) -> np.ndarray:
        counters["g"] += 1
        return np.asarray(problem.grad(x), dtype=float)

    basis = factor(cs, cfg.rank_tol)
    x = restore_feasibility(basis, np.asarray(problem.x0, dtype=float))

    if basis.rank == n:
        # The constraints determine the point completely; nothing to optimize.
        f0 = fval(x)
        g0 = gval(x)
        return SolverReport(
            status=SINGLE_FEASIBLE_POINT,
            x_star=x,
            f_star=f0,
            kkt=_max_abs(project_gradient(basis, g0)),
            feas=_max_abs(cs.a @ x - cs.b),
            iterations=0,
            accepted_steps=0,
            objective_evals=counters["f"],
            gradient_evals=counters["g"],
            hessian_evals=counters["h"],
            wall_time=time.perf_counter() - t_start,
        )

    def eval_hessian(at: np.ndarray, index: int) -> ProjectedHessian:
        counters["h"] += 1
        hess_cb = getattr(problem, "hess", None)
        if cfg.use_exact_hessian and hess_cb is not None:
            raw = np.asarray(hess_cb(at), dtype=float)
            projected = project_gradient(basis, project_gradient(basis, raw).T).T
            return ProjectedHessian(matrix=projected, fd_eps=cfg.fd_eps, eval_index=index)
        return fd_projected_hessian(gval, basis, at, fd_eps=cfg.fd_eps, eval_index=index)

    f0 = fval(x)
    if not np.isfinite(f0):
        raise NonFiniteObjective("objective at the initial point is not finite")
    g0 = gval(x)
    if not np.all(np.isfinite(g0)):
        raise NonFiniteGradient("gradient at the initial point is not finite")

    state = SolverState(
        k=0,
        x=x,
        f=f0,
        g=g0,
        pg=project_gradient(basis, g0),
        dt=cfg.dt0,
        phase=WELL_POSED,
        last_step_accepted=True,
        pair=zero_pair(n),
    )
    trace: list[IterationRecord] = []
    accepted_steps = 0
    status: Optional[str] = None

    while status is None:
        if _max_abs(state.pg) <= cfg.tol:
            status = CONVERGED
            break
        if state.k >= cfg.max_iter:
            status = MAX_ITERATIONS
            break
        state.k += 1
        t_iter = time.perf_counter_ns()

        if state.dt < cfg.phase_switch_dt:
            state.phase = ILL_POSED  # one-way: never reset

        hessian_rebuilt = False
        if state.phase == WELL_POSED:
            if state.last_step_accepted:
                state.d = -apply_inverse(state.pair, state.pg)
            # After a rejection the previous direction is reused as-is; only
            # the dt-dependent scaling below changes.
        else:
            if state.hessian is None or state.factor is None:
                # First iteration of the phase: nothing cached yet.
                rebuild_hessian, rebuild_factor = True, True
            elif not state.last_step_accepted:
                # Rejected step: same curvature, refreshed shift.
                rebuild_hessian, rebuild_factor = False, True
            elif abs(state.rho_prev - 1.0) > cfg.ratio_band_inner:
                # Model agreement was poor: re-probe the curvature.
                rebuild_hessian, rebuild_factor = True, True
            else:
                rebuild_hessian, rebuild_factor = False, False

            for attempt in range(2):
                try:
                    if rebuild_hessian:
                        state.hessian = eval_hessian(state.x, state.k)
                        hessian_rebuilt = True
                    if rebuild_factor:
                        state.factor = build_and_factor(
                            state.hessian, cfg.reg_shift, state.dt
                        )
                    break
                except (SingularFactor, NonFiniteGradient):
                    if attempt == 1:
                        raise
                    state.dt = cfg.dt_shrink * state.dt
                    rebuild_factor = True
            state.d = solve_shifted(state.factor, -state.pg)

        dt_used = state.dt
        s = (dt_used / (1.0 + dt_used)) * state.d
        x_trial = state.x + s
        f_trial = fval(x_trial)
        rho, decrease = trial_ratio(state.f, f_trial, state.g, s, dt_used)
        step_norm = float(np.linalg.norm(s))
        pg_norm = float(np.linalg.norm(state.pg))
        accepted = bool(
            rho >= cfg.accept_ratio_min
            and decrease >= cfg.accept_decrease_min * step_norm * pg_norm
        )

        if accepted:
            g_new = gval(x_trial)
            if not np.all(np.isfinite(g_new)):
                raise NonFiniteGradient("gradient at an accepted point is not finite")
            pg_new = project_gradient(basis, g_new)
            state.pair = make_pair(s, pg_new - state.pg, cfg.curvature_floor)
            state.x, state.f, state.g, state.pg = x_trial, f_trial, g_new, pg_new
            accepted_steps += 1
        else:
            state.pair = zero_pair(n)

        state.last_step_accepted = accepted
        state.rho_prev = rho
        state.dt = update_timestep(state.dt, rho, cfg)

        trace.append(
            IterationRecord(
                k=state.k,
                f=state.f,
                kkt=_max_abs(state.pg),
                feas=_max_abs(cs.a @ state.x - cs.b),
                dt=dt_used,
                rho=rho,
                accepted=accepted,
                phase=state.phase,
                hessian_rebuilt=hessian_rebuilt,
                wall_time_ns=time.perf_counter_ns() - t_iter,
                decrease=decrease,
                step_norm=step_norm,
                pg_norm=pg_norm,
                step_infeas=_max_abs(cs.a @ s),
            )
        )

        if state.dt < cfg.dt_min:
            status = STEP_FAILURE

    kkt = _max_abs(state.pg)
    feas = _max_abs(cs.a @ state.x - cs.b)
    if status == CONVERGED and feas > cfg.tol:
        # Unreachable when restoration succeeded (steps conserve Ax = b), but
        # the Converged label is only ever allowed with both residuals small.
        status = MAX_ITERATIONS if state.k >= cfg.max_iter else STEP_FAILURE

    return SolverReport(
        status=status,
        x_star=state.x,
        f_star=state.f,
        kkt=kkt,
        feas=feas,
        iterations=state.k,
        accepted_steps=accepted_steps,
        objective_evals=counters["f"],
        gradient_evals=counters["g"],
        hessian_evals=counters["h"],
        wall_time=time.perf_counter() - t_start,
        trace=trace,
    )
