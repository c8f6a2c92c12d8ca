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
  badly conditioned curvature), ``B`` becomes the shifted tangent-space
  Hessian ``(shift/dt) I + H`` (projected from the problem's ``hess`` if it
  has one, else finite-differenced), factored by LU and cached under a
  rebuild policy driven by step acceptance and ratio quality.

Every direction lies in the null space of the constraint matrix by
construction, so feasibility established once by an initial orthogonal
restoration is conserved for the whole run without correction steps.

A run ends with ``StepFailure`` when ``dt`` falls below a floor, or at one
of two earlier points.  In the ill-posed phase it ends at the first trial
step that rounds to the current point while the shift dominates the
curvature: every smaller ``dt`` then gives a shorter step, so no later trial
could move the point.  And it ends instead of switching phase when the last
trial predicted a positive decrease below one ulp of ``f``: the ratios that
shrank ``dt`` then measured rounding in ``f``, not stiff curvature.  The
report's ``stop_reason`` says which rule ended the run.

:func:`baseline_sqp`, the reference method of the benchmark, runs SQP with
a BFGS Hessian through the same set-up, checks and report as :func:`solve`.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import DimensionError, NonFiniteGradient, NonFiniteObjective, SingularFactor
from .hessian import build_and_factor, fd_projected_hessian, solve_shifted
from .lbfgs import apply_inverse, make_pair, zero_pair
from .projection import factor, project_gradient, restore_feasibility

__all__ = [
    "WELL_POSED",
    "ILL_POSED",
    "CONVERGED",
    "MAX_ITERATIONS",
    "STEP_FAILURE",
    "SINGLE_FEASIBLE_POINT",
    "SolverConfig",
    "IterationRecord",
    "SolverReport",
    "trial_ratio",
    "update_timestep",
    "solve",
    "baseline_sqp",
]

# Preconditioner phases (one-way transition, see module docstring).
WELL_POSED = "well-posed"
ILL_POSED = "ill-posed"

# Terminal statuses.
CONVERGED = "Converged"
MAX_ITERATIONS = "MaxIterations"
STEP_FAILURE = "StepFailure"
SINGLE_FEASIBLE_POINT = "SingleFeasiblePoint"

# The method's fixed constants.
_ACCEPT_RATIO_MIN = 1e-6  # smallest agreement ratio that accepts a trial
_ACCEPT_DECREASE_MIN = 1e-10  # model-decrease floor, times ||s|| * ||pg||
_RATIO_BAND_INNER = 0.25  # |1 - ratio| up to this: dt grows, curvature kept
_RATIO_BAND_OUTER = 0.75  # |1 - ratio| from this on: dt shrinks
_DT_GROW = 2.0
_DT_SHRINK = 0.5
_PHASE_SWITCH_DT = 1e-3  # dt below this starts the ill-posed phase for good
_DT_MIN = 1e-16  # dt below this ends the run with StepFailure

# Trace vectors per product with A: one matrix product reads A once for a
# block, where a matrix-vector product per vector reads it once per vector.
# The two waiting buffers hold up to 2 * _RESIDUAL_BLOCK * n floats (2 MB at
# n = 1000).
_RESIDUAL_BLOCK = 128


@dataclass
class SolverConfig:
    """The settings that vary between runs, with their standard defaults.

    Every float setting must be a finite and positive real number (a Python
    or numpy number, not a bool); anything else raises ``ValueError``.

    Attributes
    ----------
    tol:
        Stopping tolerance on the max-norm projected gradient; convergence
        additionally requires the feasibility residual to be below it.
    max_iter:
        Cap on outer iterations (trials, accepted or not); an integer of at
        least 1.
    reg_shift:
        Base regularization scale; the ill-posed phase shifts the curvature
        matrix by ``reg_shift / dt``.
    dt0:
        Initial pseudo-time step.
    """

    tol: float = 1e-6
    max_iter: int = 300
    reg_shift: float = 1e-4
    dt0: float = 1e-2

    def __post_init__(self) -> None:
        for name in ("tol", "reg_shift", "dt0"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not a bool, got {value!r}")
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        max_iter = self.max_iter
        if (
            isinstance(max_iter, bool)
            or not isinstance(max_iter, numbers.Integral)
            or max_iter < 1
        ):
            raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One row of the per-iteration trace (append-only).

    ``f``/``kkt``/``feas`` are the values *after* the iteration (unchanged on
    rejection); ``dt`` and ``rho`` belong to the trial evaluated in this
    iteration.  The 2-norm diagnostics (``decrease``, ``step_norm``,
    ``pg_norm``, ``step_infeas``) feed the conservation and model-decrease
    property tests.

    ``feas`` (max-norm of ``Ax - b``) and ``step_infeas`` (max-norm of ``As``)
    come from one matrix product with ``A`` per block of 128 points or steps,
    so they equal a product per vector up to roundoff; the last point's
    ``feas`` is the report's, bit for bit.  ``wall_time_ns`` does not include
    them.
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
    """Result of a solve: terminal point, residuals, counters, trace.

    ``stop_reason`` names the rule that ended the run, at finer grain than
    ``status``: ``"tolerance"`` (Converged), ``"iteration-cap"``
    (MaxIterations), ``"dt-floor"``, ``"step-rounds-away"``, ``"sub-ulp"``
    and, from :func:`baseline_sqp`, ``"sqp-stopped"`` (StepFailure),
    ``"pinned"`` (SingleFeasiblePoint), and ``"feasibility-lost"`` for a
    converged run whose point is not feasible to ``tol``.
    """

    status: str
    stop_reason: str
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


def update_timestep(dt: float, rho: float) -> float:
    """Trust-region style time-step update.

    Grows ``dt`` when the ratio is near one, holds it in the middle band, and
    shrinks it otherwise.  NaN ratios (non-finite trial values) and the
    ``-inf`` sentinel both fall through to the shrink branch.
    """
    deviation = abs(1.0 - rho)
    if deviation <= _RATIO_BAND_INNER:
        return _DT_GROW * dt
    if deviation < _RATIO_BAND_OUTER:
        return dt
    return _DT_SHRINK * dt


def _max_abs(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a contiguous 1-d float array, bit for bit as
    ``np.linalg.norm`` computes it (a strided view would be summed in a
    different order)."""
    return math.sqrt(float(v @ v))


class _Run:
    """Set-up and bookkeeping shared by :func:`solve` and the baseline.

    Owns the counted callbacks, the constraint factorization, the restored
    and checked start, the trace rows and the final report.  ``x``, ``f``,
    ``g`` and ``pg`` hold the current accepted point, and ``kkt`` (max-norm
    of ``pg``) and ``pg_norm`` (its 2-norm) its residuals, computed once when
    the point is set.  ``factor``, ``restore_feasibility`` and
    ``project_gradient`` are looked up in this module's namespace at call
    time, so wrappers patched onto ``eqflow.solver`` see every call.

    The trace's products with ``A`` steer nothing, so they wait in blocks:
    ``steps`` holds the trial steps and ``points`` the left points that rows
    refer to, and each turns into max-norm residuals, ``step_infeas`` and
    ``feas``, with one matrix product once it holds ``_RESIDUAL_BLOCK``
    vectors: the buffer is stacked row-major, one vector per row, and
    multiplied by ``A`` transposed, so each vector is read contiguously.  The
    two buffers hold at most ``2 * _RESIDUAL_BLOCK * n`` floats.
    :meth:`report` computes the current point's ``feas`` on its own and
    builds the trace records.
    """

    def __init__(self, problem: Any, cfg: SolverConfig) -> None:
        self.t_start = time.perf_counter()
        self.problem = problem
        self.cfg = cfg
        self.cs = problem.cs
        self.objective_evals = self.gradient_evals = self.hessian_evals = 0
        # Each row's own fields, with the index of its point's feas value.
        self.rows: list[tuple[dict[str, Any], int]] = []
        self.steps: list[np.ndarray] = []
        self.points: list[np.ndarray] = []
        self.step_infeas: list[float] = []
        self.point_feas: list[float] = []
        self.x_has_rows = False
        self.basis = factor(self.cs)
        x = restore_feasibility(self.basis, np.asarray(problem.x0, dtype=float))
        f = self.fval(x)
        if not np.isfinite(f):
            raise NonFiniteObjective("objective at the initial point is not finite")
        self.move_to(x, f, "the initial point")

    @property
    def pinned(self) -> bool:
        """The constraints determine the point completely."""
        return self.basis.rank == self.cs.n

    def fval(self, x: np.ndarray) -> float:
        self.objective_evals += 1
        return float(self.problem.f(x))

    def gval(self, x: np.ndarray) -> np.ndarray:
        self.gradient_evals += 1
        return np.asarray(self.problem.grad(x), dtype=float)

    def checked_gval(self, x: np.ndarray, where: str) -> np.ndarray:
        g = self.gval(x)
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"gradient at {where} is not finite")
        return g

    def move_to(self, x: np.ndarray, f: float, where: str = "an accepted point") -> None:
        """Make ``x``, with objective ``f``, the current point; evaluates its
        gradient and residuals."""
        g = self.checked_gval(x, where)
        pg = project_gradient(self.basis, g)
        if self.x_has_rows:
            self.points.append(self.x)
            self.x_has_rows = False
        self.x, self.f, self.g, self.pg = x, f, g, pg
        self.kkt = _max_abs(pg)
        self.pg_norm = _norm(pg)

    def record(self, k: int, t_iter: int, s: np.ndarray, **row: Any) -> None:
        """Add the trace row of iteration ``k``, which took step ``s``;
        ``row`` holds the trial's own :class:`IterationRecord` fields."""
        row.update(k=k, f=self.f, kkt=self.kkt, wall_time_ns=time.perf_counter_ns() - t_iter)
        self.rows.append((row, len(self.point_feas) + len(self.points)))
        self.steps.append(s)
        self.x_has_rows = True
        self.flush(_RESIDUAL_BLOCK)

    def flush(self, full: int) -> None:
        """Compute the waiting residuals of each buffer that holds at least
        ``full`` (at least 1) vectors."""
        a_t = self.cs.a.T
        if len(self.steps) >= full:
            self.step_infeas += np.abs(np.array(self.steps) @ a_t).max(axis=1).tolist()
            self.steps = []
        if len(self.points) >= full:
            residuals = np.array(self.points) @ a_t - self.cs.b
            self.point_feas += np.abs(residuals).max(axis=1).tolist()
            self.points = []

    def report(
        self, status: str, stop_reason: str, iterations: int, accepted_steps: int
    ) -> SolverReport:
        feas = _max_abs(self.cs.a @ self.x - self.cs.b)
        self.flush(1)
        point_feas = self.point_feas + [feas]
        trace = [
            IterationRecord(feas=point_feas[point], step_infeas=step_infeas, **row)
            for (row, point), step_infeas in zip(self.rows, self.step_infeas)
        ]
        if status == CONVERGED and feas > self.cfg.tol:
            # Unreachable when restoration succeeded (steps conserve Ax = b),
            # but Converged is only ever reported with both residuals small.
            status = MAX_ITERATIONS if iterations >= self.cfg.max_iter else STEP_FAILURE
            stop_reason = "feasibility-lost"
        return SolverReport(
            status=status,
            stop_reason=stop_reason,
            x_star=self.x,
            f_star=self.f,
            kkt=self.kkt,
            feas=feas,
            iterations=iterations,
            accepted_steps=accepted_steps,
            objective_evals=self.objective_evals,
            gradient_evals=self.gradient_evals,
            hessian_evals=self.hessian_evals,
            wall_time=time.perf_counter() - self.t_start,
            trace=trace,
        )


def solve(problem: Any, config: Optional[SolverConfig] = None) -> SolverReport:
    """Minimize ``problem.f`` over ``{x : Ax = b}`` from ``problem.x0``.

    ``problem`` must provide ``cs`` (the constraint system), ``x0``, ``f`` and
    ``grad`` callbacks (pure functions), and may provide ``hess``: whenever
    it is not ``None``, the ill-posed phase projects its n-by-n matrix instead
    of probing the curvature by finite differences of ``grad``.

    The iteration follows the scheme in the module docstring; per iteration:
    the phase is switched (permanently) if ``dt`` has fallen below the
    threshold; a direction is computed — fresh after an accepted step, reused
    after a rejected one in the well-posed phase, or obtained from the cached
    or rebuilt factorization in the ill-posed phase; the trial point is
    scored by :func:`trial_ratio`; acceptance requires both the ratio and the
    model-decrease floors; ``dt`` is updated by :func:`update_timestep`.

    The run stops with ``StepFailure`` when ``dt`` falls below its floor
    (``"dt-floor"``); when an ill-posed trial point equals the current point
    bit for bit while ``reg_shift/dt`` is at least the Frobenius norm of the
    curvature matrix (``"step-rounds-away"``); or when ``dt`` falls below the
    switch threshold in the well-posed phase and the last trial's predicted
    decrease was positive but below ``math.ulp(f)`` (``"sub-ulp"``).  A
    non-positive predicted decrease, or a ``dt0`` below the threshold, still
    switches.  The two early stops call no ``f`` or curvature probe, write no
    trace row and do not count the stopping iteration in ``iterations``.

    Each cache is dropped by the event that makes it stale: an accepted step
    drops the direction, and the curvature and its shifted factors too when
    its ratio left the inner band; a rejected step drops only the factors.
    The ill-posed phase probes or factors whatever is missing.

    Raises
    ------
    NonFiniteObjective
        If the objective at the (restored) initial point is non-finite.
    NonFiniteGradient
        If the gradient at the initial point or at an accepted point, or a
        curvature probe (differenced or analytic), is non-finite.  Probes are
        not retried: their points do not depend on ``dt``.
    DimensionError
        If the analytic Hessian callback returns an array that is not n by n.
    SingularFactor
        If the shifted curvature matrix is still singular after ``dt`` is
        halved once and the matrix factored again.
    """
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem, cfg)
    if run.pinned:
        return run.report(SINGLE_FEASIBLE_POINT, "pinned", 0, 0)
    basis = run.basis
    hess_cb = getattr(problem, "hess", None)

    def eval_hessian(at: np.ndarray) -> np.ndarray:
        run.hessian_evals += 1
        if hess_cb is not None:
            raw = np.asarray(hess_cb(at), dtype=float)
            n = run.cs.n
            if raw.shape != (n, n):
                raise DimensionError(
                    f"Hessian callback returned shape {raw.shape}, expected ({n}, {n})"
                )
            if not np.isfinite(raw).all():
                raise NonFiniteGradient("analytic Hessian is not finite")
            return project_gradient(basis, project_gradient(basis, raw).T).T
        return fd_projected_hessian(run.gval, basis, at)

    k, dt, phase = 0, cfg.dt0, WELL_POSED
    pair = zero_pair(run.cs.n)
    d = hessian = shifted = None
    hessian_norm = math.inf
    decrease = 0.0  # the last trial's predicted decrease
    accepted_steps = 0

    while True:
        if run.kkt <= cfg.tol:
            return run.report(CONVERGED, "tolerance", k, accepted_steps)
        if k >= cfg.max_iter:
            return run.report(MAX_ITERATIONS, "iteration-cap", k, accepted_steps)
        k += 1
        t_iter = time.perf_counter_ns()

        if dt < _PHASE_SWITCH_DT and phase == WELL_POSED:
            if 0.0 < decrease < math.ulp(run.f):
                # dt shrank because the decreases sank below the rounding of
                # f, so the ratios that shrank it measured roundoff, not stiff
                # curvature: curvature would only refine the noise.
                return run.report(STEP_FAILURE, "sub-ulp", k - 1, accepted_steps)
            phase = ILL_POSED  # one-way: never reset

        hessian_rebuilt = False
        if phase == WELL_POSED:
            if d is None:
                d = -apply_inverse(pair, run.pg)
            # After a rejection the previous direction is reused as-is; only
            # the dt-dependent scaling below changes.
        else:
            hessian_rebuilt = hessian is None
            if hessian_rebuilt:
                hessian = eval_hessian(run.x)
                # The norm sums in memory order, so it is taken before the
                # column-major copy that every factorization then copies
                # without a transpose (the analytic result already is one).
                hessian_norm = float(np.linalg.norm(hessian))
                hessian = np.asfortranarray(hessian)
            if shifted is None:
                try:
                    shifted = build_and_factor(hessian, cfg.reg_shift, dt)
                except SingularFactor:
                    dt = _DT_SHRINK * dt
                    shifted = build_and_factor(hessian, cfg.reg_shift, dt)
            d = solve_shifted(shifted, -run.pg)

        s = (dt / (1.0 + dt)) * d
        x_trial = run.x + s
        if (
            phase == ILL_POSED
            and hessian_norm <= cfg.reg_shift / dt
            and np.array_equal(x_trial, run.x)
        ):
            # The trial would be rejected (f_trial == f), and with the shift
            # dominating H each halving of dt shortens the step about
            # fourfold, so no later trial could move x either.
            return run.report(STEP_FAILURE, "step-rounds-away", k - 1, accepted_steps)
        f_trial = run.fval(x_trial)
        rho, decrease = trial_ratio(run.f, f_trial, run.g, s, dt)
        step_norm = _norm(s)
        pg_norm = run.pg_norm
        accepted = bool(
            rho >= _ACCEPT_RATIO_MIN
            and decrease >= _ACCEPT_DECREASE_MIN * step_norm * pg_norm
        )

        if accepted:
            pg_old = run.pg
            run.move_to(x_trial, f_trial)
            pair = make_pair(s, run.pg - pg_old)
            accepted_steps += 1
            d = None
            if abs(1.0 - rho) > _RATIO_BAND_INNER:
                hessian = shifted = None
        else:
            shifted = None

        run.record(
            k, t_iter, s, dt=dt, rho=rho, accepted=accepted, phase=phase,
            hessian_rebuilt=hessian_rebuilt, decrease=decrease,
            step_norm=step_norm, pg_norm=pg_norm,
        )
        dt = update_timestep(dt, rho)
        if dt < _DT_MIN:
            return run.report(STEP_FAILURE, "dt-floor", k, accepted_steps)


def baseline_sqp(problem: Any, config: Optional[SolverConfig] = None) -> SolverReport:
    """Reference method: SQP with a BFGS Hessian, through the set-up, checks
    and report of :func:`solve`.

    With linear constraints and a feasible start, that is BFGS on the
    null-space coordinates of ``x = x0 + Q2 z`` (Nocedal & Wright, ch. 18):
    scipy's ``minimize(method="BFGS")`` from ``z = 0``, whose point is then
    restored onto ``Ax = b`` once more.  Every iteration is an accepted step;
    the trace is empty.  The status comes from the residuals at the returned
    point: ``Converged`` when the projected gradient meets ``tol``, else
    ``MaxIterations`` at the cap, else ``StepFailure`` with stop reason
    ``"sqp-stopped"``.  Non-finite gradients anywhere, and a non-finite
    objective at the start or the end, raise.
    """
    # Imported here: scipy.optimize would add about 0.26 s to ``import eqflow``.
    from scipy.optimize import minimize

    cfg = config if config is not None else SolverConfig()
    run = _Run(problem, cfg)
    if run.pinned:
        return run.report(SINGLE_FEASIBLE_POINT, "pinned", 0, 0)
    x0, q2 = run.x, run.basis.q2
    res = minimize(
        lambda z: run.fval(x0 + q2 @ z), np.zeros(q2.shape[1]), method="BFGS",
        jac=lambda z: q2.T @ run.checked_gval(x0 + q2 @ z, "an SQP point"),
        options={"gtol": cfg.tol, "maxiter": cfg.max_iter},
    )
    x = restore_feasibility(run.basis, x0 + q2 @ res.x)
    f = run.fval(x)
    if not math.isfinite(f):
        raise NonFiniteObjective("objective at the SQP point is not finite")
    run.move_to(x, f)
    if run.kkt <= cfg.tol:
        return run.report(CONVERGED, "tolerance", res.nit, res.nit)
    if res.nit >= cfg.max_iter:
        return run.report(MAX_ITERATIONS, "iteration-cap", res.nit, res.nit)
    return run.report(STEP_FAILURE, "sqp-stopped", res.nit, res.nit)
