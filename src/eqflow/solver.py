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
  memory-one quasi-Newton matrix applied in closed form (O(n) per iteration),
  divided by the pair's ``scale``: ``gamma = s^T y / y^T y`` where that
  exceeds one, else exactly one (the paper's model).  The step ``s`` is never
  longer than ``d``, so without the scale no ``dt`` reaches the minimizer of
  a model flatter than the identity;
* ill-posed phase — once ``dt`` falls below the threshold (a sign of stiff,
  badly conditioned curvature), ``B`` becomes the shifted two-sided
  projection of the Hessian ``(shift/dt) I + P H P``, held as the
  eigendecomposition of the reduced Hessian ``Q2^T H Q2`` (from the
  problem's ``hess`` if it has one, else finite-differenced along ``Q2``)
  and cached under a rebuild policy driven by step acceptance and ratio
  quality.  A trial whose decrease ``f`` cannot resolve may be scored by
  the gradient instead (see :func:`solve`).

Every direction lies in the null space of the constraint matrix by
construction, so feasibility established once by an initial orthogonal
restoration is conserved, up to roundoff, for the whole run without
correction steps.

Besides the tolerance and the iteration cap, a run ends at a ``dt`` floor
or at one earlier stop (see :func:`solve`).  The report's ``stop_reason``
says which rule ended the run, and its ``status`` follows from the final
point alone (see :class:`SolverReport`).

:func:`baseline_sqp`, the reference method of the benchmark, runs SQP with
a BFGS Hessian through the same set-up, checks and report as :func:`solve`.

On small problems an iteration costs what numpy's call dispatch costs, not
what its arithmetic costs.  So every vector and matrix-vector product that
an iteration makes, here and in :mod:`eqflow.projection`,
:mod:`eqflow.lbfgs` and :mod:`eqflow.hessian`, is the ``ndarray.dot``
method: one BLAS call (``ddot`` or ``dgemv``) with the bits of ``@``, which
reaches the same routine through the ``matmul`` ufunc machinery at about
twice the cost; ``np.dot`` would add an ``__array_function__`` dispatch.
For the same reason a 2-norm is ``sqrt(v.dot(v))``, bit for bit as
``np.linalg.norm`` computes it for a contiguous 1-d float array (a strided
view would be summed in a different order), and a max-norm is
``np.maximum.reduce``, which skips the Python wrapper of ``ndarray.max``.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Any, Optional

import numpy as np

from .errors import DimensionError, NonFiniteGradient, NonFiniteObjective, SingularFactor
from .hessian import build_and_factor, fd_projected_hessian, solve_shifted
from .lbfgs import apply_inverse, make_pair, zero_pair
from .projection import factor, project_gradient, restore_feasibility, tangent_basis

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
_ULP_BAND = 16  # ulps of f within which f - f_trial cannot score a trial

# Trace vectors per product with A: one matrix product reads A once for a
# block, where a matrix-vector product per vector reads it once per vector.
# The two waiting buffers hold up to 2 * _RESIDUAL_BLOCK * n floats (2 MB at
# n = 1000).
_RESIDUAL_BLOCK = 128


@dataclass
class SolverConfig:
    """The settings that vary between runs, with their standard defaults.

    Every float setting must be a finite and positive real number (a Python
    or numpy number, not a bool), and is stored as a Python float; anything
    else raises ``ValueError``.

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
            setattr(self, name, float(value))
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
    property tests.  ``certified`` marks an ill-posed trial scored by the
    gradient rather than by ``f`` (see :func:`solve`).

    ``feas`` (max-norm of ``Ax - b``) and ``step_infeas`` (max-norm of ``As``)
    come from one matrix product with ``A`` per block of 128 steps or of 128
    points, and one more for the steps and points still waiting when the run
    ends, so they equal a product per vector up to roundoff; the last
    point's ``feas`` is the report's, bit for bit.  ``wall_time_ns`` does not
    include them.
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
    certified: bool


# A trace row waits in :class:`_Run` as a tuple of these fields, in this order.
_RECORD_FIELDS = tuple(f.name for f in fields(IterationRecord))
_FEAS = _RECORD_FIELDS.index("feas")


@dataclass
class SolverReport:
    """Result of a solve: terminal point, residuals, counters, trace.

    ``stop_reason`` names the rule that ended the run: ``"iteration-cap"``,
    ``"dt-floor"``, ``"sub-ulp"`` or, from :func:`baseline_sqp`,
    ``"sqp-stopped"``.  ``status`` follows from the final point by one rule:

    * ``SingleFeasiblePoint`` (reason ``"pinned"``) when the constraints pin it;
    * ``Converged`` (reason ``"tolerance"``) exactly when ``kkt <= tol`` and
      ``feas <= tol``, whichever rule ended the run;
    * when only ``kkt`` meets ``tol``, reason ``"feasibility-lost"``, with
      ``MaxIterations`` at the iteration cap and ``StepFailure`` before it;
    * otherwise ``MaxIterations`` for ``"iteration-cap"`` and ``StepFailure``
      for any other reason.

    ``hessian_evals`` counts every curvature evaluation, the probe of a
    stopping iteration included, though that iteration writes no trace row:
    a run that stops at the ``dt`` floor while halving to factor a singular
    shifted matrix counts one more evaluation than its rows with
    ``hessian_rebuilt``.
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
    decrease = -((1.0 + 0.5 * dt) / (1.0 + dt)) * float(g.dot(s))
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
    return float(np.maximum.reduce(np.abs(v)))


_FLOAT = np.dtype(float)


def _checked(value: Any, shape: tuple[int, ...], what: str, where: str) -> np.ndarray:
    """A callback's result as a float array, checked for real values, ``shape``
    and finiteness.  A complex result is rejected, not cast: the cast would
    drop its imaginary part.  A float array takes one dtype test."""
    try:
        result = np.asarray(value)
        if result.dtype is not _FLOAT:
            if result.dtype.kind == "c":
                raise TypeError(f"{result.dtype} values")
            result = result.astype(float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{what} at {where} is not a real array: {exc}") from exc
    if result.shape != shape:
        raise DimensionError(f"{what} at {where} has shape {result.shape}, expected {shape}")
    # A finite sum of squares has only finite terms: none is negative, so
    # none cancels another.  Only a sum that overflowed needs the entrywise
    # test, which costs a ufunc reduction where the sum costs one BLAS dot.
    if not math.isfinite(np.vdot(result, result)) and not np.isfinite(result).all():
        raise NonFiniteGradient(f"{what} at {where} is not finite")
    return result


def _norm(v: np.ndarray) -> float:
    return math.sqrt(float(v.dot(v)))


class _Run:
    """Set-up and bookkeeping shared by :func:`solve` and the baseline.

    Owns the counted callbacks, the constraint factorization, the restored
    and checked start, the trace rows and the final report.  Every callback
    result is checked by :meth:`fval` or by :func:`_checked`, which
    :meth:`gval` and the analytic Hessian call.  ``x``, ``f``,
    ``g`` and ``pg`` hold the current accepted point, and ``kkt`` (max-norm
    of ``pg``) and ``pg_norm`` (its 2-norm) its residuals, computed once when
    the point is set.  ``factor``, ``restore_feasibility`` and
    ``project_gradient`` are looked up in this module's namespace at call
    time, so wrappers patched onto ``eqflow.solver`` see every call.

    Each trace row waits in ``rows`` as a tuple of the
    :class:`IterationRecord` fields, in field order, whose ``feas`` holds the
    index of its point's value and whose ``step_infeas`` is not yet known.
    The trace's products with ``A`` steer nothing, so they wait in blocks:
    ``steps`` holds the trial steps and ``points`` the left points that rows
    refer to, and each turns into max-norm residuals, ``step_infeas`` and
    ``feas``, with one matrix product once it holds ``_RESIDUAL_BLOCK``
    vectors: the buffer is stacked row-major, one vector per row, and
    multiplied by ``A`` transposed, so each vector is read contiguously.  The
    two buffers hold at most ``2 * _RESIDUAL_BLOCK * n`` floats.
    :meth:`report` stacks what still waits in both buffers, steps first, for
    one last product, computes the current point's ``feas`` on its own and
    builds the trace records.
    """

    def __init__(self, problem: Any, cfg: SolverConfig) -> None:
        self.t_start = time.perf_counter()
        self.problem = problem
        self.cfg = cfg
        self.cs = problem.cs
        self.objective_evals = self.gradient_evals = self.hessian_evals = 0
        self.rows: list[tuple[Any, ...]] = []
        self.steps: list[np.ndarray] = []
        self.points: list[np.ndarray] = []
        self.step_infeas: list[float] = []
        self.point_feas: list[float] = []
        self.x_has_rows = False
        self.basis = factor(self.cs)
        self.restore_to(np.asarray(problem.x0, dtype=float), "the initial point")

    @property
    def pinned(self) -> bool:
        """The constraints determine the point completely."""
        return self.basis.rank == self.cs.n

    def fval(self, x: np.ndarray) -> float:
        """``f`` at ``x``, counted; returned even if not finite, raised if not a real scalar."""
        self.objective_evals += 1
        value = self.problem.f(x)
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            shape = np.shape(value)
        if shape:
            raise DimensionError(f"objective has shape {shape}, expected ()")
        raise DimensionError(f"objective is {type(value).__name__}, expected a real scalar")

    def gval(self, x: np.ndarray, where: str) -> np.ndarray:
        """The gradient at ``x``, counted and checked; ``where`` names ``x``."""
        self.gradient_evals += 1
        return _checked(self.problem.grad(x), x.shape, "gradient", where)

    def restore_to(self, x: np.ndarray, where: str) -> None:
        """Restore ``x`` onto ``Ax = b``, check ``f`` there and make it the current point."""
        x = restore_feasibility(self.basis, x)
        f = self.fval(x)
        if not math.isfinite(f):
            raise NonFiniteObjective(f"objective at {where} is not finite")
        self.move_to(x, f, where)

    def move_to(
        self, x: np.ndarray, f: float, where: str = "an accepted point",
        g: Optional[np.ndarray] = None,
    ) -> None:
        """Make ``x``, with objective ``f``, the current point; evaluates its
        gradient, unless the checked ``g`` is given, and its residuals."""
        if g is None:
            g = self.gval(x, where)
        pg = project_gradient(self.basis, g)
        if self.x_has_rows:
            self.points.append(self.x)
            self.x_has_rows = False
        self.x, self.f, self.g, self.pg = x, f, g, pg
        self.kkt = _max_abs(pg)
        self.pg_norm = _norm(pg)

    def record(
        self, k: int, t_iter: int, s: np.ndarray, dt: float, rho: float, accepted: bool,
        phase: str, hessian_rebuilt: bool, decrease: float, step_norm: float,
        pg_norm: float, certified: bool,
    ) -> None:
        """Add the trace row of iteration ``k``, which took step ``s``; the
        other arguments are the trial's own :class:`IterationRecord` fields."""
        self.rows.append((
            k, self.f, self.kkt, len(self.point_feas) + len(self.points), dt, rho, accepted,
            phase, hessian_rebuilt, time.perf_counter_ns() - t_iter, decrease, step_norm,
            pg_norm, None, certified,
        ))
        self.steps.append(s)
        self.x_has_rows = True
        if len(self.steps) >= _RESIDUAL_BLOCK:
            self.flush(self.steps, [])
            self.steps = []
        if len(self.points) >= _RESIDUAL_BLOCK:
            self.flush([], self.points)
            self.points = []

    def flush(self, steps: list[np.ndarray], points: list[np.ndarray]) -> None:
        """Append the max-norm residuals of ``steps`` to ``step_infeas`` and
        those of ``points`` to ``point_feas``, from one matrix product."""
        split = len(steps)
        residuals = np.array(steps + points) @ self.cs.a.T
        residuals[split:] -= self.cs.b
        infeas = np.abs(residuals).max(axis=1).tolist()
        self.step_infeas += infeas[:split]
        self.point_feas += infeas[split:]

    def report(self, stop_reason: str, iterations: int, accepted_steps: int) -> SolverReport:
        """The report of a run that the rule ``stop_reason`` ended at the
        current point; its status follows from that point (see
        :class:`SolverReport`)."""
        feas = _max_abs(self.cs.a.dot(self.x) - self.cs.b)
        if self.steps or self.points:
            self.flush(self.steps, self.points)
        point_feas = self.point_feas + [feas]
        trace = []
        for row, step_infeas in zip(self.rows, self.step_infeas):
            # Filled as copy and pickle fill a frozen instance: one update of
            # its __dict__, not a frozen __setattr__ per field.
            rec = object.__new__(IterationRecord)
            rec.__dict__.update(
                zip(_RECORD_FIELDS, row), feas=point_feas[row[_FEAS]], step_infeas=step_infeas
            )
            trace.append(rec)
        if self.pinned:
            status = SINGLE_FEASIBLE_POINT
        elif self.kkt <= self.cfg.tol and feas <= self.cfg.tol:
            status, stop_reason = CONVERGED, "tolerance"
        elif self.kkt <= self.cfg.tol:
            # Steps conserve Ax = b only up to roundoff, so with a tight tol
            # the point can drift off it.
            status = MAX_ITERATIONS if iterations >= self.cfg.max_iter else STEP_FAILURE
            stop_reason = "feasibility-lost"
        else:
            status = MAX_ITERATIONS if stop_reason == "iteration-cap" else STEP_FAILURE
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
    it is not ``None``, the ill-posed phase reduces its n-by-n matrix to
    ``Q2^T H Q2`` instead of probing the curvature by finite differences of
    ``grad``.

    The iteration follows the scheme in the module docstring; per iteration:
    the phase is switched (permanently) if ``dt`` has fallen below the
    threshold; a direction is computed — from the memory-one pair in the
    well-posed phase, or from the cached or rebuilt curvature in the
    ill-posed phase; the trial point is scored by :func:`trial_ratio`;
    acceptance requires both the ratio and the model-decrease floors; ``dt``
    is updated by :func:`update_timestep`.

    An ill-posed trial is *certified* when the run is trusted, the predicted
    decrease is positive, ``0 <= f - f_trial <= 16 ulp(f)`` and
    ``x_trial != x``: its ratio is then the trapezoid estimate of its
    decrease on the realized move, ``-(g + g_trial)^T (x_trial - x) / 2``,
    over the predicted one, and an accepted one hands ``g_trial`` on as its
    point's gradient.  The run is trusted when the last accepted step scored
    by ``f`` decreased ``f`` by more than 16 ulps, with a trapezoid estimate
    on its realized move within 0.25 of that decrease (Hager & Zhang, SIAM
    J. Optim. 16, 2005), which is evaluated only when a certification is
    considered.

    Besides the tolerance and the iteration cap, the run stops when ``dt``
    falls below its floor (``"dt-floor"``), or when ``dt`` falls below the
    switch threshold in the well-posed phase and the last trial's predicted
    decrease was positive but below 16 ulps of ``f`` (``"sub-ulp"``).  A
    non-positive predicted decrease, or a ``dt0`` below the threshold, still
    switches.  The ``"sub-ulp"`` stop calls no ``f`` or curvature probe,
    writes no trace row and does not count the stopping iteration in
    ``iterations``.  A trial point that rounds to the current point is
    rejected like any other, and ``dt`` halves towards its floor.

    A shifted matrix that :func:`build_and_factor` finds singular halves
    ``dt`` until it is not, without probing again.  If ``dt`` falls below
    its floor first, the run stops (``"dt-floor"``) without counting the
    stopping iteration or writing its row.

    Each cache is dropped by the event that makes it stale: an accepted step
    whose ratio left the inner band drops the curvature and its shifted
    eigenvalues; a rejected step drops only the shifted eigenvalues.  The
    ill-posed phase probes or shifts whatever is missing.

    Raises
    ------
    NonFiniteObjective
        If the objective at the (restored) initial point is non-finite.
    NonFiniteGradient
        If the gradient at the initial point, at an accepted point or at a
        certified trial, or a curvature probe (differenced or analytic), is
        non-finite.  Probes are not retried: their points do not depend on
        ``dt``.
    DimensionError
        If ``f`` returns anything but a real scalar, ``grad`` anything but a
        real array of shape ``(n,)``, or ``hess`` anything but a real array
        of shape ``(n, n)``.
    """
    cfg = config if config is not None else SolverConfig()
    run = _Run(problem, cfg)
    if run.pinned:
        return run.report("pinned", 0, 0)
    basis = run.basis
    hess_cb = getattr(problem, "hess", None)

    def eval_curvature() -> tuple[np.ndarray, np.ndarray]:
        """``(Q2 V, lam)`` of the reduced Hessian ``V diag(lam) V^T`` at x."""
        run.hessian_evals += 1
        q2 = tangent_basis(basis)
        if hess_cb is not None:
            n = run.cs.n
            raw = _checked(hess_cb(run.x), (n, n), "Hessian callback", "the current point")
            reduced = q2.T @ raw @ q2
        else:
            reduced = fd_projected_hessian(
                lambda p: run.gval(p, "a curvature probe"), q2, run.x, run.g
            )
        lam, v = np.linalg.eigh(reduced)
        return q2 @ v, lam

    # The last accepted step scored by f: (x, f, g) before and after it.
    scored: Optional[tuple[np.ndarray, float, np.ndarray, np.ndarray, float, np.ndarray]] = None

    def trusted() -> bool:
        if scored is None:
            return False
        x_old, f_old, g_old, x_new, f_new, g_new = scored
        actual = f_old - f_new
        if not actual > _ULP_BAND * math.ulp(f_old):
            return False
        estimate = -0.5 * float((g_old + g_new).dot(x_new - x_old))
        return abs(estimate - actual) <= _RATIO_BAND_INNER * actual

    k, dt, phase = 0, cfg.dt0, WELL_POSED
    pair = zero_pair(run.cs.n)
    curvature = shifted = None
    decrease = 0.0  # the last trial's predicted decrease
    accepted_steps = 0

    while True:
        if run.kkt <= cfg.tol or k >= cfg.max_iter:
            # At a point that meets tol the report gives its own reason.
            return run.report("iteration-cap", k, accepted_steps)
        k += 1
        t_iter = time.perf_counter_ns()

        if dt < _PHASE_SWITCH_DT and phase == WELL_POSED:
            if 0.0 < decrease < _ULP_BAND * math.ulp(run.f):
                # dt shrank because the decreases sank into the rounding of
                # f, so the ratios that shrank it measured roundoff, not stiff
                # curvature: curvature would only refine the noise.
                return run.report("sub-ulp", k - 1, accepted_steps)
            phase = ILL_POSED  # one-way: never reset

        hessian_rebuilt = False
        if phase == WELL_POSED:
            d = -pair.scale * apply_inverse(pair, run.pg)
        else:
            hessian_rebuilt = curvature is None
            if hessian_rebuilt:
                curvature = eval_curvature()
            while shifted is None:
                try:
                    shifted = build_and_factor(curvature, cfg.reg_shift, dt)
                except SingularFactor:
                    dt = _DT_SHRINK * dt
                    if dt < _DT_MIN:
                        return run.report("dt-floor", k - 1, accepted_steps)
            d = solve_shifted(shifted, -run.pg)

        s = (dt / (1.0 + dt)) * d
        x_trial = run.x + s
        f_trial = run.fval(x_trial)
        rho, decrease = trial_ratio(run.f, f_trial, run.g, s, dt)
        g_trial = None
        if (
            phase == ILL_POSED
            and decrease > 0.0
            and 0.0 <= run.f - f_trial <= _ULP_BAND * math.ulp(run.f)
            and not np.array_equal(x_trial, run.x)
            and trusted()
        ):
            # f cannot resolve this decrease, and the gradient can.
            g_trial = run.gval(x_trial, "a certified trial")
            rho = -0.5 * float((run.g + g_trial).dot(x_trial - run.x)) / decrease
        step_norm = _norm(s)
        pg_norm = run.pg_norm
        accepted = bool(
            rho >= _ACCEPT_RATIO_MIN
            and decrease >= _ACCEPT_DECREASE_MIN * step_norm * pg_norm
        )

        if accepted:
            x_old, f_old, g_old, pg_old = run.x, run.f, run.g, run.pg
            run.move_to(x_trial, f_trial, g=g_trial)
            if g_trial is None:
                scored = (x_old, f_old, g_old, x_trial, f_trial, run.g)
            if phase == WELL_POSED:
                pair = make_pair(s, run.pg - pg_old)
            accepted_steps += 1
            if abs(1.0 - rho) > _RATIO_BAND_INNER:
                curvature = shifted = None
        else:
            shifted = None

        run.record(
            k, t_iter, s, dt, rho, accepted, phase, hessian_rebuilt, decrease,
            step_norm, pg_norm, g_trial is not None,
        )
        dt = update_timestep(dt, rho)
        if dt < _DT_MIN:
            return run.report("dt-floor", k, accepted_steps)


def baseline_sqp(problem: Any, config: Optional[SolverConfig] = None) -> SolverReport:
    """Reference method: SQP with a BFGS Hessian, through the set-up, checks
    and report of :func:`solve`.

    With linear constraints and a feasible start, that is BFGS on the
    null-space coordinates of ``x = x0 + Q2 z`` (Nocedal & Wright, ch. 18):
    scipy's ``minimize(method="BFGS")`` from ``z = 0``, whose point is then
    restored onto ``Ax = b`` once more.  Every iteration is an accepted step;
    the trace is empty.  The stop reason is ``"iteration-cap"`` when BFGS
    ran ``max_iter`` iterations, else ``"sqp-stopped"``, and the status
    follows from the returned point by the rule of :class:`SolverReport`.
    Gradients that are not real, misshapen or non-finite anywhere, an
    objective that is not a real scalar, and a non-finite objective at the
    start or the end, raise.
    """
    # Imported here: scipy.optimize would add about 0.26 s to ``import eqflow``.
    from scipy.optimize import minimize

    cfg = config if config is not None else SolverConfig()
    run = _Run(problem, cfg)
    if run.pinned:
        return run.report("pinned", 0, 0)
    # Any orthonormal tangent basis will do: BFGS from the identity takes
    # the same steps in each.
    x0, q2 = run.x, tangent_basis(run.basis)
    res = minimize(
        lambda z: run.fval(x0 + q2.dot(z)), np.zeros(q2.shape[1]), method="BFGS",
        jac=lambda z: q2.T.dot(run.gval(x0 + q2.dot(z), "an SQP point")),
        options={"gtol": cfg.tol, "maxiter": cfg.max_iter},
    )
    run.restore_to(x0 + q2.dot(res.x), "the SQP point")
    return run.report("iteration-cap" if res.nit >= cfg.max_iter else "sqp-stopped", res.nit, res.nit)
