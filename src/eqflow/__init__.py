"""eqflow: continuation solver for smooth minimization under linear equality
constraints, with a benchmark suite and CLI.

Quick start::

    from eqflow import get_problem, solve

    report = solve(get_problem("booth"))
    print(report.status, report.f_star)
"""

from .errors import (
    DimensionError,
    EqflowError,
    InconsistentConstraints,
    NonFiniteGradient,
    NonFiniteObjective,
    RankZero,
    SingularFactor,
    SingularKkt,
    UnknownProblem,
)
from .projection import (
    ConstraintSystem,
    ProjectorBasis,
    Residuals,
    factor,
    project_gradient,
    residuals,
    restore_feasibility,
)
from .lbfgs import LbfgsPair, apply_forward, apply_inverse, make_pair, zero_pair
from .hessian import (
    ProjectedHessian,
    RegularizedFactor,
    build_and_factor,
    fd_projected_hessian,
    solve_shifted,
)
from .solver import (
    CONVERGED,
    ILL_POSED,
    MAX_ITERATIONS,
    SINGLE_FEASIBLE_POINT,
    STEP_FAILURE,
    WELL_POSED,
    IterationRecord,
    SolverConfig,
    SolverReport,
    SolverState,
    solve,
    trial_ratio,
    update_timestep,
)
from .problems import (
    CONVEX_PROBLEMS,
    NONCONVEX_PROBLEMS,
    ProblemInstance,
    build_constraints,
    catalog,
    get_problem,
    quadratic_form,
    quadratic_oracle,
)
from .bench import BenchRow, RunSpec, baseline_projected_gradient, run

__version__ = "0.1.0"

__all__ = [
    "BenchRow",
    "CONVERGED",
    "CONVEX_PROBLEMS",
    "ConstraintSystem",
    "DimensionError",
    "EqflowError",
    "ILL_POSED",
    "InconsistentConstraints",
    "IterationRecord",
    "LbfgsPair",
    "MAX_ITERATIONS",
    "NONCONVEX_PROBLEMS",
    "NonFiniteGradient",
    "NonFiniteObjective",
    "ProblemInstance",
    "ProjectedHessian",
    "ProjectorBasis",
    "RankZero",
    "RegularizedFactor",
    "Residuals",
    "RunSpec",
    "SINGLE_FEASIBLE_POINT",
    "STEP_FAILURE",
    "SingularFactor",
    "SingularKkt",
    "SolverConfig",
    "SolverReport",
    "SolverState",
    "UnknownProblem",
    "WELL_POSED",
    "apply_forward",
    "apply_inverse",
    "baseline_projected_gradient",
    "build_and_factor",
    "build_constraints",
    "catalog",
    "factor",
    "fd_projected_hessian",
    "get_problem",
    "make_pair",
    "project_gradient",
    "quadratic_form",
    "quadratic_oracle",
    "residuals",
    "restore_feasibility",
    "run",
    "solve",
    "solve_shifted",
    "trial_ratio",
    "update_timestep",
    "zero_pair",
]
