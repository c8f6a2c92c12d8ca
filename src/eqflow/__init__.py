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
    factor,
    project_gradient,
    restore_feasibility,
)
from .lbfgs import apply_inverse, make_pair
from .hessian import build_and_factor, fd_projected_hessian, solve_shifted
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
    baseline_sqp,
    solve,
)
from .problems import (
    CONVEX_PROBLEMS,
    NONCONVEX_PROBLEMS,
    ProblemInstance,
    build_constraints,
    get_problem,
    quadratic_form,
    quadratic_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "CONVERGED",
    "CONVEX_PROBLEMS",
    "ConstraintSystem",
    "DimensionError",
    "EqflowError",
    "ILL_POSED",
    "InconsistentConstraints",
    "IterationRecord",
    "MAX_ITERATIONS",
    "NONCONVEX_PROBLEMS",
    "NonFiniteGradient",
    "NonFiniteObjective",
    "ProblemInstance",
    "RankZero",
    "SINGLE_FEASIBLE_POINT",
    "STEP_FAILURE",
    "SingularFactor",
    "SingularKkt",
    "SolverConfig",
    "SolverReport",
    "UnknownProblem",
    "WELL_POSED",
    "apply_inverse",
    "baseline_sqp",
    "build_and_factor",
    "build_constraints",
    "factor",
    "fd_projected_hessian",
    "get_problem",
    "make_pair",
    "project_gradient",
    "quadratic_form",
    "quadratic_oracle",
    "restore_feasibility",
    "solve",
    "solve_shifted",
]
