"""The public API the README documents: ``eqflow.__all__`` and the fields of
``SolverConfig``."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import eqflow

README = Path(__file__).resolve().parents[1] / "README.md"

DOCUMENTED = {
    # Solver, its configuration, report and trace rows, statuses and phases.
    "solve", "SolverConfig", "SolverReport", "IterationRecord",
    "CONVERGED", "MAX_ITERATIONS", "STEP_FAILURE", "SINGLE_FEASIBLE_POINT",
    "WELL_POSED", "ILL_POSED", "baseline_sqp",
    # Constraints and the catalog.
    "ConstraintSystem", "ProblemInstance", "get_problem", "build_constraints",
    "CONVEX_PROBLEMS", "NONCONVEX_PROBLEMS", "quadratic_form", "quadratic_oracle",
    # Lower-level pieces.
    "factor", "project_gradient", "restore_feasibility",
    "make_pair", "apply_inverse",
    "fd_projected_hessian", "build_and_factor", "solve_shifted",
    # Errors.
    "EqflowError", "DimensionError", "RankZero", "InconsistentConstraints",
    "NonFiniteGradient", "NonFiniteObjective", "SingularFactor", "SingularKkt",
    "UnknownProblem",
}


def test_all_is_the_documented_api():
    assert len(eqflow.__all__) == len(set(eqflow.__all__))
    assert set(eqflow.__all__) == DOCUMENTED
    for name in eqflow.__all__:
        assert getattr(eqflow, name) is not None, name


def test_readme_names_every_exported_name():
    readme = README.read_text()
    missing = sorted(
        name for name in DOCUMENTED if not re.search(f"`{name}[`(]", readme)
    )
    assert missing == []


def test_solver_config_has_the_documented_settings():
    # The method's constants live in eqflow/solver.py; only the settings that
    # vary between runs are fields, and the README names each one.
    names = [f.name for f in dataclasses.fields(eqflow.SolverConfig)]
    assert names == ["tol", "max_iter", "reg_shift", "dt0", "use_exact_hessian"]
    readme = README.read_text()
    assert [name for name in names if f"`{name}`" not in readme] == []


def test_import_does_not_load_scipy_optimize():
    # A fresh interpreter: this process loads scipy.optimize once the SQP
    # baseline has run.  The baseline imports it lazily because it would add
    # about 0.26 s to every ``import eqflow``.
    src = str(Path(eqflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = "import eqflow, sys; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
