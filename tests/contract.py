"""The behaviour contract of solver reports and of the bench's catalog rows, stated once.

Tier-1 tests check reports with :func:`check_status_rule` and their traces
with :func:`check_trace`, and CI checks two whole-catalog passes with
:func:`main`::

    PYTHONPATH=src python tests/contract.py catalog-1.json catalog-2.json

where ``catalog-k.json`` is the output of ``python -m eqflow --problem all
--baseline --format json --trace`` on k BLAS threads.  The script checks
each file by :func:`check_file`: its rows by :func:`check_catalog` and each
row's trace by :func:`check_trace`.  It then checks the pair by
:func:`check_thread_gate`, and exits non-zero with the first violation it
finds.
"""

import json
import math
import pathlib
import re
import sys
import types

from eqflow import CONVERGED, ILL_POSED, SINGLE_FEASIBLE_POINT
from eqflow.problems import CONVEX_PROBLEMS, NONCONVEX_PROBLEMS

#: The solver names of the bench's ``--baseline`` rows, one row each per problem.
SOLVERS = ("continuation", "sqp")
#: The bench's default stopping tolerance, which every catalog row is judged by.
TOL = 1e-6
#: Largest ``feas`` a catalog row may report, converged or not.
FEAS_BOUND = 1e-8
#: Largest ``step_infeas`` (max-norm of ``A s``) of a trace row, relative to
#: ``max(1, step_norm)``.
STEP_INFEAS_BOUND = 1e-8
#: The five two-dimensional problems and zakharov at n = 10: both methods
#: converge on all of them.
SMALL_PROBLEMS = frozenset(
    {"booth", "matyas", "beale", "three_hump_camel", "six_hump_camel", "zakharov"}
)
#: The problems on which eqflow's (status, stop_reason) may differ between
#: one and two BLAS threads.  quartic_noise stops ``sub-ulp`` on one thread,
#: at kkt 1.18e-6, and converges on two; rastrigin converges on one and stops
#: ``sub-ulp`` on two, at kkt 1.08e-6.  Whether a phase switch comes on a
#: decrease below 16 ulps of f is decided by rounding.
THREAD_DEPENDENT = frozenset({"quartic_noise", "rastrigin"})

_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
_TABLE_HEADER = "| `stop_reason` | status | the run stopped because |"


def _require(condition, message):
    """Raise ``AssertionError(message)`` unless ``condition``; unlike
    ``assert`` it also checks under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def documented_outcomes():
    """The (status, stop_reason) pairs of the stop-reason table in README.md."""
    lines = _README.read_text().splitlines()
    start = lines.index(_TABLE_HEADER) + 2
    pairs = set()
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        reason, statuses = line.split("|")[1:3]
        pairs.update((status, reason.strip(" `")) for status in re.findall(r"`(\w+)`", statuses))
    return pairs


def check_status_rule(status, stop_reason, kkt, feas, tol, where="run"):
    """A run's status follows from its final point by the rule README.md
    states, and its (status, stop_reason) pair is a row of README's table:
    outside pinned points, ``Converged`` exactly when ``kkt`` and ``feas``
    both meet ``tol``, and ``feasibility-lost`` exactly when only ``kkt``
    does."""
    outcome = (status, stop_reason)
    _require(outcome in documented_outcomes(), f"{where}: undocumented {outcome}")
    if status == SINGLE_FEASIBLE_POINT:
        return
    at = f"{where}: {outcome} at kkt {kkt:.3e}, feas {feas:.3e}, tol {tol:g}"
    _require((status == CONVERGED) == (kkt <= tol and feas <= tol), at)
    _require((stop_reason == "feasibility-lost") == (kkt <= tol < feas), at)


def check_trace(report, where="run"):
    """The invariants of a report's trace rows:

    * f decreases over the accepted rows: a row scored by f lies strictly
      below the previous accepted f, and a certified row, whose decrease f
      cannot resolve, lies at or below it with a positive certified decrease
      ``rho * decrease``;
    * every step stays in null(A): ``step_infeas <= STEP_INFEAS_BOUND *
      max(1, step_norm)``;
    * every ill-posed row predicts a decrease, ``decrease > 0``: its shifted
      curvature is positive definite on null(A);
    * the last row's ``feas`` is the report's, bit for bit."""
    previous = None
    for rec in report.trace:
        at = f"{where} at k={rec.k}"
        bound = STEP_INFEAS_BOUND * max(1.0, rec.step_norm)
        _require(
            rec.step_infeas <= bound, f"{at}: step_infeas {rec.step_infeas:.3e} above {bound:.3e}"
        )
        _require(
            rec.phase != ILL_POSED or rec.decrease > 0.0,
            f"{at}: ill-posed predicted decrease {rec.decrease!r} is not positive",
        )
        if not rec.accepted:
            continue
        if previous is not None and rec.certified:
            _require(
                rec.f <= previous and rec.rho * rec.decrease > 0.0,
                f"{at}: certified f {rec.f!r} after {previous!r}, rho * decrease "
                f"{rec.rho * rec.decrease!r}",
            )
        elif previous is not None:
            _require(rec.f < previous, f"{at}: f {rec.f!r} not below {previous!r}")
        previous = rec.f
    if report.trace:
        last = report.trace[-1].feas
        _require(
            last == report.feas,
            f"{where}: last row's feas {last!r} is not the report's {report.feas!r}",
        )


def read_rows(path):
    """The rows of a ``--format json`` bench file, each as an object with the
    row's fields and, with ``--trace``, a ``trace`` list of objects with the
    record's fields, as :func:`check_trace` reads a report; JSON ``null``,
    which the bench writes for a non-finite float, is read back as NaN."""
    def namespace(fields):
        return types.SimpleNamespace(
            **{key: math.nan if value is None else value for key, value in fields.items()}
        )

    with open(path) as fh:
        return json.load(fh, object_hook=namespace)


def check_catalog(rows, problems=CONVEX_PROBLEMS + NONCONVEX_PROBLEMS):
    """The rows of one ``--baseline`` pass over ``problems``, as
    :func:`read_rows` reads them: one row per problem and solver, none
    raised, each by :func:`check_status_rule` at :data:`TOL` and feasible to
    :data:`FEAS_BOUND`, and every row of :data:`SMALL_PROBLEMS` converged."""
    keys = [(row.problem, row.solver) for row in rows]
    expected = {(name, solver) for name in problems for solver in SOLVERS}
    _require(
        len(keys) == len(set(keys)) and set(keys) == expected,
        f"{len(rows)} rows for {len(expected)} runs; "
        f"missing {sorted(expected - set(keys))}, unexpected {sorted(set(keys) - expected)}",
    )
    for row in rows:
        where = f"{row.problem} ({row.solver})"
        _require(row.stop_reason != "error", f"{where} raised {row.status}")
        check_status_rule(row.status, row.stop_reason, row.kkt, row.feas, TOL, where)
        _require(row.feas <= FEAS_BOUND, f"{where}: feas {row.feas} above {FEAS_BOUND:g}")
        if row.problem in SMALL_PROBLEMS:
            _require(row.status == CONVERGED, f"{where}: {row.status} on a small problem")


def check_thread_gate(rows_1, rows_2):
    """eqflow's (status, stop_reason) is the same in both passes on every
    problem outside :data:`THREAD_DEPENDENT`.  Returns the problems on which
    it differs."""
    outcomes = [
        {row.problem: (row.status, row.stop_reason)
         for row in rows if row.solver == "continuation"}
        for rows in (rows_1, rows_2)
    ]
    differ = {
        name for name in outcomes[0].keys() | outcomes[1].keys()
        if outcomes[0].get(name) != outcomes[1].get(name)
    }
    _require(
        differ <= THREAD_DEPENDENT,
        f"outcome depends on the BLAS thread count: {sorted(differ - THREAD_DEPENDENT)}",
    )
    return differ


def check_file(path, problems=CONVEX_PROBLEMS + NONCONVEX_PROBLEMS):
    """The ``--baseline --format json --trace`` bench file at ``path``: its
    rows by :func:`check_catalog` over ``problems``, then each row's trace by
    :func:`check_trace` (an SQP row's trace is empty).  Prints a line and
    returns the rows."""
    rows = read_rows(path)
    _require(rows, f"{path}: no rows")
    check_catalog(rows, problems)
    for row in rows:
        where = f"{path}: {row.problem} ({row.solver})"
        _require(hasattr(row, "trace"), f"{where}: no trace; run the bench with --trace")
        check_trace(row, where)
    records = sum(len(row.trace) for row in rows)
    max_feas = max(row.feas for row in rows)
    print(f"{path}: {len(rows)} rows, {records} trace rows, max feas {max_feas:.2e}")
    return rows


def main(paths):
    """Check the bench files at ``paths``, one pass on one BLAS thread and
    one on two, and print a line per check."""
    if len(paths) != 2:
        raise SystemExit("usage: contract.py CATALOG_1_THREAD.json CATALOG_2_THREADS.json")
    differ = check_thread_gate(*(check_file(path) for path in paths))
    print(f"outcomes that depend on the BLAS thread count: {sorted(differ)}")


if __name__ == "__main__":
    main(sys.argv[1:])
