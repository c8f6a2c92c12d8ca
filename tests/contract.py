"""The behaviour contract of solver reports and of the catalog CSV, stated once.

Tier-1 tests check reports with :func:`check_status_rule`, and CI checks the
CSVs of two whole-catalog passes with :func:`main`::

    PYTHONPATH=src python tests/contract.py catalog-1.csv catalog-2.csv

where ``catalog-k.csv`` is the output of ``python -m eqflow --problem all
--baseline --format csv`` on k BLAS threads.  The script checks each file by
:func:`check_catalog`, then the pair by :func:`check_thread_gate`, and exits
non-zero with the first violation it finds.
"""

import csv
import pathlib
import re
import sys

from eqflow import CONVERGED, SINGLE_FEASIBLE_POINT
from eqflow.problems import CONVEX_PROBLEMS, NONCONVEX_PROBLEMS

#: The solver names of the bench's ``--baseline`` rows, one row each per problem.
SOLVERS = ("continuation", "sqp")
#: The bench's default stopping tolerance, which every catalog row is judged by.
TOL = 1e-6
#: Largest ``feas`` a catalog row may report, converged or not.
FEAS_BOUND = 1e-8
#: The five two-dimensional problems and zakharov at n = 10: both methods
#: converge on all of them.
SMALL_PROBLEMS = frozenset(
    {"booth", "matyas", "beale", "three_hump_camel", "six_hump_camel", "zakharov"}
)
#: The problems on which eqflow's (status, stop_reason) may differ between
#: one and two BLAS threads.  rastrigin converges on one thread and stops
#: ``sub-ulp`` on two, at kkt 1.08e-6: whether its phase switch comes on a
#: decrease below 16 ulps of f is decided by rounding.
THREAD_DEPENDENT = frozenset({"rastrigin"})

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


def check_catalog(rows, problems=CONVEX_PROBLEMS + NONCONVEX_PROBLEMS):
    """The rows of one ``--baseline`` CSV pass over ``problems``: one row per
    problem and solver, none raised, each by :func:`check_status_rule` at
    :data:`TOL` and feasible to :data:`FEAS_BOUND`, and every row of
    :data:`SMALL_PROBLEMS` converged."""
    keys = [(row["problem"], row["solver"]) for row in rows]
    expected = {(name, solver) for name in problems for solver in SOLVERS}
    _require(
        len(keys) == len(set(keys)) and set(keys) == expected,
        f"{len(rows)} rows for {len(expected)} runs; "
        f"missing {sorted(expected - set(keys))}, unexpected {sorted(set(keys) - expected)}",
    )
    for row in rows:
        where = f"{row['problem']} ({row['solver']})"
        _require(row["stop_reason"] != "error", f"{where} raised {row['status']}")
        kkt, feas = float(row["kkt"]), float(row["feas"])
        check_status_rule(row["status"], row["stop_reason"], kkt, feas, TOL, where)
        _require(feas <= FEAS_BOUND, f"{where}: feas {row['feas']} above {FEAS_BOUND:g}")
        if row["problem"] in SMALL_PROBLEMS:
            _require(row["status"] == CONVERGED, f"{where}: {row['status']} on a small problem")


def check_thread_gate(rows_1, rows_2):
    """eqflow's (status, stop_reason) is the same in both passes on every
    problem outside :data:`THREAD_DEPENDENT`.  Returns the problems on which
    it differs."""
    outcomes = [
        {row["problem"]: (row["status"], row["stop_reason"])
         for row in rows if row["solver"] == "continuation"}
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


def main(paths):
    """Check the CSVs at ``paths``, one pass on one BLAS thread and one on
    two, and print a line per check."""
    if len(paths) != 2:
        raise SystemExit("usage: contract.py CATALOG_1_THREAD.csv CATALOG_2_THREADS.csv")
    passes = []
    for path in paths:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        check_catalog(rows)
        max_feas = max(float(row["feas"]) for row in rows)
        print(f"{path}: {len(rows)} rows, max feas {max_feas:.2e}")
        passes.append(rows)
    differ = check_thread_gate(*passes)
    print(f"outcomes that depend on the BLAS thread count: {sorted(differ)}")


if __name__ == "__main__":
    main(sys.argv[1:])
