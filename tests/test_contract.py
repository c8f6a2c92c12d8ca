"""The catalog checker of tests/contract.py: it passes the bench's own rows
and fails each kind of broken row."""

import csv

import pytest

import contract
from eqflow import CONVEX_PROBLEMS, NONCONVEX_PROBLEMS, get_problem
from eqflow.bench import main

_TWO_DIM = tuple(
    name for name in CONVEX_PROBLEMS + NONCONVEX_PROBLEMS if get_problem(name).n == 2
)


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    """The ``--baseline`` CSV of the two-dimensional catalog problems."""
    path = tmp_path_factory.mktemp("catalog") / "two-dim.csv"
    argv = ["--problem", ",".join(_TWO_DIM), "--baseline", "--format", "csv", "--out", str(path)]
    assert main(argv) == 0
    return path


@pytest.fixture
def rows(bench_csv):
    with open(bench_csv, newline="") as fh:
        return list(csv.DictReader(fh))


def _row(rows, problem, solver):
    (row,) = [r for r in rows if (r["problem"], r["solver"]) == (problem, solver)]
    return row


def _relabel_converged(rows):
    _row(rows, "booth", "continuation").update(status="StepFailure", stop_reason="dt-floor")


def _undocumented_pair(rows):
    _row(rows, "matyas", "sqp").update(stop_reason="dt-floor")


def _converged_above_tol(rows):
    _row(rows, "beale", "continuation").update(kkt="2e-06")


def _feasibility_lost_below_tol(rows):
    _row(rows, "beale", "sqp").update(
        status="StepFailure", stop_reason="feasibility-lost", kkt="2e-06"
    )


def _infeasible(rows):
    _row(rows, "six_hump_camel", "continuation").update(feas="1e-07")


def _missing_row(rows):
    rows.remove(_row(rows, "three_hump_camel", "sqp"))


def _duplicate_row(rows):
    rows.append(dict(_row(rows, "booth", "sqp")))


def _raised(rows):
    _row(rows, "matyas", "continuation").update(
        status="NonFiniteGradient", stop_reason="error", kkt="nan", feas="nan"
    )


def _small_problem_short_of_tol(rows):
    _row(rows, "booth", "sqp").update(
        status="MaxIterations", stop_reason="iteration-cap", kkt="0.001"
    )


def test_bench_rows_meet_the_contract(rows):
    assert len(rows) == 2 * len(_TWO_DIM) == 10
    contract.check_catalog(rows, _TWO_DIM)


@pytest.mark.parametrize("mutate, message", [
    (_relabel_converged, r"\('StepFailure', 'dt-floor'\) at kkt"),
    (_undocumented_pair, r"undocumented \('Converged', 'dt-floor'\)"),
    (_converged_above_tol, r"\('Converged', 'tolerance'\) at kkt 2\.000e-06"),
    (_feasibility_lost_below_tol, r"\('StepFailure', 'feasibility-lost'\) at kkt"),
    (_infeasible, r"six_hump_camel \(continuation\): feas 1e-07 above 1e-08"),
    (_missing_row, r"missing \[\('three_hump_camel', 'sqp'\)\]"),
    (_duplicate_row, r"11 rows for 10 runs"),
    (_raised, r"matyas \(continuation\) raised NonFiniteGradient"),
    (_small_problem_short_of_tol, r"booth \(sqp\): MaxIterations on a small problem"),
])
def test_each_broken_row_fails(rows, mutate, message):
    mutate(rows)
    with pytest.raises(AssertionError, match=message):
        contract.check_catalog(rows, _TWO_DIM)


def test_thread_gate_allows_only_the_named_problems(rows):
    again = [dict(row) for row in rows]
    assert contract.check_thread_gate(rows, again) == set()
    # The same difference passes on a problem the gate names.
    for row in rows + again:
        if row["problem"] == "beale":
            row["problem"] = "rastrigin"
    _row(again, "rastrigin", "continuation").update(status="StepFailure", stop_reason="sub-ulp")
    assert contract.check_thread_gate(rows, again) == {"rastrigin"}
    _row(again, "matyas", "continuation").update(status="StepFailure", stop_reason="sub-ulp")
    with pytest.raises(AssertionError, match=r"thread count: \['matyas'\]"):
        contract.check_thread_gate(rows, again)


def test_script_checks_the_whole_catalog(bench_csv):
    with pytest.raises(AssertionError, match=r"10 rows for 40 runs"):
        contract.main([str(bench_csv), str(bench_csv)])
    with pytest.raises(SystemExit, match="usage"):
        contract.main([str(bench_csv)])
