"""The checkers of tests/contract.py: they pass the bench's own rows and
traces, a solver's own trace and the committed catalog, and fail each kind
of broken row or trace."""

import ast
import dataclasses
import json
import math
import pathlib
import types

import numpy as np
import pytest

import contract
import eqflow.solver
from eqflow import CONVEX_PROBLEMS, NONCONVEX_PROBLEMS, get_problem, solve
from eqflow.bench import main

_TWO_DIM = tuple(
    name for name in CONVEX_PROBLEMS + NONCONVEX_PROBLEMS if get_problem(name).n == 2
)
_BENCH_SQP = pathlib.Path(__file__).resolve().parents[1] / "BENCH_sqp.json"


@pytest.fixture(scope="module")
def bench_json(tmp_path_factory):
    """The ``--baseline --format json --trace`` file of the two-dimensional
    catalog problems."""
    path = tmp_path_factory.mktemp("catalog") / "two-dim.json"
    argv = ["--problem", ",".join(_TWO_DIM), "--baseline", "--format", "json", "--trace",
            "--out", str(path)]
    assert main(argv) == 0
    return path


@pytest.fixture
def rows(bench_json):
    return contract.read_rows(bench_json)


def _row(rows, problem, solver):
    """The fields of the row of ``problem`` and ``solver``, to read or update."""
    (row,) = [r for r in rows if (r.problem, r.solver) == (problem, solver)]
    return vars(row)


def _relabel_converged(rows):
    _row(rows, "booth", "continuation").update(status="StepFailure", stop_reason="dt-floor")


def _undocumented_pair(rows):
    _row(rows, "matyas", "sqp").update(stop_reason="dt-floor")


def _converged_above_tol(rows):
    _row(rows, "beale", "continuation").update(kkt=2e-06)


def _feasibility_lost_below_tol(rows):
    _row(rows, "beale", "sqp").update(
        status="StepFailure", stop_reason="feasibility-lost", kkt=2e-06
    )


def _infeasible(rows):
    _row(rows, "six_hump_camel", "continuation").update(feas=1e-07)


def _missing_row(rows):
    rows[:] = [r for r in rows if (r.problem, r.solver) != ("three_hump_camel", "sqp")]


def _duplicate_row(rows):
    rows.append(types.SimpleNamespace(**_row(rows, "booth", "sqp")))


def _raised(rows):
    _row(rows, "matyas", "continuation").update(
        status="NonFiniteGradient", stop_reason="error", kkt=math.nan, feas=math.nan
    )


def _small_problem_short_of_tol(rows):
    _row(rows, "booth", "sqp").update(
        status="MaxIterations", stop_reason="iteration-cap", kkt=1e-3
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
    again = [types.SimpleNamespace(**vars(row)) for row in rows]
    assert contract.check_thread_gate(rows, again) == set()
    # The same difference passes on a problem the gate names.
    for row in rows + again:
        if row.problem == "beale":
            row.problem = "rastrigin"
    _row(again, "rastrigin", "continuation").update(status="StepFailure", stop_reason="sub-ulp")
    assert contract.check_thread_gate(rows, again) == {"rastrigin"}
    _row(again, "matyas", "continuation").update(status="StepFailure", stop_reason="sub-ulp")
    with pytest.raises(AssertionError, match=r"thread count: \['matyas'\]"):
        contract.check_thread_gate(rows, again)


def test_script_checks_the_whole_catalog(bench_json):
    with pytest.raises(AssertionError, match=r"10 rows for 40 runs"):
        contract.main([str(bench_json), str(bench_json)])
    with pytest.raises(SystemExit, match="usage"):
        contract.main([str(bench_json)])


def test_committed_catalog_meets_the_contract():
    contract.check_catalog(contract.read_rows(_BENCH_SQP))


@pytest.fixture(scope="module")
def booth_report():
    """A well-posed run with more than one accepted row, so monotone f is
    checked between rows."""
    report = solve(get_problem("booth"))
    assert sum(rec.accepted for rec in report.trace) > 1
    return report


def _with_row(report, k, **values):
    """``report`` with the fields ``values`` of its row ``k`` replaced."""
    trace = [dataclasses.replace(rec, **values) if rec.k == k else rec for rec in report.trace]
    return dataclasses.replace(report, trace=trace)


def _first_two_accepted(report):
    """The rows of the first two accepted steps."""
    return [rec for rec in report.trace if rec.accepted][:2]


def test_trace_meets_the_contract(booth_report):
    contract.check_trace(booth_report, "booth")
    # A certified row may hold f, given a positive certified decrease.
    first, second = _first_two_accepted(booth_report)
    held = _with_row(booth_report, second.k, f=first.f, certified=True)
    assert second.rho * second.decrease > 0.0
    contract.check_trace(held, "booth")


def _f_rises(report):
    first, second = _first_two_accepted(report)
    return _with_row(report, second.k, f=first.f + 1.0)


def _unscored_f_holds(report):
    first, second = _first_two_accepted(report)
    return _with_row(report, second.k, f=first.f)


def _certified_f_rises(report):
    first, second = _first_two_accepted(report)
    return _with_row(report, second.k, f=first.f + 1.0, certified=True)


def _certified_without_decrease(report):
    first, second = _first_two_accepted(report)
    return _with_row(report, second.k, f=first.f, certified=True, rho=-second.rho)


def _step_leaves_null_space(report):
    rec = report.trace[len(report.trace) // 2]
    return _with_row(report, rec.k, step_infeas=2e-8 * max(1.0, rec.step_norm))


def _last_feas_differs(report):
    last = report.trace[-1]
    return _with_row(report, last.k, feas=float(np.nextafter(report.feas, 1.0)))


@pytest.mark.parametrize("mutate, message", [
    (_f_rises, r"booth at k=\d+: f .* not below"),
    (_unscored_f_holds, r"booth at k=\d+: f .* not below"),
    (_certified_f_rises, r"booth at k=\d+: certified f"),
    (_certified_without_decrease, r"booth at k=\d+: certified f .* rho \* decrease -"),
    (_step_leaves_null_space, r"booth at k=\d+: step_infeas 2\.\d+e-08 above"),
    (_last_feas_differs, r"booth: last row's feas .* is not the report's"),
])
def test_each_broken_trace_fails(booth_report, mutate, message):
    with pytest.raises(AssertionError, match=message):
        contract.check_trace(mutate(booth_report), "booth")


def _bench_file(tmp_path, bench_json, mutate):
    """A copy of the bench file ``bench_json``, its rows changed by ``mutate``."""
    rows = json.loads(bench_json.read_text())
    mutate(rows)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(rows))
    return str(path)


def _first_rejected(rows):
    return next(rec for row in rows for rec in row["trace"] if not rec["accepted"])


def test_script_checks_every_trace_of_a_json_file(bench_json, tmp_path, capsys):
    # The bench writes a non-finite float, such as the -inf ratio of a
    # trial with no predicted decrease, as null; it reads back as NaN.
    path = _bench_file(tmp_path, bench_json, lambda rows: _first_rejected(rows).update(rho=None))
    read = contract.read_rows(path)
    assert math.isnan(next(rec for row in read for rec in row.trace if not rec.accepted).rho)
    contract.check_file(path, _TWO_DIM)
    records = sum(len(row.trace) for row in read)
    assert records > 0 and all(row.trace == [] for row in read if row.solver == "sqp")
    max_feas = max(row.feas for row in read)
    assert capsys.readouterr().out == (
        f"{path}: 10 rows, {records} trace rows, max feas {max_feas:.2e}\n"
    )


def _accepted_f_rises(rows):
    accepted = [rec for rec in rows[0]["trace"] if rec["accepted"]]
    accepted[1]["f"] = accepted[0]["f"] + 1.0


def _last_feas_moves(rows):
    (beale,) = [r for r in rows if (r["problem"], r["solver"]) == ("beale", "continuation")]
    beale["trace"][-1]["feas"] = 2.0 * beale["feas"] + 1e-300


def _untraced(rows):
    for row in rows:
        del row["trace"]


@pytest.mark.parametrize("mutate, message", [
    (_accepted_f_rises, r"trace\.json: booth \(continuation\) at k=\d+: f .* not below"),
    (_last_feas_moves, r"trace\.json: beale \(continuation\): last row's feas"),
    (_untraced, r"booth \(continuation\): no trace"),
    (lambda rows: rows.clear(), r"trace\.json: no rows"),
])
def test_each_broken_trace_file_fails(bench_json, tmp_path, mutate, message):
    with pytest.raises(AssertionError, match=message):
        contract.check_file(_bench_file(tmp_path, bench_json, mutate), _TWO_DIM)


def _stop_reasons_in_code():
    """The string literals in the first argument of every ``report(`` call
    of the solver module, and in each assignment to ``stop_reason``."""
    tree = ast.parse(pathlib.Path(eqflow.solver.__file__).read_text())
    exprs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "report":
            exprs.append(node.args[0])
        elif isinstance(node, ast.Assign) and any(
            isinstance(name, ast.Name) and name.id == "stop_reason"
            for target in node.targets for name in ast.walk(target)
        ):
            exprs.append(node.value)
    return {
        leaf.value for expr in exprs for leaf in ast.walk(expr)
        if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
    }


def test_readme_documents_exactly_the_stop_reasons_the_code_gives():
    # A table row for a retired reason, or a reason the table lacks, fails.
    documented = {reason for _, reason in contract.documented_outcomes()}
    assert _stop_reasons_in_code() == documented
