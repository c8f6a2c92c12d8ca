"""Benchmark CLI: baseline method, output formats, exit codes; solves from threads."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import eqflow
from eqflow import (
    CONVERGED,
    ConstraintSystem,
    MAX_ITERATIONS,
    SINGLE_FEASIBLE_POINT,
    STEP_FAILURE,
    DimensionError,
    NonFiniteGradient,
    NonFiniteObjective,
    SolverConfig,
    baseline_sqp,
    build_constraints,
    get_problem,
    solve,
)
from eqflow.bench import BenchRow, _render_csv, _render_table, main
from eqflow import quadratic_form, quadratic_oracle
from helpers import count_factorizations, scaled_dependent_row_sphere


def oracle_fstar(problem):
    q, c, _ = quadratic_form(problem.name, problem.n)
    return problem.f(quadratic_oracle(problem.cs, q, c)[0])


class TestBaseline:
    def test_two_dim_quadratic(self):
        report = baseline_sqp(get_problem("booth"))
        assert report.status == CONVERGED
        assert report.stop_reason == "tolerance"
        assert report.f_star == pytest.approx(9.0, abs=1e-5)
        assert report.kkt <= 1e-6
        assert report.feas <= 1e-8

    @pytest.mark.parametrize("name, n", [
        ("booth", None), ("matyas", None), ("sphere", 100), ("trid", 100),
    ])
    def test_quadratics_match_oracle(self, name, n):
        problem = get_problem(name) if n is None else get_problem(name, n=n)
        report = baseline_sqp(problem)
        assert report.status == CONVERGED
        f_ref = oracle_fstar(problem)
        assert abs(report.f_star - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
        assert report.trace == []

    @pytest.mark.parametrize("m", [5, 25], ids=["2r<n", "2r>n"])
    def test_off_the_tie_matches_solve_and_oracle(self, m):
        # factor holds Q1 alone at 2r < n and Q2 alone at 2r > n; SQP needs a
        # tangent basis either way.
        problem = get_problem("sum_squares", n=30, m=m)
        report = baseline_sqp(problem)
        reference = solve(problem)
        assert report.status == reference.status == CONVERGED
        assert report.iterations > 0
        f_ref = oracle_fstar(problem)
        for f_star in (report.f_star, reference.f_star):
            assert abs(f_star - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
        assert abs(report.f_star - reference.f_star) <= 1e-6 * max(1.0, abs(f_ref))

    def test_stationary_start_takes_no_steps(self):
        problem = get_problem("sphere", n=12)
        q, c, _ = quadratic_form("sphere", 12)
        problem.x0[:] = quadratic_oracle(problem.cs, q, c)[0]
        report = baseline_sqp(problem)
        assert report.status == CONVERGED
        assert report.iterations == 0

    def test_sphere_converges(self):
        report = baseline_sqp(get_problem("sphere", n=100))
        assert report.status == CONVERGED

    def test_feasibility_conserved(self):
        report = baseline_sqp(get_problem("sum_squares", n=40))
        assert report.status == CONVERGED
        assert report.feas <= 1e-8

    def test_every_iteration_is_an_accepted_step(self):
        # Each BFGS iteration ends on a point its line search accepted.
        report = baseline_sqp(get_problem("sum_squares", n=40))
        assert 0 < report.accepted_steps == report.iterations

    def test_factors_the_constraints_once(self, monkeypatch):
        # The null-space coordinates need only the QR that factors a fresh
        # system; an SQP that re-factors the constraint Jacobian at each step
        # runs dgeqp3 again each time.
        problem = get_problem("sum_squares", n=40)
        fresh = ConstraintSystem(a=problem.cs.a, b=problem.cs.b)
        calls = count_factorizations(monkeypatch)
        report = baseline_sqp(dataclasses.replace(problem, cs=fresh))
        assert report.status == CONVERGED
        assert len(calls) == 1

    def test_rank_deficient_scaled_constraints(self):
        # A dependent row scaled by 1e6: SQP works on the null-space basis
        # that factor builds, so the system reaches it well posed.
        report = baseline_sqp(scaled_dependent_row_sphere())
        assert report.status == CONVERGED
        assert report.feas <= 1e-8

    def test_respects_iteration_cap(self):
        cfg = SolverConfig(max_iter=3)
        report = baseline_sqp(get_problem("trid", n=40), cfg)
        assert report.status == MAX_ITERATIONS
        assert report.stop_reason == "iteration-cap"
        assert report.iterations == 3

    def test_stop_short_of_tolerance_is_a_step_failure(self):
        # No double-precision point meets tol = 1e-300: SQP stops on its own
        # step-size test at the optimum, well inside the iteration cap.
        report = baseline_sqp(get_problem("booth"), SolverConfig(tol=1e-300))
        assert report.status == STEP_FAILURE
        assert report.stop_reason == "sqp-stopped"
        assert report.iterations < 300
        assert report.kkt <= 1e-12

    def test_fully_determined_point(self):
        cs = ConstraintSystem(a=np.eye(2), b=np.array([1.0, 2.0]))
        problem = dataclasses.replace(get_problem("booth"), cs=cs)
        report = baseline_sqp(problem)
        assert (report.status, report.stop_reason) == (SINGLE_FEASIBLE_POINT, "pinned")
        assert report.iterations == 0

    @pytest.mark.parametrize("name, n", [("booth", None), ("rosenbrock", 100)])
    def test_reruns_are_bit_identical(self, name, n):
        first, second = (
            baseline_sqp(get_problem(name) if n is None else get_problem(name, n=n))
            for _ in range(2)
        )
        assert first.f_star == second.f_star
        assert np.array_equal(first.x_star, second.x_star)

    def test_non_finite_gradient_at_start_raises(self):
        problem = dataclasses.replace(
            get_problem("booth"), grad=lambda x: np.array([np.nan, 0.0])
        )
        with pytest.raises(NonFiniteGradient, match="at the initial point"):
            baseline_sqp(problem)

    def test_non_finite_gradient_mid_run_raises(self):
        booth = get_problem("booth")
        calls = {"n": 0}

        def grad(x):
            calls["n"] += 1
            return booth.grad(x) if calls["n"] <= 3 else np.full(2, np.inf)

        problem = dataclasses.replace(booth, grad=grad)
        with pytest.raises(NonFiniteGradient, match="at an SQP point"):
            baseline_sqp(problem)

    def test_misshapen_gradient_mid_run_raises(self):
        booth = get_problem("booth")
        calls = {"n": 0}

        def grad(x):
            calls["n"] += 1
            g = booth.grad(x)
            return g if calls["n"] <= 3 else g.reshape(-1, 1)

        problem = dataclasses.replace(booth, grad=grad)
        with pytest.raises(DimensionError, match="gradient at an SQP point has shape"):
            baseline_sqp(problem)

    @pytest.mark.parametrize(
        "bad, error", [(np.full(2, np.nan), NonFiniteGradient), (np.zeros((2, 1)), DimensionError)]
    )
    def test_bad_gradient_at_the_returned_point_raises(self, bad, error):
        # The last gradient call is the one at the restored SQP point.
        booth = get_problem("booth")
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return booth.grad(x)

        baseline_sqp(dataclasses.replace(booth, grad=counted))
        last, calls["n"] = calls["n"], 0

        def grad(x):
            calls["n"] += 1
            return bad if calls["n"] == last else booth.grad(x)

        with pytest.raises(error, match="gradient at the SQP point"):
            baseline_sqp(dataclasses.replace(booth, grad=grad))

    def test_non_finite_objective_at_start_raises(self):
        problem = dataclasses.replace(get_problem("booth"), f=lambda x: float("nan"))
        with pytest.raises(NonFiniteObjective):
            baseline_sqp(problem)

    def test_non_finite_final_objective_raises(self):
        booth = get_problem("booth")
        calls = {"n": 0}

        def f(x):
            calls["n"] += 1
            return booth.f(x) if calls["n"] <= 2 else float("nan")

        problem = dataclasses.replace(booth, f=f)
        with pytest.raises(NonFiniteObjective, match="at the SQP point"):
            baseline_sqp(problem, SolverConfig(max_iter=20))


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def rows_from_csv(text):
    header, body = parse_csv(text)
    out = []
    for line in body:
        out.append(
            BenchRow(
                problem=line[0],
                n=int(line[1]),
                m=int(line[2]),
                solver=line[3],
                steps=int(line[4]),
                time_s=float(line[5]),
                f_star=float(line[6]),
                kkt=float(line[7]),
                feas=float(line[8]),
                status=line[9],
                stop_reason=line[10],
            )
        )
    return out


class TestOutputFormats:
    def test_csv_header_and_roundtrip(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["--problem", "booth,matyas", "--format", "csv", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        header, body = parse_csv(text)
        assert header == [
            "problem", "n", "m", "solver", "steps", "time_s",
            "f_star", "kkt", "feas", "status", "stop_reason",
        ]
        assert [line[0] for line in body] == ["booth", "matyas"]
        # Floats are written in round-trip form: parse -> re-render is exact.
        assert _render_csv(rows_from_csv(text)) == text

    def test_json_payload(self, tmp_path):
        out = tmp_path / "rows.json"
        code = main(["--problem", "booth", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 1
        entry = payload[0]
        assert entry["problem"] == "booth"
        assert entry["status"] == CONVERGED
        assert entry["stop_reason"] == "tolerance"
        assert entry["f_star"] == pytest.approx(9.0, abs=1e-6)
        assert "trace" not in entry

    def test_json_trace_is_opt_in(self, tmp_path):
        out = tmp_path / "rows.json"
        code = main(["--problem", "booth", "--format", "json", "--trace", "--out", str(out)])
        assert code == 0
        entry = json.loads(out.read_text())[0]
        assert len(entry["trace"]) == entry["steps"]
        first = entry["trace"][0]
        for key in ("k", "f", "kkt", "feas", "dt", "rho", "accepted", "phase"):
            assert key in first

    def test_json_is_strict_with_non_finite_trace_values(self, tmp_path, monkeypatch):
        # A trial whose f is NaN is rejected with rho = NaN; strict JSON has
        # no spelling for it, so it is written as null.
        import eqflow.bench as bench_mod

        calls = []

        def nan_at_first_trial(name, n=None):
            problem = get_problem(name, n=n)

            def f(x):
                calls.append(None)
                return float("nan") if len(calls) == 2 else problem.f(x)

            return dataclasses.replace(problem, f=f)

        monkeypatch.setattr(bench_mod, "get_problem", nan_at_first_trial)
        out = tmp_path / "rows.json"
        main(["--problem", "booth", "--format", "json", "--trace", "--out", str(out)])

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        entry = json.loads(out.read_text(), parse_constant=reject)[0]
        assert entry["status"] == CONVERGED
        rhos = [rec["rho"] for rec in entry["trace"]]
        assert rhos[0] is None and not entry["trace"][0]["accepted"]
        assert all(rho is None or np.isfinite(rho) for rho in rhos)

    def test_json_with_baseline_and_trace_is_strict(self, tmp_path):
        out = tmp_path / "rows.json"
        main(["--problem", "ackley", "--n", "20", "--baseline", "--format", "json",
              "--trace", "--out", str(out)])

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        ours, sqp = json.loads(out.read_text(), parse_constant=reject)
        assert (ours["solver"], sqp["solver"]) == ("continuation", "sqp")
        assert ours["trace"] != [] and sqp["trace"] == []

    def test_sub_ulp_stop_reaches_csv_and_strict_json(self, tmp_path):
        # rosenbrock at n=100 stops at its phase switch on sub-ulp decreases.
        csv_out, json_out = tmp_path / "rows.csv", tmp_path / "rows.json"
        args = ["--problem", "rosenbrock", "--n", "100"]
        assert main(args + ["--format", "csv", "--out", str(csv_out)]) == 1
        (row,) = rows_from_csv(csv_out.read_text())
        assert (row.status, row.stop_reason) == (STEP_FAILURE, "sub-ulp")
        assert main(args + ["--format", "json", "--trace", "--out", str(json_out)]) == 1

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        (entry,) = json.loads(json_out.read_text(), parse_constant=reject)
        assert (entry["status"], entry["stop_reason"]) == (STEP_FAILURE, "sub-ulp")
        assert len(entry["trace"]) == entry["steps"] == row.steps

    def test_table_format(self, capsys):
        code = main(["--problem", "booth", "--format", "table"])
        assert code == 0
        captured = capsys.readouterr()
        assert "problem" in captured.out and "booth" in captured.out
        assert "1/1 runs converged" in captured.err

    def test_table_bytes_are_pinned(self):
        rows = [
            BenchRow("booth", 2, 1, "continuation", 7, 0.0123456, 9.0, 3.5e-9,
                     0.0, "Converged", "tolerance"),
            BenchRow("rotated_hyper_ellipsoid", 1000, 500, "projected-gradient",
                     300, 12.3456, -1234567.891, float("nan"), 1.25e-14,
                     "MaxIterations", "iteration-cap"),
        ]
        expected = "".join(line + "\n" for line in [
            "problem                  n     m    solver              steps  time_s"
            "  f_star        kkt        feas       status         stop_reason",
            "-----------------------  ----  ---  ------------------  -----  ------"
            "  ------------  ---------  ---------  -------------  -------------",
            "booth                    2     1    continuation        7      0.012 "
            "  9             3.500e-09  0.000e+00  Converged      tolerance",
            "rotated_hyper_ellipsoid  1000  500  projected-gradient  300    12.346"
            "  -1.23457e+06  nan        1.250e-14  MaxIterations  iteration-cap",
        ])
        assert _render_table(rows) == expected

    def test_baseline_adds_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        main(["--problem", "booth", "--format", "csv", "--out", str(out), "--baseline"])
        rows = rows_from_csv(out.read_text())
        assert [r.solver for r in rows] == ["continuation", "sqp"]


class TestExitCodes:
    def test_success(self):
        assert main(["--problem", "booth", "--out", "/dev/null"]) == 0

    def test_unknown_problem(self, capsys):
        assert main(["--problem", "nosuch"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_format(self, capsys):
        # argparse rejects it with a usage line, before any check of the bench.
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "booth", "--format", "yaml"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: eqflow-bench") and "invalid choice: 'yaml'" in err

    def test_bad_jobs(self, capsys):
        # The bench solves in input order on one thread, so argparse rejects
        # a thread count as an unknown option.
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "booth", "--jobs", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: eqflow-bench") and "unrecognized arguments: --jobs 2" in err

    def test_unconverged_run(self, tmp_path):
        out = tmp_path / "rows.csv"
        args = ["--problem", "griewank", "--n", "20", "--max-iter", "5", "--format", "csv",
                "--out", str(out)]
        assert main(args) == 1
        assert rows_from_csv(out.read_text())[0].status == MAX_ITERATIONS

    def test_trace_needs_json(self, capsys):
        assert main(["--problem", "booth", "--format", "csv", "--trace"]) == 2
        err = capsys.readouterr().err
        assert "error: --trace requires --format json" in err

    def test_incompatible_dimension(self, capsys):
        assert main(["--problem", "booth", "--n", "10"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_out_is_a_usage_error_before_any_solve(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_solve(problem, config):
            raise AssertionError("solved before the output was opened")

        monkeypatch.setattr("eqflow.bench.solve", no_solve)
        out = tmp_path / "missing" / "rows.csv"
        assert main(["--problem", "booth", "--out", str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err


class TestFailedRuns:
    @pytest.fixture
    def matyas_fails(self, monkeypatch):
        import eqflow.bench as bench_mod

        def failing_solve(problem, config=None):
            if problem.name == "matyas":
                raise NonFiniteGradient("forced")
            return solve(problem, config)

        monkeypatch.setattr(bench_mod, "solve", failing_solve)

    # ``runs`` consecutive ``main`` calls in one process: each must give the
    # same rows, whatever an earlier call left kept on shared systems.
    @pytest.mark.parametrize("runs", [1, 2])
    def test_error_is_a_row_and_others_keep_theirs(self, matyas_fails, runs, capsys):
        for _ in range(runs):
            assert main(["--problem", "booth,matyas,beale", "--format", "csv"]) == 1
            captured = capsys.readouterr()
            assert "error: NonFiniteGradient: forced" in captured.err
            rows = rows_from_csv(captured.out)
            assert [r.problem for r in rows] == ["booth", "matyas", "beale"]
            assert rows[0].status == rows[2].status == CONVERGED
            assert rows[0].stop_reason == rows[2].stop_reason == "tolerance"
            failed = rows[1]
            assert (failed.status, failed.steps, failed.n, failed.m) == ("NonFiniteGradient", 0, 2, 1)
            assert failed.stop_reason == "error"
            assert all(np.isnan(v) for v in (failed.f_star, failed.kkt, failed.feas))

    @staticmethod
    def error_rows_for_matyas(monkeypatch, capsys, change, runs=1):
        """Run booth, matyas and beale with ``--baseline``, matyas's instance
        replaced by ``change(matyas)``, ``runs`` times in a row.  Checks each
        run's exit code, row order, that matyas's two rows are error rows and
        that the others converge; returns the last run's stderr and matyas's
        rows."""
        import eqflow.bench as bench_mod

        def changed_matyas(name, n=None):
            problem = get_problem(name, n=n)
            return change(problem) if name == "matyas" else problem

        monkeypatch.setattr(bench_mod, "get_problem", changed_matyas)
        for _ in range(runs):
            assert main(["--problem", "booth,matyas,beale", "--format", "csv", "--baseline"]) == 1
            captured = capsys.readouterr()
            rows = rows_from_csv(captured.out)
            assert [(r.problem, r.solver) for r in rows] == [
                (name, solver) for name in ("booth", "matyas", "beale")
                for solver in ("continuation", "sqp")
            ]
            assert [r.stop_reason for r in rows[2:4]] == ["error"] * 2
            assert all(r.status == CONVERGED for r in rows[:2] + rows[4:])
        return captured.err, rows[2:4]

    @pytest.mark.parametrize("runs", [1, 2])
    def test_system_that_cannot_be_factored_is_an_error_row(self, monkeypatch, runs, capsys):
        # One system object for every run: a system that raised keeps nothing,
        # so the second run raises again rather than reading a stale result.
        zero = ConstraintSystem(a=np.zeros((1, 2)), b=np.zeros(1))
        err, failed = self.error_rows_for_matyas(
            monkeypatch, capsys, lambda p: dataclasses.replace(p, cs=zero), runs
        )
        assert err.count("error: RankZero: ") == 2
        assert [r.status for r in failed] == ["RankZero"] * 2

    @pytest.mark.parametrize("runs", [1, 2])
    def test_misshapen_gradient_is_an_error_row(self, monkeypatch, runs, capsys):
        err, failed = self.error_rows_for_matyas(
            monkeypatch, capsys,
            lambda p: dataclasses.replace(p, grad=lambda x: p.grad(x).reshape(-1, 1)),
            runs,
        )
        assert err.count("error: DimensionError: gradient at the initial point") == 2
        assert [r.status for r in failed] == ["DimensionError"] * 2

    def test_objective_that_is_not_a_real_scalar_is_an_error_row(self, monkeypatch, capsys):
        err, failed = self.error_rows_for_matyas(
            monkeypatch, capsys, lambda p: dataclasses.replace(p, f=lambda x: None)
        )
        message = (
            "error: DimensionError: objective at the initial point is not real: "
            "NoneType of object values"
        )
        assert err.count(message) == 2
        assert [r.status for r in failed] == ["DimensionError"] * 2

    # An int beyond the float range makes the list an object array, whose
    # cast to float would raise OverflowError out of the whole pass.
    @pytest.mark.parametrize(
        "change",
        [
            lambda g: g + 1j, lambda g: np.full(g.shape, "matyas"), lambda g: {"g": g},
            lambda g: [10**400, *g[1:]],
        ],
        ids=["complex", "string", "object", "int-beyond-float"],
    )
    def test_gradient_that_is_not_real_is_an_error_row(self, monkeypatch, capsys, change):
        err, failed = self.error_rows_for_matyas(
            monkeypatch, capsys,
            lambda p: dataclasses.replace(p, grad=lambda x: change(p.grad(x))),
        )
        message = "error: DimensionError: gradient at the initial point is not real: "
        assert err.count(message) == 2
        assert [r.status for r in failed] == ["DimensionError"] * 2

    def test_error_row_in_json_is_null(self, matyas_fails, capsys):
        assert main(["--problem", "matyas", "--format", "json", "--baseline", "--trace"]) == 1
        failed, baseline = json.loads(capsys.readouterr().out)
        assert failed["status"] == "NonFiniteGradient"
        assert failed["stop_reason"] == "error"
        assert failed["f_star"] is failed["kkt"] is failed["feas"] is None
        assert failed["trace"] == []
        assert baseline["status"] == CONVERGED


class TestParallelism:
    @pytest.mark.parametrize("runs", [1, 2])
    def test_each_system_is_factored_before_the_solves(self, monkeypatch, runs):
        import eqflow.bench as bench_mod

        seen = []
        qr_calls = count_factorizations(monkeypatch)

        def counting_solve(problem, config=None):
            seen.append(len(qr_calls))
            return solve(problem, config)

        monkeypatch.setattr(bench_mod, "solve", counting_solve)
        # The three instances share the one system build_constraints(26) hands
        # out; holding it here keeps its factorization for a second run.
        shared = build_constraints(26)
        for _ in range(runs):
            main(["--problem", "sphere,trid,griewank", "--n", "26", "--format", "csv"])
        assert len(qr_calls) == 1
        assert seen == [1, 1, 1] * runs
        assert get_problem("sphere", n=26).cs is shared

    def test_threads_sharing_a_system_match_serial_solves(self):
        # The library may be called from several threads: three solves on one
        # shared system, each of which probes curvature, race for its
        # factorization.  Threads first: unless an earlier test solved on the
        # shared system, they find no basis yet.
        names = ("sum_squares", "rotated_hyper_ellipsoid", "rosenbrock")
        config = SolverConfig(dt0=1e-4)

        def fresh_problems():
            problems = [get_problem(name, n=30) for name in names]
            assert len({id(p.cs) for p in problems}) == 1
            return problems

        with ThreadPoolExecutor(3) as pool:
            threaded = list(pool.map(lambda p: solve(p, config), fresh_problems(), timeout=120))
        serial = [solve(p, config) for p in fresh_problems()]
        assert all(rep.hessian_evals > 0 for rep in serial)

        def without_wall_times(report):
            fields = dataclasses.asdict(report)
            del fields["wall_time"]
            for record in fields["trace"]:
                del record["wall_time_ns"]
            fields["x_star"] = fields["x_star"].tolist()
            # Float reprs round-trip, so equal reprs are equal bits.
            return repr(fields)

        for a, b in zip(threaded, serial):
            assert without_wall_times(a) == without_wall_times(b)


class TestMain:
    def test_basic_invocation(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main(
            ["--problem", "booth,matyas", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        assert [r.problem for r in rows_from_csv(out.read_text())] == [
            "booth", "matyas",
        ]

    def test_problem_sets_expand(self, tmp_path):
        out = tmp_path / "o.csv"
        code = main(
            [
                "--problem", "all-nonconvex",
                "--max-iter", "1", "--format", "csv", "--out", str(out),
            ]
        )
        rows = rows_from_csv(out.read_text())
        assert len(rows) == 12
        assert code == 1  # a single iteration converges nothing

    def test_dimension_override_conflicts_with_fixed_problems(self, capsys):
        # Sets include two-dimensional problems, so a blanket --n is an error.
        assert main(["--problem", "all-nonconvex", "--n", "20"]) == 2
        assert "fixed at n=2" in capsys.readouterr().err

    def test_unknown_problem_exits_2(self, capsys):
        assert main(["--problem", "nosuch"]) == 2
        assert "unknown problem 'nosuch'" in capsys.readouterr().err

    def test_empty_problem_list_is_a_usage_error(self, capsys):
        # An empty expansion (e.g. an unset shell variable) must not look
        # like a successful zero-run benchmark.
        assert main(["--problem", ""]) == 2
        assert "empty" in capsys.readouterr().err
        assert main(["--problem", ","]) == 2
        capsys.readouterr()

    def test_solver_overrides_reach_the_config(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(
            [
                "--problem", "sphere", "--n", "1000", "--dt0", "1.0",
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        entry = json.loads(out.read_text())[0]
        assert entry["steps"] == 1  # a unit first step solves the quadratic
        assert main(["--problem", "booth", "--tol", "-1.0"]) == 2

    @pytest.mark.parametrize("flag", ["--tol", "--dt0", "--sigma0"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_settings_are_usage_errors(self, flag, value, capsys):
        assert main(["--problem", "booth", flag, value]) == 2
        assert "must be finite and positive" in capsys.readouterr().err

    def test_fully_determined_instance_counts_as_success(self, monkeypatch, capsys):
        # A square full-rank system leaves nothing to optimize; the rows
        # report SingleFeasiblePoint, which still counts as a success.
        import eqflow.bench as bench_mod

        pinned = ConstraintSystem(a=np.eye(2), b=np.ones(2))

        def pinned_booth(name, n=None):
            return dataclasses.replace(get_problem(name, n=n), cs=pinned)

        monkeypatch.setattr(bench_mod, "get_problem", pinned_booth)
        assert main(["--problem", "booth", "--format", "csv", "--baseline"]) == 0
        captured = capsys.readouterr()
        rows = rows_from_csv(captured.out)
        assert [(r.solver, r.status) for r in rows] == [
            ("continuation", SINGLE_FEASIBLE_POINT), ("sqp", SINGLE_FEASIBLE_POINT),
        ]
        assert captured.err.endswith("2/2 runs converged\n")

    @pytest.mark.parametrize(
        "flags,settings,code",
        [([], {}, 0), (["--max-iter", "2", "--dt0", "0.05"], {"max_iter": 2, "dt0": 0.05}, 1)],
        ids=["defaults", "max-iter-2-dt0-0.05"],
    )
    def test_rows_are_the_reports_of_direct_calls(self, flags, settings, code, capsys):
        # Each method keeps its own rows, and the flags reach both methods as
        # the config that direct calls get.
        assert main(["--problem", "booth,matyas", "--baseline", "--format", "csv"] + flags) == code
        header, body = parse_csv(capsys.readouterr().out)
        config = SolverConfig(**settings)
        expected = []
        for name in ("booth", "matyas"):
            for solver, method in (("continuation", solve), ("sqp", baseline_sqp)):
                problem = get_problem(name)
                rep = method(problem, config)
                expected.append(BenchRow(problem.name, problem.n, problem.cs.m, solver,
                                         rep.iterations, rep.wall_time, rep.f_star, rep.kkt,
                                         rep.feas, rep.status, rep.stop_reason))
        _, expected_body = parse_csv(_render_csv(expected))

        def without_time(lines):
            col = header.index("time_s")
            return [line[:col] + line[col + 1:] for line in lines]

        # The CSV writes floats by repr, so equal cells are equal reprs.
        assert without_time(body) == without_time(expected_body)

    def test_python_dash_m_runs_the_cli(self):
        # A fresh interpreter runs the package's __main__ as ``python -m eqflow``.
        src = str(Path(eqflow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "eqflow", "--problem", "booth,matyas", "--format", "csv"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        header, body = parse_csv(proc.stdout)
        assert header == [f.name for f in dataclasses.fields(BenchRow)]
        assert [line[0] for line in body] == ["booth", "matyas"]
        assert proc.stderr.endswith("2/2 runs converged\n")
