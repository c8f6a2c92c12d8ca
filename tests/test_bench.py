"""Benchmark CLI: baseline method, output formats, exit codes, parallel runs."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest
import scipy.linalg

from eqflow import (
    CONVERGED,
    ConstraintSystem,
    ILL_POSED,
    MAX_ITERATIONS,
    SINGLE_FEASIBLE_POINT,
    STEP_FAILURE,
    NonFiniteGradient,
    NonFiniteObjective,
    SingularFactor,
    SolverConfig,
    baseline_sqp,
    get_problem,
    solve,
)
from eqflow.bench import (
    BenchRow,
    RunSpec,
    _BLAS_THREAD_VARS,
    _render_csv,
    _render_table,
    main,
    run,
)
from eqflow import quadratic_form, quadratic_oracle
from helpers import scaled_dependent_row_sphere


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
        # calls scipy.linalg.qr again each time.
        calls = {"n": 0}
        qr = scipy.linalg.qr

        def counted_qr(*args, **kwargs):
            calls["n"] += 1
            return qr(*args, **kwargs)

        problem = get_problem("sum_squares", n=40)
        fresh = ConstraintSystem(a=problem.cs.a, b=problem.cs.b)
        monkeypatch.setattr(scipy.linalg, "qr", counted_qr)
        report = baseline_sqp(dataclasses.replace(problem, cs=fresh))
        assert report.status == CONVERGED
        assert calls["n"] == 1

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
        code = run(
            RunSpec(problems=("booth", "matyas"), format="csv", out=str(out))
        )
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
        code = run(RunSpec(problems=("booth",), format="json", out=str(out)))
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
        code = run(
            RunSpec(problems=("booth",), format="json", out=str(out), trace=True)
        )
        assert code == 0
        entry = json.loads(out.read_text())[0]
        assert len(entry["trace"]) == entry["steps"]
        first = entry["trace"][0]
        for key in ("k", "f", "kkt", "feas", "dt", "rho", "accepted", "phase"):
            assert key in first

    def test_json_is_strict_with_non_finite_trace_values(self, tmp_path):
        # Rejected trials carry the rho = -inf sentinel; strict JSON has no
        # spelling for it, so it is written as null.
        out = tmp_path / "rows.json"
        main(["--problem", "ackley", "--n", "20", "--format", "json", "--trace",
              "--out", str(out)])

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        entry = json.loads(out.read_text(), parse_constant=reject)[0]
        rhos = [rec["rho"] for rec in entry["trace"]]
        assert None in rhos
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
        code = run(RunSpec(problems=("booth",), format="table"))
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
        run(RunSpec(problems=("booth",), format="csv", out=str(out), baseline=True))
        rows = rows_from_csv(out.read_text())
        assert [r.solver for r in rows] == ["continuation", "sqp"]


class TestExitCodes:
    def test_success(self):
        assert run(RunSpec(problems=("booth",), out="/dev/null")) == 0

    def test_unknown_problem(self, capsys):
        assert run(RunSpec(problems=("nosuch",))) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_format(self):
        assert run(RunSpec(problems=("booth",), format="yaml")) == 2

    def test_bad_jobs(self):
        assert run(RunSpec(problems=("booth",), jobs=0)) == 2

    def test_unconverged_run(self, tmp_path):
        out = tmp_path / "rows.csv"
        spec = RunSpec(
            problems=("griewank",),
            n=20,
            config=SolverConfig(max_iter=5),
            format="csv",
            out=str(out),
        )
        assert run(spec) == 1
        assert rows_from_csv(out.read_text())[0].status == MAX_ITERATIONS

    def test_trace_needs_json(self, capsys):
        assert main(["--problem", "booth", "--format", "csv", "--trace"]) == 2
        err = capsys.readouterr().err
        assert "error: --trace requires --format json" in err

    def test_incompatible_dimension(self, capsys):
        assert run(RunSpec(problems=("booth",), n=10)) == 2
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
                raise SingularFactor("forced")
            return solve(problem, config)

        monkeypatch.setattr(bench_mod, "solve", failing_solve)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_is_a_row_and_others_keep_theirs(self, matyas_fails, jobs, capsys):
        spec = RunSpec(problems=("booth", "matyas", "beale"), format="csv", jobs=jobs)
        assert run(spec) == 1
        captured = capsys.readouterr()
        assert "error: SingularFactor: forced" in captured.err
        rows = rows_from_csv(captured.out)
        assert [r.problem for r in rows] == ["booth", "matyas", "beale"]
        assert rows[0].status == rows[2].status == CONVERGED
        assert rows[0].stop_reason == rows[2].stop_reason == "tolerance"
        failed = rows[1]
        assert (failed.status, failed.steps, failed.n, failed.m) == ("SingularFactor", 0, 2, 1)
        assert failed.stop_reason == "error"
        assert all(np.isnan(v) for v in (failed.f_star, failed.kkt, failed.feas))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_system_that_cannot_be_factored_is_an_error_row(self, monkeypatch, jobs, capsys):
        import eqflow.bench as bench_mod

        zero = ConstraintSystem(a=np.zeros((1, 2)), b=np.zeros(1))

        def zero_constraints_for_matyas(name, n=None):
            problem = get_problem(name, n=n)
            return dataclasses.replace(problem, cs=zero) if name == "matyas" else problem

        monkeypatch.setattr(bench_mod, "get_problem", zero_constraints_for_matyas)
        spec = RunSpec(problems=("booth", "matyas", "beale"), format="csv", baseline=True,
                       jobs=jobs)
        assert run(spec) == 1
        captured = capsys.readouterr()
        assert captured.err.count("error: RankZero: ") == 2
        rows = rows_from_csv(captured.out)
        assert [(r.problem, r.solver) for r in rows] == [
            (name, solver) for name in ("booth", "matyas", "beale")
            for solver in ("continuation", "sqp")
        ]
        assert [r.status for r in rows[2:4]] == ["RankZero"] * 2
        assert [r.stop_reason for r in rows[2:4]] == ["error"] * 2
        assert all(r.status == CONVERGED for r in rows[:2] + rows[4:])

    def test_error_row_in_json_is_null(self, matyas_fails, capsys):
        spec = RunSpec(problems=("matyas",), format="json", baseline=True, trace=True)
        assert run(spec) == 1
        failed, baseline = json.loads(capsys.readouterr().out)
        assert failed["status"] == "SingularFactor"
        assert failed["stop_reason"] == "error"
        assert failed["f_star"] is failed["kkt"] is failed["feas"] is None
        assert failed["trace"] == []
        assert baseline["status"] == CONVERGED


class TestParallelism:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_system_is_factored_before_the_solves(self, monkeypatch, jobs):
        import eqflow.bench as bench_mod

        qr_calls, seen = [], []
        original = scipy.linalg.qr

        def counted_qr(*args, **kwargs):
            qr_calls.append(1)
            return original(*args, **kwargs)

        def counting_solve(problem, config=None):
            seen.append(len(qr_calls))
            return solve(problem, config)

        monkeypatch.setattr(scipy.linalg, "qr", counted_qr)
        monkeypatch.setattr(bench_mod, "solve", counting_solve)
        # The three instances share the one system build_constraints(26) hands out.
        run(RunSpec(problems=("sphere", "trid", "griewank"), n=26, format="csv", jobs=jobs))
        assert len(qr_calls) == 1
        assert seen == [1, 1, 1]

    @pytest.mark.parametrize(
        "names,n,config,ill_posed",
        [
            (("booth", "matyas", "sphere", "beale"), None, SolverConfig(), False),
            # One shared system, and so one kept projector, probed from
            # three threads.
            (
                ("sum_squares", "rotated_hyper_ellipsoid", "rosenbrock"),
                30,
                SolverConfig(dt0=1e-4),
                True,
            ),
        ],
        ids=["catalog-defaults", "ill-posed-shared-system"],
    )
    def test_jobs_preserve_input_order_and_values(self, tmp_path, names, n, config, ill_posed):
        serial_out = tmp_path / "serial.csv"
        parallel_out = tmp_path / "parallel.csv"
        spec = RunSpec(problems=names, n=n, config=config, format="csv")
        # Parallel first: unless an earlier test probed the shared system,
        # its threads find no projector yet.
        assert run(dataclasses.replace(spec, out=str(parallel_out), jobs=3)) == 0
        assert run(dataclasses.replace(spec, out=str(serial_out))) == 0
        if ill_posed:
            for name in names:
                trace = solve(get_problem(name, n=n), config).trace
                assert any(rec.phase == ILL_POSED for rec in trace)
        serial = rows_from_csv(serial_out.read_text())
        parallel = rows_from_csv(parallel_out.read_text())
        assert [r.problem for r in parallel] == list(names)
        for a, b in zip(serial, parallel):
            assert a.problem == b.problem
            assert a.steps == b.steps
            assert a.f_star == b.f_star  # bit-identical despite threading
            assert a.status == b.status

    @pytest.mark.parametrize("pinned", (None,) + _BLAS_THREAD_VARS)
    def test_jobs_warn_unless_blas_threads_are_pinned(self, monkeypatch, capsys, pinned):
        for var in _BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if pinned is not None:
            monkeypatch.setenv(pinned, "1")
        assert run(RunSpec(problems=("booth", "matyas"), format="csv", jobs=2)) == 0
        captured = capsys.readouterr()
        assert [r.problem for r in rows_from_csv(captured.out)] == ["booth", "matyas"]
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning:")]
        if pinned is None:
            assert len(warnings) == 1
            assert all(var in warnings[0] for var in _BLAS_THREAD_VARS)
        else:
            assert warnings == []
        assert captured.err.endswith("2/2 runs converged\n")


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

    def test_fully_determined_instance_counts_as_success(self):
        # A square full-rank system leaves nothing to optimize; the row
        # reports SingleFeasiblePoint, which still counts as a success.
        import eqflow.bench as bench_mod
        from eqflow import ConstraintSystem

        class Stub:
            name = "pinned"
            n = 3
            cs = ConstraintSystem(a=np.eye(3), b=np.ones(3))
            x0 = np.zeros(3)
            f = staticmethod(lambda x: float(x @ x))
            grad = staticmethod(lambda x: 2.0 * x)

        rep = solve(Stub())
        assert rep.status == SINGLE_FEASIBLE_POINT
        row = bench_mod._make_row(Stub(), "continuation", rep)
        assert row.status in bench_mod._SUCCESS_STATUSES
