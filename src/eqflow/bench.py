"""Benchmark harness: run the solver over the problem catalog, with
``--baseline`` also SQP with a BFGS Hessian, the paper's kind of comparator
(about 20 s over the whole catalog), and emit rows as a table, CSV, or JSON.

Exit codes: 0 when every selected solve converged, 1 when any run fell short
(iteration cap, step failure, or an internal solver error, which is reported
as that run's row), 2 on usage errors such as unknown problem names, invalid
flag combinations or an output path that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Any, Callable, Optional

from .errors import DimensionError, EqflowError, UnknownProblem
from .problems import (
    CONVEX_PROBLEMS,
    NONCONVEX_PROBLEMS,
    ProblemInstance,
    get_problem,
)
from .projection import factor
from .solver import (
    CONVERGED,
    SINGLE_FEASIBLE_POINT,
    IterationRecord,
    SolverConfig,
    SolverReport,
    baseline_sqp,
    solve,
)

__all__ = ["RunSpec", "BenchRow", "run", "main"]

# Any of these pins the BLAS thread pool that parallel solves share.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SETS = {
    "all-convex": CONVEX_PROBLEMS,
    "all-nonconvex": NONCONVEX_PROBLEMS,
    "all": CONVEX_PROBLEMS + NONCONVEX_PROBLEMS,
}

_SUCCESS_STATUSES = {CONVERGED, SINGLE_FEASIBLE_POINT}


@dataclass(frozen=True)
class RunSpec:
    """Everything one benchmark invocation needs."""

    problems: tuple[str, ...]
    n: Optional[int] = None
    config: SolverConfig = field(default_factory=SolverConfig)
    format: str = "table"
    out: Optional[str] = None
    baseline: bool = False
    trace: bool = False
    jobs: int = 1


@dataclass(frozen=True)
class BenchRow:
    """One output row; its fields, in order, are the output columns."""

    problem: str
    n: int
    m: int
    solver: str
    steps: int
    time_s: float
    f_star: float
    kkt: float
    feas: float
    status: str
    stop_reason: str


_CSV_HEADER = [f.name for f in fields(BenchRow)]

# Table cell format per column; the other columns print as they are.
_TABLE_FORMATS = {"time_s": ".3f", "f_star": ".6g", "kkt": ".3e", "feas": ".3e"}


def _make_row(problem: ProblemInstance, solver_name: str, rep: SolverReport) -> BenchRow:
    return BenchRow(problem.name, problem.n, problem.cs.m, solver_name, rep.iterations,
                    rep.wall_time, rep.f_star, rep.kkt, rep.feas, rep.status,
                    rep.stop_reason)


def _run_one(
    problem: ProblemInstance,
    solver_name: str,
    method: Callable[[ProblemInstance, SolverConfig], SolverReport],
    config: SolverConfig,
) -> tuple[BenchRow, list[IterationRecord]]:
    """One solve as a row and its trace.  An :class:`EqflowError` becomes a
    row whose status is the exception's class name, with stop reason
    ``"error"``, no steps and NaN results, so that it costs no other run its
    row."""
    t_start = time.perf_counter()
    try:
        rep = method(problem, config)
    except EqflowError as exc:
        status, nan = type(exc).__name__, math.nan
        print(f"error: {status}: {exc}", file=sys.stderr)
        row = BenchRow(problem.name, problem.n, problem.cs.m, solver_name, 0,
                       time.perf_counter() - t_start, nan, nan, nan, status, "error")
        return row, []
    return _make_row(problem, solver_name, rep), rep.trace


def _render_table(rows: list[BenchRow]) -> str:
    cells = [_CSV_HEADER] + [
        [format(v, _TABLE_FORMATS.get(name, "")) for name, v in zip(_CSV_HEADER, astuple(row))]
        for row in rows
    ]
    widths = [max(len(line[i]) for line in cells) for i in range(len(_CSV_HEADER))]
    lines = []
    for idx, line in enumerate(cells):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _render_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(row)])
    return buf.getvalue()


def _json_fields(record: Any) -> dict[str, Any]:
    """A dataclass's fields with non-finite floats as None (JSON ``null``)."""
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in asdict(record).items()
    }


def _render_json(
    rows: list[BenchRow], traces: list[list[IterationRecord]], include_trace: bool
) -> str:
    payload = []
    for row, trace in zip(rows, traces):
        entry = _json_fields(row)
        if include_trace:
            entry["trace"] = [_json_fields(rec) for rec in trace]
        payload.append(entry)
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def run(spec: RunSpec) -> int:
    """Execute the runs described by ``spec``; returns the process exit code."""
    if spec.format not in ("table", "json", "csv"):
        print(f"error: unknown format {spec.format!r}", file=sys.stderr)
        return 2
    if spec.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    if spec.trace and spec.format != "json":
        print("error: --trace requires --format json", file=sys.stderr)
        return 2
    names: list[str] = []
    for name in spec.problems:
        names.extend(_SETS.get(name, (name,)))
    try:
        problems = [get_problem(name, n=spec.n) for name in names]
    except (UnknownProblem, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        out = open(spec.out, "w") if spec.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write {spec.out}: {exc.strerror}", file=sys.stderr)
        return 2

    # Factor each distinct system before any solve is timed, so that no row's
    # time_s depends on whether an earlier row shared its system, and before
    # the threads share the kept factorizations.  A system that raises here
    # raises again in the solves of its own rows.
    for cs in {id(p.cs): p.cs for p in problems}.values():
        with contextlib.suppress(EqflowError):
            factor(cs)

    methods = [("continuation", solve)]
    if spec.baseline:
        methods.append(("sqp", baseline_sqp))

    def solve_one(problem: ProblemInstance) -> list[tuple[BenchRow, list[IterationRecord]]]:
        return [_run_one(problem, name, method, spec.config) for name, method in methods]

    if spec.jobs > 1:
        if not any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
            print(
                "warning: the --jobs solves share one BLAS thread pool, so they can run "
                "slower than --jobs 1 unless BLAS is pinned to one thread: set "
                f"{' or '.join(_BLAS_THREAD_VARS)} to 1",
                file=sys.stderr,
            )
        with ThreadPoolExecutor(max_workers=spec.jobs) as pool:
            nested = list(pool.map(solve_one, problems))
    else:
        nested = [solve_one(p) for p in problems]

    rows = [row for group in nested for row, _ in group]
    traces = [trace for group in nested for _, trace in group]

    if spec.format == "table":
        text = _render_table(rows)
    elif spec.format == "csv":
        text = _render_csv(rows)
    else:
        text = _render_json(rows, traces, spec.trace)

    with out as fh:
        fh.write(text)

    converged = sum(1 for row in rows if row.status in _SUCCESS_STATUSES)
    print(f"{converged}/{len(rows)} runs converged", file=sys.stderr)
    return 0 if converged == len(rows) else 1


# CLI flag (argparse dest) -> SolverConfig setting
_FLAG_SETTINGS = {"max_iter": "max_iter", "tol": "tol", "sigma0": "reg_shift", "dt0": "dt0"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqflow-bench",
        description=(
            "Run the equality-constrained continuation solver over the "
            "benchmark catalog."
        ),
    )
    parser.add_argument(
        "--problem",
        action="append",
        metavar="NAME",
        help=(
            "problem name, comma-separated names, or one of the sets "
            "'all-convex', 'all-nonconvex', 'all' (repeatable; default: all)"
        ),
    )
    parser.add_argument("--n", type=int, default=None, help="dimension override")
    parser.add_argument("--max-iter", type=int, default=None, help="iteration cap")
    parser.add_argument("--tol", type=float, default=None, help="stopping tolerance")
    parser.add_argument("--sigma0", type=float, default=None, help="regularization shift scale")
    parser.add_argument("--dt0", type=float, default=None, help="initial time step")
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table", help="output format"
    )
    parser.add_argument("--out", default=None, help="write output to this path")
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="also run SQP (scipy's BFGS on the null-space coordinates) on each problem",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="include per-iteration traces (JSON format only)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="parallel solves")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        setting: getattr(args, flag)
        for flag, setting in _FLAG_SETTINGS.items()
        if getattr(args, flag) is not None
    }
    try:
        config = SolverConfig(**overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = tuple(
        part
        for chunk in (args.problem or ["all"])
        for part in chunk.split(",")
        if part
    )
    if not problems:
        print("error: --problem expanded to an empty list", file=sys.stderr)
        return 2
    spec = RunSpec(
        problems=problems,
        n=args.n,
        config=config,
        format=args.format,
        out=args.out,
        baseline=args.baseline,
        trace=args.trace,
        jobs=args.jobs,
    )
    return run(spec)
