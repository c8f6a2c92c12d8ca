"""Benchmark harness: run the solver (and optionally a projected-gradient
baseline) over the problem catalog and emit rows as a table, CSV, or JSON.

Exit codes: 0 when every selected solve converged, 1 when any run fell short
(iteration cap, step failure, or an internal solver error), 2 on usage errors
such as unknown problem names or invalid flag combinations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from .errors import DimensionError, EqflowError, UnknownProblem
from .problems import (
    CONVEX_PROBLEMS,
    NONCONVEX_PROBLEMS,
    ProblemInstance,
    get_problem,
)
from .solver import (
    CONVERGED,
    SINGLE_FEASIBLE_POINT,
    IterationRecord,
    SolverConfig,
    SolverReport,
    baseline_projected_gradient,
    solve,
)

__all__ = ["RunSpec", "BenchRow", "run", "baseline_projected_gradient", "main"]

_SETS = {
    "all-convex": CONVEX_PROBLEMS,
    "all-nonconvex": NONCONVEX_PROBLEMS,
    "all": CONVEX_PROBLEMS + NONCONVEX_PROBLEMS,
}

_CSV_HEADER = ["problem", "n", "m", "solver", "steps", "time_s", "f_star", "kkt", "feas", "status"]

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
    """One output row; field order matches the CSV header."""

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


def _make_row(problem: ProblemInstance, solver_name: str, rep: SolverReport) -> BenchRow:
    return BenchRow(
        problem=problem.name,
        n=problem.n,
        m=problem.cs.m,
        solver=solver_name,
        steps=rep.iterations,
        time_s=rep.wall_time,
        f_star=rep.f_star,
        kkt=rep.kkt,
        feas=rep.feas,
        status=rep.status,
    )


def _render_table(rows: list[BenchRow]) -> str:
    header = _CSV_HEADER
    cells = [header]
    for row in rows:
        cells.append(
            [
                row.problem,
                str(row.n),
                str(row.m),
                row.solver,
                str(row.steps),
                f"{row.time_s:.3f}",
                f"{row.f_star:.6g}",
                f"{row.kkt:.3e}",
                f"{row.feas:.3e}",
                row.status,
            ]
        )
    widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
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
        writer.writerow(
            [
                row.problem,
                row.n,
                row.m,
                row.solver,
                row.steps,
                repr(row.time_s),
                repr(row.f_star),
                repr(row.kkt),
                repr(row.feas),
                row.status,
            ]
        )
    return buf.getvalue()


def _json_fields(record: Any) -> dict[str, Any]:
    """A dataclass's fields with non-finite floats as None (JSON ``null``)."""
    return {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in asdict(record).items()
    }


def _render_json(
    rows: list[BenchRow], traces: list[Optional[list[IterationRecord]]], include_trace: bool
) -> str:
    payload = []
    for row, trace in zip(rows, traces):
        entry = _json_fields(row)
        if include_trace:
            entry["trace"] = [_json_fields(rec) for rec in (trace or [])]
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

    def solve_one(problem: ProblemInstance) -> list[tuple[BenchRow, list[IterationRecord]]]:
        rep = solve(problem, spec.config)
        out = [(_make_row(problem, "continuation", rep), rep.trace)]
        if spec.baseline:
            rep_b = baseline_projected_gradient(problem, spec.config)
            out.append((_make_row(problem, "projected-gradient", rep_b), rep_b.trace))
        return out

    try:
        if spec.jobs > 1:
            with ThreadPoolExecutor(max_workers=spec.jobs) as pool:
                nested = list(pool.map(solve_one, problems))
        else:
            nested = [solve_one(p) for p in problems]
    except EqflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    rows = [row for group in nested for row, _ in group]
    traces = [trace for group in nested for _, trace in group]

    if spec.format == "table":
        text = _render_table(rows)
    elif spec.format == "csv":
        text = _render_csv(rows)
    else:
        text = _render_json(rows, traces, spec.trace)

    if spec.out:
        with open(spec.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    converged = sum(1 for row in rows if row.status in _SUCCESS_STATUSES)
    print(f"{converged}/{len(rows)} runs converged", file=sys.stderr)
    return 0 if converged == len(rows) else 1


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
        default=None,
        metavar="NAME",
        help=(
            "problem name, comma-separated names, or one of the sets "
            "'all-convex', 'all-nonconvex', 'all' (repeatable; default: all)"
        ),
    )
    parser.add_argument("--n", type=int, default=None, help="dimension override")
    parser.add_argument("--max-iter", type=int, default=None, help="iteration cap")
    parser.add_argument("--tol", type=float, default=None, help="stopping tolerance")
    parser.add_argument(
        "--sigma0", type=float, default=None, help="regularization shift scale"
    )
    parser.add_argument("--dt0", type=float, default=None, help="initial time step")
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table", help="output format"
    )
    parser.add_argument("--out", default=None, help="write output to this path")
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="also run the projected-gradient baseline on each problem",
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
    overrides = {}
    if args.max_iter is not None:
        overrides["max_iter"] = args.max_iter
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.sigma0 is not None:
        overrides["reg_shift"] = args.sigma0
    if args.dt0 is not None:
        overrides["dt0"] = args.dt0
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
