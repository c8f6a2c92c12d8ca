"""Benchmark harness: run the solver over the problem catalog, with
``--baseline`` also SQP with a BFGS Hessian, the paper's kind of comparator
(about 20 s over the whole catalog), and emit rows as a table, CSV, or JSON.

:func:`main` is the CLI and the programmatic entry point alike:
``main(["--problem", "booth", "--format", "csv"])`` runs what
``eqflow-bench --problem booth --format csv`` runs and returns its exit code.

Exit codes: 0 when every selected solve converged, 1 when any run fell short
(iteration cap, step failure, or an internal solver error, which is reported
as that run's row), 2 on usage errors.  argparse's own usage errors, such as
``--format yaml``, exit 2 with a usage line (``main`` raises ``SystemExit(2)``).
The bench's own checks, all made before any solve, exit 2 with an ``error:``
line: an unknown problem or an empty ``--problem`` list, ``--n`` on a problem
of fixed dimension, a setting that is not finite and positive, ``--trace``
without ``--format json``, and an ``--out`` path that cannot be opened.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
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

__all__ = ["BenchRow", "main"]

_SETS = {
    "all-convex": CONVEX_PROBLEMS,
    "all-nonconvex": NONCONVEX_PROBLEMS,
    "all": CONVEX_PROBLEMS + NONCONVEX_PROBLEMS,
}

_SUCCESS_STATUSES = {CONVERGED, SINGLE_FEASIBLE_POINT}


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
    head = (problem.name, problem.n, problem.cs.m, solver_name)
    t_start = time.perf_counter()
    try:
        rep = method(problem, config)
    except EqflowError as exc:
        status, nan = type(exc).__name__, math.nan
        print(f"error: {status}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - t_start
        return BenchRow(*head, 0, elapsed, nan, nan, nan, status, "error"), []
    row = BenchRow(*head, rep.iterations, rep.wall_time, rep.f_star, rep.kkt, rep.feas,
                   rep.status, rep.stop_reason)
    return row, rep.trace


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
    parser.add_argument(
        "--sigma0", type=float, default=None, dest="reg_shift", metavar="SIGMA0",
        help="regularization shift scale",
    )
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
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run the benchmark on ``argv`` (default: ``sys.argv[1:]``) and return the
    process exit code."""
    args = _build_parser().parse_args(argv)
    # Each SolverConfig setting is the dest of its flag.
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(SolverConfig)
        if getattr(args, f.name) is not None
    }
    try:
        config = SolverConfig(**overrides)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [
        name
        for chunk in (args.problem or ["all"])
        for part in chunk.split(",")
        if part
        for name in _SETS.get(part, (part,))
    ]
    if not names:
        print("error: --problem expanded to an empty list", file=sys.stderr)
        return 2
    if args.trace and args.format != "json":
        print("error: --trace requires --format json", file=sys.stderr)
        return 2
    try:
        problems = [get_problem(name, n=args.n) for name in names]
    except (UnknownProblem, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        out = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2

    # Factor each distinct system before any solve is timed, so that no row's
    # time_s depends on whether an earlier row shared its system.  A system
    # that raises here raises again in the solves of its own rows.
    for cs in {id(p.cs): p.cs for p in problems}.values():
        with contextlib.suppress(EqflowError):
            factor(cs)

    methods = [("continuation", solve)]
    if args.baseline:
        methods.append(("sqp", baseline_sqp))
    results = [
        _run_one(problem, name, method, config)
        for problem in problems
        for name, method in methods
    ]

    rows = [row for row, _ in results]
    if args.format == "table":
        text = _render_table(rows)
    elif args.format == "csv":
        text = _render_csv(rows)
    else:
        text = _render_json(rows, [trace for _, trace in results], args.trace)
    with out as fh:
        fh.write(text)

    converged = sum(1 for row in rows if row.status in _SUCCESS_STATUSES)
    print(f"{converged}/{len(rows)} runs converged", file=sys.stderr)
    return 0 if converged == len(rows) else 1
