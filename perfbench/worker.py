"""One workload in one process: set-up, then an untraced or a traced run.

``run.py`` starts this script with the BLAS and OpenMP pools pinned to one
thread through the environment, and with the checkout's ``src`` first on
``PYTHONPATH``.  Nothing heavy is imported at module level, so set-up time
covers importing ``eqflow`` too.  Prints one JSON object on stdout.

Modes:

* ``setup``: set up and report the set-up time only.
* ``measure``: solve the workload's stream back to back (one client, closed
  loop) for at least ``--seconds`` of solve time, stopping at a round
  boundary and never before the fixed prefix is done.  Every solve's output
  is checked.  Per solve, only its time and gradient count (and a converged
  solve's ``f_star``, for the deferred oracle check) are kept, so the
  process's memory grows by a few bytes per solve.  The peak memory is read
  before the oracle check builds its dense matrices.
* ``trace``: solve the fixed prefix alternately untraced and traced, and
  report per-layer totals for one prefix plus the tracing overhead.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

# Spans whose call count and self time the traced run reports.
LAYER_SPANS = (
    "problems.f",
    "problems.grad",
    "projection.factor",
    "projection.project_gradient",
    "projection.restore_feasibility",
    "lbfgs.apply_inverse",
    "lbfgs.make_pair",
    "hessian.fd_projected_hessian",
    "hessian.build_and_factor",
    "hessian.solve_shifted",
)

_MAX_FAILURE_MESSAGES = 20


def _set_up(workload_name: str):
    """Import eqflow, build the workload's instances, run the warm-up solve."""
    import eqflow

    if Path(eqflow.__file__).resolve().parent != ROOT / "src" / "eqflow":
        raise SystemExit(f"eqflow imported from {eqflow.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS, build_variants

    workload = WORKLOADS[workload_name]
    bases = build_variants(workload)
    name, n, m = workload.warmup
    eqflow.solve(eqflow.get_problem(name, n=n, m=m))
    return workload, bases


class Pass:
    """Outcome of a sequence of solves: timings, counters, output-check
    failures and fingerprint lines.  Full reports are kept only when asked
    for (the traced run's prefix)."""

    def __init__(self, checker, keep_reports: bool = False) -> None:
        self.checker = checker
        self.wall = 0.0
        self.walls = array("d")  # every solve attempted
        self.grad_evals = array("d")  # the solves that returned
        self.succeeded = 0
        self.attempted = 0
        self.failed_ids: set[int] = set()
        self.failures: list[str] = []
        self.lines: list[str] = []
        self.reports: list | None = [] if keep_reports else None

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def _fail(self, solve_id: int, messages: list[str]) -> None:
        self.failed_ids.add(solve_id)
        room = _MAX_FAILURE_MESSAGES - len(self.failures)
        self.failures.extend(messages[:room])

    def solve(self, solve_fn, key, problem, argument, fingerprint: bool) -> None:
        """Time one solve, check its output and record it."""
        from checks import SUCCESS, fingerprint_line
        from eqflow import EqflowError

        solve_id = self.attempted
        self.attempted += 1
        error = ""
        start = time.perf_counter()
        try:
            report = solve_fn(argument)
        except EqflowError as exc:
            report, error = None, type(exc).__name__
            self._fail(solve_id, [f"{problem.name} {key}: {error}: {exc}"])
        elapsed = time.perf_counter() - start
        self.walls.append(elapsed)
        self.wall += elapsed
        if fingerprint:
            self.lines.append(fingerprint_line(key, problem.name, report, error))
        if report is None:
            return
        self.grad_evals.append(report.gradient_evals)
        self.succeeded += report.status in SUCCESS
        found = self.checker.problems(problem, report, solve_id)
        if found:
            self._fail(solve_id, [f"{problem.name} {key}: {p}" for p in found])
        if self.reports is not None:
            self.reports.append(report)

    def check_oracle(self) -> None:
        """Run the deferred oracle comparisons of the solves so far."""
        for solve_id, message in self.checker.oracle_problems():
            self._fail(solve_id, [f"solve #{solve_id} {message}"])


def _measure(workload, bases, seed: int, seconds: float) -> dict:
    from checks import OutputChecker, digest
    from eqflow import SolverConfig, solve
    from workloads import instance_stream

    k = len(bases)
    prefix = workload.prefix_rounds * k
    out = Pass(OutputChecker(SolverConfig().tol))
    stream = instance_stream(workload, bases, seed)
    while out.attempted < prefix or out.wall < seconds or out.attempted % k:
        key, problem = next(stream)
        out.solve(solve, key, problem, problem, out.attempted < prefix)
    # Before the oracle's dense KKT systems are built.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.check_oracle()

    walls = out.walls
    p90 = statistics.quantiles(walls, n=10)[-1]
    # A run is whole rounds, so walls[j::k] are the solves of variant j.
    typical_round = sum(statistics.median(walls[j::k]) for j in range(k))
    return {
        "metrics": {
            # Solves per second over a typical round, the sum of each
            # variant's median time: a host stall during a few solves then
            # moves p90 but not the throughput.
            "solves_per_s": k / typical_round,
            "solve_s.p50": statistics.median(walls),
            "solve_s.p90": p90,
            # The median: a few solves probe curvature many times over, and
            # the mean would follow which of them a run happened to draw.
            "grad_evals_per_solve": statistics.median(out.grad_evals),
            "peak_rss_mb": peak_rss_mb,
        },
        "converged_frac": out.succeeded / out.attempted,
        "solves": len(walls),
        "beyond_p90": sum(t > p90 for t in walls),
        "timed_s": out.wall,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "fingerprint": digest(out.lines),
        "fingerprint_solves": len(out.lines),
    }


def _prefix_pass(workload, bases, seed: int, checker, tracer=None) -> Pass:
    import eqflow
    from tracing import SOLVE_SPAN, TracedProblem
    from workloads import instance_stream

    out = Pass(checker, keep_reports=True)
    solve_fn = eqflow.solve if tracer is None else tracer.wrap(SOLVE_SPAN, eqflow.solve)
    stream = instance_stream(workload, bases, seed)
    for _ in range(workload.prefix_rounds * len(bases)):
        key, problem = next(stream)
        argument = problem if tracer is None else TracedProblem(problem, tracer)
        out.solve(solve_fn, key, problem, argument, True)
    out.check_oracle()
    return out


def _trace(workload, bases, seed: int, seconds: float) -> dict:
    from checks import OutputChecker, digest
    from eqflow import ILL_POSED, SolverConfig
    from tracing import SOLVE_SPAN, Tracer

    checker = OutputChecker(SolverConfig().tol)
    plain_walls, traced_walls, tracers = [], [], []
    digests = set()
    elapsed = 0.0
    # Untraced and traced passes alternate, so both see the same host
    # conditions; repeat while another pair is expected to fit in the time.
    while not tracers or elapsed + elapsed / len(tracers) <= seconds:
        plain = _prefix_pass(workload, bases, seed, checker)
        tracer = Tracer()
        with tracer.installed():
            traced = _prefix_pass(workload, bases, seed, checker, tracer)
        plain_walls.append(plain.wall)
        traced_walls.append(traced.wall)
        tracers.append(tracer)
        elapsed += plain.wall + traced.wall
        digests.update((digest(plain.lines), digest(traced.lines)))
    # Every pass solves the same inputs, so the last pair's failures stand
    # for all of them.
    failures = plain.failures + traced.failures
    failed = max(plain.failed, traced.failed)
    if len(digests) != 1:
        failed += 1
        failures.append("reruns of the same prefix were not bit-identical")
    unknown = set(tracer.calls) - set(LAYER_SPANS) - {SOLVE_SPAN}
    if unknown:
        failed += 1
        failures.append(f"spans outside the reported layers: {sorted(unknown)}")

    reports = traced.reports
    iterations = sum(r.iterations for r in reports)
    rows = [rec for r in reports for rec in r.trace]
    ill_accepted = sum(rec.accepted and rec.phase == ILL_POSED for rec in rows)
    factor_calls = tracer.calls["hessian.build_and_factor"]
    pair_calls = tracer.calls["lbfgs.make_pair"]
    metrics: dict[str, float] = {}
    for span in LAYER_SPANS:
        metrics[f"{span}.calls"] = tracer.calls[span]
        metrics[f"{span}.self_s"] = statistics.median(t.self_ns[span] for t in tracers) / 1e9
    metrics.update(
        {
            "lbfgs.make_pair.usable_frac": tracer.usable_pairs / pair_calls if pair_calls else 0.0,
            "hessian.build_and_factor.singular": tracer.raised["hessian.build_and_factor"],
            "solver.solve.s": statistics.median(traced_walls),
            "solver.self_s": statistics.median(t.self_ns[SOLVE_SPAN] for t in tracers) / 1e9,
            "solver.iterations": iterations,
            "solver.accepted_frac": sum(r.accepted_steps for r in reports) / iterations,
            "solver.ill_posed_iters": sum(rec.phase == ILL_POSED for rec in rows),
            "solver.hessian_rebuilds": sum(r.hessian_evals for r in reports),
            "solver.factors_per_accept": factor_calls / ill_accepted if ill_accepted else 0.0,
            "solver.converged_frac": traced.succeeded / traced.attempted,
            "trace.overhead_frac": statistics.median(traced_walls)
            / statistics.median(plain_walls)
            - 1.0,
        }
    )
    return {
        "metrics": metrics,
        "solves": len(reports),
        "repeats": len(tracers),
        "attempted": traced.attempted,
        "failed": min(failed, traced.attempted),
        "failures": failures,
        "fingerprint": digests.pop() if len(digests) == 1 else "mismatch",
        "fingerprint_solves": len(traced.lines),
    }


def _environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu": cpu or "unknown",
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    workload, bases = _set_up(args.workload)
    result = {"setup_s": time.perf_counter() - _START}
    if args.mode == "measure":
        result.update(_measure(workload, bases, args.seed, args.seconds))
    elif args.mode == "trace":
        result.update(_trace(workload, bases, args.seed, args.seconds))
    if args.mode != "setup":
        result["environment"] = _environment()
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
