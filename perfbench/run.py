"""Benchmark for eqflow: seeded workloads through the public ``eqflow.solve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stiff --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each workload runs in its own subprocess (``worker.py``) with the BLAS and
OpenMP pools pinned to one thread before numpy is imported, and with the
checkout's ``src`` on ``PYTHONPATH``.  With ``--trace 0`` the run is untraced
and reports the end-to-end metrics; set-up is repeated in separate
processes and its median reported.  With ``--trace 1`` it reports the
per-layer metrics instead.

Human-readable lines (environment, metrics with units, sample counts,
behaviour fingerprint) come first; the last line of stdout is one strict
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every solve passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 5


def _child(mode: str, workload: str, seed: int, seconds: float) -> dict:
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
        ),
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        # A run stops at the first round boundary after ``seconds``.
        timeout=4 * seconds + 120,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the worker's result with ``metrics`` complete."""
    if trace:
        return _child("trace", workload, seed, seconds)
    setups = [_child("setup", workload, seed, seconds)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    result = _child("measure", workload, seed, seconds)
    setups.append(result["setup_s"])
    result["metrics"] = {"setup_s": statistics.median(setups), **result["metrics"]}
    result["setup_samples"] = setups
    return result


def _print_report(workload: str, seed: int, trace: bool, result: dict, units: dict) -> None:
    env = result["environment"]
    threads = " ".join(f"{k}={v}" for k, v in env["threads"].items())
    print(
        f"environment: cpu {env['cpu']} ({env['cores']} cores); python {env['python']}; "
        f"numpy {env['numpy']}; scipy {env['scipy']}; blas {env['blas']}; {threads}"
    )
    if trace:
        print(
            f"{workload} seed={seed} traced: {result['solves']} solves of the fixed prefix, "
            f"{result['repeats']} untraced/traced repeat(s), per-layer totals for one prefix"
        )
    else:
        print(
            f"{workload} seed={seed}: {result['solves']} solves in {result['timed_s']:.3f} s "
            f"of solve time (one client, closed loop)"
        )
    for name, value in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(result['setup_samples'])} set-ups)"
        elif name == "solve_s.p50":
            note = f"  ({result['solves']} samples)"
        elif name == "solve_s.p90":
            note = f"  ({result['beyond_p90']} samples beyond)"
            if result["beyond_p90"] < 10:
                note += ", fewer than 10: read as the slowest solves, not a percentile"
        print(f"  {name:40s} {value:.6g} {units[name]}{note}")
    if not trace:
        attempted = result["attempted"]
        print(f"  {'converged_frac':40s} {result['converged_frac']:.6g} ratio")
        print(f"  {'failed_frac':40s} {result['failed'] / attempted:.6g} ratio")
    print(
        f"  fingerprint {result['fingerprint']} "
        f"(first {result['fingerprint_solves']} solves)"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "eqflow" / "__init__.py").is_file():
        print(f"error: no eqflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if set(results[name]["metrics"]) != set(units):
            print(f"error: {name} metrics differ from BENCHMARK.json", file=sys.stderr)
            return 1
        _print_report(name, args.seed, bool(args.trace), results[name], units)

    prefix = len(names) > 1
    failed = sum(r["failed"] for r in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {
            (f"{wl}.{name}" if prefix else name): {"value": value, "unit": units[name]}
            for wl, r in results.items()
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(summary, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
