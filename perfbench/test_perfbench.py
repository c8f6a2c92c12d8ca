"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the root of
the checkout (about a minute)."""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eqflow
import worker
from checks import OutputChecker
from workloads import WORKLOADS, build_variants, instance_stream

ROOT = Path(__file__).resolve().parents[1]

# Seeds 0-9 and 100-129 were used while choosing the workloads and bounds.
UNTUNED_SEEDS = (9001, 9002, 9003)


def _prefix(name: str, seed: int) -> list[tuple[str, eqflow.ProblemInstance]]:
    workload = WORKLOADS[name]
    bases = build_variants(workload)
    return list(
        itertools.islice(
            instance_stream(workload, bases, seed), workload.prefix_rounds * len(bases)
        )
    )


def test_benchmark_json_names_the_generated_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    first, again, other = _prefix(name, 5), _prefix(name, 5), _prefix(name, 6)
    assert [key for key, _ in first] == [key for key, _ in again]
    for (_, a), (_, b), (_, c) in zip(first, again, other):
        assert (a.name, a.n, a.cs.m) == (b.name, b.n, b.cs.m) == (c.name, c.n, c.cs.m)
        assert np.array_equal(a.x0, b.x0)
        assert not np.array_equal(a.x0, c.x0)


def test_traced_self_times_add_up_to_the_solve_span():
    workload = WORKLOADS["tiny"]
    result = worker._trace(workload, build_variants(workload), seed=3, seconds=0.0)
    metrics = result["metrics"]
    children = sum(metrics[f"{span}.self_s"] for span in worker.LAYER_SPANS)
    total = children + metrics["solver.self_s"]
    assert result["failures"] == []
    assert abs(total - metrics["solver.solve.s"]) <= 0.03 * metrics["solver.solve.s"]
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in per_layer}


@pytest.mark.parametrize("seed", UNTUNED_SEEDS)
def test_flow_stays_in_the_well_posed_phase(seed):
    workload = WORKLOADS["flow"]
    result = worker._trace(workload, build_variants(workload), seed=seed, seconds=0.0)
    metrics = result["metrics"]
    assert result["failures"] == []
    assert metrics["solver.ill_posed_iters"] == 0
    for span in ("fd_projected_hessian", "build_and_factor", "solve_shifted"):
        assert metrics[f"hessian.{span}.calls"] == 0


def test_checker_flags_each_violated_property():
    problem = eqflow.get_problem("booth")
    report = eqflow.solve(problem)
    checker = OutputChecker(tol=1e-6)

    def found(rep):
        return checker.problems(problem, rep, 0) + [m for _, m in checker.oracle_problems()]

    assert found(report) == []
    rows = report.trace
    broken = [
        dataclasses.replace(report, status="Done"),
        dataclasses.replace(report, feas=1e-6),
        dataclasses.replace(report, kkt=1e-3),
        dataclasses.replace(report, f_star=report.f_star + 1e-3),
        dataclasses.replace(
            report, trace=rows[:-1] + [dataclasses.replace(rows[-1], step_infeas=1e-6)]
        ),
        dataclasses.replace(
            report, trace=rows[:-1] + [dataclasses.replace(rows[-1], f=rows[0].f + 1.0)]
        ),
    ]
    for bad in broken:
        assert found(bad), bad


def test_oracle_check_is_deferred_and_names_the_solve():
    problem = eqflow.get_problem("sphere", n=20)
    report = eqflow.solve(problem)
    assert report.status == eqflow.CONVERGED
    checker = OutputChecker(tol=1e-6)
    assert checker.problems(problem, report, 0) == []
    assert checker.problems(problem, dataclasses.replace(report, f_star=report.f_star + 1.0), 1) == []
    bad = checker.oracle_problems()
    assert [solve_id for solve_id, _ in bad] == [1]
    assert checker.oracle_problems() == []


def test_run_prints_strict_json_with_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in end_to_end}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _wide_zakharov():
    # The start the tiny workload drew for solve 0:204:2 from [-3, 3]^10
    # before zakharov's box was narrowed; its gradient there is about 3e5.
    rng = np.random.default_rng([0, 204])
    rng.uniform(-3.0, 3.0, size=4)  # booth and matyas come first in the round
    return dataclasses.replace(eqflow.get_problem("zakharov"), x0=rng.uniform(-3.0, 3.0, size=10))


def _wide_beale():
    # The start of solve 111:947:5 before beale's box was narrowed; the five
    # variants before it draw 18 numbers.
    rng = np.random.default_rng([111, 947])
    rng.uniform(size=18)
    return dataclasses.replace(eqflow.get_problem("beale"), x0=rng.uniform(-3.0, 3.0, size=2))


def _griewank_few_rows():
    # The start of solve 1007:1:10 when flow also ran griewank and m = 333
    # (a 16-variant round; ten variants of n=1000 come before it).
    rng = np.random.default_rng([1007, 1])
    rng.standard_normal(10 * 1000)
    base = eqflow.get_problem("griewank", n=1000, m=333)
    return dataclasses.replace(base, x0=base.x0 + 1e-2 * rng.standard_normal(1000))


def _trid_few_rows():
    # The start of solve 1004:4:1 when flow also ran trid at m = 333, right
    # after sphere at m = 333.
    rng = np.random.default_rng([1004, 4])
    rng.standard_normal(1000)
    base = eqflow.get_problem("trid", n=1000, m=333)
    return dataclasses.replace(base, x0=base.x0 + 1e-2 * rng.standard_normal(1000))


def _perturbed_dixon_price():
    base = eqflow.get_problem("dixon_price", n=300)
    return dataclasses.replace(
        base, x0=base.x0 + 1e-2 * np.random.default_rng(73).standard_normal(300)
    )


def _perturbed_styblinski_tang():
    # The start of solve 110:29:3 when styblinski_tang was the stiff
    # workload's fourth variant.
    rng = np.random.default_rng([110, 29])
    rng.standard_normal(3 * 300)
    base = eqflow.get_problem("styblinski_tang", n=300)
    return dataclasses.replace(base, x0=base.x0 + 1e-2 * rng.standard_normal(300))


# Inputs the workloads would contain but for a defect in eqflow: its steps
# drift off Ax = b by more than the test suite's 1e-8.  The workloads leave
# them out so that a run passes its checks.  These tests keep the defect in
# view and start passing (and so failing, being strict) once it is fixed.
@pytest.mark.xfail(strict=True, reason="known defect: feasibility drifts above 1e-8")
@pytest.mark.parametrize(
    "make",
    [
        _wide_zakharov,
        _wide_beale,
        _griewank_few_rows,
        _trid_few_rows,
        _perturbed_dixon_price,
        _perturbed_styblinski_tang,
    ],
)
def test_known_drift_inputs_stay_feasible(make):
    assert eqflow.solve(make()).feas <= 1e-8
