"""Output checks for every solve, and the behaviour fingerprint.

The thresholds are the ones the test suite uses for the same invariants:
feasibility and step infeasibility at 1e-8, oracle agreement at 1e-6
relative.
"""

from __future__ import annotations

import hashlib
from array import array

from eqflow import (
    CONVERGED,
    MAX_ITERATIONS,
    SINGLE_FEASIBLE_POINT,
    STEP_FAILURE,
    ProblemInstance,
    SolverReport,
    UnknownProblem,
    quadratic_form,
    quadratic_oracle,
)

STATUSES = (CONVERGED, MAX_ITERATIONS, STEP_FAILURE, SINGLE_FEASIBLE_POINT)
SUCCESS = (CONVERGED, SINGLE_FEASIBLE_POINT)

_ROUNDOFF = 1e-8
_ORACLE_RTOL = 1e-6


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= _ORACLE_RTOL * max(1.0, abs(ref))


class OutputChecker:
    """Checks solver reports.

    The comparison with ``quadratic_oracle`` is deferred: :meth:`problems`
    only records a converged solve's ``f_star`` under its catalog instance
    (name, n, m), and :meth:`oracle_problems` later builds each instance's
    dense KKT system once and compares.  A run can so read its peak memory
    before the oracle's matrices exist.
    """

    def __init__(self, tol: float) -> None:
        self.tol = tol
        self._oracle: dict[tuple[str, int, int], float | None] = {}
        # instance -> (its constraints, solve ids, f_star values)
        self._pending: dict[tuple[str, int, int], tuple] = {}

    def _oracle_fstar(self, key: tuple[str, int, int], cs) -> float | None:
        if key not in self._oracle:
            try:
                q, c, const = quadratic_form(key[0], key[1])
            except UnknownProblem:
                self._oracle[key] = None
            else:
                self._oracle[key] = quadratic_oracle(cs, q, c)[1] + const
        return self._oracle[key]

    def problems(self, problem: ProblemInstance, report: SolverReport, solve_id: int) -> list[str]:
        """Every violated output property of one solve that can be checked
        at once; empty when it passes.  ``solve_id`` names the solve in
        :meth:`oracle_problems`."""
        found = []
        if report.status not in STATUSES:
            found.append(f"unknown status {report.status!r}")
        if not report.feas <= _ROUNDOFF:
            found.append(f"feas {report.feas!r} above roundoff")
        if report.status == CONVERGED and not report.kkt <= self.tol:
            found.append(f"Converged with kkt {report.kkt!r} > tol")
        accepted_f = [rec.f for rec in report.trace if rec.accepted]
        if any(not later <= earlier for earlier, later in zip(accepted_f, accepted_f[1:])):
            found.append("f increased over accepted steps")
        if any(
            not rec.step_infeas <= _ROUNDOFF * max(1.0, rec.step_norm)
            for rec in report.trace
        ):
            found.append("a step left the null space of A")
        if report.status == CONVERGED:
            key = (problem.name, problem.n, problem.cs.m)
            _, ids, values = self._pending.setdefault(
                key, (problem.cs, array("q"), array("d"))
            )
            ids.append(solve_id)
            values.append(report.f_star)
            if problem.known_fstar is not None and not _close(
                report.f_star, problem.known_fstar
            ):
                found.append(f"f_star {report.f_star!r} != known {problem.known_fstar!r}")
        return found

    def oracle_problems(self) -> list[tuple[int, str]]:
        """``(solve_id, message)`` for every converged exact quadratic
        recorded since the last call whose ``f_star`` misses the oracle."""
        found = []
        for key, (cs, ids, values) in self._pending.items():
            ref = self._oracle_fstar(key, cs)
            if ref is None:
                continue
            found.extend(
                (solve_id, f"{key[0]}: f_star {value!r} != oracle {ref!r}")
                for solve_id, value in zip(ids, values)
                if not _close(value, ref)
            )
        self._pending.clear()
        return found


def fingerprint_line(key: str, problem: str, report: SolverReport | None, error: str = "") -> str:
    """One solve's line in the behaviour fingerprint; a solve that raised is
    fingerprinted by its exception type."""
    if report is None:
        return f"{problem}|{key}|error:{error}"
    return (
        f"{problem}|{key}|{report.status}|{report.iterations}|"
        f"{report.f_star!r}|{report.kkt!r}|{report.feas!r}"
    )


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
