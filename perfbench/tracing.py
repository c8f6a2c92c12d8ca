"""Per-layer timing from outside ``eqflow``.

Nothing here edits the package.  While a :class:`Tracer` is installed, each
module attribute in :data:`TARGETS` is replaced by a timing wrapper; the
attribute patched is the name the caller looks up (``solver`` imported
``factor`` into its own namespace, so ``eqflow.solver.factor`` is the one
``solve`` calls).  The user's callbacks are timed through
:class:`TracedProblem`, and the solve itself is the root span.

Spans nest: a wrapper adds its duration to its parent's child time, and a
span's self time is its duration minus its children's.  The self times of
all spans therefore add up to the root spans' durations.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# (module, attribute) -> span name, one per call site that reaches a layer.
TARGETS = {
    ("eqflow.solver", "factor"): "projection.factor",
    ("eqflow.solver", "project_gradient"): "projection.project_gradient",
    ("eqflow.solver", "restore_feasibility"): "projection.restore_feasibility",
    ("eqflow.projection", "restore_feasibility"): "projection.restore_feasibility",
    ("eqflow.hessian", "project_gradient"): "projection.project_gradient",
    ("eqflow.solver", "apply_inverse"): "lbfgs.apply_inverse",
    ("eqflow.solver", "make_pair"): "lbfgs.make_pair",
    ("eqflow.solver", "fd_projected_hessian"): "hessian.fd_projected_hessian",
    ("eqflow.solver", "build_and_factor"): "hessian.build_and_factor",
    ("eqflow.solver", "solve_shifted"): "hessian.solve_shifted",
}

SOLVE_SPAN = "solver.solve"


class Tracer:
    """Call counts, self time and raised exceptions per span name, kept in
    memory and aggregated as the spans close."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.raised: Counter[str] = Counter()
        self.usable_pairs = 0
        self._child_ns: list[int] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._child_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                elapsed = time.perf_counter_ns() - start
                self.calls[name] += 1
                self.self_ns[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def _make_pair(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def counted(*args: Any, **kwargs: Any) -> Any:
            pair = fn(*args, **kwargs)
            self.usable_pairs += bool(pair.usable)
            return pair

        return self.wrap("lbfgs.make_pair", counted)

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every target for the duration of the block, then restore
        the original attributes."""
        originals = []
        try:
            for (module_name, attr), name in TARGETS.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                if name == "lbfgs.make_pair":
                    setattr(module, attr, self._make_pair(original))
                else:
                    setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


class TracedProblem:
    """Stands in for a problem object and times its ``f``/``grad`` callbacks."""

    def __init__(self, problem: Any, tracer: Tracer) -> None:
        self.cs = problem.cs
        self.x0 = problem.x0
        self.f = tracer.wrap("problems.f", problem.f)
        self.grad = tracer.wrap("problems.grad", problem.grad)
        self.hess = getattr(problem, "hess", None)
