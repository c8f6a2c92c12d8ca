"""Seeded workload generators.

A workload is an endless stream of solver inputs built from a seed.  The
stream is cut into rounds; every round solves each of the workload's
problem variants once, so a run that stops at a round boundary always holds
the same mix of problems whatever its length.  Round ``r`` draws its start
points from its own generator, seeded by ``(seed, r)``, so any prefix of the
stream is the same however far the stream is read.

Only the generated ``ProblemInstance`` objects reach ``eqflow``.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from eqflow import ProblemInstance, get_problem

# (catalog name, n, m); m=None takes the catalog's default split n/2.
Variant = tuple[str, int, int | None]


@dataclass(frozen=True)
class Workload:
    """A named stream of solver inputs.

    ``variants`` are solved in this order in every round.
    ``start`` maps a round's generator and a catalog instance to that solve's
    start point.
    ``prefix_rounds`` is the fixed leading part of the stream that every run
    completes: the behaviour fingerprint and the traced run cover exactly it.
    ``warmup`` is the untimed solve of set-up; it starts from the catalog
    start point, so set-up does the same work for every seed.
    """

    name: str
    variants: tuple[Variant, ...]
    start: Callable[[np.random.Generator, ProblemInstance], np.ndarray]
    prefix_rounds: int
    warmup: Variant


def _perturbed_ones(rng: np.random.Generator, base: ProblemInstance) -> np.ndarray:
    return base.x0 + 1e-2 * rng.standard_normal(base.n)


# Half-widths narrower than 3 for the problems whose gradients reach 1e4 to
# 1e5 in [-3, 3]^n: from there eqflow's steps drift off the constraint set by
# more than 1e-8, a known defect (see README.md).  Inside these boxes the
# drift stays near 1e-14.
_HALF_WIDTH = {"zakharov": 1.0, "beale": 2.0}


def _uniform_box(rng: np.random.Generator, base: ProblemInstance) -> np.ndarray:
    half_width = _HALF_WIDTH.get(base.name, 3.0)
    return rng.uniform(-half_width, half_width, size=base.n)


_STIFF_N = 300
_FLOW_N = 1000
# Below n/2 rows project_gradient takes its g - Q1 (Q1^T g) branch, from
# n/2 on its Q2 (Q2^T g) branch.
_FLOW_ROWS = (_FLOW_N // 3, _FLOW_N // 2, 2 * _FLOW_N // 3, 7 * _FLOW_N // 8)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stiff",
            # dixon_price and styblinski_tang are left out: from these starts
            # some of their solves end more than 1e-8 off the constraint set,
            # a known defect (see README.md).
            variants=tuple(
                (name, _STIFF_N, None)
                for name in ("sum_squares", "rotated_hyper_ellipsoid", "rosenbrock")
            ),
            start=_perturbed_ones,
            prefix_rounds=10,
            warmup=("rosenbrock", _STIFF_N, None),
        ),
        Workload(
            name="flow",
            # Round robin over the row counts.  Only sphere runs at m = n/3:
            # some trid and griewank solves there end more than 1e-8 off the
            # constraint set, a known defect (see README.md).  ackley is left
            # out: about one perturbed start in twenty switches it to the
            # ill-posed phase.
            variants=tuple(
                (name, _FLOW_N, m)
                for m in _FLOW_ROWS
                for name in ("sphere", "trid", "griewank")
                if name == "sphere" or 2 * m >= _FLOW_N
            ),
            start=_perturbed_ones,
            prefix_rounds=2,
            warmup=("sphere", _FLOW_N, None),
        ),
        Workload(
            name="tiny",
            variants=(
                ("booth", 2, None),
                ("matyas", 2, None),
                ("zakharov", 10, None),
                ("three_hump_camel", 2, None),
                ("six_hump_camel", 2, None),
                ("beale", 2, None),
            ),
            start=_uniform_box,
            prefix_rounds=50,
            warmup=("booth", 2, None),
        ),
    )
}


def build_variants(workload: Workload) -> list[ProblemInstance]:
    """The catalog instances behind a workload's variants, in round order."""
    return [get_problem(name, n=n, m=m) for name, n, m in workload.variants]


def instance_stream(
    workload: Workload, bases: list[ProblemInstance], seed: int
) -> Iterator[tuple[str, ProblemInstance]]:
    """Yield ``(key, instance)`` forever; ``key`` names the solve uniquely
    within the workload as ``seed:round:variant``."""
    for rnd in itertools.count():
        rng = np.random.default_rng([seed, rnd])
        for index, base in enumerate(bases):
            yield (
                f"{seed}:{rnd}:{index}",
                dataclasses.replace(base, x0=workload.start(rng, base)),
            )
