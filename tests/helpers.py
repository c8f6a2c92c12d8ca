"""Shared test utilities: dense oracles and random instance generators."""

import dataclasses

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from contract import check_status_rule
from eqflow import (
    ConstraintSystem,
    IterationRecord,
    build_constraints,
    factor,
    get_problem,
    project_gradient,
    quadratic_form,
)


def dense_projector(basis):
    """Materialize the tangent-space projector by applying the projection
    operation to the canonical basis vectors."""
    return project_gradient(basis, np.eye(basis.n))


def count_factorizations(monkeypatch):
    """Counts the runs of LAPACK's ``dgeqp3``, which :func:`factor` makes once
    per factorization; its workspace queries (``lwork=-1``) do not count.
    Returns the list that grows by one entry per run."""
    calls = []
    original = scipy.linalg.lapack.dgeqp3

    def counted(*args, **kwargs):
        if kwargs.get("lwork") != -1:
            calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgeqp3", counted)
    return calls


def random_constraints(rng, n_max=40):
    """A random full-rank-looking constraint system with consistent b."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, n + 1))
    a = rng.standard_normal((m, n))
    z = rng.standard_normal(n)
    return ConstraintSystem(a=a, b=a @ z)


def rank_deficient_constraints(rng, n_max=40):
    """A planted rank-deficient system (consistent by construction); returns
    (cs, planted_rank)."""
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(2, n + 1))
    r = int(rng.integers(1, m))
    return planted_rank_system(rng, n, m, r), r


def planted_rank_system(rng, n, m, r):
    """A consistent m-by-n system ``A = U V`` with U m-by-r and V r-by-n
    Gaussian, so of rank r (almost surely)."""
    a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    return ConstraintSystem(a=a, b=a @ rng.standard_normal(n))


def problem_on(cs, name, seed):
    """The catalog objective ``name`` (which must take any n) under ``cs``,
    started from a point drawn uniformly from [-2, 2]^n."""
    start = np.random.default_rng(seed).uniform(-2.0, 2.0, size=cs.n)
    return dataclasses.replace(get_problem(name, n=cs.n, m=1), cs=cs, x0=start)


def with_exact_hessian(problem):
    """The quadratic catalog instance ``problem`` with its matrix
    ``quadratic_form(name, n)[0]`` attached as ``hess``, which ``solve`` then
    projects instead of probing."""
    q = quadratic_form(problem.name, problem.n)[0]
    return dataclasses.replace(problem, hess=lambda x: q)


def scaled_dependent_row_sphere():
    """sphere at n=20 on ``build_constraints(20)`` plus the dependent row
    ``1e6 (a0 + a1)``: a rank-deficient, badly scaled system."""
    cs = build_constraints(20)
    a = np.vstack([cs.a, 1e6 * (cs.a[0] + cs.a[1])])
    b = np.append(cs.b, 1e6 * (cs.b[0] + cs.b[1]))
    return dataclasses.replace(get_problem("sphere", n=20), cs=ConstraintSystem(a=a, b=b))


_SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def rank_deficient_systems(draw, n_max=10):
    """Hypothesis strategy: m rows of rank r < m, so at least one row is a
    combination of the others."""
    n = draw(st.integers(3, n_max))
    m = draw(st.integers(2, n))
    r = draw(st.integers(1, m - 1))
    return planted_rank_system(np.random.default_rng(draw(_SEEDS)), n, m, r)


@st.composite
def one_freedom_systems(draw, n_max=10):
    """Hypothesis strategy: m = n - 1 rows of full rank, which leave one
    degree of freedom."""
    n = draw(st.integers(2, n_max))
    return planted_rank_system(np.random.default_rng(draw(_SEEDS)), n, n - 1, n - 1)


@st.composite
def constrained_problems(draw, systems, names):
    """Hypothesis strategy: :func:`problem_on` a system from ``systems`` and
    an objective from ``names``."""
    return problem_on(draw(systems), draw(st.sampled_from(names)), draw(_SEEDS))


def svd_rank(a, rel_tol=1e-10):
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s[0]))


def central_diff_gradient(f, x, rel_step=1e-6):
    """Component-wise central differences with per-coordinate step scaling."""
    g = np.zeros_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def feasible_points(cs, count, seed):
    """Random points restored onto {x : Ax = b}."""
    from eqflow import restore_feasibility

    basis = factor(cs)
    rng = np.random.default_rng(seed)
    return [
        restore_feasibility(basis, rng.uniform(-2.0, 2.0, size=cs.n))
        for _ in range(count)
    ]


def dense_lbfgs_model(pair):
    """Materialize the memory-one quasi-Newton matrix."""
    n = pair.s.size
    if not pair.usable:
        return np.eye(n)
    s, y = pair.s, pair.y
    return np.eye(n) - np.outer(s, s) / (s @ s) + np.outer(y, y) / (y @ y)


def random_usable_pair(rng, n, min_cos=0.0):
    """A random usable (step, gradient-change) pair; ``min_cos`` bounds the
    angle between s and y away from 90 degrees so the model stays
    well-conditioned for tight oracle comparisons."""
    from eqflow.lbfgs import make_pair

    while True:
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        pair = make_pair(s, y)
        cos = abs(float(s @ y)) / (np.linalg.norm(s) * np.linalg.norm(y))
        if pair.usable and cos >= min_cos:
            return pair


def rosenbrock_dense_hessian(x):
    """Analytic curvature of the chained banana function."""
    n = x.size
    h = np.zeros((n, n))
    for i in range(n - 1):
        h[i, i] += 1200.0 * x[i] ** 2 - 400.0 * x[i + 1] + 2.0
        h[i, i + 1] += -400.0 * x[i]
        h[i + 1, i] += -400.0 * x[i]
        h[i + 1, i + 1] += 200.0
    return h


def traces_equal(t1, t2, ignore=()):
    """Bit-identical trace comparison, ignoring per-iteration wall time and
    the row fields named in ``ignore``."""
    if len(t1) != len(t2):
        return False
    names = [
        f.name
        for f in dataclasses.fields(IterationRecord)
        if f.name != "wall_time_ns" and f.name not in ignore
    ]
    for r1, r2 in zip(t1, t2):
        for name in names:
            v1, v2 = getattr(r1, name), getattr(r2, name)
            if v1 != v2 and not (v1 != v1 and v2 != v2):  # NaN-safe
                return False
    return True


def assert_reports_equal(r1, r2, ignore_rows=()):
    """Every field of two reports bit for bit, except the wall times and the
    trace row fields named in ``ignore_rows``."""
    for f in dataclasses.fields(r1):
        v1, v2 = getattr(r1, f.name), getattr(r2, f.name)
        if f.name == "trace":
            assert traces_equal(v1, v2, ignore_rows)
        elif f.name == "x_star":
            assert np.array_equal(v1, v2)
        elif f.name != "wall_time":
            assert v1 == v2, f.name


def assert_status_rule(report, tol):
    """The report's status follows from its final point by the one rule that
    README.md states, and its (status, stop_reason) pair is documented."""
    check_status_rule(report.status, report.stop_reason, report.kkt, report.feas, tol)
