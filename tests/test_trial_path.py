"""The solvers' trial path: where points are checked, and what its in-place
arithmetic may not change.

Points are checked at the boundary.  The configs check x0, the public
problem methods check their argument, and the solvers check every trial
point they form, through its squared step length from the finite anchor,
before the oracle sees it.  A shipped problem's ``oracle().evaluate``
trusts its point.  The model step, the projection and the l1 prox form
their results in buffers of their own, so the caller's arrays stay
untouched and every stored iterate is the point that was evaluated.
"""

import math

import numpy as np
import pytest

from modelgrad.convex import ConvexConfig, convex_minimize, model_step
from modelgrad.core import (
    FeasibleSet,
    FunctionOracle,
    ModelOracle,
    NonFiniteTrialPointError,
    project_ball,
)
from modelgrad.harness import ExperimentSpec, _composite_objects
from modelgrad.nonsmooth import NonsmoothConfig, nonsmooth_minimize
from modelgrad.pl import PLConfig, pl_minimize
from modelgrad.problems import (
    L1Penalty,
    PLQuadratic,
    generate_task1,
    generate_task2,
    pl_quadratic_make,
)

N_DIM = 20
TINY_L0 = 1e-310  # g / L overflows, so the first trial point is not finite
SOLVERS = ("algo1", "nonsmooth", "algo2")
WHOLE = FeasibleSet.whole_space()


def _quadratic():
    rng = np.random.default_rng(8)
    return pl_quadratic_make(rng.standard_normal((30, N_DIM)), rng.standard_normal(30))


def _solve(solver, oracle, feasible, x0, L0=1.0, N=30):
    if solver == "algo2":
        return pl_minimize(PLConfig(x0=x0, L0=L0, N=N, store_iterates=True), oracle)
    base = ConvexConfig(x0=x0, L0=L0, N=N, R=1.0, store_iterates=True)
    if solver == "algo1":
        return convex_minimize(base, oracle, feasible)
    cfg = NonsmoothConfig(base=base, epsilon=0.05, Delta_known=2.0)
    return nonsmooth_minimize(cfg, oracle, feasible)[0]


def _problem(solver):
    """(problem, feasible) each solver runs on: the ball sum for the model-step
    solvers, a least-squares quadratic for algo2."""
    if solver == "algo2":
        return _quadratic(), None
    prob = generate_task1(n=N_DIM, m=5, seed=3)
    return prob, prob.feasible


@pytest.mark.parametrize("solver", SOLVERS)
def test_non_finite_trial_point_fails_at_once(solver):
    """A tiny L0 overflows the first step; the run raises at iteration 0
    instead of evaluating the point, which the ball sum would read as 0."""
    prob, feasible = _problem(solver)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as info:
            _solve(solver, prob.oracle(), feasible, np.zeros(N_DIM), L0=TINY_L0)
    assert getattr(info.value, "iteration", 0) == 0


@pytest.mark.parametrize("solver", SOLVERS)
def test_non_finite_trial_point_error_names_point_and_iteration(solver):
    """The refusal comes from the solver, for any oracle: one built from
    callables never sees the point."""
    prob, feasible = _problem(solver)
    seen = []

    def value(x):
        seen.append(x)
        return prob.value(x)

    gradient = prob.gradient if isinstance(prob, PLQuadratic) else prob.subgradient
    oracle = FunctionOracle(value, gradient)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteTrialPointError, match="trial point at iteration 0") as info:
            _solve(solver, oracle, feasible, np.zeros(N_DIM), L0=TINY_L0)
    assert info.value.iteration == 0
    assert not np.isfinite(info.value.point).all()
    assert len(seen) == 1  # x0 only
    assert np.isfinite(seen[0]).all()


def test_finite_point_with_an_overflowing_step_is_evaluated():
    """Only a non-finite point is refused: a finite trial point whose
    squared step length overflows still reaches the oracle."""
    seen = []

    def value(x):
        seen.append(x.copy())
        return 0.0

    oracle = FunctionOracle(value, lambda x: np.full(2, -1e300))
    cfg = ConvexConfig(x0=np.array([-1e300, -1e300]), L0=2.0, N=1)
    with np.errstate(over="ignore"):
        convex_minimize(cfg, oracle, FeasibleSet.whole_space())
    assert seen[1].tobytes() == np.zeros(2).tobytes()  # x0 - g/L, |d|^2 = inf


@pytest.mark.parametrize("solver", SOLVERS + ("composite",))
def test_solvers_write_into_no_point_they_keep(solver):
    """The caller's x0 is unchanged, and a later write into it reaches no
    point the trace keeps; re-evaluating each stored iterate gives its
    recorded value bitwise; x_final is the last iterate."""
    if solver == "composite":
        oracle = _composite_objects(ExperimentSpec(task="composite", n=N_DIM, m=15), 4)
        fresh = lambda: _composite_objects(  # noqa: E731
            ExperimentSpec(task="composite", n=N_DIM, m=15), 4
        )
        feasible, run_as = FeasibleSet.whole_space(), "algo1"
    else:
        prob, feasible = _problem(solver)
        oracle, fresh, run_as = prob.oracle(), prob.oracle, solver
    x0 = np.random.default_rng(9).uniform(-0.05, 0.05, N_DIM)
    before = x0.copy()
    trace = _solve(run_as, oracle, feasible, x0)
    assert x0.tobytes() == before.tobytes()
    x0 += 1.0
    assert trace.x0.tobytes() == before.tobytes()
    assert trace.iterates[0].tobytes() == before.tobytes()
    assert trace.N_run > 0
    assert len(trace.iterates) == trace.N_run + 1
    check = fresh()
    assert check.evaluate(trace.iterates[0]).value == trace.f0
    recorded = np.array([check.evaluate(x).value for x in trace.iterates[1:]])
    assert recorded.tobytes() == trace.f_values.tobytes()
    assert trace.x_final.tobytes() == trace.iterates[-1].tobytes()


@pytest.mark.parametrize(
    "make", [lambda: generate_task1(n=6, m=3, seed=1), lambda: generate_task2(n=6, m=3, seed=1)]
)
@pytest.mark.parametrize(
    "bad", [np.full(6, np.nan), np.r_[np.zeros(5), np.inf], np.zeros(5), np.zeros((2, 3))]
)
def test_public_problem_methods_still_check_points(make, bad):
    prob = make()
    for method in (prob.evaluate, prob.value, prob.subgradient):
        with pytest.raises(ValueError):
            method(bad)


def test_public_quadratic_methods_still_check_points():
    q = _quadratic()
    for method in (q.evaluate, q.value, q.gradient):
        with pytest.raises(ValueError):
            method(np.full(N_DIM, np.nan))
    x = np.linspace(-1.0, 1.0, N_DIM)
    assert q.evaluate(list(x)).value == q.oracle().evaluate(x).value


def test_projection_in_place_matches_the_formula_bitwise():
    rng = np.random.default_rng(4)
    for _ in range(50):
        center = rng.standard_normal(7)
        radius = float(rng.uniform(0.1, 2.0))
        u = rng.standard_normal(7)
        x = center + u * (radius * rng.uniform(1.01, 5.0) / math.sqrt(u.dot(u)))
        x[0] = -0.0 if rng.uniform() < 0.5 else x[0]
        d = x - center
        expected = center + d * radius / math.sqrt(d.dot(d))
        before = x.copy()
        out = project_ball(x, center, radius)
        assert out.tobytes() == expected.tobytes()
        assert x.tobytes() == before.tobytes()


def test_model_step_matches_the_formula_bitwise():
    # g / -L + x_k is x_k - g / L: the same floats, signed zeros included
    rng = np.random.default_rng(8)
    x_k = np.array([0.0, -0.0, 0.0, -0.0, 1.5, -2.0, 1e-300, 3.0])
    g = np.array([0.0, 0.0, -0.0, -0.0, 3.0, 1e-17, -1e-300, 6.0])
    before = (x_k.copy(), g.copy())
    for L in (1.0, 3.0, 0.7, 1e300):
        out = model_step(ModelOracle(), WHOLE, x_k, L, g)
        assert out.tobytes() == (x_k - g / L).tobytes()
    assert (x_k.tobytes(), g.tobytes()) == (before[0].tobytes(), before[1].tobytes())
    for _ in range(50):
        x_k, g = rng.standard_normal(9), rng.standard_normal(9)
        L = float(rng.uniform(0.01, 100.0))
        assert model_step(ModelOracle(), WHOLE, x_k, L, g).tobytes() == (
            x_k - g / L
        ).tobytes()


def test_l1_prox_matches_the_formula_bitwise():
    pen = L1Penalty(0.3)
    v = np.array([2.0, -2.0, 0.1, -0.1, 0.0, -0.0, 0.3, -0.3, np.inf, -np.inf, np.nan])
    before = v.copy()
    for step in (0.5, 1.0, 0.0):
        t = pen.weight * step
        expected = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        assert pen.prox(v, step).tobytes() == expected.tobytes()
    assert v.tobytes() == before.tobytes()
    assert pen.prox(np.array([3, -1, 0]), 1.0).tobytes() == np.array([2.7, -0.7, 0.0]).tobytes()
