"""The fused oracle evaluation and the solvers that carry it forward.

Every shipped oracle's ``evaluate`` must give the solvers exactly what
separate value and (sub)gradient computations give, in the same noise draw
order, and each point must be swept (or its residual computed) once.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modelgrad import harness, kernels, problems
from modelgrad.convex import ConvexConfig, convex_minimize, model_step
from modelgrad.core import Evaluation, FeasibleSet, FunctionOracle, ModelOracle, norm
from modelgrad.harness import ExperimentSpec
from modelgrad.nonsmooth import NonsmoothConfig, nonsmooth_minimize
from modelgrad.pl import TERM_COMPLETED, TERM_FLOOR, PLConfig, pl_minimize, pl_step_size
from modelgrad.problems import (
    L1Penalty,
    NoisyOracle,
    composite_oracle,
    generate_task1,
    generate_task2,
    least_squares,
    pl_quadratic_make,
)

N_DIM = 30
WHOLE = FeasibleSet.whole_space()
DELTA, SMALL_DELTA = 0.05, 0.01


def _problem(kind):
    """(oracle factory, reference factory, feasible) of one shipped oracle
    family.  The reference is a ``FunctionOracle`` whose value and
    (sub)gradient each make their own computation: for the ball sum, the
    two-pass kernels ``sq_dists`` and ``ballsum_value_from`` /
    ``ballsum_subgrad_from``; otherwise the problem's own methods, and for
    composite, ``least_squares`` once for the value and once more for the
    gradient."""
    if kind == "ballsum":
        prob = generate_task1(n=N_DIM, m=5, seed=1)

        def sq_dists(x):
            return kernels.sq_dists(prob.centers, x, prob.sqnorms, prob.ball_radius**2)

        def value(x):
            return kernels.ballsum_value_from(sq_dists(x)[0], prob.ball_radius)

        def subgradient(x):
            return kernels.ballsum_subgrad_from(prob.centers, x, prob.ball_radius, *sq_dists(x))

        return prob.oracle, lambda: FunctionOracle(value, subgradient), prob.feasible
    if kind == "minmax":
        prob = generate_task2(n=N_DIM, m=5, seed=2)
        return prob.oracle, lambda: FunctionOracle(prob.value, prob.subgradient), prob.feasible
    if kind == "quadratic":
        rng = np.random.default_rng(3)
        prob = pl_quadratic_make(rng.standard_normal((20, N_DIM)), rng.standard_normal(20))
        return prob.oracle, lambda: FunctionOracle(prob.value, prob.gradient), WHOLE
    spec = ExperimentSpec(task="composite", n=N_DIM, m=20)
    rng = np.random.default_rng(4)  # the data harness._composite_objects draws for seed 4
    A = rng.standard_normal((20, N_DIM))
    b = rng.standard_normal(20)
    smooth = FunctionOracle(
        lambda x: least_squares(A, b, x).value, lambda x: least_squares(A, b, x).gradient()
    )

    def reference():
        return composite_oracle(smooth.evaluate, L1Penalty(harness._COMPOSITE_WEIGHT))

    return (lambda: harness._composite_objects(spec, 4)), reference, WHOLE


def _oracles(kind, mode):
    """The shipped oracle and its reference, both wrapped in the same
    noise when ``mode`` is set."""
    make, reference, feasible = _problem(kind)
    if mode is None:
        return make(), reference(), feasible

    def noisy(inner):
        return NoisyOracle(inner, Delta=DELTA, delta=SMALL_DELTA, mode=mode, seed=5)

    return noisy(make()), noisy(reference()), feasible


def _run(solver, oracle, feasible, noisy):
    x0 = np.zeros(N_DIM)
    levels = dict(delta0=SMALL_DELTA, Delta0=DELTA) if noisy else {}
    if solver == "convex":
        return convex_minimize(ConvexConfig(x0=x0, N=40, R=1.0, **levels), oracle, feasible)
    if solver == "nonsmooth":
        cfg = NonsmoothConfig(base=ConvexConfig(x0=x0, N=40, R=1.0), epsilon=0.05, Delta_known=2.0)
        trace, records = nonsmooth_minimize(cfg, oracle, feasible)
        assert records
        return trace
    return pl_minimize(
        PLConfig(x0=x0, N=40, Delta_cap=DELTA if noisy else None, **levels), oracle
    )


def _bits(value):
    """``value`` with every float array and float as its bytes."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, (np.ndarray, float)):
        return np.asarray(value).shape, np.asarray(value).tobytes()
    return value


def _assert_traces_equal(a, b):
    assert vars(a).keys() == vars(b).keys()
    for name, value in vars(a).items():
        if name != "elapsed_ms":
            assert _bits(value) == _bits(getattr(b, name)), name


KINDS = ("ballsum", "minmax", "quadratic", "composite")
NOISE = (None,) + NoisyOracle.MODES


def _takes(solver, kind):
    """Whether ``solver`` runs on ``kind``: algo2 refuses a composite oracle."""
    return not (solver == "pl" and kind == "composite")


@pytest.mark.parametrize(
    "solver, mode, kind",
    [
        (solver, mode, kind)
        for solver, mode in [("convex", m) for m in NOISE] + [("nonsmooth", None)]
        + [("pl", m) for m in NOISE]
        for kind in KINDS
        if _takes(solver, kind)
    ],
)
def test_fused_evaluation_gives_bitwise_equal_traces(kind, solver, mode):
    fused, reference, feasible = _oracles(kind, mode)
    trace = _run(solver, fused, feasible, mode is not None)
    assert trace.N_run > 0
    _assert_traces_equal(trace, _run(solver, reference, feasible, mode is not None))


def _least_squares(seed, m):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, N_DIM)), rng.standard_normal(m)


def _passes(oracle, x, y, L, delta, Delta):
    """Whether the step from x to y passes the acceptance inequality at
    (L, delta, Delta), rebuilt with psi(y, x) = <g(x), y - x> + h(y) - h(x)."""
    anchor, trial = oracle.evaluate(x), oracle.evaluate(y)
    d = y - x
    sq = float(np.dot(d, d))
    psi = float(np.dot(anchor.gradient(), d)) + (trial.h - anchor.h)
    return trial.value <= anchor.value + psi + L * (0.5 * sq) + Delta * math.sqrt(sq) + delta


def _assert_decisions_replay(oracle, trace, step):
    """Every accepted step of ``trace`` passes the inequality at its recorded
    (L, delta, Delta), and every earlier trial, ``step(x, L, Delta, g)`` at
    the halved constants, fails it.  A draw whose run rejected no trial
    tests no rejection, so it does not count as an example."""
    for k in range(trace.N_run):
        x_k, x_next = trace.iterates[k], trace.iterates[k + 1]
        L, delta, Delta = trace.L_hist[k], trace.delta_hist[k], trace.Delta_hist[k]
        assert _passes(oracle, x_k, x_next, L, delta, Delta)
        g = oracle.evaluate(x_k).gradient()
        for _ in range(int(trace.inner_hist[k]) - 1):
            L, delta, Delta = 0.5 * L, 0.5 * delta, 0.5 * Delta
            assert not _passes(oracle, x_k, step(x_k, L, Delta, g), L, delta, Delta)
    assume(trace.inner_hist.max(initial=0) > 1)


@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.sampled_from([None, 0.05, 0.5]))
# ||A^T b||_inf = 0.052 is below the l1 weight, so x0 = 0 is the minimizer
# and every step is accepted on its first trial
@example(seed=2632, m=2, radius=None)
@settings(max_examples=30, deadline=None)
def test_composite_decisions_match_the_oracle_model(seed, m, radius):
    """algo1's model step with an l1 part, on seeded least-squares problems,
    on the whole space and on balls that cut the path short."""
    A, b = _least_squares(seed, m)
    oracle = composite_oracle(functools.partial(least_squares, A, b), L1Penalty(0.1))
    feasible = WHOLE if radius is None else FeasibleSet.ball(np.zeros(N_DIM), radius)
    trace = convex_minimize(ConvexConfig(x0=np.zeros(N_DIM), N=30), oracle, feasible)
    _assert_decisions_replay(
        oracle, trace, lambda x, L, Delta, g: model_step(oracle, feasible, x, L, g)
    )


@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_damped_decisions_match_the_oracle_model(seed, m):
    """algo2's damped step x - h g with an exact oracle, where psi = <g, d>."""
    oracle = pl_quadratic_make(*_least_squares(seed, m)).oracle()
    trace = pl_minimize(PLConfig(x0=np.ones(N_DIM), N=30), oracle)
    # with m < N_DIM a run can reach a zero gradient and stop at the floor
    assert trace.termination in (TERM_COMPLETED, TERM_FLOOR)

    def step(x, L, Delta, g):
        x_next = g * -pl_step_size(L, Delta, norm(g))
        x_next += x
        return x_next

    _assert_decisions_replay(oracle, trace, step)


def _count(monkeypatch, module, name, counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "solver, kind",
    [(s, k) for s in ("convex", "nonsmooth", "pl") for k in KINDS if _takes(s, k)],
)
def test_each_point_is_computed_once(monkeypatch, kind, solver):
    """One distance sweep or residual per trial point plus one at x0, and
    none for the anchor gradients; one l1 term per point.  A sweep is any
    of the kernels' entry points that computes the distances."""
    sweeps, l1 = [0], [0]
    for name in ("sq_dists", "ballsum_sweep", "minmax_value"):
        _count(monkeypatch, kernels, name, sweeps)
    _count(monkeypatch, problems, "least_squares", sweeps)
    _count(monkeypatch, harness, "least_squares", sweeps)
    _count(monkeypatch, problems.L1Penalty, "value", l1)
    make, _, feasible = _problem(kind)
    trace = _run(solver, make(), feasible, False)
    evaluations = int(trace.inner_hist.sum()) + 1
    assert trace.N_run == 40
    assert sweeps[0] == evaluations
    assert l1[0] == (evaluations if kind == "composite" else 0)


class _Counting(ModelOracle):
    """``inner`` with its evaluations and gradient computations counted."""

    def __init__(self, inner):
        self.inner, self.evaluations, self.gradients = inner, 0, 0
        self.gamma, self.known_delta = inner.gamma, inner.known_delta
        self.composite_prox = inner.composite_prox

    def evaluate(self, x):
        self.evaluations += 1
        ev = self.inner.evaluate(x)

        def gradient():
            self.gradients += 1
            return ev.gradient()

        return Evaluation(ev.value, ev.h, gradient)


def _traffic_run(case, oracle, feasible):
    x0 = np.zeros(N_DIM)
    if case == "algo2":
        return pl_minimize(PLConfig(x0=x0, N=40), oracle)
    if case.startswith("algo1"):
        # 2.0 is the certificate after step 20 of the full run
        epsilon = 2.0 if case == "algo1-early-stop" else None
        return convex_minimize(ConvexConfig(x0=x0, N=40, R=1.0, epsilon=epsilon), oracle, feasible)
    L_class = 5.0 if case == "restart-L_class" else None
    cfg = NonsmoothConfig(base=ConvexConfig(x0=x0, N=40, R=1.0), epsilon=0.05,
                          Delta_known=2.0, L_class=L_class)
    return nonsmooth_minimize(cfg, oracle, feasible)[0]


@pytest.mark.parametrize(
    "case", ["algo1", "algo1-early-stop", "restart", "restart-L_class", "algo2"]
)
def test_oracle_traffic_is_read_off_the_trace(case):
    """One evaluation at x0 and one per trial, and one gradient per
    accepted step's anchor, plus algo2's at the last point: what
    ``inner_hist`` and ``N_run`` state, with no counter in the library."""
    make, _, feasible = _problem("ballsum" if case.startswith("restart") else "quadratic")
    oracle = _Counting(make())
    trace = _traffic_run(case, oracle, feasible)
    assert trace.N_run == (20 if case == "algo1-early-stop" else 40)
    assert oracle.evaluations == 1 + int(trace.inner_hist.sum())
    assert oracle.gradients == trace.N_run + (case == "algo2")


class TestEvaluation:
    def test_gradient_is_made_once_and_on_demand(self):
        made = []

        def make():
            made.append(1)
            return np.ones(2)

        ev = Evaluation(3.0, 0.5, make)
        assert (ev.value, ev.h) == (3.0, 0.5) and not made
        g = ev.gradient()
        assert ev.gradient() is g and len(made) == 1

    def test_default_queries_value_now_and_gradient_later(self):
        calls = []
        oracle = FunctionOracle(
            lambda x: calls.append("value") or 1.0,
            lambda x: calls.append("gradient") or 2.0 * x,
        )
        x = np.array([1.0, -1.0])
        ev = oracle.evaluate(x)
        assert calls == ["value"] and ev.value == 1.0 and ev.h == 0.0
        np.testing.assert_array_equal(ev.gradient(), [2.0, -2.0])
        ev.gradient()
        assert calls == ["value", "gradient"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_shipped_oracles_match_their_value_and_gradient(self, kind):
        make, reference, _ = _problem(kind)
        x = np.random.default_rng(6).standard_normal(N_DIM) * 0.3
        ev, ref = make().evaluate(x), reference().evaluate(x)
        assert ev.value == ref.value
        assert ev.h == ref.h
        assert ev.gradient().tobytes() == ref.gradient().tobytes()

    def test_random_is_uniform_on_the_unit_interval(self):
        # NoisyOracle draws with Generator.random(): the bit stream and the
        # floats of uniform(), which computes 0.0 + 1.0 * random()
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        assert all(a.random() == b.uniform() for _ in range(100_000))
        assert a.random() == b.uniform()

    def test_noisy_gradient_noise_drawn_on_demand(self):
        make, reference, _ = _problem("quadratic")
        x = np.full(N_DIM, 0.1)
        a = NoisyOracle(make(), Delta=DELTA, delta=SMALL_DELTA, seed=7)
        b = NoisyOracle(reference(), Delta=DELTA, delta=SMALL_DELTA, seed=7)
        first, second = a.evaluate(x), a.evaluate(2.0 * x)
        ref_first, ref_second = b.evaluate(x), b.evaluate(2.0 * x)
        assert (first.value, second.value) == (ref_first.value, ref_second.value)
        assert second.gradient().tobytes() == ref_second.gradient().tobytes()
        # the gradient noise is drawn after both value draws, as a solver
        # that anchors at the second point would draw it
        exact = reference()
        rng = np.random.default_rng(7)
        assert first.value == exact.evaluate(x).value - SMALL_DELTA * rng.uniform()
        assert second.value == exact.evaluate(2.0 * x).value - SMALL_DELTA * rng.uniform()
        u = rng.standard_normal(N_DIM)
        u /= math.sqrt(u.dot(u))
        expected = exact.evaluate(2.0 * x).gradient() + (DELTA * rng.uniform()) * u
        assert second.gradient().tobytes() == expected.tobytes()
