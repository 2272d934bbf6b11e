"""The fused oracle evaluation and the solvers that carry it forward.

Every shipped oracle's ``evaluate`` must give the solvers exactly what its
``value_inexact`` and ``_gradient`` give, in the same noise draw order, and
each point must be swept (or its residual computed) once.
"""

import numpy as np
import pytest

from modelgrad import harness, kernels, problems
from modelgrad.convex import ConvexConfig, acceptance_test, convex_minimize, model_step
from modelgrad.core import (
    AdaptiveTriple,
    Evaluation,
    FeasibleSet,
    FunctionOracle,
    ModelOracle,
    ProxSetup,
    UnsupportedCombinationError,
)
from modelgrad.harness import ExperimentSpec
from modelgrad.nonsmooth import NonsmoothConfig, nonsmooth_minimize, restart_inner
from modelgrad.pl import PLConfig, pl_minimize
from modelgrad.problems import NoisyOracle, generate_task1, generate_task2, pl_quadratic_make

N_DIM = 30
WHOLE = ProxSetup(FeasibleSet.whole_space())
DELTA, SMALL_DELTA = 0.05, 0.01


class ValueGradientOnly(ModelOracle):
    """Exposes only ``value_inexact``/``_gradient`` of ``inner``, so its
    ``evaluate`` is the base class default."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        for key in ("gamma", "known_L", "known_delta", "known_Delta",
                    "exact_values", "has_composite"):
            setattr(self, key, getattr(inner, key))

    def value_inexact(self, x):
        return self.inner.value_inexact(x)

    def _gradient(self, x):
        return self.inner._gradient(x)

    def composite_part(self, y):
        return self.inner.composite_part(y)

    def composite_prox(self, v, weight):
        return self.inner.composite_prox(v, weight)


def _problem(kind):
    """(oracle factory, setup) of one shipped oracle family."""
    if kind == "ballsum":
        prob = generate_task1(n=N_DIM, m=5, seed=1)
        return prob.oracle, prob.prox_setup()
    if kind == "minmax":
        prob = generate_task2(n=N_DIM, m=5, seed=2)
        return prob.oracle, prob.prox_setup()
    if kind == "quadratic":
        rng = np.random.default_rng(3)
        prob = pl_quadratic_make(rng.standard_normal((20, N_DIM)), rng.standard_normal(20))
        return prob.oracle, WHOLE
    spec = ExperimentSpec(task="composite", n=N_DIM, m=20)
    return (lambda: harness._composite_objects(spec, 4)), WHOLE


def _oracles(kind, mode):
    """The same oracle twice: queried through its own ``evaluate``, and
    through ``value_inexact``/``_gradient`` only."""
    make, setup = _problem(kind)
    if mode is None:
        return make(), ValueGradientOnly(make()), setup

    def noisy():
        return NoisyOracle(make(), Delta=DELTA, delta=SMALL_DELTA, mode=mode, seed=5)

    return noisy(), ValueGradientOnly(noisy()), setup


def _run(solver, oracle, setup, noisy):
    x0 = np.zeros(N_DIM)
    levels = dict(delta0=SMALL_DELTA, Delta0=DELTA) if noisy else {}
    if solver == "convex":
        return convex_minimize(ConvexConfig(x0=x0, N=40, R=1.0, **levels), oracle, setup)
    if solver == "nonsmooth":
        cfg = NonsmoothConfig(base=ConvexConfig(x0=x0, N=40, R=1.0), epsilon=0.05, Delta_known=2.0)
        trace, records = nonsmooth_minimize(cfg, oracle, setup)
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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "solver, mode",
    [("convex", m) for m in NOISE] + [("nonsmooth", None)] + [("pl", m) for m in NOISE],
)
def test_fused_evaluation_gives_bitwise_equal_traces(kind, solver, mode):
    fused, plain, setup = _oracles(kind, mode)
    assert type(fused).evaluate is not ModelOracle.evaluate
    assert type(plain).evaluate is ModelOracle.evaluate
    trace = _run(solver, fused, setup, mode is not None)
    assert trace.N_run > 0
    _assert_traces_equal(trace, _run(solver, plain, setup, mode is not None))


def test_composite_decisions_match_the_oracle_model():
    """Replayed through ``acceptance_test``, which asks ``oracle.model`` for
    psi, every accepted step passes and every trial before it fails."""
    oracle = _problem("composite")[0]()
    trace = convex_minimize(ConvexConfig(x0=np.zeros(N_DIM), N=30), oracle, WHOLE)
    assert trace.inner_hist.max() > 1
    for k in range(trace.N_run):
        x_k, x_next = trace.iterates[k], trace.iterates[k + 1]
        t = AdaptiveTriple(trace.L_hist[k], trace.delta_hist[k], trace.Delta_hist[k])
        assert acceptance_test(oracle, WHOLE, x_k, x_next, t)
        for _ in range(int(trace.inner_hist[k]) - 1):
            t = t.halved()
            assert not acceptance_test(oracle, WHOLE, x_k, model_step(oracle, WHOLE, x_k, t.L), t)


def _count(monkeypatch, module, name, counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver", ("convex", "nonsmooth", "pl"))
def test_each_point_is_computed_once(monkeypatch, kind, solver):
    """One distance sweep or residual per trial point plus one at x0, and
    none for the anchor gradients; one l1 term per point."""
    sweeps, l1 = [0], [0]
    _count(monkeypatch, kernels, "sq_dists", sweeps)
    _count(monkeypatch, problems, "least_squares", sweeps)
    _count(monkeypatch, harness, "least_squares", sweeps)
    _count(monkeypatch, problems.L1Penalty, "value", l1)
    make, setup = _problem(kind)
    trace = _run(solver, make(), setup, False)
    evaluations = int(trace.inner_hist.sum()) + 1
    assert trace.N_run == 40
    assert sweeps[0] == evaluations
    assert l1[0] == (evaluations if kind == "composite" else 0)


class _OwnModel(FunctionOracle):
    def model(self, y, x):
        return super().model(y, x) + float((y - x) @ (y - x))


def test_oracle_with_its_own_model_is_refused():
    oracle = _OwnModel(lambda x: float(x @ x), lambda x: 2.0 * x)
    x0 = np.ones(3)
    with pytest.raises(UnsupportedCombinationError, match="model"):
        convex_minimize(ConvexConfig(x0=x0, N=5), oracle, WHOLE)
    with pytest.raises(UnsupportedCombinationError, match="model"):
        nonsmooth_minimize(
            NonsmoothConfig(base=ConvexConfig(x0=x0, N=5), epsilon=0.1), oracle, WHOLE
        )
    with pytest.raises(UnsupportedCombinationError, match="model"):
        restart_inner(oracle, WHOLE, x0, 1.0, 0.0, 0.1)


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
        make, _ = _problem(kind)
        oracle = make()
        x = np.random.default_rng(6).standard_normal(N_DIM) * 0.3
        ev = oracle.evaluate(x)
        assert ev.value == oracle.value_inexact(x)
        assert ev.h == oracle.composite_part(x)
        assert ev.gradient().tobytes() == oracle._gradient(x).tobytes()

    def test_noisy_gradient_noise_drawn_on_demand(self):
        make, _ = _problem("quadratic")
        x = np.full(N_DIM, 0.1)
        a = NoisyOracle(make(), Delta=DELTA, delta=SMALL_DELTA, seed=7)
        b = NoisyOracle(make(), Delta=DELTA, delta=SMALL_DELTA, seed=7)
        first, second = a.evaluate(x), a.evaluate(2.0 * x)
        assert first.value == b.value_inexact(x)
        assert second.value == b.value_inexact(2.0 * x)
        # the gradient noise is drawn after both value draws, as a solver
        # that anchors at the second point would draw it
        assert second.gradient().tobytes() == b._gradient(2.0 * x).tobytes()
