import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelgrad.convex import ConvexConfig, convex_minimize, model_step
from modelgrad.core import (
    FeasibleSet,
    FunctionOracle,
    NonFiniteOracleError,
    NonTerminationError,
)
from modelgrad.nonsmooth import (
    STOP_DELTA_TERM,
    STOP_SMOOTH,
    NonsmoothConfig,
    RestartRecord,
    complexity_estimate,
    nonsmooth_minimize,
    p_bound,
)
from modelgrad.problems import NoisyOracle, generate_task1, generate_task2, pl_quadratic_make

WHOLE = FeasibleSet.whole_space()
UNIT_BALL = FeasibleSet.ball(np.zeros(2), 1.0)


class TestDoublingBound:
    def test_frozen_values(self):
        # 1 + 16 * 0.01 / 0.1 = 2.6 sits between 2^1 and 2^2
        assert p_bound(0.1, 0.1, 1.0) == 2
        # zero inexactness: the threshold is 1, so p = 1 already clears it
        assert p_bound(0.0, 0.1, 1.0) == 1
        # 1 + 16 / 0.01 = 1601 sits between 2^10 and 2^11
        assert p_bound(1.0, 0.01, 1.0) == 11

    def test_monotone_in_Delta(self):
        bounds = [p_bound(d, 0.05, 1.0) for d in (0.0, 0.1, 1.0, 10.0)]
        assert bounds == sorted(bounds)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            p_bound(0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            p_bound(-0.1, 0.1, 1.0)


class TestComplexityEstimate:
    def test_frozen_value(self):
        # (4*1*1/0.1 + 64*0.01*1/0.01) * log2(2.6) = 104 * 1.37851... -> 144
        assert complexity_estimate(1.0, 1.0, 0.1, 0.1) == 144

    def test_smooth_case_keeps_unit_factor(self):
        # Delta = 0 collapses to the plain 4 L R^2 / eps count
        assert complexity_estimate(1.0, 1.0, 0.0, 0.1) == 40

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            complexity_estimate(0.0, 1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            complexity_estimate(1.0, -1.0, 0.1, 0.1)


class TestConfig:
    def _base(self):
        return ConvexConfig(x0=np.zeros(2))

    def test_rejects_value_noise(self):
        base = ConvexConfig(x0=np.zeros(2), delta0=0.1)
        with pytest.raises(ValueError):
            NonsmoothConfig(base=base, epsilon=0.1)

    def test_rejects_a_starting_gradient_error(self):
        # the restart runs at Delta_known from its first step, so a nonzero
        # base.Delta0 would be read by nothing
        base = ConvexConfig(x0=np.zeros(2), Delta0=0.5)
        with pytest.raises(ValueError, match="Delta_known"):
            NonsmoothConfig(base=base, epsilon=0.1, Delta_known=2.0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            NonsmoothConfig(base=self._base(), epsilon=0.0)
        with pytest.raises(ValueError):
            NonsmoothConfig(base=self._base(), epsilon=0.1, Delta_known=-1.0)
        for L_class in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                NonsmoothConfig(base=self._base(), epsilon=0.1, L_class=L_class)


class TestRestartInner:
    """One outer iteration of ``nonsmooth_minimize`` (N = 1); the restart
    starts at L = L0 / 2."""

    def _restart(self, oracle, x0, L0, Delta_known, epsilon, inner_cap=100, **kw):
        base = ConvexConfig(x0=x0, L0=L0, N=1, max_inner_per_iter=inner_cap)
        config = NonsmoothConfig(base=base, epsilon=epsilon, Delta_known=Delta_known, **kw)
        return nonsmooth_minimize(config, oracle, WHOLE)

    def test_smooth_problem_exits_without_doubling(self):
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        trace, records = self._restart(
            oracle, np.array([1.0, 0.0]), L0=2.0, Delta_known=0.0, epsilon=0.1
        )
        np.testing.assert_array_equal(trace.x_final, [0.0, 0.0])
        assert records == [RestartRecord(0, 0, STOP_DELTA_TERM, 1.0)]
        assert trace.inner_hist[0] == 1

    def test_inner_cap_trips_on_inconsistent_oracle(self):
        # constant value, nonzero gradient: the bootstrap inequality fails
        # at every L when the frozen Delta is below the gradient norm
        oracle = FunctionOracle(lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
        with pytest.raises(NonTerminationError) as info:
            self._restart(
                oracle, np.zeros(2), L0=2.0, Delta_known=0.4, epsilon=0.1, inner_cap=12
            )
        assert info.value.inner_calls == 12
        assert info.value.triple == (2.0**12, 0.0, 0.4)

    def test_p_cap_trips_when_no_exit_fires(self):
        # Delta above the gradient norm makes the bootstrap accept at once,
        # but a tiny epsilon starves the delta-term exit, and a constant
        # value with a nonzero gradient fails the smooth exit at every L
        oracle = FunctionOracle(lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
        with pytest.raises(NonTerminationError) as info:
            self._restart(
                oracle, np.zeros(2), L0=2e-6, Delta_known=0.6, epsilon=1e-6, inner_cap=9,
                L_class=1e-12,
            )
        assert info.value.inner_calls == 9
        assert info.value.triple == (2**9 * 1e-6, 0.0, 0.6)
        assert info.value.partial_trace.N_run == 0


class TestNonsmoothMinimize:
    def test_zero_Delta_reproduces_plain_solver_bitwise(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((7, 4))
        prob = pl_quadratic_make(A, rng.standard_normal(7))
        x0 = rng.standard_normal(4)

        base = ConvexConfig(x0=x0, L0=1.0, N=25, R=2.0)
        plain = convex_minimize(base, prob.oracle(), WHOLE)
        restarted, records = nonsmooth_minimize(
            NonsmoothConfig(base=base, epsilon=0.05, Delta_known=0.0),
            prob.oracle(),
            WHOLE,
        )

        np.testing.assert_array_equal(restarted.f_values, plain.f_values)
        np.testing.assert_array_equal(restarted.L_hist, plain.L_hist)
        np.testing.assert_array_equal(restarted.step_norms, plain.step_norms)
        np.testing.assert_array_equal(restarted.inner_hist, plain.inner_hist)
        np.testing.assert_array_equal(restarted.x_hat, plain.x_hat)
        np.testing.assert_array_equal(restarted.cert_hist, plain.cert_hist)
        assert restarted.S_N == plain.S_N
        assert all(r.stop_reason == STOP_DELTA_TERM and r.p_used == 0 for r in records)

    def test_task_run_respects_doubling_budget(self):
        prob = generate_task1(n=20, m=5, seed=0)
        Delta_class, L_class, eps = 10.0, 1.0, 0.05
        config = NonsmoothConfig(
            base=ConvexConfig(x0=np.zeros(20), L0=1.0, N=60),
            epsilon=eps,
            Delta_known=Delta_class,
            L_class=L_class,
        )
        trace, records = nonsmooth_minimize(config, prob.oracle(), prob.feasible)
        cap = p_bound(Delta_class, eps, L_class)
        assert all(r.p_used <= cap for r in records)
        assert all(r.stop_reason in (STOP_SMOOTH, STOP_DELTA_TERM) for r in records)
        assert any(r.stop_reason == STOP_SMOOTH for r in records)

    def test_certificate_accounting_matches_trace(self):
        prob = generate_task1(n=15, m=4, seed=2)
        eps = 0.05
        config = NonsmoothConfig(
            base=ConvexConfig(x0=np.zeros(15), L0=1.0, N=50, R=1.0),
            epsilon=eps,
            Delta_known=8.0,
        )
        trace, records = nonsmooth_minimize(config, prob.oracle(), prob.feasible)

        weights = 1.0 / trace.L_hist
        S_k = np.cumsum(weights)
        noise_k = np.cumsum(trace.Delta_hist * trace.step_norms * weights)
        np.testing.assert_allclose(
            trace.cert_hist, (1.0 + noise_k) / S_k, rtol=1e-12
        )
        # inexactness only enters on delta-term exits, and those steps are
        # small enough that each contribution is at most epsilon/2 per unit
        for rec, D, step in zip(records, trace.Delta_hist, trace.step_norms):
            if rec.stop_reason == STOP_DELTA_TERM:
                assert D == 8.0
                assert 8.0 * step <= 0.5 * eps * (1.0 + 1e-12)
            else:
                assert D == 0.0

    def test_early_stop_on_certificate(self):
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        config = NonsmoothConfig(
            base=ConvexConfig(x0=np.array([1.0, 0.0]), L0=1.0, N=500, R=1.0,
                              epsilon=0.05),
            epsilon=0.05,
        )
        trace, _ = nonsmooth_minimize(config, oracle, WHOLE)
        assert trace.stopped_early
        assert trace.cert_hist[-1] <= 0.05

    def test_class_constant_above_the_accepted_L_keeps_a_bound(self):
        # the smooth exit used to test 2^p L_class but book the step at
        # 2^p L1 with Delta = 0; with L_class = 10 above L1 the certificate
        # read 2.3e-13 against f(x_hat) - best_f = 2.9e11
        prob = generate_task2(n=2, m=3, seed=1)
        base = ConvexConfig(x0=np.zeros(2), L0=1.0, N=40, R=math.sqrt(0.5))
        config = NonsmoothConfig(base=base, epsilon=0.05, Delta_known=2.0, L_class=10.0)
        trace, _ = nonsmooth_minimize(config, prob.oracle(), prob.feasible)
        assert trace.N_run == 40
        assert trace.cert_hist[-1] >= prob.value(trace.x_hat) - trace.best_f

    def test_phase_2_doubling_L_to_inf_is_named(self):
        # f = c|x| at x0 = 1e-9: phase 1 passes at L0/2 under the large
        # Delta_known, phase 2 fails both exits at L_class and doubles L to
        # inf, where the step is x0 itself at weight 1/L = 0 and S = 0
        c = 1e300
        oracle = FunctionOracle(lambda x: c * float(np.abs(x).sum()), lambda x: c * np.sign(x))
        base = ConvexConfig(x0=np.array([1e-9]), L0=1e300, N=1, R=0.7)
        config = NonsmoothConfig(base=base, epsilon=1e-10, Delta_known=2e300, L_class=1.7e308)
        with pytest.raises(NonTerminationError, match="to inf") as info:
            nonsmooth_minimize(config, oracle, WHOLE)
        assert info.value.triple[0] == math.inf
        assert info.value.partial_trace.N_run == 0

    def test_failure_keeps_the_audit_of_the_steps_before(self):
        # the restart runs out of its 4 trials at iteration 6; the partial
        # trace's p_hist is the p_used of the same run stopped at N = 6
        prob = generate_task1(n=10, m=3, seed=1)

        def config(N):
            base = ConvexConfig(x0=np.zeros(10), N=N, R=math.sqrt(0.5), max_inner_per_iter=4)
            return NonsmoothConfig(base=base, epsilon=0.05, Delta_known=4.0)

        with pytest.raises(NonTerminationError) as info:
            nonsmooth_minimize(config(50), prob.oracle(), prob.feasible)
        assert info.value.iteration == 6
        _, records = nonsmooth_minimize(config(6), prob.oracle(), prob.feasible)
        assert info.value.partial_trace.p_hist.tolist() == [r.p_used for r in records]
        assert any(r.p_used > 0 for r in records)

    def test_infinite_gradient_fails_at_once(self):
        # the gradient blows up once an iterate leaves the half plane x0 < 0.5
        target = np.array([2.0, 0.0])

        def gradient(x):
            return np.array([np.inf, 0.0]) if x[0] > 0.5 else x - target

        oracle = FunctionOracle(lambda x: 0.5 * float((x - target) @ (x - target)), gradient)
        cfg = NonsmoothConfig(base=ConvexConfig(x0=np.zeros(2), L0=4.0, N=50), epsilon=0.1)
        with pytest.raises(NonFiniteOracleError) as info:
            nonsmooth_minimize(cfg, oracle, WHOLE)
        assert info.value.quantity == "gradient"
        assert 1 <= info.value.iteration < 5

    def test_rejects_inexact_or_loose_oracles(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 3))
        prob = pl_quadratic_make(A, rng.standard_normal(5))
        config = NonsmoothConfig(
            base=ConvexConfig(x0=np.zeros(3)), epsilon=0.1, Delta_known=0.1
        )
        noisy = NoisyOracle(prob.oracle(), Delta=0.1, delta=0.05)
        with pytest.raises(ValueError):
            nonsmooth_minimize(config, noisy, WHOLE)
        loose = FunctionOracle(lambda x: 0.0, lambda x: np.zeros(3), gamma=0.1)
        with pytest.raises(ValueError):
            nonsmooth_minimize(config, loose, WHOLE)


def _restart_trial(oracle, feasible, x, L, f, g):
    """The restart's trial at L from x: (its value, psi, squared step, step)."""
    y = model_step(oracle, feasible, x, L, g)
    d = y - x
    sq = float(d.dot(d))
    return oracle.evaluate(y).value, float(g.dot(d)), sq, math.sqrt(sq)


@given(
    st.sampled_from([generate_task1, generate_task2]),
    st.integers(2, 20),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 1.0, 10.0]),
    st.sampled_from([None, 0.01, 100.0]),
    st.sampled_from([0.5, 2.0, 10.0]),
    st.sampled_from([0.01, 0.1]),
)
@settings(max_examples=40, deadline=None)
def test_restart_decisions_replay(task, n, m, seed, L0, L_class_ratio, Delta, eps):
    """Both phases of every restart, rebuilt from the trace and the records:
    phase 1 from half the previous L to its pass at L1, phase 2's trials at
    2^i max(L1, L_class) where neither exit fired, and the exit itself at
    the recorded L_k = 2^p max(L1, L_class).  When Delta covers the
    family's class constant (2 for task2, whose smooth part is 0, and 2m
    for task1), every p_used is within p_bound(Delta, eps, L_class)."""
    prob = task(n=n, m=m, seed=seed)
    oracle, feasible = prob.oracle(), prob.feasible
    L_class = None if L_class_ratio is None else L_class_ratio * L0
    base = ConvexConfig(x0=np.zeros(n), L0=L0, N=30, R=math.sqrt(0.5))
    config = NonsmoothConfig(base=base, epsilon=eps, Delta_known=Delta, L_class=L_class)
    trace, records = nonsmooth_minimize(config, oracle, feasible)
    assert trace.N_run == 30 and len(records) == 30
    for k, rec in enumerate(records):
        x = trace.iterates[k]
        anchor = oracle.evaluate(x)
        f, g = anchor.value, anchor.gradient()
        L, p = trace.L_hist[k], rec.p_used
        assert rec.k == k and rec.final_L == L
        if L_class is not None and Delta >= (2.0 if task is generate_task2 else 2.0 * m):
            assert p <= p_bound(Delta, eps, L_class)

        L1 = 0.5 * (L0 if k == 0 else trace.L_hist[k - 1])
        for n1 in range(1, trace.inner_hist[k] + 1):  # phase 1
            value, psi, sq, step = _restart_trial(oracle, feasible, x, L1, f, g)
            if value <= f + psi + L1 * (0.5 * sq) + Delta * step:
                break
            L1 *= 2.0
        else:
            pytest.fail(f"phase 1 never passed at step {k}")
        jump = L_class is not None and L1 < L_class
        L2 = L_class if jump else L1
        assert L == L2 * 2.0**p and trace.inner_hist[k] == n1 + jump + p

        for i in range(p):  # phase 2's doublings before the exit
            value, psi, sq, step = _restart_trial(oracle, feasible, x, L2 * 2.0**i, f, g)
            assert Delta * step > 0.5 * eps
            assert value > f + psi + L2 * 2.0**i * (0.5 * sq)

        d = trace.iterates[k + 1] - x
        assert trace.step_norms[k] == math.sqrt(float(d.dot(d)))
        if rec.stop_reason == STOP_DELTA_TERM:
            assert trace.Delta_hist[k] == Delta
            assert Delta * trace.step_norms[k] <= 0.5 * eps
        else:
            assert rec.stop_reason == STOP_SMOOTH and trace.Delta_hist[k] == 0.0
            assert trace.f_values[k] <= f + float(g.dot(d)) + L * (0.5 * float(d.dot(d)))
    assert trace.cert_hist[-1] >= prob.value(trace.x_hat) - trace.best_f


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 80),
       st.floats(0.01, 0.5))
@settings(max_examples=40, deadline=None)
def test_restart_certificate_bounds_the_gap(seed, n, N, eps):
    """With two centers the min-max value is half their distance, so
    ``lower_bound()`` is f* and f(x_hat) - f* is the true gap; the
    minimizer, their midpoint, lies in the unit ball (R^2 = 1/2), and
    Delta = 2 is task2's class constant."""
    prob = generate_task2(n=n, m=2, seed=seed)
    base = ConvexConfig(x0=np.zeros(n), N=N, R=math.sqrt(0.5))
    config = NonsmoothConfig(base=base, epsilon=eps, Delta_known=2.0)
    trace = nonsmooth_minimize(config, prob.oracle(), prob.feasible)[0]
    assert trace.cert_hist[-1] >= prob.value(trace.x_hat) - prob.lower_bound()
