import numpy as np
import pytest

from modelgrad.convex import ConvexConfig, convex_minimize
from modelgrad.core import (
    FeasibleSet,
    FunctionOracle,
    NonFiniteOracleError,
    NonTerminationError,
    ProxSetup,
)
from modelgrad.nonsmooth import (
    STOP_DELTA_TERM,
    STOP_SMOOTH,
    NonsmoothConfig,
    complexity_estimate,
    nonsmooth_minimize,
    p_bound,
    restart_inner,
)
from modelgrad.problems import NoisyOracle, generate_task1, pl_quadratic_make

WHOLE = ProxSetup(FeasibleSet.whole_space())
UNIT_BALL = ProxSetup(FeasibleSet.ball(np.zeros(2), 1.0))


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

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            NonsmoothConfig(base=self._base(), epsilon=0.0)
        with pytest.raises(ValueError):
            NonsmoothConfig(base=self._base(), epsilon=0.1, Delta_known=-1.0)
        with pytest.raises(ValueError):
            NonsmoothConfig(base=self._base(), epsilon=0.1, L_class=0.0)
        with pytest.raises(ValueError):
            NonsmoothConfig(base=self._base(), epsilon=0.1, p_cap=0)


class TestRestartInner:
    def test_smooth_problem_exits_without_doubling(self):
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        x_next, record = restart_inner(
            oracle, WHOLE, np.array([1.0, 0.0]), L_start=1.0, Delta_fixed=0.0,
            epsilon=0.1,
        )
        np.testing.assert_array_equal(x_next, [0.0, 0.0])
        assert record.p_used == 0
        assert record.stop_reason == STOP_DELTA_TERM
        assert record.final_L == 1.0

    def test_inner_cap_trips_on_inconsistent_oracle(self):
        # constant value, nonzero gradient: the bootstrap inequality fails
        # at every L when the frozen Delta is below the gradient norm
        oracle = FunctionOracle(lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
        with pytest.raises(NonTerminationError) as info:
            restart_inner(
                oracle, WHOLE, np.zeros(2), L_start=1.0, Delta_fixed=0.4,
                epsilon=0.1, inner_cap=12,
            )
        assert info.value.inner_calls == 12

    def test_p_cap_trips_when_no_exit_fires(self):
        # Delta above the gradient norm makes the bootstrap accept at once,
        # but a tiny epsilon and a tiny class constant starve both exits
        oracle = FunctionOracle(lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
        with pytest.raises(NonTerminationError) as info:
            restart_inner(
                oracle, WHOLE, np.zeros(2), L_start=1e-6, Delta_fixed=0.6,
                epsilon=1e-6, p_cap=8, L_class=1e-12,
            )
        assert info.value.inner_calls == 8


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
        trace, records = nonsmooth_minimize(config, prob.oracle(), prob.prox_setup())
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
        trace, records = nonsmooth_minimize(config, prob.oracle(), prob.prox_setup())

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
