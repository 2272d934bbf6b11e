import numpy as np
import pytest

from modelgrad.convex import (
    ConvexConfig,
    ConvexTrace,
    acceptance_test,
    certificate_bound,
    convex_minimize,
    inner_call_budget,
    model_step,
)
from modelgrad.core import (
    AdaptiveTriple,
    CertificateUnavailableError,
    FeasibleSet,
    FunctionOracle,
    NonFiniteOracleError,
    NonTerminationError,
    ProxSetup,
)
from modelgrad.problems import L1Penalty, NoisyOracle, composite_oracle, pl_quadratic_make
from reference_solvers import reference_adaptive_pgd

WHOLE = ProxSetup(FeasibleSet.whole_space())


def linear_oracle(g):
    g = np.asarray(g, dtype=float)
    return FunctionOracle(lambda x: float(g @ x), lambda x: g.copy())


def quadratic_oracle(scale=1.0):
    return FunctionOracle(
        lambda x: 0.5 * scale * float(x @ x), lambda x: scale * x
    )


class TestModelStep:
    def test_unconstrained_gradient_step(self):
        x = model_step(linear_oracle([2.0, 0.0]), WHOLE, np.zeros(2), 4.0)
        np.testing.assert_array_equal(x, [-0.5, 0.0])

    def test_projects_onto_ball(self):
        setup = ProxSetup(FeasibleSet.ball(np.zeros(2), 1.0))
        x = model_step(linear_oracle([-4.0, 0.0]), setup, np.zeros(2), 2.0)
        np.testing.assert_array_equal(x, [1.0, 0.0])

    def test_composite_part_soft_thresholds(self):
        oracle = composite_oracle(
            lambda x: -3.0 * float(x[0]), lambda x: np.array([-3.0]), L1Penalty(1.0)
        )
        x = model_step(oracle, WHOLE, np.zeros(1), 1.0)
        np.testing.assert_array_equal(x, [2.0])

    def test_rejects_nonpositive_L(self):
        with pytest.raises(ValueError):
            model_step(linear_oracle([1.0]), WHOLE, np.zeros(1), 0.0)


class TestAcceptance:
    def test_quadratic_boundary_case(self):
        # for f(x) = x^2/2 the descent inequality holds with equality at
        # L = 1: the trial point from x = 1 is 0 and both sides equal 0
        oracle = quadratic_oracle()
        x_k = np.array([1.0])
        x_next = model_step(oracle, WHOLE, x_k, 1.0)
        np.testing.assert_array_equal(x_next, [0.0])
        assert acceptance_test(oracle, WHOLE, x_k, x_next, AdaptiveTriple(1.0, 0.0, 0.0))

    def test_quadratic_rejects_below_curvature(self):
        oracle = quadratic_oracle()
        x_k = np.array([1.0])
        x_next = model_step(oracle, WHOLE, x_k, 0.5)
        assert not acceptance_test(
            oracle, WHOLE, x_k, x_next, AdaptiveTriple(0.5, 0.0, 0.0)
        )

    def test_noise_slack_flips_rejection(self):
        oracle = quadratic_oracle()
        x_k = np.array([1.0])
        x_next = model_step(oracle, WHOLE, x_k, 0.5)
        # same trial point, but a generous additive slack admits it
        assert acceptance_test(oracle, WHOLE, x_k, x_next, AdaptiveTriple(0.5, 2.0, 0.0))


class TestConvexMinimize:
    def test_first_iteration_halve_then_double(self):
        # L0 = 1 halves to 0.5 (rejected on a curvature-1 quadratic), one
        # doubling restores L = 1 which lands exactly on the minimizer
        oracle = quadratic_oracle()
        config = ConvexConfig(x0=np.array([1.0, -2.0]), L0=1.0, N=1)
        trace = convex_minimize(config, oracle, WHOLE)
        assert trace.inner_hist[0] == 2
        assert trace.L_hist[0] == 1.0
        assert trace.f_values[0] == 0.0
        np.testing.assert_array_equal(trace.x_final, [0.0, 0.0])

    def test_single_iteration_average_is_first_iterate(self):
        oracle = quadratic_oracle(scale=3.0)
        config = ConvexConfig(x0=np.array([0.7, 0.3]), L0=2.0, N=1)
        trace = convex_minimize(config, oracle, WHOLE)
        np.testing.assert_array_equal(trace.x_hat, trace.iterates[1])

    def test_monotone_descent_with_exact_oracle(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 5))
        prob = pl_quadratic_make(A, rng.standard_normal(8))
        config = ConvexConfig(x0=np.zeros(5), L0=1.0, N=40)
        trace = convex_minimize(config, prob.oracle(), WHOLE)
        values = np.concatenate(([trace.f0], trace.f_values))
        assert np.all(np.diff(values) <= 1e-12)

    def test_average_weight_sum_reflects_curvature(self):
        # accepted constants never exceed twice the true curvature, so each
        # averaging weight is at least 1/(2L)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 6))
        prob = pl_quadratic_make(A, rng.standard_normal(6))
        N = 30
        config = ConvexConfig(x0=rng.standard_normal(6), L0=prob.L, N=N)
        trace = convex_minimize(config, prob.oracle(), WHOLE)
        assert np.all(trace.L_hist <= 2.0 * prob.L + 1e-12)
        assert trace.S_N >= N / (2.0 * prob.L) - 1e-12

    def test_infeasible_start_rejected(self):
        setup = ProxSetup(FeasibleSet.ball(np.zeros(2), 1.0))
        config = ConvexConfig(x0=np.array([3.0, 0.0]))
        with pytest.raises(ValueError):
            convex_minimize(config, quadratic_oracle(), setup)

    def test_liar_oracle_exhausts_inner_cap(self):
        # constant value with a nonzero reported gradient can never satisfy
        # the acceptance inequality at zero noise
        oracle = FunctionOracle(lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
        config = ConvexConfig(x0=np.zeros(2), N=3, max_inner_per_iter=10)
        with pytest.raises(NonTerminationError) as info:
            convex_minimize(config, oracle, WHOLE)
        assert info.value.iteration == 0
        assert info.value.inner_calls == 10

    def test_nan_value_fails_at_once(self):
        # f turns NaN past x = 1.5 on the way to the minimizer at x = 4
        calls = []

        def value(x):
            calls.append(1)
            return float("nan") if x[0] > 1.5 else 0.5 * float((x[0] - 4.0) ** 2)

        oracle = FunctionOracle(value, lambda x: np.array([x[0] - 4.0]))
        config = ConvexConfig(x0=np.zeros(1), L0=2.0, N=20)
        with pytest.raises(NonFiniteOracleError) as info:
            convex_minimize(config, oracle, WHOLE)
        assert info.value.quantity == "value"
        assert info.value.iteration == 0
        assert len(calls) == 2  # x0, then the first trial point

    def test_early_stop_via_certificate(self):
        oracle = quadratic_oracle()
        x0 = np.array([1.0, 0.0])
        config = ConvexConfig(x0=x0, L0=1.0, N=500, R=1.0, epsilon=0.05)
        trace = convex_minimize(config, oracle, WHOLE)
        assert trace.stopped_early
        assert trace.N_run < 500
        assert trace.cert_hist[-1] <= 0.05

    def test_no_early_stop_when_lower_model_loose(self):
        oracle = FunctionOracle(
            lambda x: 0.5 * float(x @ x), lambda x: x.copy(), gamma=0.2
        )
        config = ConvexConfig(x0=np.array([1.0]), L0=1.0, N=20, R=1.0, epsilon=1e3)
        trace = convex_minimize(config, oracle, WHOLE)
        assert not trace.stopped_early
        assert trace.N_run == 20


class TestCertificate:
    def _synthetic(self, **overrides):
        fields = dict(
            x0=np.zeros(2),
            f0=1.0,
            f_values=np.array([0.5]),
            L_hist=np.array([2.0]),
            delta_hist=np.array([0.1]),
            Delta_hist=np.array([0.0]),
            inner_hist=np.array([1]),
            step_norms=np.array([1.0]),
            cert_hist=np.array([np.nan]),
            elapsed_ms=np.array([0.0]),
            S_N=0.5,
            x_hat=np.zeros(2),
            x_final=np.zeros(2),
            total_inner_calls=1,
            best_f=0.5,
            best_x=np.zeros(2),
            stopped_early=False,
            iterates=[np.array([2.0, 0.0]), np.zeros(2)],
        )
        fields.update(overrides)
        return ConvexTrace(**fields)

    def test_frozen_value(self):
        # R^2/S + (delta_1/L_1)/S = 1/0.5 + (0.1/2)/0.5 = 2.1
        assert certificate_bound(self._synthetic(), R=1.0) == pytest.approx(2.1)

    def test_frozen_value_with_gamma_term(self):
        # anchor point x0 = (2, 0) sits at distance 2 from x* = 0, adding
        # gamma * 2 = 1.0 to the per-iteration inexactness
        bound = certificate_bound(
            self._synthetic(), R=1.0, gamma=0.5, x_star=np.zeros(2)
        )
        assert bound == pytest.approx(2.0 + ((0.1 + 1.0) / 2.0) / 0.5)

    def test_gamma_requires_minimizer(self):
        with pytest.raises(CertificateUnavailableError):
            certificate_bound(self._synthetic(), R=1.0, gamma=0.5)

    def test_gamma_requires_iterates(self):
        with pytest.raises(CertificateUnavailableError):
            certificate_bound(
                self._synthetic(iterates=None), R=1.0, gamma=0.5, x_star=np.zeros(2)
            )

    def test_value_gap_added_on_top(self):
        base = certificate_bound(self._synthetic(), R=1.0)
        assert certificate_bound(self._synthetic(), R=1.0, delta=0.3) == pytest.approx(
            base + 0.3
        )

    def test_empty_trace_rejected(self):
        empty = self._synthetic(
            f_values=np.array([]),
            L_hist=np.array([]),
            delta_hist=np.array([]),
            Delta_hist=np.array([]),
            inner_hist=np.array([], dtype=np.int64),
            step_norms=np.array([]),
            cert_hist=np.array([]),
            elapsed_ms=np.array([]),
        )
        with pytest.raises(ValueError):
            certificate_bound(empty, R=1.0)

    def test_online_certificate_matches_posterior_bound(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((7, 5))
        prob = pl_quadratic_make(A, rng.standard_normal(7))
        noisy = NoisyOracle(prob.oracle(), Delta=0.05, delta=0.02, seed=8)
        config = ConvexConfig(
            x0=np.zeros(5), L0=1.0, delta0=0.02, Delta0=0.05, N=25, R=2.0
        )
        trace = convex_minimize(config, noisy, WHOLE)
        posterior = certificate_bound(trace, R=2.0, delta=0.02)
        assert trace.cert_hist[-1] == pytest.approx(posterior, rel=1e-12)


class TestInnerCallBudget:
    def test_frozen_all_ratios_two(self):
        assert inner_call_budget(10, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0) == 21

    def test_frozen_zero_noise_overshoot_start(self):
        # L0 = 2L makes the log term log2(1) = 0 and zero noise is skipped
        assert inner_call_budget(5, 4.0, 0.0, 0.0, 2.0, 0.0, 0.0) == 10

    def test_terms_clamp_at_zero(self):
        assert inner_call_budget(5, 8.0, 0.0, 0.0, 1.0, 0.0, 0.0) == 10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            inner_call_budget(0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            inner_call_budget(5, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def test_zero_noise_run_matches_reference_solver():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    prob = pl_quadratic_make(A, b)
    x0 = rng.standard_normal(4)
    setup = ProxSetup(FeasibleSet.ball(np.zeros(4), 2.0))

    config = ConvexConfig(x0=x0, L0=1.0, N=30)
    trace = convex_minimize(config, prob.oracle(), setup)

    ref = reference_adaptive_pgd(
        x0,
        prob.value,
        prob.gradient,
        lambda v: setup.feasible.project(v),
        L0=1.0,
        N=30,
    )
    assert len(ref) == 30 and trace.N_run == 30
    worst = max(
        float(np.max(np.abs(trace.iterates[k + 1] - ref[k]))) for k in range(30)
    )
    assert worst <= 1e-10
