import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modelgrad.convex import (
    ConvexConfig,
    ConvexTrace,
    certificate_bound,
    convex_minimize,
    inner_call_budget,
    model_step,
)
from modelgrad.core import (
    CertificateUnavailableError,
    DimensionMismatchError,
    Evaluation,
    FeasibleSet,
    FunctionOracle,
    ModelOracle,
    NonFiniteOracleError,
    NonTerminationError,
)
from modelgrad.problems import L1Penalty, NoisyOracle, composite_oracle, pl_quadratic_make
from reference_solvers import reference_adaptive_pgd

WHOLE = FeasibleSet.whole_space()


def linear_oracle(g):
    g = np.asarray(g, dtype=float)
    return FunctionOracle(lambda x: float(g @ x), lambda x: g.copy())


def quadratic_oracle(scale=1.0):
    return FunctionOracle(
        lambda x: 0.5 * scale * float(x @ x), lambda x: scale * x
    )


def _nonzero_points(n):
    """Points of [-1, 1]^n away from the origin."""
    return hnp.arrays(np.float64, n, elements=st.floats(-1, 1)).filter(
        lambda v: np.linalg.norm(v) > 1e-3)


class TestModelStep:
    def test_unconstrained_gradient_step(self):
        x = model_step(linear_oracle([2.0, 0.0]), WHOLE, np.zeros(2), 4.0, np.array([2.0, 0.0]))
        np.testing.assert_array_equal(x, [-0.5, 0.0])

    def test_projects_onto_ball(self):
        feasible = FeasibleSet.ball(np.zeros(2), 1.0)
        x = model_step(
            linear_oracle([-4.0, 0.0]), feasible, np.zeros(2), 2.0, np.array([-4.0, 0.0])
        )
        np.testing.assert_array_equal(x, [1.0, 0.0])

    def test_composite_part_soft_thresholds(self):
        smooth = FunctionOracle(lambda x: -3.0 * float(x[0]), lambda x: np.array([-3.0]))
        oracle = composite_oracle(smooth.evaluate, L1Penalty(1.0))
        x = model_step(oracle, WHOLE, np.zeros(1), 1.0, np.array([-3.0]))
        np.testing.assert_array_equal(x, [2.0])

    def test_rejects_nonpositive_L(self):
        with pytest.raises(ValueError):
            model_step(linear_oracle([1.0]), WHOLE, np.zeros(1), 0.0, np.array([1.0]))

    def test_refuses_a_gradient_of_another_length(self):
        with pytest.raises(DimensionMismatchError, match="length 3, the iterate 2"):
            model_step(linear_oracle([1.0, 0.0]), WHOLE, np.zeros(2), 1.0, np.ones(3))


class TestAcceptance:
    """One step of ``convex_minimize`` on f(x) = x^2/2 from x = 1: the
    trial at L is 1 - 1/L, so L = 1 lands on the minimizer and L = 0.5
    overshoots to -1."""

    def _step(self, L0, delta0=0.0, cap=100):
        config = ConvexConfig(x0=np.array([1.0]), L0=L0, delta0=delta0, N=1,
                              max_inner_per_iter=cap)
        return convex_minimize(config, quadratic_oracle(), WHOLE)

    def test_quadratic_boundary_case(self):
        # the descent inequality holds with equality at L = 1: the trial
        # point is 0 and both sides equal 0, so the first trial is accepted
        trace = self._step(L0=2.0)
        assert trace.inner_hist[0] == 1
        assert trace.L_hist[0] == 1.0
        assert trace.f_values[0] == 0.0
        np.testing.assert_array_equal(trace.x_final, [0.0])

    def test_quadratic_rejects_below_curvature(self):
        # at L = 0.5: f(-1) = 0.5 > 0.5 - 2 + 0.5 * 2 = -0.5
        with pytest.raises(NonTerminationError) as info:
            self._step(L0=1.0, cap=1)
        assert info.value.triple == (1.0, 0.0, 0.0)
        trace = self._step(L0=1.0)
        assert trace.inner_hist[0] == 2 and trace.L_hist[0] == 1.0

    def test_noise_slack_flips_rejection(self):
        # same trial point, but a generous additive slack delta = 2 admits it
        trace = self._step(L0=1.0, delta0=4.0)
        assert trace.inner_hist[0] == 1
        assert (trace.L_hist[0], trace.delta_hist[0]) == (0.5, 2.0)
        np.testing.assert_array_equal(trace.x_final, [-1.0])


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
        feasible = FeasibleSet.ball(np.zeros(2), 1.0)
        config = ConvexConfig(x0=np.array([3.0, 0.0]))
        with pytest.raises(ValueError):
            convex_minimize(config, quadratic_oracle(), feasible)

    @pytest.mark.parametrize("levels", [{"delta0": -0.1}, {"Delta0": np.inf}, {"delta0": np.nan}])
    def test_config_refuses_negative_or_nonfinite_noise_levels(self, levels):
        with pytest.raises(ValueError):
            ConvexConfig(x0=np.zeros(2), **levels)

    def test_liar_oracle_exhausts_inner_cap(self):
        # constant value with a nonzero reported gradient can never satisfy
        # the acceptance inequality at zero noise
        oracle = FunctionOracle(lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
        config = ConvexConfig(x0=np.zeros(2), N=3, max_inner_per_iter=10)
        with pytest.raises(NonTerminationError) as info:
            convex_minimize(config, oracle, WHOLE)
        assert info.value.iteration == 0
        assert info.value.inner_calls == 10

    def test_cap_failure_carries_the_steps_accepted_before_it(self):
        # f(x) = x^2/2 reads 10 left of x = 0.5: the first step lands on
        # 0.5 at L = 2, every later trial 0.5 - 0.5/L falls short of it
        oracle = FunctionOracle(
            lambda x: 0.5 * float(x @ x) if x[0] >= 0.5 else 10.0, lambda x: x.copy()
        )
        config = ConvexConfig(x0=np.array([1.0]), L0=4.0, N=5, max_inner_per_iter=10)
        with pytest.raises(NonTerminationError) as info:
            convex_minimize(config, oracle, WHOLE)
        partial = info.value.partial_trace
        assert info.value.iteration == partial.N_run == 1
        assert (partial.f0, partial.f_values[0], partial.L_hist[0]) == (0.5, 0.125, 2.0)
        np.testing.assert_array_equal(partial.x_final, [0.5])
        np.testing.assert_array_equal(partial.x_hat, [0.5])
        assert not partial.stopped_early

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

    def test_nan_composite_gradient_is_named(self):
        # the composite oracle passes the smooth gradient on unchecked, so
        # the solver's own check names the fault, as for any other oracle
        smooth = FunctionOracle(
            lambda x: 0.5 * float(x @ x), lambda x: np.array([np.nan, 1.0])
        )
        oracle = composite_oracle(smooth.evaluate, L1Penalty(0.1))
        config = ConvexConfig(x0=np.array([1.0, 2.0]), N=5)
        with pytest.raises(NonFiniteOracleError) as info:
            convex_minimize(config, oracle, WHOLE)
        assert info.value.quantity == "gradient"
        assert info.value.iteration == 0

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
            p_hist=np.array([0]),
            elapsed_ms=np.array([0.0]),
            S_N=0.5,
            x_hat=np.zeros(2),
            x_final=np.zeros(2),
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
        noisy = NoisyOracle(prob.oracle(), Delta=0.0, delta=0.02, seed=8)
        config = ConvexConfig(
            x0=np.zeros(5), L0=1.0, delta0=0.02, Delta0=0.05, N=25, R=2.0
        )
        trace = convex_minimize(config, noisy, WHOLE)
        posterior = certificate_bound(trace, R=2.0, delta=0.02)
        assert trace.cert_hist[-1] == pytest.approx(posterior, rel=1e-12)

    @pytest.mark.parametrize("Delta", [0.1, 0.5])
    def test_noisy_certificate_bounds_the_gap_or_is_nan(self, Delta):
        # the noisy gradient x + Delta e1 vanishes at -Delta e1, not at x* = 0:
        # the iterates settle there, every trial passes and S_N grows like
        # 2^N, so without the gamma term the certificate fell to about 1e-120
        # against a true gap of Delta^2 / 2
        e1 = np.eye(5)[0]
        noisy = NoisyOracle(
            quadratic_oracle(), Delta=Delta, mode="adversarial-fixed-direction", direction=e1
        )
        config = ConvexConfig(x0=e1, Delta0=Delta, N=400, R=np.sqrt(0.5))
        ball = convex_minimize(config, noisy, FeasibleSet.ball(np.zeros(5), 1.0))
        gap = 0.5 * float(ball.x_hat @ ball.x_hat)
        assert gap > 0.5 * Delta**2 * 0.99
        assert ball.cert_hist[-1] >= gap
        assert np.isnan(convex_minimize(config, noisy, WHOLE).cert_hist).all()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(0, 4),
        st.floats(1e-2, 1e2),
        st.integers(1, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_certificate_bounds_the_gap(self, seed, n, extra_rows, L0, N):
        # least squares on the whole space, R^2 = V(x*, x0) = ||x* - x0||^2 / 2
        rng = np.random.default_rng(seed)
        prob = pl_quadratic_make(rng.standard_normal((n + extra_rows, n)),
                                 rng.standard_normal(n + extra_rows))
        x0 = rng.standard_normal(n)
        R = float(np.linalg.norm(prob.x_star - x0)) / np.sqrt(2.0)
        trace = convex_minimize(ConvexConfig(x0=x0, L0=L0, N=N, R=R), prob.oracle(), WHOLE)
        assert trace.cert_hist[-1] >= prob.value(trace.x_hat) - prob.f_star

    @given(
        st.integers(1, 6).flatmap(lambda n: st.tuples(_nonzero_points(n), _nonzero_points(n))),
        st.floats(0.0, 0.5),
        st.sampled_from(NoisyOracle.MODES),
        st.integers(1, 200),
        st.integers(0, 2**32 - 1),
    )
    @example(vectors=(np.eye(5)[0],) * 2, Delta=0.01, mode="adversarial-fixed-direction",
             N=400, seed=0)
    @example(vectors=(np.eye(5)[0],) * 2, Delta=0.1, mode="adversarial-fixed-direction",
             N=400, seed=0)
    @example(vectors=(np.eye(5)[0],) * 2, Delta=0.3, mode="adversarial-fixed-direction",
             N=400, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_noisy_certificate_bounds_the_gap_on_the_ball(self, vectors, Delta, mode, N, seed):
        # f = ||x||^2 / 2 on the unit ball from x0 (clipped to the ball),
        # noise of size Delta along ``direction`` or uniform on the sphere;
        # the examples are the counterexample above, where the certificate
        # reads 0.02, 0.2 and 0.6 against true gaps 5e-5, 0.005 and 0.045
        start, direction = vectors
        x0 = start / max(1.0, float(np.linalg.norm(start)))
        noisy = NoisyOracle(quadratic_oracle(), Delta=Delta, mode=mode, direction=direction,
                            seed=seed)
        config = ConvexConfig(x0=x0, Delta0=Delta, N=N, R=float(np.linalg.norm(x0)) / np.sqrt(2.0))
        trace = convex_minimize(config, noisy, FeasibleSet.ball(np.zeros(len(x0)), 1.0))
        assert trace.cert_hist[-1] >= 0.5 * float(trace.x_hat @ trace.x_hat)

    def test_unknown_value_gap_gives_nan(self):
        # values 0.01 low, the gap left unset: nothing bounds the true gap,
        # where the certificate used to leave the gap out (1.5e-5 at step 20)
        class LowValues(ModelOracle):
            known_delta = None

            def evaluate(self, x):
                return Evaluation(0.5 * float(x @ x) - 0.01, 0.0, lambda: x.copy())

        config = ConvexConfig(x0=np.array([1.0, 0.0]), N=20, R=1.0, epsilon=1e-3)
        trace = convex_minimize(config, LowValues(), WHOLE)
        assert trace.N_run == 20 and not trace.stopped_early
        assert np.isnan(trace.cert_hist).all()

    def test_stated_value_gap_enters_the_certificate(self):
        # values 0.05 low, and stated so in known_delta alone: every
        # certificate carries the 0.05, so epsilon = 0.02 never stops the run
        # (a certificate without it would stop at step 6, at 0.0159)
        class LowValues(ModelOracle):
            known_delta = 0.05

            def evaluate(self, x):
                return Evaluation(0.5 * float(x @ x) - 0.05, 0.0, lambda: x.copy())

        config = ConvexConfig(x0=np.array([1.0, 0.0]), N=50, R=1 / np.sqrt(2), epsilon=0.02)
        trace = convex_minimize(config, LowValues(), WHOLE)
        assert trace.N_run == 50 and not trace.stopped_early
        assert trace.cert_hist.min() >= 0.05
        assert trace.cert_hist[-1] == pytest.approx(0.5 / trace.S_N + 0.05)

    @pytest.mark.parametrize("mode", NoisyOracle.MODES)
    def test_noisy_run_on_the_ball_stops_at_epsilon(self, mode):
        # gamma = 0.01 > 0: on the unit ball the certificate is finite, the
        # gamma term bounded by gamma * diam(Q) = 0.02, so it can stop the run
        noisy = NoisyOracle(quadratic_oracle(), Delta=0.01, mode=mode, seed=0)
        config = ConvexConfig(x0=np.array([0.6, 0.8]), Delta0=0.01, N=400, R=1 / np.sqrt(2),
                              epsilon=0.05)
        trace = convex_minimize(config, noisy, FeasibleSet.ball(np.zeros(2), 1.0))
        assert trace.stopped_early and trace.N_run < 400
        assert trace.cert_hist[-1] <= 0.05
        assert 0.5 * float(trace.x_hat @ trace.x_hat) <= 0.05  # f(x_hat) - f*


class TestInnerCallBudget:
    def test_frozen_all_ratios_two(self):
        assert inner_call_budget(10, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0) == 21

    def test_frozen_zero_noise_overshoot_start(self):
        # L0 = 2L makes the log term log2(1) = 0 and zero noise is skipped
        assert inner_call_budget(5, 4.0, 0.0, 0.0, 2.0, 0.0, 0.0) == 10

    def test_terms_clamp_at_zero(self):
        assert inner_call_budget(5, 8.0, 0.0, 0.0, 1.0, 0.0, 0.0) == 10

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(0, 4),
        st.floats(1e-3, 1e3),
        st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_least_squares_runs_stay_within_budget(self, seed, n, extra_rows, L0, N):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n + extra_rows, n))
        prob = pl_quadratic_make(A, A @ rng.standard_normal(n))
        config = ConvexConfig(x0=rng.standard_normal(n), L0=L0, N=N)
        trace = convex_minimize(config, prob.oracle(), WHOLE)
        assert trace.total_inner_calls == trace.inner_hist.sum()
        # The systems are consistent, so f* = 0.  Once f is down to rounding
        # error the acceptance test compares rounding errors, and a spurious
        # rejection can push L past 2L; the bound holds for every prefix of a
        # run, so it is checked on the steps before f falls to 1e-12 f0.
        low = trace.f_values <= 1e-12 * trace.f0
        K = int(np.argmax(low)) if low.any() else N
        if K:
            budget = inner_call_budget(K, L0, 0.0, 0.0, prob.L, 0.0, 0.0)
            assert trace.inner_hist[:K].sum() <= budget

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
    feasible = FeasibleSet.ball(np.zeros(4), 2.0)

    config = ConvexConfig(x0=x0, L0=1.0, N=30)
    trace = convex_minimize(config, prob.oracle(), feasible)

    ref = reference_adaptive_pgd(
        x0,
        prob.value,
        prob.gradient,
        lambda v: feasible.project(v),
        L0=1.0,
        N=30,
    )
    assert len(ref) == 30 and trace.N_run == 30
    worst = max(
        float(np.max(np.abs(trace.iterates[k + 1] - ref[k]))) for k in range(30)
    )
    assert worst <= 1e-10
