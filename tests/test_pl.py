import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelgrad.convex import ConvexConfig, convex_minimize
from modelgrad.core import (
    FeasibleSet,
    FunctionOracle,
    InconsistentTraceError,
    NonFiniteOracleError,
    NonTerminationError,
    UnsupportedCombinationError,
)
from modelgrad.pl import (
    TERM_COMPLETED,
    TERM_FLOOR,
    PLConfig,
    PLTrace,
    SmallGradientError,
    pl_dichotomy_check,
    pl_inexact_floor,
    pl_minimize,
    pl_rate_bound,
    pl_rate_bound_nonadaptive,
    pl_step_size,
)
from modelgrad.problems import L1Penalty, NoisyOracle, composite_oracle, pl_quadratic_make


def quadratic_oracle():
    return FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())


def make_problem(seed, shape=(8, 5)):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal(shape)
    return pl_quadratic_make(A, rng.standard_normal(shape[0]))


class TestStepSize:
    def test_frozen_values(self):
        assert pl_step_size(1.0, 0.0, 1.0) == 1.0
        assert pl_step_size(2.0, 0.5, 1.0) == 0.25

    def test_small_gradient_refused(self):
        with pytest.raises(SmallGradientError):
            pl_step_size(1.0, 0.2, 0.1)
        with pytest.raises(SmallGradientError):
            pl_step_size(1.0, 0.2, 0.2)

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            pl_step_size(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            pl_step_size(1.0, -0.1, 1.0)


class TestAcceptance:
    """One step of ``pl_minimize`` on f(x) = x^2/2 from x = 1: the trial at
    L is 1 - 1/L (Delta = 0 leaves the step undamped)."""

    def _step(self, L0, delta0=0.0, cap=100):
        config = PLConfig(x0=np.array([1.0]), L0=L0, delta0=delta0, N=1,
                          max_inner_per_iter=cap)
        return pl_minimize(config, quadratic_oracle())

    def test_quadratic_boundary(self):
        # accepted with equality at L = 1, rejected at L = 0.5
        trace = self._step(L0=2.0)
        assert trace.inner_hist[0] == 1 and trace.L_hist[0] == 1.0
        assert trace.f_values[0] == 0.0
        with pytest.raises(NonTerminationError) as info:
            self._step(L0=1.0, cap=1)
        assert info.value.triple == (1.0, 0.0, 0.0)

    def test_value_slack_admits_step(self):
        trace = self._step(L0=1.0, delta0=4.0)
        assert trace.inner_hist[0] == 1
        assert (trace.L_hist[0], trace.delta_hist[0]) == (0.5, 2.0)
        np.testing.assert_array_equal(trace.x_final, [-1.0])


class TestMinimize:
    def test_one_exact_step_lands_on_minimizer(self):
        # L0 = 2 halves to the true curvature 1, the undamped step from
        # (1, 0) hits the origin, and the next iteration sees a zero
        # gradient, which is the floor at zero error
        config = PLConfig(x0=np.array([1.0, 0.0]), L0=2.0, N=50)
        trace = pl_minimize(config, quadratic_oracle())
        assert trace.N_run == 1
        assert trace.termination == TERM_FLOOR
        assert trace.f_values[0] == 0.0
        assert trace.L_hist[0] == 1.0
        assert trace.h_steps[0] == 1.0
        assert trace.final_g_norm == 0.0
        np.testing.assert_array_equal(trace.x_final, [0.0, 0.0])

    def test_floor_at_start_yields_empty_run(self):
        # dyadic data keeps the gradient at the minimizer exactly zero, so
        # the floor fires before the first step
        prob = pl_quadratic_make(np.diag([1.0, 0.0]), np.array([1.0, 0.0]))
        config = PLConfig(x0=prob.x_star, L0=prob.L, N=10)
        trace = pl_minimize(config, prob.oracle())
        assert trace.N_run == 0
        assert trace.termination == TERM_FLOOR
        assert trace.f_final == trace.f0
        np.testing.assert_array_equal(trace.x_final, prob.x_star)

    def test_exact_run_is_monotone_and_meets_rate_bound(self):
        prob = make_problem(1)
        config = PLConfig(x0=np.zeros(5), L0=1.0, N=60)
        trace = pl_minimize(config, prob.oracle())
        values = np.concatenate(([trace.f0], trace.f_values))
        assert np.all(np.diff(values) <= 0.0)
        gap0 = trace.f0 - prob.f_star
        bound = pl_rate_bound(trace, prob.mu, 0.0) * gap0
        assert trace.f_final - prob.f_star <= bound * (1.0 + 1e-9)

    def test_steps_respect_damping_envelope(self):
        prob = make_problem(2)
        noisy = NoisyOracle(prob.oracle(), Delta=0.05, seed=3)
        config = PLConfig(
            x0=np.zeros(5), L0=1.0, Delta0=0.05, Delta_cap=0.05, N=40
        )
        trace = pl_minimize(config, noisy)
        assert np.all(trace.h_steps > 0.0)
        assert np.all(trace.h_steps <= 1.0 / trace.L_hist + 1e-15)
        assert np.all(trace.Delta_hist <= 0.05 + 1e-15)
        assert np.all(trace.g_norms > trace.Delta_hist)

    def test_frozen_estimate_stays_at_initial_level(self):
        prob = make_problem(4)
        noisy = NoisyOracle(prob.oracle(), Delta=0.1, seed=5)
        config = PLConfig(
            x0=np.zeros(5), L0=1.0, Delta0=0.1, Delta_cap=0.1, N=30,
            adapt_Delta=False,
        )
        trace = pl_minimize(config, noisy)
        assert np.all(trace.Delta_hist == 0.1)

    def test_noisy_descent_still_monotone_without_value_noise(self):
        prob = make_problem(6)
        noisy = NoisyOracle(prob.oracle(), Delta=0.2, seed=7)
        config = PLConfig(x0=np.zeros(5), L0=1.0, Delta0=0.2, Delta_cap=0.2, N=80)
        trace = pl_minimize(config, noisy)
        values = np.concatenate(([trace.f0], trace.f_values))
        assert np.all(np.diff(values) < 0.0)

    def test_nan_value_fails_at_once(self):
        calls = []

        def value(x):
            calls.append(1)
            return math.nan if x[0] < 0.5 else 0.5 * float(x @ x)

        oracle = FunctionOracle(value, lambda x: x.copy())
        config = PLConfig(x0=np.array([1.0, 0.0]), L0=2.0, N=50)
        with pytest.raises(NonFiniteOracleError) as info:
            pl_minimize(config, oracle)
        assert (info.value.quantity, info.value.iteration) == ("value", 0)
        assert len(calls) == 2  # x0, then the first trial point

    def test_nan_gradient_fails_at_once(self):
        def gradient(x):
            return np.array([math.nan, 0.0]) if x[0] < 0.5 else x.copy()

        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), gradient)
        config = PLConfig(x0=np.array([1.0, 0.0]), L0=1.0, N=50)
        with pytest.raises(NonFiniteOracleError) as info:
            pl_minimize(config, oracle)
        assert info.value.quantity == "gradient"
        assert 1 <= info.value.iteration < 5

    def test_liar_oracle_raises_with_partial_trace(self):
        oracle = FunctionOracle(lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
        config = PLConfig(x0=np.zeros(2), N=5, max_inner_per_iter=10)
        with pytest.raises(NonTerminationError) as info:
            pl_minimize(config, oracle)
        assert info.value.inner_calls == 10
        assert info.value.partial_trace.N_run == 0
        assert info.value.partial_trace.f0 == 1.0

    def test_floor_on_the_last_growth_beats_the_cap(self):
        # |g| = 1 and the rejections grow Delta from 0.04 by doubling: the
        # fifth lifts it to 1.28, past |g|, so a cap of five trials ends at
        # the floor, while a cap of four runs out with Delta at 0.64
        oracle = FunctionOracle(lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
        config = PLConfig(x0=np.zeros(2), Delta0=0.08, N=3, max_inner_per_iter=5)
        trace = pl_minimize(config, oracle)
        assert trace.termination == TERM_FLOOR
        assert trace.N_run == 0
        config = PLConfig(x0=np.zeros(2), Delta0=0.08, N=3, max_inner_per_iter=4)
        with pytest.raises(NonTerminationError) as info:
            pl_minimize(config, oracle)
        assert info.value.inner_calls == 4

    def test_refuses_a_composite_oracle(self):
        # F(x) = ||x - (3, 0)||^2/2 + ||x||_1: algo2's damped step has no
        # prox, and it used to run as if the l1 term were not there, ending
        # at (1, 0) with F = 3.0; algo1 reaches the minimum F = 2.5 at (2, 0)
        c = np.array([3.0, 0.0])
        smooth = FunctionOracle(lambda x: 0.5 * float((x - c) @ (x - c)), lambda x: x - c)
        oracle = composite_oracle(smooth.evaluate, L1Penalty(1.0))
        with pytest.raises(UnsupportedCombinationError):
            pl_minimize(PLConfig(x0=np.zeros(2), N=200), oracle)
        trace = convex_minimize(
            ConvexConfig(x0=np.zeros(2), N=200), oracle, FeasibleSet.whole_space()
        )
        assert trace.best_f == 2.5
        np.testing.assert_array_equal(trace.best_x, [2.0, 0.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PLConfig(x0=np.zeros(2), L0=0.0)
        with pytest.raises(ValueError):
            PLConfig(x0=np.zeros(2), Delta0=-0.1)
        with pytest.raises(ValueError):
            PLConfig(x0=np.zeros(2), N=0)
        with pytest.raises(ValueError):
            PLConfig(x0=np.zeros(2), Delta_cap=-0.5)

    # a NaN delta0 used to exhaust the trial cap, a NaN Delta0 to stop
    # partway at the floor, and an infinite delta0 to accept every trial
    @pytest.mark.parametrize(
        "field, value",
        [("delta0", math.nan), ("delta0", math.inf), ("Delta0", math.nan),
         ("Delta0", math.inf), ("Delta_cap", math.nan)],
    )
    def test_non_finite_levels_refused_when_built(self, field, value):
        with pytest.raises(ValueError, match=field):
            PLConfig(x0=np.zeros(2), **{field: value})


def synthetic_trace(g_norms, final_g_norm, clamp, L=1.0):
    n = len(g_norms)
    return PLTrace(
        x0=np.zeros(2),
        f0=1.0,
        f_values=np.linspace(0.9, 0.5, n),
        g_norms=np.asarray(g_norms, dtype=float),
        h_steps=np.full(n, 0.5),
        L_hist=np.full(n, L),
        Delta_hist=np.zeros(n),
        delta_hist=np.zeros(n),
        inner_hist=np.ones(n, dtype=np.int64),
        elapsed_ms=np.zeros(n),
        termination=TERM_COMPLETED,
        final_g_norm=final_g_norm,
        clamp=clamp,
        x_final=np.zeros(2),
        f_final=0.5 if n else 1.0,
        best_f=0.5 if n else 1.0,
        iterates=None,
    )


class TestRateBounds:
    def test_inconsistent_mu_refused(self):
        prob = make_problem(8)
        config = PLConfig(x0=np.zeros(5), L0=1.0, N=20)
        trace = pl_minimize(config, prob.oracle())
        with pytest.raises(InconsistentTraceError):
            pl_rate_bound(trace, mu=100.0 * prob.L, Delta=0.0)

    def test_adaptive_product_never_exceeds_nonadaptive(self):
        prob = make_problem(9)
        Delta = 0.1
        noisy = NoisyOracle(prob.oracle(), Delta=Delta, seed=10)
        config = PLConfig(
            x0=np.zeros(5), L0=1.0, Delta0=Delta, Delta_cap=Delta, N=50
        )
        trace = pl_minimize(config, noisy)
        adaptive = pl_rate_bound(trace, prob.mu, Delta)
        nonadaptive = pl_rate_bound_nonadaptive(trace, prob.mu, Delta)
        assert adaptive <= nonadaptive * (1.0 + 1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 11),
        st.integers(2, 11),
        st.floats(-4.0, 0.0),
        st.sampled_from(NoisyOracle.MODES),
        st.integers(1, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_contraction_bounds_hold_with_the_problems_mu(self, seed, m, n, log_Delta, mode, N):
        # algo2 clamped at the true gradient-noise level: both products of
        # contraction factors, times the initial gap, bound the final gap
        Delta = 10.0**log_Delta
        rng = np.random.default_rng(seed)
        prob = pl_quadratic_make(rng.standard_normal((m, n)), rng.standard_normal(m))
        x0 = np.zeros(n)
        noisy = NoisyOracle(prob.oracle(), Delta=Delta, mode=mode, seed=seed)
        config = PLConfig(x0=x0, Delta0=Delta, Delta_cap=Delta, N=N, store_iterates=False)
        trace = pl_minimize(config, noisy)
        gap0 = prob.value(x0) - prob.f_star
        gap_N = prob.value(trace.x_final) - prob.f_star
        tol = 1e-12 * max(1.0, gap0)
        assert pl_rate_bound(trace, prob.mu, Delta) * gap0 >= gap_N - tol
        assert pl_rate_bound_nonadaptive(trace, prob.mu, Delta) * gap0 >= gap_N - tol

    def test_empty_trace_gives_unit_product(self):
        trace = synthetic_trace([], math.nan, clamp=0.1)
        assert pl_rate_bound(trace, 1.0, 0.1) == 1.0


def test_inexact_floor_frozen():
    assert pl_inexact_floor(1.0, 1.0, 0.01) == pytest.approx(0.03)
    with pytest.raises(ValueError):
        pl_inexact_floor(0.0, 1.0, 0.01)


class TestDichotomy:
    def test_linear_branch_frozen_numbers(self):
        # mu = 1, C = 3, Delta = 0.1: threshold 0.3, contraction factor
        # 1 - (2/4)^2 = 0.75, floor 16 * 0.01 / 2 = 0.08
        trace = synthetic_trace([0.5, 0.4], final_g_norm=0.35, clamp=0.1)
        report = pl_dichotomy_check(trace, mu=1.0, L=1.0, Delta=0.1, C=3.0, gap0=2.0)
        assert report.branch == "linear-rate"
        assert report.first_violation is None
        assert report.factor == pytest.approx(0.75)
        assert report.floor == pytest.approx(0.08)
        assert report.bound == pytest.approx(0.75**2 * 2.0)

    def test_floor_branch_on_recorded_norm(self):
        trace = synthetic_trace([0.5, 0.25], final_g_norm=0.2, clamp=0.1)
        report = pl_dichotomy_check(trace, mu=1.0, L=1.0, Delta=0.1, C=3.0, gap0=2.0)
        assert report.branch == "noise-floor"
        assert report.first_violation == 1
        assert report.bound == pytest.approx(0.08)

    def test_floor_branch_on_final_norm(self):
        # recorded norms clear the threshold; only the post-run norm dips
        trace = synthetic_trace([0.5, 0.4], final_g_norm=0.1, clamp=0.1)
        report = pl_dichotomy_check(trace, mu=1.0, L=1.0, Delta=0.1, C=3.0, gap0=2.0)
        assert report.branch == "noise-floor"
        assert report.first_violation == 2

    def test_requires_clamped_run(self):
        trace = synthetic_trace([0.5], final_g_norm=0.4, clamp=None)
        with pytest.raises(InconsistentTraceError):
            pl_dichotomy_check(trace, mu=1.0, L=1.0, Delta=0.1, C=3.0, gap0=1.0)

    def test_parameter_validation(self):
        trace = synthetic_trace([0.5], final_g_norm=0.4, clamp=0.1)
        with pytest.raises(ValueError):
            pl_dichotomy_check(trace, mu=0.0, L=1.0, Delta=0.1, C=3.0, gap0=1.0)
        with pytest.raises(ValueError):
            pl_dichotomy_check(trace, mu=1.0, L=1.0, Delta=0.1, C=1.0, gap0=1.0)
        with pytest.raises(ValueError):
            pl_dichotomy_check(trace, mu=1.0, L=1.0, Delta=-0.1, C=3.0, gap0=1.0)
