import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import modelgrad
from modelgrad.core import (
    DimensionMismatchError,
    FeasibleSet,
    FunctionOracle,
    NonTerminationError,
    as_vector,
    backtrack,
    norm,
    project_ball,
)
from modelgrad import pl
from modelgrad.convex import (
    ConvexConfig,
    ConvexTrace,
    certificate_bound,
    convex_minimize,
    inner_call_budget,
)
from modelgrad.harness import finite_diff_check
from modelgrad.nonsmooth import NonsmoothConfig, nonsmooth_minimize, p_bound
from modelgrad.pl import (
    TERM_FLOOR,
    PLConfig,
    pl_dichotomy_check,
    pl_inexact_floor,
    pl_minimize,
    pl_rate_bound,
)
from modelgrad.problems import L1Penalty, NoisyOracle


def test_as_vector_accepts_lists_and_scalars():
    v = as_vector([1.0, 2.0])
    assert v.dtype == np.float64 and v.shape == (2,)
    assert as_vector(3).shape == (1,)


def test_as_vector_rejects_matrices_and_nonfinite():
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf])


def test_as_vector_accepts_huge_finite_entries():
    v = as_vector([1e200, -1e200, 3.0])
    assert v[0] == 1e200 and v[1] == -1e200


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 3, 6])
@pytest.mark.parametrize("fill", [1.0, 1e200])
def test_as_vector_rejects_nonfinite_anywhere(bad, where, fill):
    v = np.full(7, fill)
    v[where] = bad
    with pytest.raises(ValueError, match="finite"):
        as_vector(v)


def test_norm_equals_numpy_norm_bitwise():
    rng = np.random.default_rng(0)
    for n in (1, 7, 1000):
        for scale in (1e-200, 1.0, 1e150):
            v = rng.standard_normal(n) * scale
            assert norm(v) == float(np.linalg.norm(v))


class TestFeasibleSet:
    def test_whole_space_contains_everything(self):
        q = FeasibleSet.whole_space()
        x = np.array([1e12, -3.0])
        assert q.contains(x)
        assert q.project(x) is x

    def test_ball_validation(self):
        with pytest.raises(ValueError):
            FeasibleSet(FeasibleSet.BALL, center=np.zeros(2))  # no radius
        with pytest.raises(ValueError):
            FeasibleSet.ball(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            FeasibleSet(FeasibleSet.WHOLE_SPACE, radius=1.0)
        with pytest.raises(ValueError):
            FeasibleSet("simplex")

    def test_ball_contains_and_projects(self):
        q = FeasibleSet.ball(np.zeros(2), 1.0)
        assert q.contains(np.array([0.5, 0.5]))
        assert not q.contains(np.array([2.0, 0.0]))
        np.testing.assert_allclose(q.project(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_dimension_mismatch(self):
        q = FeasibleSet.ball(np.zeros(2), 1.0)
        with pytest.raises(DimensionMismatchError):
            q.contains(np.zeros(3))


class TestProjectBall:
    def test_frozen_example(self):
        # ||(3,4)|| = 5, unit ball: expect exactly (0.6, 0.8)
        out = project_ball(np.array([3.0, 4.0]), np.zeros(2), 1.0)
        np.testing.assert_array_equal(out, np.array([0.6, 0.8]))

    def test_interior_point_returned_unchanged(self):
        x = np.array([0.1, -0.2])
        assert project_ball(x, np.zeros(2), 1.0) is x

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            project_ball(np.zeros(2), np.zeros(2), -1.0)
        with pytest.raises(DimensionMismatchError):
            project_ball(np.zeros(3), np.zeros(2), 1.0)

    @given(
        arrays(np.float64, 4, elements=st.floats(-100, 100)),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_lands_in_band_and_is_idempotent(self, x, radius):
        center = np.zeros(4)
        y = project_ball(x, center, radius)
        eps = np.finfo(np.float64).eps
        assert np.linalg.norm(y - center) <= radius * (1.0 + 4.0 * eps)
        # second projection must be a bitwise no-op
        np.testing.assert_array_equal(project_ball(y, center, radius), y)


class TestOriginBall:
    """A ball at the origin projects without forming x - center: the same
    arrays as ``project_ball``, by identity where that returns x."""

    @staticmethod
    def _same(q, x):
        expected = project_ball(x, q.center, q.radius)
        out = q.project(x)
        assert (out is x) == (expected is x)
        assert out.tobytes() == expected.tobytes()
        return out

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_inside_boundary_and_outside_match_project_ball(self, zero):
        rng = np.random.default_rng(5)
        eps = np.finfo(np.float64).eps
        for radius in (1.0, 0.3, 7.0):
            q = FeasibleSet.ball(np.full(9, zero), radius)
            for _ in range(20):
                u = rng.standard_normal(9)
                u /= np.linalg.norm(u)
                for scale in (0.0, 0.5, 1.0, 1.5, 40.0):
                    self._same(q, u * (radius * scale))
                for ulps in range(-8, 9):  # within 4 ulp of the boundary and past it
                    self._same(q, u * (radius * (1.0 + ulps * eps)))

    def test_signed_zeros_and_nan(self):
        for center in (np.zeros(4), np.array([-0.0, 0.0, -0.0, -0.0])):
            q = FeasibleSet.ball(center, 1.0)
            for x in ([-0.0, 0.0, -0.0, 0.5], [-0.0, 3.0, -0.0, 0.0], [-0.0] * 4):
                self._same(q, np.array(x))
            with np.errstate(invalid="ignore"):
                out = self._same(q, np.array([np.nan, 0.0, 0.0, 0.0]))
            assert np.isnan(out).all()

    def test_dimension_mismatch_inside_and_outside(self):
        q = FeasibleSet.ball(np.zeros(2), 1.0)
        for x in (np.zeros(3), np.full(3, 5.0)):
            with pytest.raises(DimensionMismatchError):
                q.project(x)

    def test_caller_writes_do_not_reach_the_center(self):
        c = np.zeros(3)
        q = FeasibleSet.ball(c, 1.0)
        c[:] = 5.0
        x = np.array([0.5, 0.0, 0.0])
        assert q.project(x) is x and q.contains(x)
        assert not q.center.flags.writeable and not q.center.any()
        c = np.full(3, 2.0)
        q = FeasibleSet.ball(c, 1.0)
        c[:] = 0.0
        assert q.project(x).tobytes() == project_ball(x, np.full(3, 2.0), 1.0).tobytes()
        with pytest.raises(ValueError):
            q.center[0] = 0.0


class TestBacktrack:
    def test_doubles_all_three_and_clamps_Delta(self):
        tried = []

        def attempt(L, delta, Delta):
            tried.append((L, delta, Delta))
            return "accepted" if len(tried) == 4 else None

        assert backtrack(attempt, (2.0, 1.0, 0.5), 0.0, 1.0, 10, 0) == ("accepted", 8.0, 4.0, 1.0, 4)
        assert tried == [(1.0, 0.5, 0.25), (2.0, 1.0, 0.5), (4.0, 2.0, 1.0), (8.0, 4.0, 1.0)]

    def test_first_trial_is_at_the_halved_triple(self):
        tried = []

        def attempt(L, delta, Delta):
            tried.append((L, delta, Delta))
            return "accepted"

        assert backtrack(attempt, (3.0, 0.25, 0.5), 0.0, np.inf, 10, 0) == (
            "accepted", 1.5, 0.125, 0.25, 1)
        assert tried == [(1.5, 0.125, 0.25)]

    # the restart passes its fixed Delta as both bounds; the last accepted
    # Delta is 0 after a smooth exit and the fixed one after a delta-term exit
    @pytest.mark.parametrize("last_Delta", [0.0, 0.3])
    def test_equal_bounds_freeze_Delta(self, last_Delta):
        tried = []

        def attempt(L, delta, Delta):
            tried.append((L, delta, Delta))
            return "accepted" if len(tried) == 3 else None

        result = backtrack(attempt, (4.0, 0.0, last_Delta), 0.3, 0.3, 10, 0)
        assert result == ("accepted", 8.0, 0.0, 0.3, 3)
        assert tried == [(2.0, 0.0, 0.3), (4.0, 0.0, 0.3), (8.0, 0.0, 0.3)]
        with pytest.raises(NonTerminationError) as info:
            backtrack(lambda *t: None, (4.0, 0.0, last_Delta), 0.3, 0.3, 2, 5)
        assert (info.value.iteration, info.value.triple, info.value.inner_calls) == (
            5, (8.0, 0.0, 0.3), 2)

    @pytest.mark.parametrize("adapt", [True, False])
    def test_algo2_floor_on_the_first_attempt_takes_no_step(self, monkeypatch, adapt):
        # ||g(x0)|| = 1 and the first attempt's estimate is 1 (2 halved, or
        # 1 frozen): the floor stops the run before any step size is computed
        calls = []
        step_size = pl.pl_step_size

        def counted(*args):
            calls.append(args)
            return step_size(*args)

        monkeypatch.setattr(pl, "pl_step_size", counted)
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        trace = pl_minimize(
            PLConfig(x0=np.array([1.0, 0.0]), Delta0=2.0 if adapt else 1.0,
                     adapt_Delta=adapt, N=5), oracle)
        assert (trace.termination, trace.N_run, trace.final_g_norm) == (TERM_FLOOR, 0, 1.0)
        assert calls == []
        _assert_one_row_per_step(trace)

    @given(st.floats(1e-6, 1e6), st.integers(1, 12))
    @settings(max_examples=50, deadline=None)
    def test_solver_keeps_the_triple_ratios_exactly(self, L0, N):
        # the constants are only ever halved or doubled together, which is
        # exact in binary floating point, so delta/L and Delta/L never drift
        config = ConvexConfig(x0=np.array([1.0, -2.0]), L0=L0, delta0=L0 / 10,
                              Delta0=L0 / 100, N=N)
        oracle = FunctionOracle(lambda x: float(x @ x), lambda x: 2.0 * x)
        trace = convex_minimize(config, oracle, FeasibleSet.whole_space())
        np.testing.assert_array_equal(trace.delta_hist / trace.L_hist, (L0 / 10) / L0)
        np.testing.assert_array_equal(trace.Delta_hist / trace.L_hist, (L0 / 100) / L0)

    # constant value, nonzero gradient: no trial is ever accepted
    @pytest.mark.parametrize(
        "solve, next_triple",
        [
            (lambda oracle, cap: convex_minimize(
                ConvexConfig(x0=np.zeros(2), N=3, max_inner_per_iter=cap),
                oracle, FeasibleSet.whole_space()),
             (32.0, 0.0, 0.0)),
            (lambda oracle, cap: nonsmooth_minimize(
                NonsmoothConfig(base=ConvexConfig(x0=np.zeros(2), N=3, max_inner_per_iter=cap),
                                epsilon=0.1, Delta_known=0.4),
                oracle, FeasibleSet.whole_space()),
             (32.0, 0.0, 0.4)),
            (lambda oracle, cap: pl_minimize(
                PLConfig(x0=np.zeros(2), N=3, max_inner_per_iter=cap), oracle),
             (32.0, 0.0, 0.0)),
        ],
        ids=["algo1", "nonsmooth", "algo2"],
    )
    def test_each_solver_cap_failure_carries_its_state(self, solve, next_triple):
        oracle = FunctionOracle(lambda x: 1.0, lambda x: np.array([1.0, 0.0]))
        with pytest.raises(NonTerminationError) as info:
            solve(oracle, 6)
        assert info.value.iteration == 0
        assert info.value.inner_calls == 6
        assert info.value.triple == next_triple
        assert info.value.partial_trace.N_run == info.value.iteration
        assert info.value.partial_trace.f0 == 1.0
        _assert_one_row_per_step(info.value.partial_trace)

    # the first query reads 0.5 and every later one 10, so no trial is
    # accepted; from L0 = 1e300 the halved L overflows on its 29th doubling,
    # long before the default cap of 100 trials
    @pytest.mark.parametrize(
        "solve",
        [
            lambda oracle: convex_minimize(
                ConvexConfig(x0=np.zeros(2), L0=1e300, N=3), oracle, FeasibleSet.whole_space()),
            lambda oracle: nonsmooth_minimize(
                NonsmoothConfig(base=ConvexConfig(x0=np.zeros(2), L0=1e300, N=3), epsilon=0.1),
                oracle, FeasibleSet.whole_space()),
            lambda oracle: pl_minimize(PLConfig(x0=np.zeros(2), L0=1e300, N=3), oracle),
        ],
        ids=["algo1", "nonsmooth", "algo2"],
    )
    def test_each_solver_stops_when_L_doubles_to_inf(self, solve):
        points = []

        def value(x):
            points.append(x.copy())
            return 0.5 if len(points) == 1 else 10.0

        oracle = FunctionOracle(value, lambda x: np.array([1.0, 0.0]))
        with pytest.raises(NonTerminationError, match="after 29 trials") as info:
            solve(oracle)
        assert info.value.iteration == 0
        assert info.value.inner_calls == 29
        assert info.value.triple[0] == math.inf
        # every trial point is a finite step from x0: none was formed at L = inf
        assert len(points) == 30
        assert not any(np.array_equal(x, points[0]) for x in points[1:])
        assert info.value.partial_trace.N_run == 0
        _assert_one_row_per_step(info.value.partial_trace)

    # f(x) = ||x||^2/2 reads 10 where x[0] < 0.5: the first step from (1, 0)
    # lands on (0.5, 0) at L = 2, every later trial falls short of it
    @pytest.mark.parametrize(
        "solve",
        [
            lambda oracle, base: convex_minimize(
                base, oracle, FeasibleSet.whole_space()),
            lambda oracle, base: nonsmooth_minimize(
                NonsmoothConfig(base=base, epsilon=0.1),
                oracle, FeasibleSet.whole_space())[0],
            lambda oracle, base: pl_minimize(
                PLConfig(x0=base.x0, L0=base.L0, N=base.N,
                         max_inner_per_iter=base.max_inner_per_iter), oracle),
        ],
        ids=["algo1", "nonsmooth", "algo2"],
    )
    def test_each_solver_partial_trace_keeps_its_accepted_steps(self, solve):
        oracle = FunctionOracle(
            lambda x: 0.5 * float(x @ x) if x[0] >= 0.5 else 10.0, lambda x: x.copy()
        )
        base = ConvexConfig(x0=np.array([1.0, 0.0]), L0=4.0, N=5, max_inner_per_iter=10)
        with pytest.raises(NonTerminationError) as info:
            solve(oracle, base)
        partial = info.value.partial_trace
        assert info.value.iteration == partial.N_run == 1
        assert (partial.f_values[0], partial.L_hist[0], partial.step_norms[0]) == (0.125, 2.0, 0.5)
        np.testing.assert_array_equal(partial.x_final, [0.5, 0.0])
        np.testing.assert_array_equal(partial.iterates[1], [0.5, 0.0])
        if isinstance(partial, ConvexTrace):  # algo1 and nonsmooth average their iterates
            np.testing.assert_array_equal(partial.x_hat, [0.5, 0.0])
            np.testing.assert_array_equal(partial.best_x, [0.5, 0.0])
            assert (partial.best_f, partial.S_N, partial.total_inner_calls) == (0.125, 0.5, 1)
            assert type(partial.total_inner_calls) is int
        _assert_one_row_per_step(partial)

    # the gradient of f(x) = x.x / 2 at x0 = (1,) is read as (1, 1, 1)
    @pytest.mark.parametrize(
        "solve",
        [
            lambda oracle: convex_minimize(
                ConvexConfig(x0=np.ones(1), N=3), oracle, FeasibleSet.whole_space()),
            lambda oracle: nonsmooth_minimize(
                NonsmoothConfig(base=ConvexConfig(x0=np.ones(1), N=3), epsilon=0.1),
                oracle, FeasibleSet.whole_space()),
            lambda oracle: pl_minimize(PLConfig(x0=np.ones(1), N=3), oracle),
        ],
        ids=["algo1", "nonsmooth", "algo2"],
    )
    def test_each_solver_refuses_a_gradient_of_another_length(self, solve):
        points = []

        def value(x):
            points.append(x.copy())
            return 0.5 * float(x @ x)

        oracle = FunctionOracle(value, lambda x: np.full(3, x[0]))
        with pytest.raises(DimensionMismatchError, match="0 has length 3, the iterate 1"):
            solve(oracle)
        assert len(points) == 1

    # f(x) = x.x / 2 from (1, 1, 1): the first step, at L = 1, lands on the
    # minimizer, and every later zero-length step is accepted at once
    @pytest.mark.parametrize(
        "solve",
        [
            lambda oracle, base: convex_minimize(base, oracle, FeasibleSet.whole_space()),
            lambda oracle, base: nonsmooth_minimize(
                NonsmoothConfig(base=base, epsilon=0.1), oracle, FeasibleSet.whole_space())[0],
            lambda oracle, base: pl_minimize(PLConfig(x0=base.x0, N=base.N), oracle),
        ],
        ids=["algo1", "nonsmooth", "algo2"],
    )
    def test_each_solver_stops_halving_L_at_the_floor(self, solve):
        trace = solve(_half_square(), ConvexConfig(x0=np.ones(3), N=1080, R=1.0))
        if isinstance(trace, ConvexTrace):  # L halves from 1 to 2^-900 and stays there
            assert trace.N_run == 1080
            np.testing.assert_array_equal(trace.L_hist, 2.0 ** -np.minimum(np.arange(1080), 900))
            np.testing.assert_array_equal(trace.x_hat, np.zeros(3))
            assert np.isfinite(trace.cert_hist).all()
        else:  # algo2 reads ||g|| = 0 at the minimizer: the floor stops it
            assert (trace.termination, trace.N_run) == (TERM_FLOOR, 1)
        _assert_one_row_per_step(trace)


def _assert_one_row_per_step(trace):
    """Every per-step field of the trace class holds N_run values of its
    declared dtype, as does elapsed_ms; the iterates add x0."""
    for f in dataclasses.fields(trace):
        if "dtype" in f.metadata:  # counts stay int64, even when empty
            column = getattr(trace, f.name)
            assert (column.dtype, column.shape) == (f.metadata["dtype"], (trace.N_run,)), f.name
    assert (trace.elapsed_ms.dtype, trace.elapsed_ms.shape) == (np.float64, (trace.N_run,))
    assert len(trace.f_best_running()) == trace.N_run
    assert len(trace.iterates) == trace.N_run + 1
    # the summaries read the columns
    assert trace.best_f == min([trace.f0, *trace.f_values])
    assert trace.f_final == (trace.f_values[-1] if trace.N_run else trace.f0)
    if isinstance(trace, ConvexTrace):
        assert trace.total_inner_calls == trace.inner_hist.sum()


class TestModelOracle:
    def test_model_sees_an_in_place_change_of_the_anchor(self):
        # the oracle keeps nothing from a query: after x *= 5, a fresh
        # evaluation's gradient is g(x) = (5, 5), not the (1, 1) of before
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        x = np.ones(2)
        assert oracle.evaluate(x).gradient().tolist() == [1.0, 1.0]
        x *= 5
        assert oracle.evaluate(x).gradient().tolist() == [5.0, 5.0]


def _half_square(**kw):
    return FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), **kw)


def _convex_trace():
    return convex_minimize(ConvexConfig(x0=np.ones(2), N=3), _half_square(),
                           FeasibleSet.whole_space())


def _pl_trace():
    return pl_minimize(PLConfig(x0=np.ones(2), N=3, Delta_cap=0.1), _half_square())


# Each check must fail for NaN: written ``x < 0`` it let NaN through, and
# the function returned a bound that ignored the parameter.
@pytest.mark.parametrize(
    "call",
    [
        lambda: certificate_bound(_convex_trace(), 1.0, gamma=math.nan),
        lambda: certificate_bound(_convex_trace(), 1.0, delta=math.nan),
        lambda: inner_call_budget(10, 1.0, 0.0, 0.0, math.nan, 0.0, 0.0),
        lambda: p_bound(math.nan, 0.1, 1.0),
        lambda: pl_dichotomy_check(_pl_trace(), 1.0, 1.0, math.nan, 2.0, 1.0),
        lambda: pl_rate_bound(_pl_trace(), 1.0, math.nan),
        lambda: pl_inexact_floor(1.0, 1.0, math.nan),
        lambda: NoisyOracle(_half_square(), Delta=math.nan),
        lambda: NoisyOracle(_half_square(), delta=math.nan),
        lambda: finite_diff_check(_half_square(), np.ones(2), h=math.inf),
        lambda: L1Penalty(math.inf),
        lambda: _half_square(gamma=math.nan),
        lambda: _half_square(gamma=-1.0),  # it would cancel a NoisyOracle's Delta
    ],
    ids=["certificate-gamma", "certificate-delta", "budget-L", "p-bound-Delta",
         "dichotomy-Delta", "rate-Delta", "floor-delta", "noisy-Delta", "noisy-delta",
         "finite-diff-h-inf", "l1-weight-inf", "gamma-nan", "gamma-negative"],
)
def test_parameters_outside_their_range_are_refused(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ConvexConfig(x0=np.ones(2), R=-1.0),
        lambda: ConvexConfig(x0=np.ones(2), epsilon=0.0),
        lambda: ConvexConfig(x0=np.ones(2), max_inner_per_iter=0),
        lambda: PLConfig(x0=np.ones(2), max_inner_per_iter=0),
    ],
    ids=["convex-R-negative", "convex-epsilon-zero", "convex-cap-zero", "pl-cap-zero"],
)
def test_configs_refuse_values_outside_their_range(call):
    with pytest.raises(ValueError):
        call()


# N = 2.5 used to run until the solver loop's range(N) raised TypeError,
# and N = True ran one step
@pytest.mark.parametrize("config", [ConvexConfig, PLConfig])
@pytest.mark.parametrize("name, value", [("N", 2.5), ("N", True), ("N", "3"),
                                         ("max_inner_per_iter", 2.5),
                                         ("max_inner_per_iter", False)])
def test_counts_must_be_integers(config, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {value!r}$"):
        config(x0=np.ones(2), **{name: value})


@pytest.mark.parametrize("config", [ConvexConfig, PLConfig])
def test_numpy_integer_counts_are_accepted(config):
    cfg = config(x0=np.ones(2), N=np.int64(3), max_inner_per_iter=np.int32(5))
    assert (cfg.N, cfg.max_inner_per_iter) == (3, 5)


def _modules_with_exports():
    modules = [modelgrad]
    for info in pkgutil.iter_modules(modelgrad.__path__):
        module = importlib.import_module(f"modelgrad.{info.name}")
        if hasattr(module, "__all__"):
            modules.append(module)
    return modules


@pytest.mark.parametrize("module", _modules_with_exports(), ids=lambda m: m.__name__)
def test_every_export_resolves_once(module):
    names = module.__all__
    assert [n for n in names if not hasattr(module, n)] == []
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
