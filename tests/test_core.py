import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modelgrad.core import (
    AdaptiveTriple,
    DimensionMismatchError,
    FeasibleSet,
    FunctionOracle,
    ModelOracle,
    ProxSetup,
    UnsupportedCombinationError,
    as_vector,
    bregman_divergence,
    check_oracle_conformance,
    norm,
    project_ball,
    scale_triple,
)


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


class TestBregman:
    def setup_method(self):
        self.setup = ProxSetup(FeasibleSet.whole_space())

    def test_frozen_value(self):
        # V((3,4), 0) = (9 + 16) / 2 = 12.5
        assert bregman_divergence(self.setup, np.array([3.0, 4.0]), np.zeros(2)) == 12.5

    def test_zero_at_equal_points(self):
        x = np.array([1.0, -2.0, 3.0])
        assert bregman_divergence(self.setup, x, x) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bregman_divergence(self.setup, np.zeros(2), np.zeros(3))

    def test_non_euclidean_setup_is_rejected_at_construction(self):
        with pytest.raises(UnsupportedCombinationError):
            ProxSetup(FeasibleSet.whole_space(), generator="entropy")


class TestAdaptiveTriple:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTriple(0.0)
        with pytest.raises(ValueError):
            AdaptiveTriple(1.0, delta=-0.1)
        with pytest.raises(ValueError):
            AdaptiveTriple(1.0, Delta=np.inf)

    def test_halve_then_double_is_exact_identity(self):
        t = AdaptiveTriple(3.0, 0.3, 0.07)
        back = t.halved().doubled()
        assert (back.L, back.delta, back.Delta) == (t.L, t.delta, t.Delta)

    def test_scaling_preserves_ratios_exactly(self):
        t = AdaptiveTriple(4.0, 0.1, 0.2)
        s = t.doubled().doubled()
        assert s.delta / s.L == t.delta / t.L
        assert s.Delta / s.L == t.Delta / t.L

    def test_only_halving_and_doubling_allowed(self):
        with pytest.raises(ValueError):
            scale_triple(AdaptiveTriple(1.0), 0.7)

    @given(st.floats(1e-6, 1e6), st.integers(0, 30))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_any_depth(self, L, k):
        t = AdaptiveTriple(L, L / 10, L / 100)
        down = t
        for _ in range(k):
            down = down.halved()
        up = down
        for _ in range(k):
            up = up.doubled()
        assert up.L == t.L and up.delta == t.delta and up.Delta == t.Delta


class TestModelOracle:
    def test_linear_model_frozen_value(self):
        oracle = FunctionOracle(lambda x: 0.0, lambda x: np.array([1.0, 2.0]))
        x = np.zeros(2)
        y = np.array([3.0, -1.0])
        # <(1,2), (3,-1)> = 1
        assert oracle.model(y, x) == 1.0
        assert oracle.model(x, x) == 0.0

    def test_gradient_memoized_by_anchor_identity(self):
        calls = []

        def grad(x):
            calls.append(1)
            return x.copy()

        oracle = FunctionOracle(lambda x: 0.0, grad)
        x = np.array([1.0, 2.0])
        oracle.model(np.zeros(2), x)
        oracle.model(np.ones(2), x)
        assert len(calls) == 1
        # equal values but a different object is a new anchor
        oracle.model(np.zeros(2), x.copy())
        assert len(calls) == 2

    def test_model_dimension_mismatch(self):
        oracle = FunctionOracle(lambda x: 0.0, lambda x: x)
        with pytest.raises(DimensionMismatchError):
            oracle.model(np.zeros(3), np.zeros(2))

    def test_composite_prox_requires_override(self):
        class Broken(ModelOracle):
            has_composite = True

            def value_inexact(self, x):
                return 0.0

            def _gradient(self, x):
                return x

        with pytest.raises(UnsupportedCombinationError):
            Broken().composite_prox(np.zeros(2), 1.0)


class TestConformance:
    def test_linear_model_conforms(self):
        rng = np.random.default_rng(0)
        oracle = FunctionOracle(
            lambda x: float(x @ x), lambda x: 2.0 * x
        )
        failures = check_oracle_conformance(
            oracle, lambda: rng.standard_normal(3), trials=200
        )
        assert failures == []

    def test_concave_model_is_flagged(self):
        class Concave(ModelOracle):
            def value_inexact(self, x):
                return 0.0

            def _gradient(self, x):
                return np.zeros_like(x)

            def model(self, y, x):
                d = y - x
                return -float(d @ d)

        rng = np.random.default_rng(1)
        failures = check_oracle_conformance(
            Concave(), lambda: rng.standard_normal(3), trials=100
        )
        assert failures
