import math

import numpy as np
import pytest

from modelgrad.core import FeasibleSet, UnsupportedCombinationError
from modelgrad.problems import (
    BallIndicator,
    BallSumProblem,
    L1Penalty,
    MinMaxBallProblem,
    NoisyOracle,
    composite_oracle,
    generate_task1,
    generate_task2,
    load_centers,
    pl_quadratic_make,
    save_centers,
)
from reference_solvers import grid_search_min


class TestBallSum:
    def test_frozen_value_and_subgradient(self):
        # one ball at (2, 0): ||x - a|| = 2, beyond radius 1 by exactly 1
        prob = BallSumProblem(np.array([[2.0, 0.0]]))
        x = np.zeros(2)
        assert prob.value(x) == 1.0
        np.testing.assert_array_equal(prob.subgradient(x), np.array([-1.0, 0.0]))

    def test_zero_inside_intersection(self):
        prob = BallSumProblem(np.array([[0.3, 0.0], [0.0, 0.3]]))
        x = np.zeros(2)
        assert prob.value(x) == 0.0
        np.testing.assert_array_equal(prob.subgradient(x), np.zeros(2))

    def test_default_feasible_set_is_unit_ball(self):
        prob = BallSumProblem(np.array([[2.0, 0.0]]))
        assert prob.feasible.kind == FeasibleSet.BALL
        assert prob.feasible.radius == 1.0

    def test_rejects_bad_centers(self):
        with pytest.raises(ValueError):
            BallSumProblem(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            BallSumProblem(np.array([[np.nan, 0.0]]))
        with pytest.raises(ValueError):
            BallSumProblem(np.array([[1.0, 0.0]]), ball_radius=0.0)

    def test_dimension_check(self):
        prob = BallSumProblem(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            prob.value(np.zeros(3))


@pytest.mark.parametrize("cls", [BallSumProblem, MinMaxBallProblem])
def test_row_norms_cannot_go_stale(cls):
    centers = np.array([[2.0, 0.0], [0.0, 3.0]])
    prob = cls(centers)
    before = prob.value(np.zeros(2))
    centers[1, 1] = 50.0  # the problem keeps its own copy
    assert prob.value(np.zeros(2)) == before
    with pytest.raises(ValueError):
        prob.centers[1, 1] = 50.0


class TestMinMax:
    def test_frozen_two_point_instance(self):
        prob = MinMaxBallProblem(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert prob.value(np.zeros(2)) == 1.0
        assert prob.lower_bound() == 1.0

    def test_optimum_matches_grid_search(self):
        # three anchors; compare the analytic circumcenter value against an
        # exhaustive grid minimum
        centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.8]])
        prob = MinMaxBallProblem(centers)
        grid_min = grid_search_min(prob.value, -0.5, 0.5, 301)
        assert prob.lower_bound() <= grid_min + 1e-9
        # origin is feasible, so the grid minimum is at most f(0)
        assert grid_min <= prob.value(np.zeros(2))

    def test_subgradient_is_unit_toward_farthest(self):
        # farthest anchor from the origin is (-2, 0), so the active direction
        # is (0 - (-2), 0) normalized
        prob = MinMaxBallProblem(np.array([[1.0, 0.0], [-2.0, 0.0]]))
        g = prob.subgradient(np.zeros(2))
        np.testing.assert_allclose(g, [1.0, 0.0])
        assert np.linalg.norm(g) == pytest.approx(1.0)

    def test_degenerate_single_center(self):
        prob = MinMaxBallProblem(np.array([[0.5, 0.5]]))
        at_center = np.array([0.5, 0.5])
        assert prob.value(at_center) == 0.0
        np.testing.assert_array_equal(prob.subgradient(at_center), np.zeros(2))


class TestGenerators:
    def test_task1_center_distances_in_window(self):
        prob = generate_task1(n=30, m=12, seed=3)
        norms = np.linalg.norm(prob.centers, axis=1)
        assert norms.shape == (12,)
        assert np.all(norms > 1.0) and np.all(norms < 1.5)

    def test_task2_center_distances_in_window(self):
        prob = generate_task2(n=30, m=12, seed=3)
        norms = np.linalg.norm(prob.centers, axis=1)
        assert np.all(norms > 0.5) and np.all(norms < 1.0)

    def test_deterministic_given_seed(self):
        a = generate_task1(n=10, m=4, seed=7).centers
        b = generate_task1(n=10, m=4, seed=7).centers
        c = generate_task1(n=10, m=4, seed=8).centers
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPLQuadratic:
    def test_diag_rank_deficient_constants(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        prob = pl_quadratic_make(A, np.array([1.0, 0.0]))
        assert prob.mu == 1.0 and prob.L == 1.0
        assert prob.f_star == 0.0
        np.testing.assert_allclose(prob.x_star, [1.0, 0.0], atol=1e-12)

    def test_mu_and_L_match_eigendecomposition(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 5))
        prob = pl_quadratic_make(A, rng.standard_normal(8))
        evals = np.linalg.eigvalsh(A.T @ A)
        assert prob.L == pytest.approx(evals[-1], rel=1e-12)
        assert prob.mu == pytest.approx(evals[0], rel=1e-9)
        assert prob.mu <= prob.L

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            pl_quadratic_make(np.zeros((3, 3)), np.ones(3))

    def test_oracle_carries_known_L(self):
        A = np.eye(2) * 2.0
        prob = pl_quadratic_make(A, np.zeros(2))
        assert prob.oracle().known_L == prob.L

    def test_f_star_zero_on_consistent_system(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((6, 4))
        z = rng.standard_normal(4)
        prob = pl_quadratic_make(A, A @ z)
        assert prob.f_star == pytest.approx(0.0, abs=1e-20)


class TestNoisyOracle:
    def _base(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((6, 4))
        return pl_quadratic_make(A, rng.standard_normal(6))

    @pytest.mark.parametrize("mode", NoisyOracle.MODES)
    def test_envelopes_hold_over_many_queries(self, mode):
        prob = self._base()
        Delta, delta = 0.2, 0.05
        noisy = NoisyOracle(prob.oracle(), Delta=Delta, delta=delta, mode=mode, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(2000):
            x = rng.standard_normal(4)
            g_err = np.linalg.norm(noisy.model_gradient_at(x) - prob.gradient(x))
            assert g_err <= Delta * (1.0 + 1e-12)
            v_gap = prob.value(x) - noisy.value_inexact(x)
            assert 0.0 <= v_gap <= delta

    def test_metadata_accumulates(self):
        prob = self._base()
        noisy = NoisyOracle(prob.oracle(), Delta=0.3, delta=0.1)
        assert noisy.gamma == 0.3
        assert noisy.known_Delta == 0.3 and noisy.known_delta == 0.1
        assert not noisy.exact_values
        exact = NoisyOracle(prob.oracle(), Delta=0.3, delta=0.0)
        assert exact.exact_values

    def test_zero_noise_is_bitwise_passthrough(self):
        prob = self._base()
        noisy = NoisyOracle(prob.oracle(), Delta=0.0, delta=0.0)
        x = np.array([0.3, -0.7, 1.1, 0.0])
        assert noisy.value_inexact(x) == prob.value(x)
        np.testing.assert_array_equal(noisy.model_gradient_at(x), prob.gradient(x))

    def test_deterministic_for_fixed_seed(self):
        prob = self._base()
        x = np.ones(4)
        a = NoisyOracle(prob.oracle(), Delta=0.2, seed=3).model_gradient_at(x)
        b = NoisyOracle(prob.oracle(), Delta=0.2, seed=3).model_gradient_at(x)
        np.testing.assert_array_equal(a, b)

    def test_adversarial_direction_is_fixed(self):
        prob = self._base()
        noisy = NoisyOracle(
            prob.oracle(), Delta=0.2, mode="adversarial-fixed-direction", seed=4
        )
        rng = np.random.default_rng(11)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        e1 = noisy.model_gradient_at(x1) - prob.gradient(x1)
        e2 = noisy.model_gradient_at(x2) - prob.gradient(x2)
        np.testing.assert_allclose(e1, e2, rtol=1e-12)
        assert np.linalg.norm(e1) == pytest.approx(0.2, rel=1e-12)

    def test_non_unit_direction_is_normalised(self):
        prob = self._base()
        noisy = NoisyOracle(
            prob.oracle(), Delta=0.1, mode="adversarial-fixed-direction",
            direction=[2.0, 0.0, 0.0, 0.0],
        )
        x = np.ones(4)
        err = noisy.model_gradient_at(x) - prob.gradient(x)
        np.testing.assert_allclose(err, [0.1, 0.0, 0.0, 0.0], rtol=1e-12, atol=1e-15)

    def test_bad_directions_refused(self):
        prob = self._base()
        for direction in ([0.0, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]):
            with pytest.raises(ValueError):
                NoisyOracle(prob.oracle(), Delta=0.1, direction=direction)

    def test_envelope_violation_raises(self):
        # a one-entry direction broadcasts over all four coordinates, so the
        # perturbation has norm 2 * Delta; the check must raise, not assert
        prob = self._base()
        noisy = NoisyOracle(
            prob.oracle(), Delta=0.1, mode="adversarial-fixed-direction", direction=[3.0]
        )
        with pytest.raises(ValueError, match="envelope"):
            noisy.model_gradient_at(np.ones(4))

    def test_validation(self):
        prob = self._base()
        with pytest.raises(ValueError):
            NoisyOracle(prob.oracle(), Delta=-0.1)
        with pytest.raises(ValueError):
            NoisyOracle(prob.oracle(), mode="gaussian")


class TestPenalties:
    def test_soft_threshold_frozen_values(self):
        pen = L1Penalty(1.0)
        np.testing.assert_array_equal(
            pen.prox(np.array([3.0, -0.5, 0.0]), 1.0), np.array([2.0, 0.0, 0.0])
        )

    def test_l1_value(self):
        pen = L1Penalty(0.5)
        assert pen.value(np.array([1.0, -2.0])) == 1.5

    def test_ball_indicator(self):
        ind = BallIndicator(np.zeros(2), 1.0)
        assert ind.value(np.array([0.5, 0.0])) == 0.0
        assert ind.value(np.array([2.0, 0.0])) == math.inf
        np.testing.assert_allclose(ind.prox(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])

    def test_composite_oracle_value_splits(self):
        oracle = composite_oracle(
            lambda x: 0.5 * float(x @ x), lambda x: x.copy(), L1Penalty(0.1)
        )
        x = np.array([2.0, -1.0])
        assert oracle.value_inexact(x) == pytest.approx(2.5 + 0.3)
        assert oracle.has_composite

    def test_composite_requires_prox(self):
        class NoProx:
            def value(self, x):
                return 0.0

        with pytest.raises(UnsupportedCombinationError):
            composite_oracle(lambda x: 0.0, lambda x: x, NoProx())


def test_centers_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    centers = rng.standard_normal((5, 7)) * 1e3
    path = tmp_path / "centers.csv"
    save_centers(centers, path)
    back = load_centers(path)
    np.testing.assert_array_equal(back, centers)


def test_load_centers_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(ValueError):
        load_centers(path)
