import numpy as np
import pytest

from modelgrad.convex import ConvexConfig, convex_minimize
from modelgrad.core import (
    DimensionMismatchError,
    FeasibleSet,
    FunctionOracle,
    NonFiniteOracleError,
    UnsupportedCombinationError,
    norm,
)
from modelgrad.problems import (
    BallSumProblem,
    CompositeOracle,
    L1Penalty,
    MinMaxBallProblem,
    NoisyOracle,
    composite_oracle,
    generate_task1,
    generate_task2,
    pl_quadratic_make,
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


@pytest.mark.parametrize("method", ["evaluate", "value", "gradient", "subgradient"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: BallSumProblem(np.array([[1.0, 0.0]])),
        lambda: MinMaxBallProblem(np.array([[1.0, 0.0]])),
        lambda: pl_quadratic_make(np.eye(2), np.ones(2)),
    ],
    ids=["BallSumProblem", "MinMaxBallProblem", "PLQuadratic"],
)
def test_dimension_check(make, method):
    """Every public method of every family refuses a point of the wrong
    length with the library's own message."""
    with pytest.raises(ValueError, match="point dimension 3 differs from the problem's 2"):
        getattr(make(), method)(np.zeros(3))


@pytest.mark.parametrize("cls", [BallSumProblem, MinMaxBallProblem])
def test_row_norms_cannot_go_stale(cls):
    centers = np.array([[2.0, 0.0], [0.0, 3.0]])
    prob = cls(centers)
    before = prob.value(np.zeros(2))
    centers[1, 1] = 50.0  # the problem keeps its own copy
    assert prob.value(np.zeros(2)) == before
    with pytest.raises(ValueError):
        prob.centers[1, 1] = 50.0


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: generate_task1(n=50, m=7, seed=1).centers,
        lambda rng: generate_task2(n=50, m=7, seed=1).centers,
        lambda rng: pl_quadratic_make(rng.standard_normal((9, 50)), rng.standard_normal(9)).A,
        # a caller's matrix that starts 8 bytes past a 64-byte boundary
        lambda rng: BallSumProblem(np.zeros(8 * 31 + 1)[1:].reshape(8, 31)).centers,
    ],
    ids=["task1", "task2", "pl-quadratic", "offset-input"],
)
def test_problem_matrices_are_aligned_private_copies(build):
    a = build(np.random.default_rng(0))
    assert a.ctypes.data % 64 == 0
    assert a.flags.c_contiguous and a.dtype == np.float64
    assert not a.flags.writeable


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

    @pytest.mark.parametrize("seed", range(5))
    def test_constants_are_the_known_squared_singular_values(self, seed):
        # a 12x8 matrix with singular values from 1 down to 1e-6 (kappa = 1e6)
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.standard_normal((12, 8)))
        V, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        s = np.logspace(0.0, -6.0, 8)
        prob = pl_quadratic_make((U * s) @ V.T, rng.standard_normal(12))
        assert prob.L == pytest.approx(s[0] ** 2, rel=1e-9, abs=0.0)
        assert prob.mu == pytest.approx(s[-1] ** 2, rel=1e-9, abs=0.0)

    def test_later_writes_to_the_inputs_change_nothing(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((8, 5))
        b = rng.standard_normal(8)
        prob = pl_quadratic_make(A, b)
        x = rng.standard_normal(5)
        value, grad_star = prob.value(x), prob.gradient(prob.x_star)
        constants = (prob.mu, prob.L, prob.f_star, prob.x_star.copy())
        A[0, 0] += 10.0
        b[0] -= 10.0
        assert prob.value(x) == value
        np.testing.assert_array_equal(prob.gradient(prob.x_star), grad_star)
        assert np.linalg.norm(grad_star) < 1e-12
        assert (prob.mu, prob.L, prob.f_star) == constants[:3]
        np.testing.assert_array_equal(prob.x_star, constants[3])
        assert not prob.A.flags.writeable and not prob.b.flags.writeable

    def test_zero_matrix_rejected(self):
        for shape in ((3, 3), (0, 3), (3, 0)):
            with pytest.raises(ValueError, match="identically zero"):
                pl_quadratic_make(np.zeros(shape), np.ones(shape[0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_refused_before_lstsq(self, bad, capfd):
        # lstsq used to print OpenBLAS's DLASCL parameter error to stderr,
        # then raise LinAlgError on an inf, and ran for minutes on a NaN
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(ValueError, match="A must be finite"):
            pl_quadratic_make(A, np.ones(3))
        assert capfd.readouterr().err == ""

    def test_rows_must_match_b(self):
        with pytest.raises(ValueError, match="rows matching b"):
            pl_quadratic_make(np.ones((3, 2)), np.ones(4))

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
            ev = noisy.evaluate(x)
            g_err = np.linalg.norm(ev.gradient() - prob.gradient(x))
            assert g_err <= Delta * (1.0 + 1e-12)
            v_gap = prob.value(x) - ev.value
            assert 0.0 <= v_gap <= delta

    def test_metadata_accumulates(self):
        prob = self._base()
        noisy = NoisyOracle(prob.oracle(), Delta=0.3, delta=0.1)
        assert noisy.gamma == 0.3
        assert noisy.known_delta == 0.1
        exact = NoisyOracle(prob.oracle(), Delta=0.3, delta=0.0)
        assert exact.known_delta == 0.0

    def test_nested_wrappers_add_their_value_gaps(self):
        prob = self._base()
        nested = NoisyOracle(NoisyOracle(prob.oracle(), delta=0.1, seed=1), delta=0.1, seed=2)
        assert nested.known_delta == 0.2
        rng = np.random.default_rng(3)
        gaps = [prob.value(x) - nested.evaluate(x).value for x in rng.standard_normal((500, 4))]
        assert max(gaps) <= nested.known_delta
        assert max(gaps) > 0.1  # the outer gap alone would not bound them
        assert NoisyOracle(NoisyOracle(prob.oracle(), delta=0.1), Delta=0.2).known_delta == 0.1

    def test_unknown_inner_value_gap_stays_unknown(self):
        class Unknown(FunctionOracle):
            known_delta = None

        inner = Unknown(lambda x: 0.0, lambda x: np.zeros_like(x))
        assert NoisyOracle(inner, delta=0.1).known_delta is None

    def test_zero_noise_is_bitwise_passthrough(self):
        prob = self._base()
        noisy = NoisyOracle(prob.oracle(), Delta=0.0, delta=0.0)
        x = np.array([0.3, -0.7, 1.1, 0.0])
        assert noisy.evaluate(x).value == prob.value(x)
        np.testing.assert_array_equal(noisy.evaluate(x).gradient(), prob.gradient(x))

    def test_deterministic_for_fixed_seed(self):
        prob = self._base()
        x = np.ones(4)
        a = NoisyOracle(prob.oracle(), Delta=0.2, seed=3).evaluate(x).gradient()
        b = NoisyOracle(prob.oracle(), Delta=0.2, seed=3).evaluate(x).gradient()
        np.testing.assert_array_equal(a, b)

    def test_each_gradient_query_draws_fresh_noise(self):
        prob = self._base()
        noisy = NoisyOracle(prob.oracle(), Delta=0.2, seed=3)
        x = np.ones(4)
        first, second = noisy.evaluate(x), noisy.evaluate(x)
        assert first.gradient().tobytes() != second.gradient().tobytes()
        ev = noisy.evaluate(x)
        assert ev.gradient() is ev.gradient()

    @pytest.mark.parametrize("mode", NoisyOracle.MODES)
    def test_draw_order_is_pinned(self, mode):
        # per query: the value's random() when evaluate is called; then, on
        # the first gradient() only, the gradient draws: random-sphere a
        # standard_normal(n), redrawn while its norm is 0, then random() for
        # the scale; adversarial its direction once, on first use
        inner = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        Delta, delta, n = 0.3, 0.2, 4
        oracle = NoisyOracle(inner, Delta=Delta, delta=delta, mode=mode, seed=11)
        rng = np.random.default_rng(11)
        direction = None
        for k, ask_gradient in enumerate([True, False, True, True]):
            x = np.arange(n, dtype=np.float64) - k
            ev = oracle.evaluate(x)
            assert ev.value == 0.5 * float(x @ x) - delta * rng.random()
            if not ask_gradient:
                continue
            if mode == "random-sphere":
                u = rng.standard_normal(n)
                u /= norm(u)
                expected = x + Delta * rng.random() * u
            else:
                if direction is None:
                    d = rng.standard_normal(n)
                    direction = d / norm(d)
                expected = x + Delta * direction
            np.testing.assert_array_equal(ev.gradient(), expected)
            np.testing.assert_array_equal(ev.gradient(), expected)

    def test_adversarial_direction_is_fixed(self):
        prob = self._base()
        noisy = NoisyOracle(
            prob.oracle(), Delta=0.2, mode="adversarial-fixed-direction", seed=4
        )
        rng = np.random.default_rng(11)
        x1, x2 = rng.standard_normal(4), rng.standard_normal(4)
        e1 = noisy.evaluate(x1).gradient() - prob.gradient(x1)
        e2 = noisy.evaluate(x2).gradient() - prob.gradient(x2)
        np.testing.assert_allclose(e1, e2, rtol=1e-12)
        assert np.linalg.norm(e1) == pytest.approx(0.2, rel=1e-12)

    def test_non_unit_direction_is_normalised(self):
        prob = self._base()
        noisy = NoisyOracle(
            prob.oracle(), Delta=0.1, mode="adversarial-fixed-direction",
            direction=[2.0, 0.0, 0.0, 0.0],
        )
        x = np.ones(4)
        err = noisy.evaluate(x).gradient() - prob.gradient(x)
        np.testing.assert_allclose(err, [0.1, 0.0, 0.0, 0.0], rtol=1e-12, atol=1e-15)

    def test_tiny_direction_is_normalised(self):
        # 2.6e-162 squared underflows: its norm used to read 1.1697 times too
        # small, and every gradient query then left the envelope
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        noisy = NoisyOracle(oracle, Delta=0.1, mode="adversarial-fixed-direction",
                            direction=[2.6e-162])
        assert noisy._direction.tolist() == [1.0]
        assert noisy.evaluate(np.ones(1)).gradient().tolist() == [1.1]

    @pytest.mark.parametrize("mode", NoisyOracle.MODES)
    def test_nan_gradient_reaches_the_solver_check(self, mode):
        # the envelope check used to see the NaN first and misreport it
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: np.array([np.nan, 1.0]))
        noisy = NoisyOracle(oracle, Delta=0.1, mode=mode)
        with pytest.raises(NonFiniteOracleError) as info:
            convex_minimize(ConvexConfig(x0=np.ones(2), N=3), noisy, FeasibleSet.whole_space())
        assert (info.value.quantity, info.value.iteration) == ("gradient", 0)

    def test_bad_directions_refused(self):
        prob = self._base()
        for direction in ([0.0, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]):
            with pytest.raises(ValueError):
                NoisyOracle(prob.oracle(), Delta=0.1, direction=direction)

    def test_envelope_violation_raises(self):
        # a direction of norm 2 makes a perturbation of norm 2 * Delta; the
        # check must raise, not assert
        prob = self._base()
        noisy = NoisyOracle(prob.oracle(), Delta=0.1, mode="adversarial-fixed-direction")
        noisy._direction = np.ones(4)
        with pytest.raises(ValueError, match="envelope"):
            noisy.evaluate(np.ones(4)).gradient()

    @pytest.mark.parametrize("direction", [None, [3.0], [1.0, 2.0, 3.0]])
    def test_direction_of_another_length_refused(self, direction):
        # a given direction, or the one drawn at a first point of length 4
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        noisy = NoisyOracle(oracle, Delta=0.1, mode="adversarial-fixed-direction",
                            direction=direction)
        if direction is None:
            noisy.evaluate(np.ones(4)).gradient()
        length = 4 if direction is None else len(direction)
        with pytest.raises(DimensionMismatchError, match=f"length {length}, the point 5"):
            noisy.evaluate(np.ones(5)).gradient()

    def test_rounding_beside_a_large_gradient_stays_within_the_envelope(self):
        # (1 + 1e-9) - 1 reads 1.00000008e-9: the sum's rounding, not the
        # noise, used to break the envelope check for a Delta far below ||g||
        oracle = FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        noisy = NoisyOracle(oracle, Delta=1e-9, mode="adversarial-fixed-direction",
                            direction=[1.0])
        assert noisy.evaluate(np.ones(1)).gradient().tolist() == [1.0 + 1e-9]

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

    def test_composite_oracle_value_splits(self):
        oracle = composite_oracle(
            FunctionOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy()).evaluate,
            L1Penalty(0.1),
        )
        x = np.array([2.0, -1.0])
        ev = oracle.evaluate(x)
        assert ev.value == pytest.approx(2.5 + 0.3)
        assert ev.h == pytest.approx(0.3)
        assert oracle.composite_prox is not None

    def test_composite_requires_prox(self):
        class NoProx:
            def value(self, x):
                return 0.0

        smooth = FunctionOracle(lambda x: 0.0, lambda x: x).evaluate
        for make in (composite_oracle, CompositeOracle):  # refused when built
            with pytest.raises(UnsupportedCombinationError):
                make(smooth, NoProx())
