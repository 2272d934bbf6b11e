"""Distance kernels against brute-force references.

The kernels expand ||x - a||^2 = ||a||^2 - 2 <a, x> + ||x||^2; the cases
below sit where that expansion is weakest: next to a center, on a ball's
kink, at ties of the min-max objective, and at extreme scales.
"""

import math
import warnings

import numpy as np
import pytest

from modelgrad import kernels
from reference_solvers import (
    brute_ballsum_subgrad,
    brute_ballsum_value,
    brute_minmax_value,
)


def _random_case(seed, m=7, n=5):
    rng = np.random.default_rng(seed)
    centers = np.ascontiguousarray(rng.standard_normal((m, n)))
    x = rng.standard_normal(n)
    return centers, x


def _unit(rng, n):
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def _ballsum(centers, x, radius, sqnorms=None):
    """(value, subgradient) at ``x`` from one ``ballsum_sweep``, as a
    ``BallSumProblem`` evaluates them."""
    value, sq, redo = kernels.ballsum_sweep(centers, x, radius, sqnorms)
    return value, kernels.ballsum_subgrad_from(centers, x, radius, sq, redo)


def _assert_matches_brute(centers, x, radius):
    """The ball-sum value and subgradient and the min-max kernel agree with
    the brute references to rel 1e-12, with and without precomputed row
    norms, and warn about nothing."""
    sqnorms = kernels.row_sqnorms(centers)
    exp_val = brute_ballsum_value(centers, x, radius)
    exp_grad = brute_ballsum_subgrad(centers, x, radius)
    exp_max, exp_j = brute_minmax_value(centers, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for extra in ((), (sqnorms,)):
            value, grad = _ballsum(centers, x, radius, *extra)
            assert value == pytest.approx(exp_val, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(grad, exp_grad, rtol=1e-12, atol=1e-12)
            val, j = kernels.minmax_value(centers, x, *extra)
            assert val == pytest.approx(exp_max, rel=1e-12)
            assert j == exp_j


@pytest.mark.parametrize("seed", range(10))
def test_ballsum_value_matches_bruteforce(seed):
    centers, x = _random_case(seed)
    expected = brute_ballsum_value(centers, x, 1.0)
    assert _ballsum(centers, x, 1.0)[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_ballsum_subgrad_matches_bruteforce(seed):
    centers, x = _random_case(seed)
    expected = brute_ballsum_subgrad(centers, x, 1.0)
    np.testing.assert_allclose(_ballsum(centers, x, 1.0)[1], expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_minmax_matches_bruteforce(seed):
    centers, x = _random_case(seed)
    exp_val, exp_j = brute_minmax_value(centers, x)
    val, j = kernels.minmax_value(centers, x)
    assert val == pytest.approx(exp_val, rel=1e-12)
    assert j == exp_j


def test_ballsum_zero_inside_all_balls():
    centers = np.array([[0.1, 0.0], [0.0, -0.1]])
    x = np.zeros(2)
    value, grad = _ballsum(centers, x, 1.0)
    assert value == 0.0
    np.testing.assert_array_equal(grad, np.zeros(2))


def test_minmax_tie_takes_lowest_index():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    val, j = kernels.minmax_value(centers, np.zeros(2))
    assert val == 1.0 and j == 0


@pytest.mark.parametrize("offset", [1e-14, 1e-12, 1e-9, 1e-6, 1e-3])
def test_near_center_points(offset):
    # The radius puts the nearby row on either side of its kink; a radius
    # below the offset makes that row active, so its unit vector counts.
    rng = np.random.default_rng(17)
    centers, _ = _random_case(3, m=6, n=9)
    x = centers[2] + offset * _unit(rng, 9)
    for radius in (0.5 * offset, 1.0):
        _assert_matches_brute(centers, x, radius)


@pytest.mark.parametrize("offset", [1e-14, 1e-9, 1e-3])
def test_minmax_with_all_centers_close(offset):
    rng = np.random.default_rng(23)
    base = rng.standard_normal(8)
    centers = base + offset * rng.standard_normal((5, 8))
    _assert_matches_brute(centers, base.copy(), 1.0)


@pytest.mark.parametrize("rel", [1e-15, 1e-14, 1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_points_on_the_kink(rel, sign):
    # Centers far from the origin make the expansion's rounding (a few ulp
    # of ||a||^2 + ||x||^2) dwarf the offset from the kink: without the
    # kink guard about one point in seven at rel 1e-15 lands on the wrong
    # side.  The brute reference subtracts first and stays exact enough.
    rng = np.random.default_rng(43)
    centers = 4.0 + rng.standard_normal((6, 7))
    for _ in range(8):
        for k in range(6):
            x = centers[k] + (1.0 + sign * rel) * _unit(rng, 7)
            _assert_matches_brute(centers, x, 1.0)


def test_point_on_a_center():
    centers, _ = _random_case(7, m=5, n=6)
    x = centers[3].copy()
    for radius in (0.0, 1.0):
        _assert_matches_brute(centers, x, radius)
    single = centers[3:4]
    assert kernels.minmax_value(single, x) == (0.0, 0)
    np.testing.assert_array_equal(_ballsum(single, x, 0.0)[1], np.zeros(6))


@pytest.mark.parametrize("gap", [1e-9, 1e-6, 1e-3])
def test_minmax_near_tie_picks_the_farther_center(gap):
    # Rows 1 and 3 sit at distances 1 and 1 + gap; the later row is the
    # farther one, so the lowest index would be the wrong answer.
    rng = np.random.default_rng(31)
    x = rng.standard_normal(6)
    dists = np.array([0.5, 1.0, 0.25, 1.0 + gap, 0.75])
    centers = x + dists[:, None] * np.array([_unit(rng, 6) for _ in dists])
    _assert_matches_brute(centers, x, 0.8)
    assert kernels.minmax_value(centers, x)[1] == 3


def test_minmax_exact_ties_take_lowest_index():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((3, 6))
    centers = np.vstack([a[0], -a[1], a[1], -a[0], 0.5 * a[2]])
    norms = np.linalg.norm(centers, axis=1)
    first = int(np.argmax(norms))
    val, j = kernels.minmax_value(centers, np.zeros(6))
    assert j == first
    assert val == pytest.approx(norms[first], rel=1e-15)
    _assert_matches_brute(centers, np.zeros(6), 1.0)


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("seed", range(3))
def test_scaled_centers(scale, seed):
    centers, x = _random_case(40 + seed, m=8, n=6)
    _assert_matches_brute(scale * centers, scale * x, scale * 1.5)
    rng = np.random.default_rng(seed)
    _assert_matches_brute(
        scale * centers, scale * (centers[1] + 1e-7 * _unit(rng, 6)), scale * 1.5
    )


def test_many_centers():
    rng = np.random.default_rng(41)
    centers = rng.standard_normal((1000, 20))
    x = 0.5 * rng.standard_normal(20)
    radius = float(np.median(np.linalg.norm(centers - x, axis=1)))
    _assert_matches_brute(centers, x, radius)


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_not_a_minimum(fill):
    """A NaN or infinite point gives a NaN ball-sum value and a non-finite
    subgradient, instead of reading as inside every ball (value 0)."""
    centers, _ = _random_case(50, m=6, n=50)
    sqnorms = kernels.row_sqnorms(centers)
    x = np.full(50, fill)
    with np.errstate(over="ignore", invalid="ignore"):
        sq, redo = kernels.sq_dists(centers, x, sqnorms, 1.0)
        value = kernels.ballsum_value_from(sq, 1.0)
        grad = kernels.ballsum_subgrad_from(centers, x, 1.0, sq, redo)
        assert np.isnan(value)
        assert not np.isfinite(grad).all()
        value, grad = _ballsum(centers, x, 1.0, sqnorms)
        assert np.isnan(value)
        assert not np.isfinite(grad).all()
        assert not np.isfinite(kernels.minmax_value(centers, x, sqnorms)[0])


def test_one_nan_distance_poisons_the_sum():
    """The reductions read a NaN squared distance as NaN, while the other
    rows keep their exact floats."""
    sq = [4.0, 0.25, 9.0]
    assert kernels.ballsum_value_from(sq, 1.0) == 3.0
    assert np.isnan(kernels.ballsum_value_from(sq + [np.nan], 1.0))
    centers = np.array([[2.0, 0.0], [0.5, 0.0], [0.0, 3.0], [1.0, 1.0]])
    grad = kernels.ballsum_subgrad_from(centers, np.zeros(2), 1.0, sq + [np.nan], [])
    assert np.isnan(grad).all()


# The one-pass sweeps against the two-pass path they replace: the sweep
# ``sq_dists`` followed by the reduction, bit for bit.


def _bits(v):
    return np.float64(v).tobytes()


def _check_one_pass(centers, x, radius):
    """``ballsum_sweep`` and ``minmax_value`` give the floats, rows and
    index of ``sq_dists`` + ``ballsum_value_from`` / ``max`` + ``index``,
    with and without row norms."""
    with np.errstate(over="ignore", invalid="ignore"):
        for sqnorms in (None, kernels.row_sqnorms(centers)):
            sq, redo = kernels.sq_dists(centers, x, sqnorms, radius * radius)
            value, sq1, redo1 = kernels.ballsum_sweep(centers, x, radius, sqnorms)
            assert _bits(value) == _bits(kernels.ballsum_value_from(sq, radius))
            assert [_bits(d) for d in sq1] == [_bits(d) for d in sq]
            assert redo1 == redo
            sq = kernels.sq_dists(centers, x, sqnorms, math.inf)[0]
            best = max(sq)
            val, j = kernels.minmax_value(centers, x, sqnorms)
            assert (_bits(val), j) == (_bits(math.sqrt(best)), sq.index(best))


@pytest.mark.parametrize("seed", range(20))
def test_one_pass_sweeps_match_two_pass_on_random_points(seed):
    centers, x = _random_case(60 + seed, m=10, n=12)
    rng = np.random.default_rng(seed)
    for radius in (0.5, 1.0, float(rng.uniform(1.0, 4.0))):
        _check_one_pass(centers, x, radius)


@pytest.mark.parametrize("row", [0, 4, 9])
def test_one_pass_sweeps_near_a_center(row):
    # Far from the origin the expanded d^2 of a point 1e-8 from a center is
    # pure rounding, often negative: such a row must be recomputed before
    # any square root sees it.
    rng = np.random.default_rng(71 + row)
    centers = 1e3 + rng.standard_normal((10, 8))
    negative = 0
    for _ in range(20):
        x = centers[row] + 1e-8 * _unit(rng, 8)
        a2 = float(centers[row].dot(centers[row]))
        negative += (a2 + float(x.dot(x))) - 2.0 * float(centers[row].dot(x)) < 0
        for radius in (1e-9, 1.0):
            _check_one_pass(centers, x, radius)
    assert negative  # the guard's reason to exist was exercised


@pytest.mark.parametrize("rel", [0.0, 1e-15, 1e-12, 1e-9])
def test_one_pass_sweeps_on_a_kink(rel):
    rng = np.random.default_rng(73)
    centers = 4.0 + rng.standard_normal((6, 7))
    for k in range(6):
        x = centers[k] + (1.0 + rel) * _unit(rng, 7)
        _check_one_pass(centers, x, 1.0)
        _check_one_pass(centers, x, float(np.linalg.norm(x - centers[k])))


def test_one_pass_minmax_exact_ties():
    rng = np.random.default_rng(79)
    a = rng.standard_normal((3, 6))
    centers = np.vstack([0.5 * a[2], a[0], -a[1], a[1], -a[0]])
    _check_one_pass(centers, np.zeros(6), 1.0)
    assert kernels.minmax_value(centers, np.zeros(6))[1] in (1, 2)
    same = np.vstack([a[0], a[0], a[0]])
    _check_one_pass(same, a[1], 1.0)
    assert kernels.minmax_value(same, a[1])[1] == 0


@pytest.mark.parametrize("fill", [np.nan, np.inf, -np.inf, 1e200])
@pytest.mark.parametrize("where", ["all", "one"])
def test_one_pass_sweeps_on_non_finite_points(fill, where):
    centers, x = _random_case(83, m=6, n=9)
    x = x.copy()
    if where == "all":
        x[:] = fill
    else:
        x[4] = fill
    _check_one_pass(centers, x, 1.0)


def test_one_pass_sweeps_on_an_overflowing_distance():
    # ||a||^2 + ||x||^2 is finite but d^2 = that + 2 |<a, x>| overflows
    centers = np.array([[1.0, 2.0], [-9e153, 0.0], [3.0, -1.0], [-9e153, 1.0]])
    x = np.array([9e153, 0.0])
    _check_one_pass(centers, x, 1.0)
    assert kernels.minmax_value(centers, x) == (math.inf, 1)


@pytest.mark.parametrize("row, expected", [(0, (math.nan, 0)), (1, (2.5, 2)), (2, (2.5, 1))])
def test_one_pass_sweeps_with_one_nan_distance(row, expected):
    # A center with an infinite entry gives d^2 = inf - inf = NaN in its row
    # alone: the ball sum is NaN, while the maximum is NaN only when that row
    # starts it, as with max(); a later NaN row is skipped.
    centers = np.insert(np.array([[1.0, 2.0], [3.0, -1.0]]), row, [np.inf, 0.0], axis=0)
    x = np.array([1.0, 0.5])
    _check_one_pass(centers, x, 1.0)
    assert math.isnan(kernels.ballsum_sweep(centers, x, 1.0)[0])
    np.testing.assert_equal(kernels.minmax_value(centers, x), expected)


def test_sweeps_over_no_rows():
    centers, x = np.empty((0, 3)), np.ones(3)
    assert kernels.ballsum_sweep(centers, x, 1.0) == (0.0, [], [])
    with pytest.raises(ValueError):
        kernels.minmax_value(centers, x)


def test_row_norms_of_the_wrong_length_are_refused():
    centers, x = _random_case(89, m=5, n=4)
    for sqnorms in (kernels.row_sqnorms(centers)[:4], np.ones(6)):
        for call in (
            lambda: kernels.sq_dists(centers, x, sqnorms, 1.0),
            lambda: kernels.ballsum_sweep(centers, x, 1.0, sqnorms),
            lambda: kernels.minmax_value(centers, x, sqnorms),
        ):
            with pytest.raises(ValueError):
                call()
