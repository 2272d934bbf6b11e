"""Distance kernels against brute-force references.

The kernels expand ||x - a||^2 = ||a||^2 - 2 <a, x> + ||x||^2; the cases
below sit where that expansion is weakest: next to a center, on a ball's
kink, at ties of the min-max objective, and at extreme scales.
"""

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


def _assert_matches_brute(centers, x, radius):
    """All three kernels agree with the brute references to rel 1e-12, with
    and without precomputed row norms, and warn about nothing."""
    sqnorms = kernels.row_sqnorms(centers)
    exp_val = brute_ballsum_value(centers, x, radius)
    exp_grad = brute_ballsum_subgrad(centers, x, radius)
    exp_max, exp_j = brute_minmax_value(centers, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for extra in ((), (sqnorms,)):
            assert kernels.ballsum_value(centers, x, radius, *extra) == pytest.approx(
                exp_val, rel=1e-12, abs=1e-12
            )
            np.testing.assert_allclose(
                kernels.ballsum_subgrad(centers, x, radius, *extra),
                exp_grad,
                rtol=1e-12,
                atol=1e-12,
            )
            val, j = kernels.minmax_value(centers, x, *extra)
            assert val == pytest.approx(exp_max, rel=1e-12)
            assert j == exp_j


@pytest.mark.parametrize("seed", range(10))
def test_ballsum_value_matches_bruteforce(seed):
    centers, x = _random_case(seed)
    expected = brute_ballsum_value(centers, x, 1.0)
    assert kernels.ballsum_value(centers, x, 1.0) == pytest.approx(
        expected, rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("seed", range(10))
def test_ballsum_subgrad_matches_bruteforce(seed):
    centers, x = _random_case(seed)
    expected = brute_ballsum_subgrad(centers, x, 1.0)
    np.testing.assert_allclose(
        kernels.ballsum_subgrad(centers, x, 1.0), expected, rtol=1e-12, atol=1e-12
    )


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
    assert kernels.ballsum_value(centers, x, 1.0) == 0.0
    np.testing.assert_array_equal(kernels.ballsum_subgrad(centers, x, 1.0), np.zeros(2))


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
    np.testing.assert_array_equal(kernels.ballsum_subgrad(single, x, 0.0), np.zeros(6))


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
        assert np.isnan(kernels.ballsum_value(centers, x, 1.0, sqnorms))
        assert not np.isfinite(kernels.ballsum_subgrad(centers, x, 1.0, sqnorms)).all()
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
