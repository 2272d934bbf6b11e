"""Benchmark problems and oracle wrappers.

Two nonsmooth geometric families over point sets in R^n:

* sum of distances-beyond-radius to m balls (zero inside every ball),
  minimized over the unit ball;
* min-max location: the largest distance to m anchor points.

Plus least-squares quadratics for the gradient-dominated solver, a noise
wrapper that perturbs values and gradients within stated envelopes, and
simple composite penalties with closed-form proximal maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    _EPS,
    DimensionMismatchError,
    Evaluation,
    FeasibleSet,
    ModelOracle,
    UnsupportedCombinationError,
    Vector,
    aligned_empty,
    as_vector,
    norm,
)
from . import kernels

__all__ = [
    "BallSumProblem",
    "MinMaxBallProblem",
    "generate_task1",
    "generate_task2",
    "PLQuadratic",
    "pl_quadratic_make",
    "NoisyOracle",
    "L1Penalty",
    "CompositeOracle",
    "composite_oracle",
]


class _ProblemOracle(ModelOracle):
    """Exact oracle whose ``evaluate`` is a problem's own unchecked
    ``_evaluate``: one sweep per point, and no check of a point the solver
    formed itself.  The caller passes a 1-D float64 array of the problem's
    dimension; the solvers refuse a non-finite trial point before they
    evaluate it."""

    def __init__(self, problem):
        self._evaluate = problem._evaluate

    def evaluate(self, x: Vector) -> Evaluation:
        return self._evaluate(x)


class _Problem:
    """The public methods of a problem family, all through one checked
    ``evaluate``.  A family supplies ``dim`` and ``_evaluate``, which
    trusts a 1-D float64 point of length ``dim``."""

    def evaluate(self, x: Vector) -> Evaluation:
        """The value at ``x``, a finite vector of length ``dim``; the
        (sub)gradient when asked for."""
        x = as_vector(x)
        if len(x) != self.dim:
            raise ValueError(f"point dimension {len(x)} differs from the problem's {self.dim}")
        return self._evaluate(x)

    def value(self, x: Vector) -> float:
        return self.evaluate(x).value

    def gradient(self, x: Vector) -> Vector:
        return self.evaluate(x).gradient()

    subgradient = gradient

    def oracle(self) -> ModelOracle:
        return _ProblemOracle(self)


def _set_centers(problem) -> None:
    """Store a private read-only 64-byte aligned copy of the centers and
    its row norms, so the norms cannot go stale under a later write to the
    caller's array."""
    centers = np.asarray(problem.centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("centers must be a nonempty (m, n) array")
    a = aligned_empty(centers.shape)
    a[...] = centers
    if not np.all(np.isfinite(a)):
        raise ValueError("centers must be finite")
    a.setflags(write=False)
    sqnorms = kernels.row_sqnorms(a)
    sqnorms.setflags(write=False)
    object.__setattr__(problem, "centers", a)
    object.__setattr__(problem, "sqnorms", sqnorms)


@dataclass(frozen=True, eq=False)
class BallSumProblem(_Problem):
    """f(x) = sum_k max(||x - a_k|| - r, 0), minimized over a ball.

    The objective vanishes on the intersection of the m balls when it is
    nonempty; each term contributes the unit vector from its center at
    points outside that term's ball.
    """

    centers: np.ndarray
    ball_radius: float = 1.0
    feasible: FeasibleSet = None
    sqnorms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _set_centers(self)
        if not (self.ball_radius > 0 and np.isfinite(self.ball_radius)):
            raise ValueError("ball_radius must be positive and finite")
        if self.feasible is None:
            object.__setattr__(
                self, "feasible", FeasibleSet.ball(np.zeros(self.dim), 1.0)
            )

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def _evaluate(self, x: Vector) -> Evaluation:
        """The value at ``x``; the subgradient, when asked for, reuses the
        squared distances of the value's sweep."""
        r = self.ball_radius
        value, sq, redo = kernels.ballsum_sweep(self.centers, x, r, self.sqnorms)
        return Evaluation(
            value, 0.0, lambda: kernels.ballsum_subgrad_from(self.centers, x, r, sq, redo)
        )


@dataclass(frozen=True, eq=False)
class MinMaxBallProblem(_Problem):
    """f(x) = max_k ||x - a_k||, the smallest enclosing ball objective."""

    centers: np.ndarray
    feasible: FeasibleSet = None
    sqnorms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _set_centers(self)
        if self.feasible is None:
            object.__setattr__(self, "feasible", FeasibleSet.whole_space())

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def _evaluate(self, x: Vector) -> Evaluation:
        """The value at ``x``; the subgradient, when asked for, is the unit
        vector toward x from the farthest center (lowest index on ties),
        the zero vector in the degenerate case x == a_j."""
        val, j = kernels.minmax_value(self.centers, x, self.sqnorms)
        return Evaluation(val, 0.0, lambda: self._toward(x, val, j))

    def _toward(self, x: Vector, val: float, j: int) -> Vector:
        if val == 0.0:
            return np.zeros_like(x)
        g = x - self.centers[j]
        g /= val
        return g

    def lower_bound(self) -> float:
        """max_{i<j} ||a_i - a_j|| / 2, valid for the unconstrained minimum."""
        a = self.centers
        m = a.shape[0]
        best = 0.0
        for i in range(m - 1):
            d = np.sqrt(((a[i + 1 :] - a[i]) ** 2).sum(axis=1))
            if d.size:
                best = max(best, float(d.max()))
        return 0.5 * best


def _spread_points(n: int, m: int, seed, lo: float, hi: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m, n))
    u /= np.sqrt((u**2).sum(axis=1, keepdims=True))
    radii = rng.uniform(lo, hi, m)
    return u * radii[:, None]


def generate_task1(n: int = 1000, m: int = 10, seed=0) -> BallSumProblem:
    """Centers at distances in (1, 1.5) from the origin, unit feasible ball."""
    return BallSumProblem(_spread_points(n, m, seed, 1.0, 1.5))


def generate_task2(n: int = 1000, m: int = 10, seed=0) -> MinMaxBallProblem:
    """Anchor points at distances in (0.5, 1) from the origin."""
    return MinMaxBallProblem(_spread_points(n, m, seed, 0.5, 1.0))


@dataclass(frozen=True, eq=False)
class PLQuadratic(_Problem):
    """f(x) = 0.5 ||A x - b||^2 with its gradient-domination constants.

    mu and L are the smallest positive and the largest squared singular
    values of A, so the gradient-domination inequality
    f(x) - f* <= ||grad f(x)||^2 / (2 mu)
    holds even when A is rank deficient.
    """

    A: np.ndarray
    b: np.ndarray
    mu: float
    L: float
    x_star: Vector
    f_star: float

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def _evaluate(self, x: Vector) -> Evaluation:
        return least_squares(self.A, self.b, x)


def least_squares(A: np.ndarray, b: Vector, x: Vector) -> Evaluation:
    """f(x) = 0.5 ||A x - b||^2 at ``x``; the gradient A^T r, when asked
    for, reuses the residual r = A x - b."""
    r = A.dot(x)  # the BLAS call of A @ x, with less dispatch
    r -= b
    return Evaluation(0.5 * float(r.dot(r)), 0.0, lambda: A.T.dot(r))


def pl_quadratic_make(A, b) -> PLQuadratic:
    """The quadratic 0.5 ||A x - b||^2 with its constants, on private
    read-only copies of ``A`` (64-byte aligned) and ``b``: a later write to
    the caller's arrays moves neither the objective nor its constants."""
    matrix = np.asarray(A, dtype=np.float64)
    b = as_vector(b).copy()
    if matrix.ndim != 2 or matrix.shape[0] != len(b):
        raise ValueError("A must be 2-D with rows matching b")
    A = aligned_empty(matrix.shape)
    A[...] = matrix
    A.setflags(write=False)
    b.setflags(write=False)
    x_star, _, _, s = np.linalg.lstsq(A, b, rcond=None)
    evals = s * s  # the eigenvalues of A^T A, largest first (any others are 0)
    positive = evals[evals > evals.max(initial=0.0) * max(A.shape) * np.finfo(np.float64).eps]
    if positive.size == 0:
        raise ValueError("A is identically zero; no positive curvature")
    mu, L = float(positive[-1]), float(positive[0])
    r = A @ x_star - b
    f_star = 0.5 * float(np.dot(r, r))
    return PLQuadratic(A=A, b=b, mu=mu, L=L, x_star=as_vector(x_star), f_star=f_star)


def _unit(direction) -> Vector:
    """``direction`` scaled to unit norm; a zero direction is refused."""
    d = as_vector(direction)
    nrm = float(np.linalg.norm(d))
    if not (nrm > 0 and math.isfinite(nrm)):
        raise ValueError("direction must be nonzero with a finite norm")
    return d / nrm


class NoisyOracle(ModelOracle):
    """Wraps an oracle with bounded value and gradient perturbations.

    Values drop by at most ``delta`` (uniform), gradients move by at most
    ``Delta`` in norm, up to the rounding of adding the noise.  Every evaluation draws fresh noise: two evaluations
    at the same point see different perturbations, while one evaluation's
    ``gradient()`` returns the same vector each time.  ``evaluate`` draws
    the value noise when it is called and the gradient noise when the
    evaluation's gradient is first asked for.  The gradient error degrades
    the lower model by an extra Delta per unit distance, so gamma
    accumulates accordingly; so does the value gap, ``known_delta``, which
    is unknown (None) when the wrapped oracle's is.  The adversarial mode's
    ``direction`` is scaled to unit norm (drawn at random when omitted); a
    point of another length raises ``DimensionMismatchError``.
    """

    MODES = ("random-sphere", "adversarial-fixed-direction")

    def __init__(
        self,
        inner: ModelOracle,
        Delta: float = 0.0,
        delta: float = 0.0,
        mode: str = "random-sphere",
        seed=0,
        direction: Optional[Vector] = None,
    ):
        if not (0 <= Delta < math.inf and 0 <= delta < math.inf):
            raise ValueError("Delta and delta must be nonnegative and finite")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.inner = inner
        self.Delta = float(Delta)
        self.delta = float(delta)
        self.mode = mode
        self._rng = np.random.default_rng(seed)
        self._direction = None if direction is None else _unit(direction)
        self.gamma = inner.gamma + self.Delta
        self.known_delta = None if inner.known_delta is None else inner.known_delta + self.delta
        self.composite_prox = inner.composite_prox

    def evaluate(self, x: Vector) -> Evaluation:
        ev = self.inner.evaluate(x)
        f = ev.value
        if self.delta != 0.0:
            # random() is uniform() on [0, 1): the same draw, less dispatch
            f -= self.delta * self._rng.random()
        if self.Delta == 0.0:
            return Evaluation(f, ev.h, ev.gradient)
        return Evaluation(f, ev.h, lambda: self._perturb(ev.gradient(), len(x)))

    def _perturb(self, g: Vector, n: int) -> Vector:
        if self.mode == "adversarial-fixed-direction":
            if self._direction is None:
                d = self._rng.standard_normal(n)
                self._direction = d / norm(d)
            if len(self._direction) != n:
                msg = f"adversarial direction has length {len(self._direction)}, the point {n}"
                raise DimensionMismatchError(msg)
            u, scale = self._direction, self.Delta
        else:
            u = self._rng.standard_normal(n)
            while (nrm := norm(u)) == 0.0:
                u = self._rng.standard_normal(n)
            u /= nrm
            scale = self.Delta * self._rng.random()
        g_noisy = g + scale * u
        err = norm(g_noisy - g)
        if not self.within_envelope(err, g_noisy):
            raise ValueError(
                f"gradient perturbation of norm {err!r} leaves the envelope "
                f"Delta = {self.Delta!r}"
            )
        return g_noisy

    def within_envelope(self, err: float, g_noisy: Vector) -> bool:
        """Whether ``err`` = ||g_noisy - g|| is within Delta (1 + 1e-12) plus
        the rounding of the sum g_noisy, half an ulp per entry, which exceeds
        a Delta far below ||g||.  The norm of g_noisy is taken only then."""
        limit = self.Delta * (1.0 + 1e-12)
        return err <= limit or err <= limit + _EPS * norm(g_noisy)


class L1Penalty:
    """h(x) = weight * ||x||_1 with the soft-threshold prox."""

    def __init__(self, weight: float = 1.0):
        if not 0 <= weight < math.inf:
            raise ValueError("weight must be nonnegative and finite")
        self.weight = float(weight)

    def value(self, x: Vector) -> float:
        return self.weight * float(np.abs(x).sum())

    def prox(self, v: Vector, step: float) -> Vector:
        """sign(v) * max(|v| - weight * step, 0), formed in one buffer."""
        u = np.abs(v, dtype=np.float64)
        u -= self.weight * step
        np.maximum(u, 0.0, out=u)
        u *= np.sign(v)
        return u


class CompositeOracle(ModelOracle):
    """Smooth part by its own ``evaluate``, nonsmooth part by prox.

    ``smooth_evaluate`` maps x to the smooth part's ``Evaluation`` (with a
    float64 gradient); wrap value/gradient callables as ``FunctionOracle(
    value_fn, gradient_fn).evaluate``.  A penalty needs ``value`` and
    ``prox``.  ``evaluate`` computes the penalty once per point.
    """

    def __init__(self, smooth_evaluate: Callable[[Vector], Evaluation], penalty):
        if not (hasattr(penalty, "value") and hasattr(penalty, "prox")):
            raise UnsupportedCombinationError("composite penalty must provide value() and prox()")
        self._evaluate_smooth = smooth_evaluate
        self.penalty = penalty

    def evaluate(self, x: Vector) -> Evaluation:
        smooth = self._evaluate_smooth(x)
        h = float(self.penalty.value(x))
        return Evaluation(float(smooth.value) + h, h, smooth.gradient)

    def composite_prox(self, v: Vector, weight: float) -> Vector:
        return self.penalty.prox(v, weight)


composite_oracle = CompositeOracle
