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
    Evaluation,
    FeasibleSet,
    FunctionOracle,
    ModelOracle,
    ProxSetup,
    UnsupportedCombinationError,
    Vector,
    as_vector,
    norm,
    project_ball,
)
from . import kernels

__all__ = [
    "BallSumProblem",
    "MinMaxBallProblem",
    "generate_task1",
    "generate_task2",
    "PLQuadratic",
    "pl_quadratic_make",
    "least_squares",
    "NoisyOracle",
    "L1Penalty",
    "BallIndicator",
    "CompositeOracle",
    "composite_oracle",
    "save_centers",
    "load_centers",
]


def _as_centers(centers) -> np.ndarray:
    a = np.array(centers, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError("centers must be a nonempty (m, n) array")
    if not np.all(np.isfinite(a)):
        raise ValueError("centers must be finite")
    return a


class _ProblemOracle(FunctionOracle):
    """``FunctionOracle`` over a problem's value and (sub)gradient, whose
    ``evaluate`` is the problem's own: one sweep per point."""

    def __init__(self, problem, gradient_fn, **meta):
        super().__init__(problem.value, gradient_fn, **meta)
        self._evaluate = problem.evaluate

    def evaluate(self, x: Vector) -> Evaluation:
        return self._evaluate(x)


def _checked_point(problem, x) -> Vector:
    x = as_vector(x)
    if len(x) != problem.dim:
        raise ValueError("point dimension differs from the centers")
    return x


def _set_centers(problem) -> None:
    """Store a private read-only copy of the centers and its row norms, so
    the norms cannot go stale under a later write to the caller's array."""
    a = _as_centers(problem.centers)
    a.setflags(write=False)
    sqnorms = kernels.row_sqnorms(a)
    sqnorms.setflags(write=False)
    object.__setattr__(problem, "centers", a)
    object.__setattr__(problem, "sqnorms", sqnorms)


@dataclass(frozen=True, eq=False)
class BallSumProblem:
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

    def evaluate(self, x: Vector) -> Evaluation:
        """The value at ``x``; the subgradient, when asked for, reuses the
        squared distances of the value's sweep."""
        x = _checked_point(self, x)
        r = self.ball_radius
        sq, redo = kernels.sq_dists(self.centers, x, self.sqnorms, r * r)
        return Evaluation(
            kernels.ballsum_value_from(sq, r),
            0.0,
            lambda: kernels.ballsum_subgrad_from(self.centers, x, r, sq, redo),
        )

    def value(self, x: Vector) -> float:
        x = _checked_point(self, x)
        return kernels.ballsum_value(self.centers, x, self.ball_radius, self.sqnorms)

    def subgradient(self, x: Vector) -> Vector:
        x = _checked_point(self, x)
        return kernels.ballsum_subgrad(self.centers, x, self.ball_radius, self.sqnorms)

    def oracle(self) -> FunctionOracle:
        return _ProblemOracle(self, self.subgradient)

    def prox_setup(self) -> ProxSetup:
        return ProxSetup(self.feasible)


@dataclass(frozen=True, eq=False)
class MinMaxBallProblem:
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

    def evaluate(self, x: Vector) -> Evaluation:
        """The value at ``x``; the subgradient, when asked for, reuses the
        farthest center and its distance."""
        x = _checked_point(self, x)
        val, j = kernels.minmax_value(self.centers, x, self.sqnorms)
        return Evaluation(val, 0.0, lambda: self._toward(x, val, j))

    def _toward(self, x: Vector, val: float, j: int) -> Vector:
        if val == 0.0:
            return np.zeros_like(x)
        return (x - self.centers[j]) / val

    def value(self, x: Vector) -> float:
        x = _checked_point(self, x)
        val, _ = kernels.minmax_value(self.centers, x, self.sqnorms)
        return val

    def subgradient(self, x: Vector) -> Vector:
        """Unit vector toward x from the farthest center (lowest index on
        ties); the zero vector in the degenerate case x == a_j."""
        return self.evaluate(x).gradient()

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

    def oracle(self) -> FunctionOracle:
        return _ProblemOracle(self, self.subgradient)

    def prox_setup(self) -> ProxSetup:
        return ProxSetup(self.feasible)


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
class PLQuadratic:
    """f(x) = 0.5 ||A x - b||^2 with its gradient-domination constants.

    mu is the smallest positive eigenvalue of A^T A and L the largest, so
    the gradient-domination inequality f(x) - f* <= ||grad f(x)||^2 / (2 mu)
    holds even when A is rank deficient.
    """

    A: np.ndarray
    b: np.ndarray
    mu: float
    L: float
    x_star: Vector
    f_star: float

    def evaluate(self, x: Vector) -> Evaluation:
        return least_squares(self.A, self.b, as_vector(x))

    def value(self, x: Vector) -> float:
        return self.evaluate(x).value

    def gradient(self, x: Vector) -> Vector:
        return self.evaluate(x).gradient()

    def oracle(self) -> FunctionOracle:
        return _ProblemOracle(self, self.gradient, known_L=self.L)


def least_squares(A: np.ndarray, b: Vector, x: Vector) -> Evaluation:
    """f(x) = 0.5 ||A x - b||^2 at ``x``; the gradient A^T r, when asked
    for, reuses the residual r = A x - b."""
    r = A @ x - b
    return Evaluation(0.5 * float(np.dot(r, r)), 0.0, lambda: A.T @ r)


def pl_quadratic_make(A, b) -> PLQuadratic:
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = as_vector(b)
    if A.ndim != 2 or A.shape[0] != len(b):
        raise ValueError("A must be 2-D with rows matching b")
    evals = np.linalg.eigvalsh(A.T @ A)
    tol = float(evals[-1]) * max(A.shape) * np.finfo(np.float64).eps
    positive = evals[evals > tol]
    if positive.size == 0:
        raise ValueError("A is identically zero; no positive curvature")
    mu = float(positive[0])
    L = float(evals[-1])
    x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
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
    ``Delta`` in norm.  Each new query point draws a fresh perturbation;
    repeated model queries against the same anchor reuse the cached one,
    matching how the solvers anchor the linear part per iteration.
    ``evaluate`` draws the value noise when it is called and the gradient
    noise when the evaluation's gradient is asked for, the order in which
    ``value_inexact`` and ``model_gradient_at`` would draw them.  The
    gradient error degrades the lower model by an extra Delta per unit
    distance, so gamma accumulates accordingly.  The adversarial mode's
    ``direction`` is scaled to unit norm (drawn at random when omitted).
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
        super().__init__()
        if Delta < 0 or delta < 0:
            raise ValueError("Delta and delta must be nonnegative")
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.inner = inner
        self.Delta = float(Delta)
        self.delta = float(delta)
        self.mode = mode
        self._rng = np.random.default_rng(seed)
        self._direction = None if direction is None else _unit(direction)
        self.gamma = inner.gamma + self.Delta
        self.known_L = inner.known_L
        self.known_delta = self.delta
        self.known_Delta = self.Delta
        self.exact_values = self.delta == 0.0 and inner.exact_values
        self.has_composite = inner.has_composite

    def evaluate(self, x: Vector) -> Evaluation:
        ev = self.inner.evaluate(x)
        f = self._noisy_value(ev.value)
        if self.Delta == 0.0:
            return Evaluation(f, ev.h, ev.gradient)
        return Evaluation(f, ev.h, lambda: self._perturb(ev.gradient(), len(x)))

    def value_inexact(self, x: Vector) -> float:
        return self._noisy_value(self.inner.value_inexact(x))

    def _noisy_value(self, f: float) -> float:
        if self.delta == 0.0:
            return f
        return f - self.delta * float(self._rng.uniform())

    def _unit_direction(self, n: int) -> Vector:
        if self.mode == "adversarial-fixed-direction":
            if self._direction is None:
                d = self._rng.standard_normal(n)
                self._direction = d / norm(d)
            return self._direction
        d = self._rng.standard_normal(n)
        nrm = norm(d)
        while nrm == 0.0:
            d = self._rng.standard_normal(n)
            nrm = norm(d)
        return d / nrm

    def _gradient(self, x: Vector) -> Vector:
        g = self.inner.model_gradient_at(x)
        if self.Delta == 0.0:
            return g
        return self._perturb(g, len(x))

    def _perturb(self, g: Vector, n: int) -> Vector:
        u = self._unit_direction(n)
        if self.mode == "adversarial-fixed-direction":
            scale = self.Delta
        else:
            scale = self.Delta * float(self._rng.uniform())
        g_noisy = g + scale * u
        err = norm(g_noisy - g)
        if not err <= self.Delta * (1.0 + 1e-12):
            raise ValueError(
                f"gradient perturbation of norm {err!r} leaves the envelope "
                f"Delta = {self.Delta!r}"
            )
        return g_noisy

    def composite_part(self, y: Vector) -> float:
        return self.inner.composite_part(y)

    def composite_prox(self, v: Vector, weight: float) -> Vector:
        return self.inner.composite_prox(v, weight)


class L1Penalty:
    """h(x) = weight * ||x||_1 with the soft-threshold prox."""

    def __init__(self, weight: float = 1.0):
        if not weight >= 0:
            raise ValueError("weight must be nonnegative")
        self.weight = float(weight)

    def value(self, x: Vector) -> float:
        return self.weight * float(np.abs(x).sum())

    def prox(self, v: Vector, step: float) -> Vector:
        t = self.weight * step
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class BallIndicator:
    """Indicator of a euclidean ball; prox is the projection."""

    def __init__(self, center, radius: float):
        self.center = as_vector(center)
        if not (radius > 0 and np.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        self.radius = float(radius)

    def value(self, x: Vector) -> float:
        d = float(np.linalg.norm(as_vector(x) - self.center))
        eps = float(np.finfo(np.float64).eps)
        return 0.0 if d <= self.radius * (1.0 + 4.0 * eps) else math.inf

    def prox(self, v: Vector, step: float) -> Vector:
        return project_ball(as_vector(v), self.center, self.radius)


class CompositeOracle(ModelOracle):
    """Smooth part by value/gradient callables, nonsmooth part by prox.

    ``evaluate_fn``, when given, is the smooth part's own ``evaluate``
    (x -> ``Evaluation``), used where its value and gradient share work;
    otherwise ``evaluate`` calls ``value_fn`` at once and ``gradient_fn``
    on demand.  Either way it computes the penalty once per point.
    """

    has_composite = True

    def __init__(
        self,
        value_fn: Callable,
        gradient_fn: Callable,
        penalty,
        *,
        evaluate_fn: Optional[Callable[[Vector], Evaluation]] = None,
        **meta,
    ):
        super().__init__()
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self._evaluate_smooth = evaluate_fn or self._evaluate_callables
        self.penalty = penalty
        for key, val in meta.items():
            if not hasattr(type(self), key):
                raise TypeError(f"unknown oracle attribute {key!r}")
            setattr(self, key, val)

    def _evaluate_callables(self, x: Vector) -> Evaluation:
        return Evaluation(self._value_fn(x), 0.0, lambda: self._gradient_fn(x))

    def evaluate(self, x: Vector) -> Evaluation:
        smooth = self._evaluate_smooth(x)
        h = self.composite_part(x)
        return Evaluation(float(smooth.value) + h, h, lambda: as_vector(smooth.gradient()))

    def value_inexact(self, x: Vector) -> float:
        return float(self._value_fn(x)) + self.composite_part(x)

    def _gradient(self, x: Vector) -> Vector:
        return as_vector(self._gradient_fn(x))

    def composite_part(self, y: Vector) -> float:
        return float(self.penalty.value(y))

    def composite_prox(self, v: Vector, weight: float) -> Vector:
        return self.penalty.prox(v, weight)


def composite_oracle(
    value_fn, gradient_fn, penalty, *, evaluate_fn=None, **meta
) -> CompositeOracle:
    if not (hasattr(penalty, "value") and hasattr(penalty, "prox")):
        raise UnsupportedCombinationError(
            "composite penalty must provide value() and prox()"
        )
    return CompositeOracle(value_fn, gradient_fn, penalty, evaluate_fn=evaluate_fn, **meta)


def save_centers(centers: np.ndarray, path) -> None:
    """One center per row, comma separated, full float precision."""
    a = _as_centers(centers)
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_centers(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"no centers found in {path}")
    return _as_centers(np.asarray(rows))
