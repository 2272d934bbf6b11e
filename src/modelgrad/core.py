"""Core types shared by the adaptive solvers.

Vectors are plain 1-D float64 numpy arrays validated on entry by
``as_vector``.  The remaining pieces are small immutable values: the
feasible set, the distance-generating setup, and the jointly scaled
``(L, delta, Delta)`` parameter triple.  ``ModelOracle`` is the contract
every objective implements: an inexact value, a model of the objective
around a point, and metadata consumed by certificates and budget
formulas (never by the adaptive loops themselves).  ``Evaluation`` is one
oracle query at a point, which the solvers carry from the accepted trial to
the next iteration's anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray

_EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "Vector",
    "all_finite",
    "as_vector",
    "norm",
    "checked_gradient",
    "checked_value",
    "DimensionMismatchError",
    "UnsupportedCombinationError",
    "CertificateUnavailableError",
    "InconsistentTraceError",
    "NonTerminationError",
    "NonFiniteOracleError",
    "FeasibleSet",
    "ProxSetup",
    "AdaptiveTriple",
    "Evaluation",
    "ModelOracle",
    "FunctionOracle",
    "bregman_divergence",
    "project_ball",
    "scale_triple",
    "check_oracle_conformance",
]


class DimensionMismatchError(ValueError):
    """Operands live in different dimensions."""


class UnsupportedCombinationError(ValueError):
    """The configured (setup, model) pair has no implemented subproblem solver."""


class CertificateUnavailableError(ValueError):
    """The requested certificate needs data that was not supplied."""


class InconsistentTraceError(ValueError):
    """A recorded trace contradicts the constants it is being checked against."""


class NonTerminationError(RuntimeError):
    """An inner acceptance loop exhausted its trial cap.

    Carries the iteration index and the last tried parameter triple so the
    failing regime (typically an objective outside the assumed smoothness
    class) can be inspected.
    """

    def __init__(self, message: str, iteration: int, triple, inner_calls: int):
        super().__init__(message)
        self.iteration = iteration
        self.triple = triple
        self.inner_calls = inner_calls


class NonFiniteOracleError(ValueError):
    """The oracle returned a NaN or infinite value or gradient.

    ``quantity`` is ``"value"`` or ``"gradient"``; ``iteration`` is the
    index of the solver iteration that received it.
    """

    def __init__(self, quantity: str, iteration: int):
        super().__init__(f"oracle returned a non-finite {quantity} at iteration {iteration}")
        self.quantity = quantity
        self.iteration = iteration


def all_finite(v: Vector) -> bool:
    """Whether every entry of the 1-D float64 array ``v`` is finite.

    One dot product settles the common case: a finite sum of squares means
    every entry is finite.  A NaN, an infinity or a sum that overflows falls
    through to the exact elementwise test.  ``np.vdot`` rather than
    ``v.dot``: the latter warns when the sum overflows, which entries above
    about 1e154 make it do although they are valid.
    """
    return math.isfinite(np.vdot(v, v)) or bool(np.isfinite(v).all())


def norm(v: Vector) -> float:
    """Euclidean norm of the 1-D float64 array ``v``.

    The same float as ``np.linalg.norm(v)``, which computes sqrt(v.v) for a
    real vector, without its dispatch cost.
    """
    return math.sqrt(v.dot(v))


def checked_value(f: float, iteration: int) -> float:
    """Return the oracle value ``f``, refusing a NaN or an infinity.

    Without the check a NaN fails every acceptance test and the solver
    doubles L until its trial cap, long after the fault.
    """
    if not math.isfinite(f):
        raise NonFiniteOracleError("value", iteration)
    return f


def checked_gradient(g: Vector, iteration: int) -> Vector:
    """Return the oracle gradient ``g``, refusing NaN or infinite entries."""
    if not all_finite(g):
        raise NonFiniteOracleError("gradient", iteration)
    return g


def as_vector(x) -> Vector:
    """Validate and convert ``x`` to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not all_finite(v):
        raise ValueError("vector entries must be finite")
    return v


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """Closed convex feasible set: the whole space or a euclidean ball."""

    kind: str
    center: Optional[Vector] = None
    radius: Optional[float] = None

    WHOLE_SPACE = "whole-space"
    BALL = "euclidean-ball"

    def __post_init__(self):
        if self.kind == self.BALL:
            if self.center is None or self.radius is None:
                raise ValueError("a ball needs both a center and a radius")
            object.__setattr__(self, "center", as_vector(self.center))
            object.__setattr__(self, "radius", float(self.radius))
            if not (self.radius > 0 and np.isfinite(self.radius)):
                raise ValueError("ball radius must be positive and finite")
        elif self.kind == self.WHOLE_SPACE:
            if self.center is not None or self.radius is not None:
                raise ValueError("the whole space takes no center or radius")
        else:
            raise ValueError(f"unknown feasible set kind {self.kind!r}")

    @classmethod
    def whole_space(cls) -> "FeasibleSet":
        return cls(cls.WHOLE_SPACE)

    @classmethod
    def ball(cls, center, radius) -> "FeasibleSet":
        return cls(cls.BALL, center, radius)

    def project(self, x: Vector) -> Vector:
        if self.kind == self.WHOLE_SPACE:
            return x
        return project_ball(x, self.center, self.radius)

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        if self.kind == self.WHOLE_SPACE:
            return True
        if len(x) != len(self.center):
            raise DimensionMismatchError("point and center dimensions differ")
        return float(np.linalg.norm(x - self.center)) <= self.radius * (1.0 + tol)


@dataclass(frozen=True, eq=False)
class ProxSetup:
    """Distance-generating setup: a generator kind plus the feasible set.

    Only the euclidean generator d(x) = ||x||^2 / 2 exists for now; the
    kind tag is the seam where non-euclidean generators would plug in
    without touching solver code.
    """

    feasible: FeasibleSet
    generator: str = "euclidean"

    EUCLIDEAN = "euclidean"

    def __post_init__(self):
        if self.generator != self.EUCLIDEAN:
            raise UnsupportedCombinationError(
                f"no subproblem solver for generator {self.generator!r}"
            )
        if not isinstance(self.feasible, FeasibleSet):
            raise TypeError("feasible must be a FeasibleSet")


def bregman_divergence(setup: ProxSetup, y: Vector, x: Vector) -> float:
    """Bregman divergence V(y, x) of the setup's generator.

    For the euclidean generator this is exactly ||y - x||^2 / 2.
    """
    if len(y) != len(x):
        raise DimensionMismatchError("arguments live in different dimensions")
    if setup.generator != ProxSetup.EUCLIDEAN:
        raise UnsupportedCombinationError(
            f"no divergence for generator {setup.generator!r}"
        )
    d = y - x
    return 0.5 * float(np.dot(d, d))


def project_ball(x: Vector, center: Vector, radius: float) -> Vector:
    """Euclidean projection of ``x`` onto the ball of ``radius`` at ``center``.

    Points within a few ulp of the boundary are returned unchanged, which
    keeps double projection bitwise idempotent.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    if len(x) != len(center):
        raise DimensionMismatchError("point and center dimensions differ")
    d = x - center
    dist = norm(d)
    if dist <= radius * (1.0 + 4.0 * _EPS):
        return x
    # One rounding per coordinate: d * radius / dist, not d * (radius/dist).
    return center + d * radius / dist


@dataclass(frozen=True)
class AdaptiveTriple:
    """Jointly scaled smoothness/noise parameters (L, delta, Delta).

    The solvers only ever halve or double the whole triple, so the ratios
    delta/L and Delta/L are preserved exactly (powers of two are exact in
    binary floating point).
    """

    L: float
    delta: float = 0.0
    Delta: float = 0.0

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError("L must be positive and finite")
        if self.delta < 0 or not math.isfinite(self.delta):
            raise ValueError("delta must be nonnegative and finite")
        if self.Delta < 0 or not math.isfinite(self.Delta):
            raise ValueError("Delta must be nonnegative and finite")

    def halved(self) -> "AdaptiveTriple":
        return scale_triple(self, 0.5)

    def doubled(self) -> "AdaptiveTriple":
        return scale_triple(self, 2.0)


def scale_triple(t: AdaptiveTriple, factor: float) -> AdaptiveTriple:
    """Scale all three parameters by ``factor``, which must be 0.5 or 2."""
    if factor not in (0.5, 2.0):
        raise ValueError("factor must be 0.5 or 2")
    return AdaptiveTriple(t.L * factor, t.delta * factor, t.Delta * factor)


class Evaluation:
    """One oracle query at a point x.

    ``value`` is the inexact objective value and ``h`` the composite part
    h(x) (zero for oracles without one), both computed when the query is
    made.  ``gradient()`` computes the gradient on its first call, from
    what the value computation kept, and returns the same vector after
    that.  The query keeps x itself, not a copy: x must not be changed in
    place before the gradient has been asked for.
    """

    __slots__ = ("value", "h", "_make_gradient", "_gradient")

    def __init__(self, value: float, h: float, make_gradient: Callable[[], Vector]):
        self.value = value
        self.h = h
        self._make_gradient = make_gradient
        self._gradient = None

    def gradient(self) -> Vector:
        if self._gradient is None:
            self._gradient = self._make_gradient()
            self._make_gradient = None
        return self._gradient


class ModelOracle:
    """Inexact first-order description of an objective.

    Subclasses provide ``value_inexact`` and ``_gradient``; the default
    ``model`` is the linear-plus-composite form

        psi(y, x) = <g(x), y - x> + h(y) - h(x)

    where h is the composite part (zero unless ``has_composite``).

    The solvers query the oracle through ``evaluate``, once per point, and
    take the anchor gradient from the accepted point's evaluation.  An
    oracle whose value and gradient share work overrides ``evaluate``.

    ``model`` memoizes the gradient per anchor point, keyed by object
    identity, so repeated model evaluations against one anchor reuse a
    single oracle query.
    """

    gamma: float = 0.0
    known_L: Optional[float] = None
    known_delta: Optional[float] = None
    known_Delta: Optional[float] = None
    exact_values: bool = True
    has_composite: bool = False

    def __init__(self):
        self._anchor: Optional[Vector] = None
        self._anchor_gradient: Optional[Vector] = None

    def value_inexact(self, x: Vector) -> float:
        raise NotImplementedError

    def _gradient(self, x: Vector) -> Vector:
        raise NotImplementedError

    def evaluate(self, x: Vector) -> Evaluation:
        """Query the oracle at ``x``: the value now, the gradient on demand.

        This default calls ``value_inexact`` (and ``composite_part`` when
        the oracle has a composite part) at once, and ``_gradient`` only
        when the evaluation's gradient is asked for.
        """
        value = self.value_inexact(x)
        h = self.composite_part(x) if self.has_composite else 0.0
        return Evaluation(value, h, lambda: self._gradient(x))

    def model_gradient_at(self, x: Vector) -> Vector:
        """Vector defining the linear part of the model anchored at ``x``."""
        if self._anchor is not x:
            self._anchor_gradient = self._gradient(x)
            self._anchor = x
        return self._anchor_gradient

    def composite_part(self, y: Vector) -> float:
        return 0.0

    def composite_prox(self, v: Vector, weight: float) -> Vector:
        """argmin_u h(u) + ||u - v||^2 / (2 * weight)."""
        if self.has_composite:
            raise UnsupportedCombinationError(
                "this oracle has a composite part but no proximal operator"
            )
        return v

    def model(self, y: Vector, x: Vector) -> float:
        """psi(y, x): the model of f(y) - f(x) around the anchor ``x``."""
        g = self.model_gradient_at(x)
        if len(g) != len(y):
            raise DimensionMismatchError("model arguments live in different dimensions")
        val = float(np.dot(g, y - x))
        if self.has_composite:
            val += self.composite_part(y) - self.composite_part(x)
        return val


class FunctionOracle(ModelOracle):
    """Exact-value oracle built from value/gradient callables.

    ``gradient_fn`` may return any subgradient at kinks; the model is the
    plain linear one.
    """

    def __init__(
        self,
        value_fn: Callable[[Vector], float],
        gradient_fn: Callable[[Vector], Vector],
        *,
        gamma: float = 0.0,
        known_L: Optional[float] = None,
        known_delta: Optional[float] = None,
        known_Delta: Optional[float] = None,
    ):
        super().__init__()
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self.gamma = float(gamma)
        self.known_L = known_L
        self.known_delta = known_delta
        self.known_Delta = known_Delta

    def value_inexact(self, x: Vector) -> float:
        return float(self._value_fn(x))

    def _gradient(self, x: Vector) -> Vector:
        return np.asarray(self._gradient_fn(x), dtype=np.float64)


def check_oracle_conformance(
    oracle: ModelOracle,
    point_factory: Callable[[], Vector],
    trials: int = 1000,
    tol: float = 1e-9,
) -> list:
    """Check the model contract on randomly drawn points.

    Verifies psi(x, x) = 0 and midpoint convexity of psi(., x) on random
    triples.  Returns a list of human-readable violations (empty when the
    oracle conforms).
    """
    failures = []
    for i in range(min(trials, 100)):
        x = point_factory()
        v = oracle.model(x, x)
        if abs(v) > tol:
            failures.append(f"psi(x, x) = {v!r} != 0 at sample {i}")
    for i in range(trials):
        x = point_factory()
        y = point_factory()
        z = point_factory()
        mid = 0.5 * (y + z)
        lhs = oracle.model(mid, x)
        py, pz = oracle.model(y, x), oracle.model(z, x)
        rhs = 0.5 * (py + pz)
        scale = max(1.0, abs(py), abs(pz))
        if lhs > rhs + tol * scale:
            failures.append(
                f"midpoint convexity violated at triple {i}: {lhs!r} > {rhs!r}"
            )
    return failures
