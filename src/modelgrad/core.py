"""Core types shared by the adaptive solvers.

Vectors are plain 1-D float64 numpy arrays validated on entry by
``as_vector``.  The feasible set is a small immutable value that the
solvers take as it is.  ``ModelOracle`` is the contract every objective
implements: one query, ``evaluate(x)``, which returns an ``Evaluation``
(the inexact value, the composite part and the gradient on demand), plus
the composite prox and the slack metadata that certificates read (never
the adaptive loops themselves).  The solvers carry the accepted trial's
``Evaluation`` to the next iteration's anchor.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray

_EPS = float(np.finfo(np.float64).eps)
# a point at most this many radii from a ball's center is inside it
_BOUNDARY = 1.0 + 4.0 * _EPS

__all__ = [
    "as_vector",
    "DimensionMismatchError",
    "UnsupportedCombinationError",
    "CertificateUnavailableError",
    "InconsistentTraceError",
    "NonTerminationError",
    "NonFiniteOracleError",
    "NonFiniteTrialPointError",
    "FeasibleSet",
    "Evaluation",
    "ModelOracle",
    "FunctionOracle",
    "project_ball",
]


class DimensionMismatchError(ValueError):
    """Operands live in different dimensions."""


class UnsupportedCombinationError(ValueError):
    """The configured model has no implemented subproblem solver."""


class CertificateUnavailableError(ValueError):
    """The requested certificate needs data that was not supplied."""


class InconsistentTraceError(ValueError):
    """A recorded trace contradicts the constants it is being checked against."""


class NonTerminationError(RuntimeError):
    """An inner acceptance loop exhausted its trial cap or doubled L to inf.

    Carries the iteration index and the ``(L, delta, Delta)`` triple the
    loop would have tried next, so the failing regime (typically an
    objective outside the assumed smoothness class) can be inspected.
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


class NonFiniteTrialPointError(ValueError):
    """The model step produced a trial point with a NaN or infinite entry.

    ``iteration`` is the index of the solver iteration that produced it;
    ``point`` is the trial point itself.  A step length g/L that overflows
    (a tiny L0) is the usual cause.
    """

    def __init__(self, point: Vector, iteration: int):
        super().__init__(f"the model step gave a non-finite trial point at iteration {iteration}")
        self.point = point
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


def checked_gradient(g: Vector, x: Vector, iteration: int) -> Vector:
    """Return the oracle gradient ``g`` at ``x``, refusing one whose length
    is not x's (``DimensionMismatchError``) or with NaN or infinite entries."""
    if len(g) != len(x):
        msg = f"oracle gradient at iteration {iteration} has length {len(g)}, the iterate {len(x)}"
        raise DimensionMismatchError(msg)
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


def aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of ``shape`` whose data
    starts on a 64-byte boundary.

    The problems store their matrices in such arrays.  numpy's allocator
    aligns data to 16 bytes only (an array large enough to be mapped from
    the OS starts 16 bytes past a page boundary), and OpenBLAS runs its
    matrix-vector products slower off the 64-byte boundary, with the same
    result bits: with OpenBLAS 0.3.31's SkylakeX kernels on one thread of
    an Intel Xeon, ``A.dot(x)`` and ``A.T.dot(r)`` on a 100x1000 ``A``
    took about 15 us at offset 16 against 10 us at offset 0.
    """
    nbytes = math.prod(shape) * 8
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start : start + nbytes].view(np.float64).reshape(shape)


@dataclass(frozen=True, eq=False)
class FeasibleSet:
    """Closed convex feasible set: the whole space or a euclidean ball.

    A ball keeps a private read-only copy of its center, so a later write
    into the caller's array cannot move it, and notes once whether that
    center is the origin: there ``project`` needs no difference vector to
    see that a point is inside.
    """

    kind: str
    center: Optional[Vector] = None
    radius: Optional[float] = None
    _at_origin: bool = field(default=False, init=False, repr=False)

    WHOLE_SPACE = "whole-space"
    BALL = "euclidean-ball"

    def __post_init__(self):
        if self.kind == self.BALL:
            if self.center is None or self.radius is None:
                raise ValueError("a ball needs both a center and a radius")
            center = as_vector(self.center).copy()
            center.setflags(write=False)
            object.__setattr__(self, "center", center)
            object.__setattr__(self, "radius", float(self.radius))
            object.__setattr__(self, "_at_origin", not center.any())
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
        """The projection of ``x``: ``project_ball``'s result on a ball.

        On a ball at the origin ||x - center|| is ||x|| bitwise (signed
        zeros square alike), so a point inside is returned after one dot
        product, and a point outside is moved with that distance.
        """
        if self.kind == self.WHOLE_SPACE:
            return x
        if self._at_origin and len(x) == len(self.center):
            dist = norm(x)
            if dist <= self.radius * _BOUNDARY:
                return x
            return _onto_sphere(x - self.center, dist, self.center, self.radius)
        return project_ball(x, self.center, self.radius)

    def contains(self, x: Vector) -> bool:
        """Whether ``x`` lies in the set, to a relative 1e-9 of a ball's
        radius.  The solvers ask it of x0 only; it is looser than the few
        ulp ``project`` allows (``_BOUNDARY``)."""
        if self.kind == self.WHOLE_SPACE:
            return True
        if len(x) != len(self.center):
            raise DimensionMismatchError("point and center dimensions differ")
        return float(np.linalg.norm(x - self.center)) <= self.radius * (1.0 + 1e-9)


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
    if dist <= radius * _BOUNDARY:
        return x
    return _onto_sphere(d, dist, center, radius)


def _onto_sphere(d: Vector, dist: float, center: Vector, radius: float) -> Vector:
    """center + d * radius / dist for d = x - center at distance ``dist``,
    formed in d: one rounding per coordinate for the scaling (not
    d * (radius/dist)), and the sum commutes bitwise."""
    d *= radius
    d /= dist
    d += center
    return d


def _check_run(config) -> None:
    """The checks ``ConvexConfig`` and ``PLConfig`` share.  x0 becomes a
    private copy: a later write into the caller's array must not reach the
    trace's x0, iterates[0] or best_x."""
    object.__setattr__(config, "x0", as_vector(config.x0).copy())
    if not (config.L0 > 0 and np.isfinite(config.L0)):
        raise ValueError("L0 must be positive and finite")
    if not (0 <= config.delta0 < math.inf and 0 <= config.Delta0 < math.inf):
        raise ValueError("delta0 and Delta0 must be nonnegative and finite")
    for name in ("N", "max_inner_per_iter"):
        value = getattr(config, name)
        if type(value) is bool or not (isinstance(value, numbers.Integral) and value >= 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _trial(oracle, x_k, anchor, g, x_next, k):
    """Check and evaluate the trial point ``x_next`` the solver formed from
    the anchor ``x_k``, whose evaluation is ``anchor`` and gradient ``g``.

    Returns (the evaluation of x_next, psi(x_next, x_k), squared step
    length, step length).  psi(x_next, x_k) = <g, x_next - x_k> + h(x_next)
    - h(x_k), the linear-plus-composite model, is computed here and nowhere
    else.  This is where every solver's trial points are checked: a
    non-finite one makes the squared step from the finite anchor non-finite
    too, and raises ``NonFiniteTrialPointError`` before the oracle sees it;
    a non-finite value raises ``NonFiniteOracleError``.
    """
    d = x_next - x_k
    sq = float(d.dot(d))
    if not math.isfinite(sq) and not all_finite(x_next):  # a finite x_next may overflow sq
        raise NonFiniteTrialPointError(x_next, k)
    trial = oracle.evaluate(x_next)
    checked_value(trial.value, k)
    psi = float(g.dot(d)) + (trial.h - anchor.h)
    return trial, psi, sq, math.sqrt(sq)


def _acceptance_rhs(f_k, psi, L, half_sq, step, Delta, delta):
    """Right side f(x) + psi + L V + Delta ||x+ - x|| + delta of the
    acceptance inequality, spelled once so that the three solvers compare
    bitwise the same float."""
    return f_k + psi + L * half_sq + Delta * step + delta


def backtrack(attempt, triple, Delta_min, Delta_max, cap, k):
    """The solvers' shared halve-then-double rhythm.

    Halves the last accepted (L, delta, Delta) ``triple``, then calls
    ``attempt(L, delta, Delta)`` until it returns something other than
    None, doubling all three after each rejection.  Delta is kept in
    [``Delta_min``, ``Delta_max``]: (0, inf) lets it move freely, and
    (D, D) freezes it at D.  Returns (the attempt's result, L, delta,
    Delta, trials) for the accepting call.  This is the one place a step
    ends without acceptance: after ``cap`` rejections, or once the doubling
    overflows L to inf (no attempt is made there), it raises
    ``NonTerminationError`` at iteration ``k`` with the trials made and the
    triple it would have tried next.  At the other end, the halving of all
    three is skipped once L <= 2^-900: a run that sits at a minimizer takes
    zero-length steps that every L accepts, and without the floor L would
    halve until 1/L, the step's weight in algo1's average, overflowed.
    """
    L, delta, Delta = triple
    if L > 2.0**-900:
        L *= 0.5
        delta *= 0.5
        Delta *= 0.5
    if Delta < Delta_min:
        Delta = Delta_min
    trials = 0
    while trials < cap and L < math.inf:
        trials += 1
        result = attempt(L, delta, Delta)
        if result is not None:
            return result, L, delta, Delta, trials
        L *= 2.0
        delta *= 2.0
        Delta *= 2.0
        if Delta > Delta_max:
            Delta = Delta_max
    triple = (L, delta, Delta)
    raise NonTerminationError(
        f"no acceptance after {trials} trials at iteration {k} (next triple {triple})",
        k,
        triple,
        trials,
    )


class Recorder:
    """The rows of one run, one per accepted step.

    ``add(x, *values)`` books the step to ``x``: one row tuple of its
    values, stamped last with the milliseconds since the recorder was made,
    and ``x`` itself in ``iterates`` (x0 first) when iterates are stored.
    Make it after the start point's evaluation: the stamps time the steps.
    """

    __slots__ = ("rows", "iterates", "_t0")

    def __init__(self, x0: Vector, store_iterates: bool):
        self.rows = []
        self.iterates = [x0] if store_iterates else None
        self._t0 = time.perf_counter()

    def add(self, x: Vector, *values) -> None:
        self.rows.append((*values, (time.perf_counter() - self._t0) * 1e3))
        if self.iterates is not None:
            self.iterates.append(x)

    def trace(self, cls, **summary):
        """The trace ``cls`` of the run, its other fields from ``summary``:
        the values ``add`` took fill cls's ``per_step`` fields in declaration
        order, each an array of its dtype, then ``elapsed_ms``."""
        steps = [f for f in fields(cls) if "dtype" in f.metadata]
        cols = tuple(zip(*self.rows)) or ((),) * (len(steps) + 1)
        arrays = {f.name: np.array(col, f.metadata["dtype"]) for f, col in zip(steps, cols)}
        return cls(**arrays, elapsed_ms=np.array(cols[-1]), iterates=self.iterates, **summary)


def per_step(dtype=np.float64):
    """A trace field holding one ``dtype`` value per accepted step."""
    return field(metadata={"dtype": dtype})


@dataclass(kw_only=True)
class Trace:
    """Record of one run; every per-step array covers the accepted steps.

    The fields the three solvers share.  The ``per_step`` fields, here and
    in each subclass, are the one schema of a step: ``Recorder.add`` takes
    their values in declaration order.  Each subclass also provides
    ``step_norms`` and ``cert_hist``, the step length and the online
    certificate of each step (NaN where the solver has none).  A run that
    completes N or stops on the certificate made 1 + ``inner_hist.sum()``
    evaluations and ``N_run`` gradients (algo2: ``N_run`` + 1).  The
    summaries ``N_run``, ``best_f`` and ``f_final`` are read from
    ``f_values`` and ``f0``, so they cannot contradict them.
    """

    x0: Vector
    f0: float
    f_values: np.ndarray = per_step()
    L_hist: np.ndarray = per_step()
    delta_hist: np.ndarray = per_step()
    Delta_hist: np.ndarray = per_step()
    inner_hist: np.ndarray = per_step(np.int64)
    elapsed_ms: np.ndarray
    x_final: Vector
    iterates: Optional[list] = None

    @property
    def N_run(self) -> int:
        return len(self.f_values)

    @property
    def best_f(self) -> float:
        """The least of f0 and the accepted values."""
        return float(min(self.f0, self.f_values.min(initial=math.inf)))

    @property
    def f_final(self) -> float:
        """The value at ``x_final``: the last accepted value, or f0."""
        return float(self.f_values[-1]) if self.N_run else self.f0

    def f_best_running(self) -> np.ndarray:
        """Best objective value seen up to each iteration (including f0)."""
        return np.minimum.accumulate(np.minimum(self.f_values, self.f0))


class Evaluation:
    """One oracle query at a point x.

    ``value`` is the inexact objective value and ``h`` the composite part
    h(x) (zero for oracles without one), both computed when the query is
    made.  ``gradient()`` computes the gradient on its first call, from
    what the value computation kept, and returns the same vector after
    that.  The query keeps x itself, not a copy: x must not be changed in
    place before the gradient has been asked for.  This by-reference
    contract is deliberate: a copy would cost one n-vector per evaluation,
    on the solvers' hot path, to guard against a write that none of them
    makes (the solvers never change a point in place once it is formed).
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

    Subclasses implement ``evaluate(x)``, the one query the solvers make,
    once per point.  It returns an ``Evaluation``: the inexact value and the
    composite part h(x) now, the gradient g(x) on demand.  The solvers use
    the linear-plus-composite model

        psi(y, x) = <g(x), y - x> + h(y) - h(x)

    where h is zero without a composite part.  ``composite_prox(v,
    weight)``, argmin_u h(u) + ||u - v||^2 / (2 * weight), is None exactly
    when there is none.  ``known_delta`` bounds how far a value may lie
    below the true one: 0.0 for exact values, None when the gap is unknown.
    ``gamma`` is the lower model's slack per unit distance.  The oracle
    keeps no state between queries: the only memoized gradient is the one
    an ``Evaluation`` holds for its caller.
    """

    gamma: float = 0.0
    known_delta: Optional[float] = 0.0
    composite_prox: Optional[Callable[[Vector, float], Vector]] = None

    def evaluate(self, x: Vector) -> Evaluation:
        """Query the oracle at ``x``: the value now, the gradient on demand."""
        raise NotImplementedError


class FunctionOracle(ModelOracle):
    """Exact-value oracle built from value/gradient callables.

    ``evaluate`` calls ``value_fn`` at once and ``gradient_fn`` when the
    evaluation's gradient is first asked for.  ``gradient_fn`` may return
    any subgradient at kinks.
    """

    def __init__(
        self,
        value_fn: Callable[[Vector], float],
        gradient_fn: Callable[[Vector], Vector],
        *,
        gamma: float = 0.0,
    ):
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        if not gamma >= 0:  # a negative gamma would cancel a wrapper's noise term
            raise ValueError("gamma must be nonnegative")
        self.gamma = float(gamma)

    def evaluate(self, x: Vector) -> Evaluation:
        return Evaluation(
            float(self._value_fn(x)),
            0.0,
            lambda: np.asarray(self._gradient_fn(x), dtype=np.float64),
        )
