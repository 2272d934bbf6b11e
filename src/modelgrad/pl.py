"""Adaptive gradient descent under gradient domination with inexact data.

The objective satisfies f(x) - f* <= ||grad f(x)||^2 / (2 mu) and is
L-smooth, but the solver sees only a perturbed gradient (within Delta in
norm) and optionally perturbed values (within delta).  Each iteration
halves the working constants, takes the damped step

    x+ = x - (1/L) (1 - Delta/||g~||) g~,

and doubles on acceptance failure.  The output is the last iterate; the
run terminates early once the observed gradient norm falls to the working
Delta, since no descent direction can then be certified.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    InconsistentTraceError,
    ModelOracle,
    NonTerminationError,
    Vector,
    as_vector,
    checked_gradient,
    checked_value,
    norm,
)

__all__ = [
    "SmallGradientError",
    "PLConfig",
    "PLTrace",
    "PLDichotomyReport",
    "TERM_COMPLETED",
    "TERM_FLOOR",
    "pl_step_size",
    "pl_acceptance",
    "pl_minimize",
    "pl_rate_bound",
    "pl_rate_bound_nonadaptive",
    "pl_dichotomy_check",
    "pl_inexact_floor",
]

logger = logging.getLogger(__name__)

TERM_COMPLETED = "completed-N"
TERM_FLOOR = "small-gradient-floor"


class SmallGradientError(ValueError):
    """The observed gradient norm does not exceed the working Delta."""


@dataclass(frozen=True, eq=False)
class PLConfig:
    """Run parameters.

    ``Delta_cap`` clamps the adaptive gradient-error estimate from above
    (set it to the true noise level when known; the convergence dichotomy
    is stated under that clamp).  ``adapt_Delta=False`` freezes the
    estimate at ``Delta0`` for nonadaptive comparison runs.  ``C`` is the
    threshold constant consumed by the dichotomy report, carried here so a
    run and its analysis share one configuration object.
    """

    x0: Vector
    L0: float = 1.0
    Delta0: float = 0.0
    delta0: float = 0.0
    N: int = 100
    C: float = 3.0
    mu: Optional[float] = None
    Delta_cap: Optional[float] = None
    f_star: Optional[float] = None
    max_inner_per_iter: int = 100
    store_iterates: bool = True
    adapt_Delta: bool = True

    def __post_init__(self):
        object.__setattr__(self, "x0", as_vector(self.x0))
        if not (self.L0 > 0 and np.isfinite(self.L0)):
            raise ValueError("L0 must be positive and finite")
        if self.Delta0 < 0 or self.delta0 < 0:
            raise ValueError("Delta0 and delta0 must be nonnegative")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if not self.C > 1:
            raise ValueError("C must exceed 1")
        if self.mu is not None:
            if not self.mu > 0:
                raise ValueError("mu must be positive when given")
            if 2.0 * self.mu > self.L0:
                # not an error: the line search raises the working constant
                # on its own, the rate bound re-validates per iteration
                logger.info(
                    "L0 = %g is below 2*mu = %g; the working constant will "
                    "be raised by the acceptance test as needed",
                    self.L0,
                    2.0 * self.mu,
                )
        if self.Delta_cap is not None and self.Delta_cap < 0:
            raise ValueError("Delta_cap must be nonnegative when given")
        if self.max_inner_per_iter < 1:
            raise ValueError("max_inner_per_iter must be at least 1")


@dataclass
class PLTrace:
    """Record of one run; all per-iteration arrays cover accepted steps."""

    x0: Vector
    f0: float
    f_values: np.ndarray
    g_norms: np.ndarray
    h_steps: np.ndarray
    L_hist: np.ndarray
    Delta_hist: np.ndarray
    delta_hist: np.ndarray
    inner_hist: np.ndarray
    elapsed_ms: np.ndarray
    termination: str
    final_g_norm: float
    clamp: Optional[float]
    x_final: Vector
    f_final: float
    best_f: float
    iterates: Optional[list] = None

    @property
    def N_run(self) -> int:
        return len(self.f_values)


@dataclass(frozen=True)
class PLDichotomyReport:
    """Which branch of the convergence dichotomy a run realized."""

    branch: str  # "linear-rate" or "noise-floor"
    bound: float
    first_violation: Optional[int]
    factor: float
    floor: float


def pl_step_size(L: float, Delta: float, g_tilde: float) -> float:
    """Damped step length (1/L)(1 - Delta/||g~||).

    Raises SmallGradientError when the observed norm does not exceed
    Delta; the direction cannot be trusted there.
    """
    if not (L > 0 and math.isfinite(L)):
        raise ValueError("L must be positive and finite")
    if Delta < 0:
        raise ValueError("Delta must be nonnegative")
    if not g_tilde > Delta:
        raise SmallGradientError(
            f"observed gradient norm {g_tilde} does not exceed Delta {Delta}"
        )
    return (1.0 / L) * (1.0 - Delta / g_tilde)


def pl_acceptance(
    oracle: ModelOracle,
    x_k: Vector,
    x_next: Vector,
    L: float,
    Delta: float,
    delta: float = 0.0,
) -> bool:
    """Evaluate the descent acceptance inequality for a candidate step."""
    g = oracle.model_gradient_at(x_k)
    d = x_next - x_k
    sq = float(np.dot(d, d))
    step = math.sqrt(sq)
    lin = float(np.dot(g, d))
    f_k = oracle.value_inexact(x_k)
    f_next = oracle.value_inexact(x_next)
    return f_next <= f_k + lin + L * (0.5 * sq) + Delta * step + delta


def _clamped(value: float, cap: Optional[float]) -> float:
    return value if cap is None else min(value, cap)


def pl_minimize(config: PLConfig, oracle: ModelOracle) -> PLTrace:
    """Run the adaptive damped-descent method; output is the last iterate.

    Each point is evaluated once: the accepted trial's evaluation gives the
    next iteration's gradient.
    """
    x = config.x0
    ev = oracle.evaluate(x)
    f_x = ev.value
    f0 = f_x
    best_f = f_x

    f_values, g_norms, h_steps = [], [], []
    L_hist, Delta_hist, delta_hist, inner_hist, elapsed_hist = [], [], [], [], []
    iterates = [x] if config.store_iterates else None

    L_cur = config.L0
    Dl_cur = _clamped(config.Delta0, config.Delta_cap)
    dl_cur = config.delta0
    termination = TERM_COMPLETED
    final_g_norm = math.nan
    t_start = time.perf_counter()

    def _partial(term, gn_last):
        return PLTrace(
            x0=config.x0,
            f0=f0,
            f_values=np.asarray(f_values),
            g_norms=np.asarray(g_norms),
            h_steps=np.asarray(h_steps),
            L_hist=np.asarray(L_hist),
            Delta_hist=np.asarray(Delta_hist),
            delta_hist=np.asarray(delta_hist),
            inner_hist=np.asarray(inner_hist, dtype=np.int64),
            elapsed_ms=np.asarray(elapsed_hist),
            termination=term,
            final_g_norm=gn_last,
            clamp=config.Delta_cap,
            x_final=x,
            f_final=f_x,
            best_f=best_f,
            iterates=iterates,
        )

    for k in range(config.N):
        checked_value(f_x, k)
        g_vec = ev.gradient()
        gn = norm(g_vec)
        if not math.isfinite(gn):  # a non-finite entry, or only an overflow
            checked_gradient(g_vec, k)
        L_cur *= 0.5
        dl_cur *= 0.5
        if config.adapt_Delta:
            Dl_cur = _clamped(Dl_cur * 0.5, config.Delta_cap)
        if gn <= Dl_cur:
            termination = TERM_FLOOR
            final_g_norm = gn
            return _partial(termination, final_g_norm)

        inner = 0
        while True:
            inner += 1
            if inner > config.max_inner_per_iter:
                err = NonTerminationError(
                    f"no acceptance after {config.max_inner_per_iter} trials"
                    f" at iteration {k} (L reached {L_cur})",
                    k,
                    None,
                    config.max_inner_per_iter,
                )
                err.partial_trace = _partial(TERM_COMPLETED, gn)
                raise err
            h = pl_step_size(L_cur, Dl_cur, gn)
            x_next = x - h * g_vec
            d = x_next - x
            sq = float(np.dot(d, d))
            step = math.sqrt(sq)
            lin = float(np.dot(g_vec, d))
            trial = oracle.evaluate(x_next)
            f_next = checked_value(trial.value, k)
            if f_next <= f_x + lin + L_cur * (0.5 * sq) + Dl_cur * step + dl_cur:
                break
            L_cur *= 2.0
            dl_cur *= 2.0
            if config.adapt_Delta:
                Dl_cur = _clamped(Dl_cur * 2.0, config.Delta_cap)
                if gn <= Dl_cur:
                    termination = TERM_FLOOR
                    final_g_norm = gn
                    return _partial(termination, final_g_norm)

        f_values.append(f_next)
        g_norms.append(gn)
        h_steps.append(h)
        L_hist.append(L_cur)
        Delta_hist.append(Dl_cur)
        delta_hist.append(dl_cur)
        inner_hist.append(inner)
        elapsed_hist.append((time.perf_counter() - t_start) * 1e3)
        if iterates is not None:
            iterates.append(x_next)
        if f_next < best_f:
            best_f = f_next
        x, f_x, ev = x_next, f_next, trial

    final_g_norm = norm(ev.gradient())
    return _partial(termination, final_g_norm)


def _factors(trace: PLTrace, mu: float, Delta: float, Delta_hist) -> np.ndarray:
    if not mu > 0:
        raise ValueError("mu must be positive")
    if Delta < 0:
        raise ValueError("Delta must be nonnegative")
    if trace.N_run == 0:
        return np.ones(0)
    num = np.maximum(trace.g_norms - Delta_hist, 0.0)
    den = trace.g_norms + Delta
    ratios = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    factors = 1.0 - (mu / trace.L_hist) * ratios**2
    bad = (factors < 0.0) | (factors > 1.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InconsistentTraceError(
            f"rate factor {factors[i]} at step {i} falls outside [0, 1]; "
            "the supplied mu is incompatible with the recorded constants"
        )
    return factors


def pl_rate_bound(trace: PLTrace, mu: float, Delta: float) -> float:
    """Product of per-step contraction factors using the recorded adaptive
    error estimates; multiply by the initial gap to bound the final gap."""
    return float(np.prod(_factors(trace, mu, Delta, trace.Delta_hist)))


def pl_rate_bound_nonadaptive(trace: PLTrace, mu: float, Delta: float) -> float:
    """Same contraction product with the error estimate pinned at Delta,
    matching a run that never adapts it downward."""
    return float(np.prod(_factors(trace, mu, Delta, np.full(trace.N_run, Delta))))


def pl_inexact_floor(mu: float, L: float, delta: float) -> float:
    """Gap level 3 delta L / mu below which value errors of size delta may
    stall further certified progress."""
    if not (mu > 0 and L > 0):
        raise ValueError("mu and L must be positive")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return 3.0 * delta * L / mu


def pl_dichotomy_check(
    trace: PLTrace,
    mu: float,
    L: float,
    Delta: float,
    C: float,
    gap0: float,
) -> PLDichotomyReport:
    """Classify a clamped run against the two-branch convergence guarantee.

    With the error estimate clamped at the true Delta, either every
    observed gradient norm (including the final one) stays at or above
    C * Delta, giving the linear bound

        gap_N <= (1 - (mu/L) ((C-1)/(C+1))^2)^N * gap0,

    or some iterate's norm drops below the threshold, certifying

        min_k gap_k < (C+1)^2 Delta^2 / (2 mu).
    """
    if trace.clamp is None:
        raise InconsistentTraceError(
            "dichotomy classification needs a run with Delta_cap set"
        )
    if not (mu > 0 and L > 0 and C > 1):
        raise ValueError("mu, L must be positive and C must exceed 1")
    if Delta < 0 or gap0 < 0:
        raise ValueError("Delta and gap0 must be nonnegative")

    threshold = C * Delta
    norms = trace.g_norms
    first_violation = None
    for i, gn in enumerate(norms):
        if gn < threshold:
            first_violation = i
            break
    if first_violation is None and np.isfinite(trace.final_g_norm):
        if trace.final_g_norm < threshold:
            first_violation = len(norms)

    ratio = (C - 1.0) / (C + 1.0)
    factor = 1.0 - (mu / L) * ratio**2
    floor = (C + 1.0) ** 2 * Delta**2 / (2.0 * mu)
    if first_violation is None:
        n_steps = trace.N_run
        return PLDichotomyReport(
            branch="linear-rate",
            bound=factor**n_steps * gap0,
            first_violation=None,
            factor=factor,
            floor=floor,
        )
    return PLDichotomyReport(
        branch="noise-floor",
        bound=floor,
        first_violation=first_violation,
        factor=factor,
        floor=floor,
    )
