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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    InconsistentTraceError,
    ModelOracle,
    NonTerminationError,
    Recorder,
    Trace,
    UnsupportedCombinationError,
    Vector,
    _acceptance_rhs,
    _check_run,
    _trial,
    backtrack,
    checked_gradient,
    checked_value,
    norm,
    per_step,
)

__all__ = [
    "SmallGradientError",
    "PLConfig",
    "PLTrace",
    "PLDichotomyReport",
    "TERM_COMPLETED",
    "TERM_FLOOR",
    "pl_step_size",
    "pl_minimize",
    "pl_rate_bound",
    "pl_rate_bound_nonadaptive",
    "pl_dichotomy_check",
    "pl_inexact_floor",
]

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
    estimate at ``Delta0`` for nonadaptive comparison runs.  The dichotomy
    report's threshold constant C is an argument of ``pl_dichotomy_check``:
    the run itself does not use it.  ``store_iterates`` costs one n-vector
    per step, as in ``ConvexConfig``.
    """

    x0: Vector
    L0: float = 1.0
    Delta0: float = 0.0
    delta0: float = 0.0
    N: int = 100
    Delta_cap: Optional[float] = None
    max_inner_per_iter: int = 100
    store_iterates: bool = True
    adapt_Delta: bool = True

    def __post_init__(self):
        _check_run(self)
        if self.Delta_cap is not None and not 0 <= self.Delta_cap < math.inf:
            raise ValueError("Delta_cap must be nonnegative and finite when given")


@dataclass(kw_only=True)
class PLTrace(Trace):
    """Record of one run of algo2: ``g_norms[k]`` is the observed gradient
    norm at step k and ``h_steps[k]`` the step size along the gradient."""

    g_norms: np.ndarray = per_step()
    h_steps: np.ndarray = per_step()
    termination: str
    final_g_norm: float
    clamp: Optional[float]

    @property
    def step_norms(self) -> np.ndarray:
        """The step lengths h * ||g~||."""
        return self.h_steps * self.g_norms

    @property
    def cert_hist(self) -> np.ndarray:
        """NaN at every step: algo2 keeps no online certificate."""
        return np.full(self.N_run, math.nan)


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
    if not Delta >= 0:
        raise ValueError("Delta must be nonnegative")
    if not g_tilde > Delta:
        raise SmallGradientError(
            f"observed gradient norm {g_tilde} does not exceed Delta {Delta}"
        )
    return (1.0 / L) * (1.0 - Delta / g_tilde)


def pl_minimize(config: PLConfig, oracle: ModelOracle) -> PLTrace:
    """Run the adaptive damped-descent method; output is the last iterate.

    Each point is evaluated once, and its value and gradient are checked
    once: the accepted trial's evaluation gives the next iteration's
    gradient.  The run stops at the floor as soon as the gradient-error
    estimate reaches the observed gradient norm, even on the growth after
    the last rejection ``backtrack`` allows.  The damped step has no
    composite part, so an oracle with one is refused.
    """
    if oracle.composite_prox is not None:
        raise UnsupportedCombinationError("algo2 does not take a composite part")
    x = x0 = config.x0
    ev = oracle.evaluate(x)
    f_x = f0 = checked_value(ev.value, 0)
    Delta_cap = math.inf if config.Delta_cap is None else config.Delta_cap
    triple = (config.L0, config.delta0, min(config.Delta0, Delta_cap))
    # a frozen estimate stays at its start value
    Delta_min, Delta_max = (0.0, Delta_cap) if config.adapt_Delta else (triple[2], triple[2])
    termination = TERM_COMPLETED
    failure = None
    rec = Recorder(x, config.store_iterates)

    def attempt(L, delta, Delta):
        # reads x, ev, g_vec, gn, f_x and k of the current iteration
        if gn <= Delta:
            return TERM_FLOOR
        h = pl_step_size(L, Delta, gn)
        x_next = g_vec * -h
        x_next += x  # x - h*g bitwise, as in convex.model_step
        trial, psi, sq, step = _trial(oracle, x, ev, g_vec, x_next, k)
        if trial.value <= _acceptance_rhs(f_x, psi, L, 0.5 * sq, step, Delta, delta):
            return x_next, trial, h
        return None

    for k in range(config.N + 1):  # step N only checks the last point's gradient
        g_vec = ev.gradient()
        gn = norm(g_vec)
        if len(g_vec) != len(x) or not math.isfinite(gn):  # or gn only overflows
            checked_gradient(g_vec, x, k)
        if k == config.N:
            break
        try:
            result, L, delta, Delta, inner = backtrack(
                attempt, triple, Delta_min, Delta_max, config.max_inner_per_iter, k
            )
        except NonTerminationError as err:
            if gn <= err.triple[2]:  # the trial it cut off was at the floor
                termination = TERM_FLOOR
            else:
                failure = err
            break
        if result is TERM_FLOOR:
            termination = TERM_FLOOR
            break
        x, ev, h = result
        triple = (L, delta, Delta)
        f_x = ev.value
        rec.add(x, f_x, L, delta, Delta, inner, gn, h)

    trace = rec.trace(
        PLTrace,
        x0=x0,
        f0=f0,
        termination=termination,
        final_g_norm=gn,
        clamp=config.Delta_cap,
        x_final=x,
    )
    if failure is not None:
        failure.partial_trace = trace
        raise failure
    return trace


def _factors(trace: PLTrace, mu: float, Delta: float, Delta_hist) -> np.ndarray:
    if not mu > 0:
        raise ValueError("mu must be positive")
    if not Delta >= 0:
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
    if not delta >= 0:
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
    if not (Delta >= 0 and gap0 >= 0):
        raise ValueError("Delta and gap0 must be nonnegative")

    norms = trace.g_norms  # and the final norm, when one was observed
    if np.isfinite(trace.final_g_norm):
        norms = np.append(norms, trace.final_g_norm)
    below = np.flatnonzero(norms < C * Delta)
    factor = 1.0 - (mu / L) * ((C - 1.0) / (C + 1.0)) ** 2
    floor = (C + 1.0) ** 2 * Delta**2 / (2.0 * mu)
    if below.size == 0:
        return PLDichotomyReport("linear-rate", factor**trace.N_run * gap0, None, factor, floor)
    return PLDichotomyReport("noise-floor", floor, int(below[0]), factor, floor)
