"""Adaptive model-step method for convex objectives with inexact models.

Every iteration halves the (L, delta, Delta) triple once, solves the model
subproblem, and doubles the triple until the acceptance inequality

    f(x+) <= f(x) + psi(x+, x) + L * V(x+, x) + Delta * ||x+ - x|| + delta

holds for the trial point.  The reported solution is the 1/L-weighted
average of accepted iterates, for which an online accuracy certificate is
maintained whenever the divergence radius R is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CertificateUnavailableError,
    DimensionMismatchError,
    FeasibleSet,
    ModelOracle,
    NonTerminationError,
    Recorder,
    Trace,
    Vector,
    _acceptance_rhs,
    _check_run,
    _trial,
    as_vector,
    backtrack,
    checked_gradient,
    checked_value,
    per_step,
)

__all__ = [
    "ConvexConfig",
    "ConvexTrace",
    "model_step",
    "convex_minimize",
    "certificate_bound",
    "inner_call_budget",
]


@dataclass(frozen=True, eq=False)
class ConvexConfig:
    """Run parameters for the adaptive model-step method.

    ``R`` bounds the divergence from the start point to a minimizer,
    V(x*, x0) <= R^2.  When ``epsilon`` is set, the run stops as soon as
    the certificate, where finite, reaches ``epsilon``.  ``store_iterates``
    keeps one n-vector per step in the trace (about 800 MB at n = 1e5,
    N = 1000); the harness and the CLI pass False.
    """

    x0: Vector
    L0: float = 1.0
    delta0: float = 0.0
    Delta0: float = 0.0
    N: int = 100
    R: Optional[float] = None
    epsilon: Optional[float] = None
    max_inner_per_iter: int = 100
    store_iterates: bool = True

    def __post_init__(self):
        _check_run(self)
        if self.R is not None and not self.R >= 0:
            raise ValueError("R must be nonnegative")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(kw_only=True)
class ConvexTrace(Trace):
    """Record of one run of algo1 or of the restarted method.

    ``cert_hist[k]`` is the online certificate after step k, (R^2 + sum of
    (delta_i + Delta_i * step_i) / L_i) / S plus the oracle's known value
    gap; NaN without ``R`` or with an unknown gap (``known_delta`` None).
    For gamma > 0 (injected gradient noise) the bound also has a gamma *
    ||x_i - x*|| / L_i term per step.  On a ball the certificate bounds it
    by gamma * diam(Q), twice gamma times the radius, so it stays a bound,
    if a loose one; on the whole space it is NaN.  ``certificate_bound``
    gives the tight version, given x*.  ``stopped_early``: the certificate,
    where finite, reached ``epsilon`` and ended the run.  ``p_hist[k]``
    counts the restart's fixed-Delta doublings at step k (0 for algo1).
    """

    step_norms: np.ndarray = per_step()
    cert_hist: np.ndarray = per_step()
    p_hist: np.ndarray = per_step(np.int64)
    S_N: float
    x_hat: Vector
    best_x: Vector
    stopped_early: bool

    @property
    def total_inner_calls(self) -> int:
        return int(self.inner_hist.sum())


def model_step(
    oracle: ModelOracle,
    feasible: FeasibleSet,
    x_k: Vector,
    L: float,
    g: Vector,
) -> Vector:
    """Solve argmin_{y in Q} psi(y, x_k) + L * V(y, x_k) over Q = ``feasible``.

    ``g`` is the anchor gradient, the oracle's gradient at ``x_k``.  For
    V(y, x) = ||y - x||^2 / 2 and the linear-plus-composite model this is the
    proximal point of the composite part at x_k - g/L with weight 1/L,
    projected onto the feasible set; with no composite part it reduces to a
    projected gradient step.  x_k - g/L is formed as g / -L plus x_k in one
    fresh array: x + (-y) is x - y bitwise, and g / -L is -(g/L).  So ``g``
    must be float64 like ``x_k``, as the shipped oracles' gradients are.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    if len(g) != len(x_k):
        raise DimensionMismatchError(f"oracle gradient has length {len(g)}, the iterate {len(x_k)}")
    v = g / -L
    v += x_k
    prox = oracle.composite_prox
    if prox is not None:
        v = prox(v, 1.0 / L)
    return feasible.project(v)


def convex_minimize(
    config: ConvexConfig, oracle: ModelOracle, feasible: FeasibleSet
) -> ConvexTrace:
    """Run the adaptive method for N iterations (or to the certificate stop).

    Each iteration alternates subproblem solves with acceptance tests
    through ``backtrack``, which halves the last accepted triple once and
    doubles it after each rejection.  The run stops early when the
    certificate, where finite, reaches epsilon: that needs R, a known value
    gap and, for gamma > 0, a bounded feasible set.
    """
    cap = config.max_inner_per_iter

    def advance(k, x, anchor, f, g, triple):
        def attempt(L, delta, Delta):
            x_next = model_step(oracle, feasible, x, L, g)
            trial, psi, sq, step = _trial(oracle, x, anchor, g, x_next, k)
            if trial.value <= _acceptance_rhs(f, psi, L, 0.5 * sq, step, Delta, delta):
                return x_next, trial, step
            return None

        (x_next, trial, step), L, delta, Delta, inner = backtrack(
            attempt, triple, 0.0, math.inf, cap, k
        )
        return x_next, trial, L, delta, Delta, step, inner, 0

    return _run(config, oracle, feasible, advance)


def _run(config: ConvexConfig, oracle: ModelOracle, feasible: FeasibleSet, advance) -> ConvexTrace:
    """Take up to N steps, book each into the averaged output and, with its
    certificate, into the recorder, and check the early stop.  Shared by
    algo1 and the restarted method.

    Step k calls ``advance(k, x, anchor, f, g, triple)``: ``x`` is the
    current point, ``anchor`` its evaluation, ``f`` and ``g`` its checked
    value and gradient, and ``triple`` the (L, delta, Delta) of the last
    accepted step (the configured start values before the first).  It
    returns the accepted step as (x_next, its evaluation, L, delta, Delta,
    step length, trials, restart doublings), and that evaluation is the
    next step's anchor, whose value ``_trial`` has checked.  A
    ``NonTerminationError`` from it leaves with the steps accepted before
    it as ``partial_trace``; a NaN or infinite value or gradient raises
    ``NonFiniteOracleError`` before ``advance`` sees it.
    """
    if not feasible.contains(config.x0):
        raise ValueError("x0 lies outside the feasible set")
    x0 = x = config.x0
    anchor = oracle.evaluate(x0)
    f = f0 = best_f = checked_value(anchor.value, 0)  # best_f picks best_x
    best_x = x0
    triple = (config.L0, config.delta0, config.Delta0)
    S = 0.0
    weighted_sum = np.zeros_like(x0)
    noise_sum = 0.0  # running sum of (delta_k + Delta_k * step_k) / L_k

    gap = math.nan if oracle.known_delta is None else oracle.known_delta
    R_sq = None if config.R is None else config.R**2
    if oracle.gamma > 0:  # gamma * ||x_k - x*|| is at most gamma * diam(Q)
        gap = (gap + oracle.gamma * 2.0 * feasible.radius) if feasible.radius else math.nan
    stopped_early = False
    failure = None
    rec = Recorder(x0, config.store_iterates)
    for k in range(config.N):
        g = checked_gradient(anchor.gradient(), x, k)
        try:
            x, anchor, L, delta, Delta, step, trials, p = advance(k, x, anchor, f, g, triple)
        except NonTerminationError as err:
            failure = err
            break
        triple = (L, delta, Delta)
        f = anchor.value
        w = 1.0 / L
        S += w
        weighted_sum += w * x
        noise_sum += (delta + Delta * step) * w
        if f < best_f:
            best_f = f
            best_x = x
        cert = (R_sq + noise_sum) / S + gap if R_sq is not None else math.nan
        rec.add(x, f, L, delta, Delta, trials, step, cert, p)
        if config.epsilon is not None and cert <= config.epsilon:
            stopped_early = True
            break
    trace = rec.trace(
        ConvexTrace,
        x0=x0,
        f0=f0,
        S_N=S,
        x_hat=weighted_sum / S if rec.rows else x0,
        x_final=x,
        best_x=best_x,
        stopped_early=stopped_early,
    )
    if failure is not None:
        failure.partial_trace = trace
        raise failure
    return trace


def certificate_bound(
    trace: ConvexTrace,
    R: float,
    gamma: float = 0.0,
    x_star: Optional[Vector] = None,
    delta: float = 0.0,
) -> float:
    """Posterior accuracy bound for the averaged output.

    Computes R^2/S_N plus the accumulated per-iteration inexactness terms
    (delta_k + Delta_k * step_k + gamma * ||x_k - x*||) / L_k, averaged
    with the same 1/S_N weight, plus the one-sided value gap ``delta``.
    The gamma term needs the minimizer, so gamma > 0 without ``x_star``
    (or without stored iterates) is refused.
    """
    if not R >= 0:
        raise ValueError("R must be nonnegative")
    if not (gamma >= 0 and delta >= 0):
        raise ValueError("gamma and delta must be nonnegative")
    if trace.N_run == 0:
        raise ValueError("empty trace")
    if gamma > 0 and x_star is None:
        raise CertificateUnavailableError(
            "a gamma > 0 certificate needs the minimizer x_star"
        )
    terms = trace.delta_hist + trace.Delta_hist * trace.step_norms
    if gamma > 0:
        if trace.iterates is None:
            raise CertificateUnavailableError(
                "a gamma > 0 certificate needs stored iterates"
            )
        x_star = as_vector(x_star)
        dists = np.array(
            [float(np.linalg.norm(trace.iterates[k] - x_star)) for k in range(trace.N_run)]
        )
        terms = terms + gamma * dists
    total = (R * R) / trace.S_N + float((terms / trace.L_hist).sum()) / trace.S_N
    return total + delta


def inner_call_budget(
    N: int,
    L0: float,
    delta0: float,
    Delta0: float,
    L: float,
    delta: float,
    Delta: float,
) -> int:
    """Worst-case number of model subproblem solves over N iterations.

    Evaluates ceil(2N + max over the three log2(2c/c0) terms), clamping
    each term below at zero and skipping parameters that are zero on
    either side (they exert no doubling pressure).

    The bound assumes exact arithmetic.  Once f has fallen to rounding
    level the acceptance test compares rounding errors, spurious
    rejections can push L past 2L, and a run can exceed the budget by a
    call or two: 3 of 5000 random consistent least-squares runs of up to
    40 steps did, by 1-2 calls each.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    terms = []
    for num, den in ((L, L0), (delta, delta0), (Delta, Delta0)):
        if not (num >= 0 and den >= 0):
            raise ValueError("budget parameters must be nonnegative")
        if num > 0 and den > 0:
            terms.append(max(0.0, math.log2(2.0 * num / den)))
    extra = max(terms) if terms else 0.0
    return math.ceil(2 * N + extra)
