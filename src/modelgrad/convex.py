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
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    AdaptiveTriple,
    CertificateUnavailableError,
    Evaluation,
    ModelOracle,
    NonTerminationError,
    ProxSetup,
    UnsupportedCombinationError,
    Vector,
    as_vector,
    bregman_divergence,
    checked_gradient,
    checked_value,
)

__all__ = [
    "ConvexConfig",
    "ConvexState",
    "ConvexTrace",
    "model_step",
    "acceptance_test",
    "convex_iterate",
    "convex_minimize",
    "certificate_bound",
    "inner_call_budget",
]


@dataclass(frozen=True, eq=False)
class ConvexConfig:
    """Run parameters for the adaptive model-step method.

    ``R`` bounds the divergence from the start point to a minimizer,
    V(x*, x0) <= R^2.  When both ``R`` and ``epsilon`` are set and the
    oracle's lower model is tight (gamma = 0), the run stops as soon as
    the online certificate drops to ``epsilon``.
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
        object.__setattr__(self, "x0", as_vector(self.x0))
        if not (self.L0 > 0 and np.isfinite(self.L0)):
            raise ValueError("L0 must be positive and finite")
        if self.delta0 < 0 or self.Delta0 < 0:
            raise ValueError("delta0 and Delta0 must be nonnegative")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.max_inner_per_iter < 1:
            raise ValueError("max_inner_per_iter must be at least 1")
        if self.R is not None and not self.R >= 0:
            raise ValueError("R must be nonnegative")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass
class ConvexState:
    """Mutable per-run state advanced by ``convex_iterate``."""

    x: Vector
    f_x: float
    triple: AdaptiveTriple
    k: int = 0
    S: float = 0.0
    weighted_sum: Vector = None
    total_inner_calls: int = 0
    noise_sum: float = 0.0  # running sum of (delta_k + Delta_k * step_k) / L_k
    best_f: float = math.inf
    best_x: Vector = None
    f_values: list = field(default_factory=list)
    L_hist: list = field(default_factory=list)
    delta_hist: list = field(default_factory=list)
    Delta_hist: list = field(default_factory=list)
    inner_hist: list = field(default_factory=list)
    step_hist: list = field(default_factory=list)
    cert_hist: list = field(default_factory=list)
    elapsed_hist: list = field(default_factory=list)
    iterates: Optional[list] = None
    anchor: Optional[Evaluation] = None  # the oracle's evaluation at x


@dataclass
class ConvexTrace:
    """Immutable record of one run."""

    x0: Vector
    f0: float
    f_values: np.ndarray
    L_hist: np.ndarray
    delta_hist: np.ndarray
    Delta_hist: np.ndarray
    inner_hist: np.ndarray
    step_norms: np.ndarray
    cert_hist: np.ndarray
    elapsed_ms: np.ndarray
    S_N: float
    x_hat: Vector
    x_final: Vector
    total_inner_calls: int
    best_f: float
    best_x: Vector
    stopped_early: bool
    iterates: Optional[list] = None

    @property
    def N_run(self) -> int:
        return len(self.f_values)

    def f_best_running(self) -> np.ndarray:
        """Best objective value seen up to each iteration (including f0)."""
        return np.minimum.accumulate(np.minimum(self.f_values, self.f0))


def _acceptance_rhs(f_k, psi, L, half_sq, step, Delta, delta):
    # shared spelling keeps the plain and the restart solvers bitwise equal
    return f_k + psi + L * half_sq + Delta * step + delta


def _require_linear_model(oracle: ModelOracle) -> None:
    """Refuse an oracle whose class overrides ``model``: ``model_step`` only
    solves the linear-plus-composite subproblem, and the solvers compute psi
    as ``ModelOracle.model`` does."""
    if type(oracle).model is not ModelOracle.model:
        raise UnsupportedCombinationError(
            f"{type(oracle).__name__} overrides model(), but the model-step "
            "solvers only handle the linear-plus-composite model"
        )


def model_step(
    oracle: ModelOracle,
    setup: ProxSetup,
    x_k: Vector,
    L: float,
    g: Optional[Vector] = None,
) -> Vector:
    """Solve argmin_{y in Q} psi(y, x_k) + L * V(y, x_k).

    For the euclidean setup and a linear-plus-composite model this is the
    proximal point of the composite part at x_k - g/L with weight 1/L,
    projected onto the feasible set; with no composite part it reduces to
    a projected gradient step.  ``g`` is the anchor gradient; without it
    the oracle is asked for ``model_gradient_at(x_k)``.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    if setup.generator != ProxSetup.EUCLIDEAN:
        raise UnsupportedCombinationError(
            f"no subproblem solver for generator {setup.generator!r}"
        )
    if g is None:
        g = oracle.model_gradient_at(x_k)
    if len(g) != len(x_k):
        raise ValueError("oracle gradient dimension differs from the iterate")
    v = x_k - g / L
    if oracle.has_composite:
        v = oracle.composite_prox(v, 1.0 / L)
    return setup.feasible.project(v)


def _trial(oracle, setup, x_k, anchor, g, L, k):
    """Take the model step at ``L`` from the anchor ``x_k`` and evaluate it.

    Returns (x_next, its evaluation, psi(x_next, x_k), squared step length,
    step length).  psi uses the float operations of ``ModelOracle.model``
    on the anchor gradient ``g`` and the composite parts of the two
    evaluations.
    """
    x_next = model_step(oracle, setup, x_k, L, g)
    d = x_next - x_k
    sq = float(np.dot(d, d))
    trial = oracle.evaluate(x_next)
    checked_value(trial.value, k)
    psi = float(np.dot(g, d))
    if oracle.has_composite:
        psi += trial.h - anchor.h
    return x_next, trial, psi, sq, math.sqrt(sq)


def acceptance_test(
    oracle: ModelOracle,
    setup: ProxSetup,
    x_k: Vector,
    x_next: Vector,
    t: AdaptiveTriple,
) -> bool:
    """Evaluate the per-step acceptance inequality at the triple ``t``.

    Queries the oracle values fresh; the solvers use cached values
    internally so that one iteration consumes one value query per trial
    point.
    """
    f_k = oracle.value_inexact(x_k)
    f_next = oracle.value_inexact(x_next)
    psi = oracle.model(x_next, x_k)
    d = x_next - x_k
    sq = float(np.dot(d, d))
    step = math.sqrt(sq)
    return f_next <= _acceptance_rhs(f_k, psi, t.L, 0.5 * sq, step, t.Delta, t.delta)


def convex_iterate(
    state: ConvexState,
    oracle: ModelOracle,
    setup: ProxSetup,
    cap: int,
) -> ConvexState:
    """Advance the run by one accepted step.

    Halves the triple once, then alternates subproblem solves with
    acceptance tests, doubling the triple after each rejection.  The
    anchor's gradient comes from ``state.anchor`` (the accepted trial's
    evaluation), which is queried at ``state.x`` when missing.  Raises
    ``NonTerminationError`` when ``cap`` trials pass without acceptance and
    ``NonFiniteOracleError`` at the first NaN or infinite value or gradient.
    """
    _require_linear_model(oracle)
    t = state.triple.halved()
    x_k = state.x
    f_k = checked_value(state.f_x, state.k)
    anchor = state.anchor if state.anchor is not None else oracle.evaluate(x_k)
    g = checked_gradient(anchor.gradient(), state.k)
    inner = 0
    while True:
        inner += 1
        if inner > cap:
            raise NonTerminationError(
                f"no acceptance after {cap} trials at iteration {state.k}"
                f" (last triple {t})",
                state.k,
                t,
                cap,
            )
        x_next, trial, psi, sq, step = _trial(oracle, setup, x_k, anchor, g, t.L, state.k)
        f_next = trial.value
        if f_next <= _acceptance_rhs(f_k, psi, t.L, 0.5 * sq, step, t.Delta, t.delta):
            break
        t = t.doubled()

    w = 1.0 / t.L
    state.S += w
    state.weighted_sum += w * x_next
    state.noise_sum += (t.delta + t.Delta * step) * w
    state.total_inner_calls += inner
    state.k += 1
    state.f_values.append(f_next)
    state.L_hist.append(t.L)
    state.delta_hist.append(t.delta)
    state.Delta_hist.append(t.Delta)
    state.inner_hist.append(inner)
    state.step_hist.append(step)
    if state.iterates is not None:
        state.iterates.append(x_next)
    if f_next < state.best_f:
        state.best_f = f_next
        state.best_x = x_next
    state.x = x_next
    state.f_x = f_next
    state.anchor = trial
    state.triple = t
    return state


def _init_state(config: ConvexConfig, oracle: ModelOracle) -> ConvexState:
    x0 = config.x0
    anchor = oracle.evaluate(x0)
    f0 = anchor.value
    state = ConvexState(
        x=x0,
        f_x=f0,
        triple=AdaptiveTriple(config.L0, config.delta0, config.Delta0),
        anchor=anchor,
        weighted_sum=np.zeros_like(x0),
        best_f=f0,
        best_x=x0,
        iterates=[x0] if config.store_iterates else None,
    )
    return state


def _finalize(state: ConvexState, f0: float, x0: Vector, stopped_early: bool) -> ConvexTrace:
    return ConvexTrace(
        x0=x0,
        f0=f0,
        f_values=np.asarray(state.f_values),
        L_hist=np.asarray(state.L_hist),
        delta_hist=np.asarray(state.delta_hist),
        Delta_hist=np.asarray(state.Delta_hist),
        inner_hist=np.asarray(state.inner_hist, dtype=np.int64),
        step_norms=np.asarray(state.step_hist),
        cert_hist=np.asarray(state.cert_hist),
        elapsed_ms=np.asarray(state.elapsed_hist),
        S_N=state.S,
        x_hat=state.weighted_sum / state.S,
        x_final=state.x,
        total_inner_calls=state.total_inner_calls,
        best_f=state.best_f,
        best_x=state.best_x,
        stopped_early=stopped_early,
        iterates=state.iterates,
    )


def convex_minimize(
    config: ConvexConfig, oracle: ModelOracle, setup: ProxSetup
) -> ConvexTrace:
    """Run the adaptive method for N iterations (or to the certificate stop).

    The early stop fires only when the online certificate is sound: R and
    epsilon configured, gamma = 0, and the value inexactness known (zero
    for exact oracles).
    """
    _require_linear_model(oracle)
    if not setup.feasible.contains(config.x0):
        raise ValueError("x0 lies outside the feasible set")
    state = _init_state(config, oracle)
    f0 = state.f_x
    x0 = state.x

    report_delta = 0.0 if oracle.exact_values else oracle.known_delta
    early = (
        config.R is not None
        and config.epsilon is not None
        and oracle.gamma == 0
        and report_delta is not None
    )
    stopped_early = False
    t_start = time.perf_counter()
    for _ in range(config.N):
        convex_iterate(state, oracle, setup, config.max_inner_per_iter)
        if config.R is not None:
            cert = (config.R**2 + state.noise_sum) / state.S + (report_delta or 0.0)
        else:
            cert = math.nan
        state.cert_hist.append(cert)
        state.elapsed_hist.append((time.perf_counter() - t_start) * 1e3)
        if early and cert <= config.epsilon:
            stopped_early = True
            break
    return _finalize(state, f0, x0, stopped_early)


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
    if gamma < 0 or delta < 0:
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
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    terms = []
    for num, den in ((L, L0), (delta, delta0), (Delta, Delta0)):
        if num < 0 or den < 0:
            raise ValueError("budget parameters must be nonnegative")
        if num > 0 and den > 0:
            terms.append(max(0.0, math.log2(2.0 * num / den)))
    extra = max(terms) if terms else 0.0
    return math.ceil(2 * N + extra)
