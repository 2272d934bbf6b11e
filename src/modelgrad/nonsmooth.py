"""Restarted model steps for nonsmooth objectives with a known kink budget.

For a convex objective whose subgradient jumps along any segment sum to at
most Delta/2, exact values and subgradients give a model with delta = 0 and
the fixed gradient inexactness Delta.  Each outer iteration first reaches a
plainly accepted step, then keeps doubling L at frozen Delta until either
the inexactness term is small,

    Delta * ||x+ - x|| <= epsilon / 2,

or the step satisfies the smooth-only acceptance inequality at the inflated
constant.  Both exits keep the averaged-output certificate valid, so the
accuracy bound decays like R^2 / S_N down to an epsilon/2 floor instead of
stalling when iterates approach kinks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Evaluation,
    ModelOracle,
    NonTerminationError,
    ProxSetup,
    Vector,
    checked_gradient,
    checked_value,
)
from .convex import ConvexConfig, ConvexTrace, _acceptance_rhs, _require_linear_model, _trial

__all__ = [
    "NonsmoothConfig",
    "RestartRecord",
    "STOP_DELTA_TERM",
    "STOP_SMOOTH",
    "p_bound",
    "complexity_estimate",
    "restart_inner",
    "nonsmooth_minimize",
]

STOP_DELTA_TERM = "delta-term-small"
STOP_SMOOTH = "smooth-inequality"


@dataclass(frozen=True, eq=False)
class NonsmoothConfig:
    """Parameters for the restarted nonsmooth run.

    ``epsilon`` is the target accuracy driving the per-iteration stopping
    rules (distinct from ``base.epsilon``, the optional certificate stop).
    ``L_class`` optionally supplies the smoothness constant of the smooth
    part; without it the doubling threshold anchors at each iteration's
    first accepted L, which keeps the certificate bookkeeping exact.
    """

    base: ConvexConfig
    epsilon: float
    Delta_known: float = 0.0
    L_class: Optional[float] = None
    p_cap: int = 64

    def __post_init__(self):
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if not (self.Delta_known >= 0 and np.isfinite(self.Delta_known)):
            raise ValueError("Delta_known must be nonnegative and finite")
        if self.L_class is not None and not self.L_class > 0:
            raise ValueError("L_class must be positive when given")
        if self.p_cap < 1:
            raise ValueError("p_cap must be at least 1")
        if self.base.delta0 != 0.0:
            raise ValueError("the restarted method assumes exact values (delta0 = 0)")


@dataclass(frozen=True)
class RestartRecord:
    """Audit entry for one outer iteration's restart procedure."""

    k: int
    p_used: int
    stop_reason: str
    final_L: float


def p_bound(Delta: float, epsilon: float, L: float) -> int:
    """Smallest p with 2^p > 1 + 16 Delta^2 / (epsilon L).

    Bounds the number of fixed-Delta doublings any outer iteration can
    need before one of the two stopping rules fires.
    """
    if not (epsilon > 0 and L > 0):
        raise ValueError("epsilon and L must be positive")
    if Delta < 0:
        raise ValueError("Delta must be nonnegative")
    threshold = 1.0 + 16.0 * Delta * Delta / (epsilon * L)
    p = 1
    while 2.0**p <= threshold:
        p += 1
    return p


def complexity_estimate(L: float, R: float, Delta: float, epsilon: float) -> int:
    """Subgradient evaluations guaranteeing an epsilon-accurate average.

    ceil((4 L R^2 / eps + 64 Delta^2 R^2 / eps^2) * max(1, log2(1 + 16
    Delta^2 / (eps L)))); the max keeps the count meaningful as Delta
    vanishes, where a single solve per iteration suffices.
    """
    if not (L > 0 and epsilon > 0):
        raise ValueError("L and epsilon must be positive")
    if R < 0 or Delta < 0:
        raise ValueError("R and Delta must be nonnegative")
    iters = 4.0 * L * R * R / epsilon + 64.0 * Delta * Delta * R * R / epsilon**2
    factor = max(1.0, math.log2(1.0 + 16.0 * Delta * Delta / (epsilon * L)))
    return math.ceil(iters * factor)


def _restart_step(
    oracle: ModelOracle,
    setup: ProxSetup,
    x_k: Vector,
    anchor: Evaluation,
    L_start: float,
    Delta_fixed: float,
    epsilon: float,
    p_cap: int,
    L_class: Optional[float],
    k: int,
    inner_cap: int,
):
    """One outer iteration: bootstrap acceptance, then fixed-Delta doubling.

    ``anchor`` is the oracle's evaluation at ``x_k``.  Returns (x_next, its
    evaluation, step, L_final, p_used, reason, trials).
    """
    f_k = checked_value(anchor.value, k)
    g = checked_gradient(anchor.gradient(), k)
    L = L_start
    trials = 0

    # Phase 1: plain acceptance at the frozen Delta; identical trial
    # sequence to the convex solver when Delta_fixed = 0.
    while True:
        trials += 1
        if trials > inner_cap:
            raise NonTerminationError(
                f"no acceptance after {inner_cap} trials at iteration {k}"
                f" (L reached {L})",
                k,
                None,
                inner_cap,
            )
        x_next, trial, psi, sq, step = _trial(oracle, setup, x_k, anchor, g, L, k)
        if trial.value <= _acceptance_rhs(f_k, psi, L, 0.5 * sq, step, Delta_fixed, 0.0):
            break
        L *= 2.0

    # Phase 2: keep Delta frozen, double L until one of the two exits.
    # With no supplied class constant the smooth threshold anchors at the
    # bootstrapped L, so a smooth exit certifies the step at the current L
    # with no inexactness contribution at all.
    L_ref = L_class if L_class is not None else L
    p = 0
    while True:
        if Delta_fixed * step <= 0.5 * epsilon:
            return x_next, trial, step, L, p, STOP_DELTA_TERM, trials
        if trial.value <= f_k + psi + (2.0**p) * L_ref * (0.5 * sq):
            return x_next, trial, step, L, p, STOP_SMOOTH, trials
        p += 1
        if p > p_cap:
            raise NonTerminationError(
                f"neither stopping rule fired within {p_cap} doublings"
                f" at iteration {k} (L reached {L})",
                k,
                None,
                p_cap,
            )
        L *= 2.0
        trials += 1
        x_next, trial, psi, sq, step = _trial(oracle, setup, x_k, anchor, g, L, k)


def restart_inner(
    oracle: ModelOracle,
    setup: ProxSetup,
    x_k: Vector,
    L_start: float,
    Delta_fixed: float,
    epsilon: float,
    p_cap: int = 64,
    L_class: Optional[float] = None,
    k: int = 0,
    inner_cap: int = 100,
):
    """Public wrapper around one restart; returns (x_next, RestartRecord)."""
    _require_linear_model(oracle)
    anchor = oracle.evaluate(x_k)
    x_next, _, _, L_final, p_used, reason, _ = _restart_step(
        oracle, setup, x_k, anchor, L_start, Delta_fixed, epsilon, p_cap, L_class, k, inner_cap
    )
    return x_next, RestartRecord(k=k, p_used=p_used, stop_reason=reason, final_L=L_final)


def nonsmooth_minimize(
    config: NonsmoothConfig, oracle: ModelOracle, setup: ProxSetup
):
    """Run the restarted method; returns (ConvexTrace, list of RestartRecord).

    Requires exact values and a tight lower model (gamma = 0).  Inexactness
    bookkeeping per iteration: a delta-term exit contributes
    Delta_known * step to the certificate numerator (at most epsilon/2), a
    smooth exit contributes nothing.
    """
    if not oracle.exact_values:
        raise ValueError("the restarted method requires exact objective values")
    if oracle.gamma != 0:
        raise ValueError("the restarted method requires a tight lower model")
    _require_linear_model(oracle)
    base = config.base
    if not setup.feasible.contains(base.x0):
        raise ValueError("x0 lies outside the feasible set")

    x = base.x0
    anchor = oracle.evaluate(x)
    f0 = anchor.value
    records = []
    S = 0.0
    weighted_sum = np.zeros_like(x)
    noise_sum = 0.0
    total_inner = 0
    best_f, best_x = f0, x
    f_values, L_hist, delta_hist, Delta_hist = [], [], [], []
    inner_hist, step_hist, cert_hist, elapsed_hist = [], [], [], []
    iterates = [x] if base.store_iterates else None

    L_carry = base.L0
    stopped_early = False
    t_start = time.perf_counter()
    for k in range(base.N):
        L_start = 0.5 * L_carry
        x_next, anchor, step, L_final, p_used, reason, trials = _restart_step(
            oracle,
            setup,
            x,
            anchor,
            L_start,
            config.Delta_known,
            config.epsilon,
            config.p_cap,
            config.L_class,
            k,
            base.max_inner_per_iter,
        )
        records.append(
            RestartRecord(k=k, p_used=p_used, stop_reason=reason, final_L=L_final)
        )
        f_next = anchor.value
        Delta_eff = config.Delta_known if reason == STOP_DELTA_TERM else 0.0
        w = 1.0 / L_final
        S += w
        weighted_sum += w * x_next
        noise_sum += Delta_eff * step * w
        total_inner += trials
        f_values.append(f_next)
        L_hist.append(L_final)
        delta_hist.append(0.0)
        Delta_hist.append(Delta_eff)
        inner_hist.append(trials)
        step_hist.append(step)
        if iterates is not None:
            iterates.append(x_next)
        if f_next < best_f:
            best_f, best_x = f_next, x_next
        x = x_next
        L_carry = L_final

        if base.R is not None:
            cert = (base.R**2 + noise_sum) / S
        else:
            cert = math.nan
        cert_hist.append(cert)
        elapsed_hist.append((time.perf_counter() - t_start) * 1e3)
        if base.R is not None and base.epsilon is not None and cert <= base.epsilon:
            stopped_early = True
            break

    trace = ConvexTrace(
        x0=base.x0,
        f0=f0,
        f_values=np.asarray(f_values),
        L_hist=np.asarray(L_hist),
        delta_hist=np.asarray(delta_hist),
        Delta_hist=np.asarray(Delta_hist),
        inner_hist=np.asarray(inner_hist, dtype=np.int64),
        step_norms=np.asarray(step_hist),
        cert_hist=np.asarray(cert_hist),
        elapsed_ms=np.asarray(elapsed_hist),
        S_N=S,
        x_hat=weighted_sum / S,
        x_final=x,
        total_inner_calls=total_inner,
        best_f=best_f,
        best_x=best_x,
        stopped_early=stopped_early,
        iterates=iterates,
    )
    return trace, records
