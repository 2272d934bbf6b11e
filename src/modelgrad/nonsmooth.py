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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FeasibleSet, ModelOracle, NonTerminationError, _trial, backtrack
from .convex import ConvexConfig, _acceptance_attempt, _run, model_step

__all__ = [
    "NonsmoothConfig",
    "RestartRecord",
    "STOP_DELTA_TERM",
    "STOP_SMOOTH",
    "p_bound",
    "complexity_estimate",
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


def nonsmooth_minimize(
    config: NonsmoothConfig, oracle: ModelOracle, feasible: FeasibleSet
):
    """Run the restarted method; returns (ConvexTrace, list of RestartRecord).

    Each outer iteration bootstraps a plainly accepted step, then doubles L
    at frozen Delta until one of the two exits fires.  Requires exact
    values and a tight lower model (gamma = 0).  Inexactness
    bookkeeping per iteration: a delta-term exit contributes
    Delta_known * step to the certificate numerator (at most epsilon/2), a
    smooth exit contributes nothing.
    """
    if not oracle.exact_values:
        raise ValueError("the restarted method requires exact objective values")
    if oracle.gamma != 0:
        raise ValueError("the restarted method requires a tight lower model")
    records = []
    Delta_fixed = config.Delta_known

    def restart(k, x, anchor, f, g, triple):
        # Phase 1: plain acceptance at the frozen Delta; identical trial
        # sequence to the convex solver when Delta_fixed = 0.
        (x_next, trial, psi, sq, step), L, _, _, trials = backtrack(
            _acceptance_attempt(oracle, feasible, x, anchor, g, f, k),
            0.5 * triple[0],
            0.0,
            Delta_fixed,
            Delta_fixed,
            config.base.max_inner_per_iter,
            k,
        )

        # Phase 2: keep Delta frozen, double L until one of the two exits.
        # With no supplied class constant the smooth threshold anchors at the
        # bootstrapped L, so a smooth exit certifies the step at the current L
        # with no inexactness contribution at all.
        # A RestartRecord takes its fields positionally: keywords would
        # double its cost.
        L_ref = L if config.L_class is None else config.L_class
        p = 0
        while True:
            if Delta_fixed * step <= 0.5 * config.epsilon:
                records.append(RestartRecord(k, p, STOP_DELTA_TERM, L))
                return x_next, trial, L, 0.0, Delta_fixed, step, trials
            if trial.value <= f + psi + (2.0**p) * L_ref * (0.5 * sq):
                records.append(RestartRecord(k, p, STOP_SMOOTH, L))
                return x_next, trial, L, 0.0, 0.0, step, trials
            p += 1
            if p > config.p_cap:
                raise NonTerminationError(
                    f"neither stopping rule fired within {config.p_cap} doublings"
                    f" at iteration {k} (L reached {L})",
                    k,
                    None,
                    config.p_cap,
                )
            L *= 2.0
            trials += 1
            x_next = model_step(oracle, feasible, x, L, g)
            trial, psi, sq, step = _trial(oracle, x, anchor, g, x_next, k)

    return _run(config.base, oracle, feasible, restart), records
