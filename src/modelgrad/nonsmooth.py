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
stalling when iterates approach kinks.  The two phases are one attempt of
``core.backtrack``: one trial cap, ``max_inner_per_iter``, covers both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FeasibleSet, ModelOracle, NonTerminationError, _acceptance_rhs, _trial, backtrack
from .convex import ConvexConfig, _run, model_step

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
    ``base.max_inner_per_iter`` caps the trials of both phases of a restart
    together.  ``L_class`` optionally supplies the smoothness constant of
    the smooth part: phase 2 then doubles from max(L1, L_class) instead of
    from L1, the L at which phase 1 accepted, which bounds its doublings
    by ``p_bound(Delta_known, epsilon, L_class)``.  Either way both exits
    are tested at the L the step is recorded at.  ``base.delta0`` and
    ``base.Delta0`` must be 0: the method assumes exact values and takes
    its fixed Delta from ``Delta_known``.
    """

    base: ConvexConfig
    epsilon: float
    Delta_known: float = 0.0
    L_class: Optional[float] = None

    def __post_init__(self):
        if not (self.epsilon > 0 and np.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if not (self.Delta_known >= 0 and np.isfinite(self.Delta_known)):
            raise ValueError("Delta_known must be nonnegative and finite")
        if self.L_class is not None and not 0 < self.L_class < math.inf:
            raise ValueError("L_class must be positive and finite when given")
        if self.base.delta0 != 0.0:
            raise ValueError("the restarted method assumes exact values (delta0 = 0)")
        if self.base.Delta0 != 0.0:
            raise ValueError("the restarted method reads Delta_known, not base.Delta0; leave it 0")


@dataclass(frozen=True)
class RestartRecord:
    """Audit entry for one restart, read off the k-th row of the trace."""

    k: int
    p_used: int
    stop_reason: str
    final_L: float


def p_bound(Delta: float, epsilon: float, L: float) -> int:
    """Smallest p with 2^p > 1 + 16 Delta^2 / (epsilon L).

    Bounds the fixed-Delta doublings of any restart that doubles from at
    least L, for an objective with f(x+) <= f + <g, d> + L/2 ||d||^2 +
    Delta ||d|| at every step d = x+ - x.  If the smooth exit fails at
    L' > L, then (L' - L)/2 ||d||^2 < Delta ||d||, so Delta ||d|| < 2
    Delta^2 / (L' - L), and the delta-term exit fires once (2^p - 1) L >=
    4 Delta^2 / epsilon: the 16 leaves a factor of 4 to spare.
    """
    if not (epsilon > 0 and L > 0):
        raise ValueError("epsilon and L must be positive")
    if not Delta >= 0:
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
    if not (R >= 0 and Delta >= 0):
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
    smooth exit contributes nothing.  A restart that uses up
    ``max_inner_per_iter`` trials, or whose doubling overflows L to inf,
    gets ``backtrack``'s ``NonTerminationError`` with the next (L, 0,
    Delta_known), whichever phase ran out: the error does not say whether
    phase 1 ever passed.  A phase 2 that ``L_class`` lifted can run ahead
    of ``backtrack``'s L and reach inf first; it raises the error then.
    """
    if oracle.known_delta != 0:
        raise ValueError("the restarted method requires exact objective values")
    if oracle.gamma != 0:
        raise ValueError("the restarted method requires a tight lower model")
    Delta_fixed = config.Delta_known
    L_min = config.L_class or 0.0
    cap = config.base.max_inner_per_iter

    def restart(k, x, anchor, f, g, triple):
        # One attempt runs both phases; ``backtrack`` counts its calls and
        # doubles L between them.  Phase 1 (L2 is None) tests the plain
        # acceptance inequality at the frozen Delta, the same trial sequence
        # as algo1's when Delta_fixed = 0.  Its first pass, at L1, starts
        # phase 2 at L2 = max(L1, L_class): on that same trial when L1 is
        # the larger, else with a new trial at L_class.  Each phase-2
        # rejection adds 1 to p and doubles L2.  Both exits are tested at
        # L2, the L the step is recorded at; p keeps the accepting value.
        p = L2 = None

        def attempt(L, delta, Delta):
            nonlocal p, L2
            if L2 is not None:
                L = L2
            x_next = model_step(oracle, feasible, x, L, g)
            trial, psi, sq, step = _trial(oracle, x, anchor, g, x_next, k)
            if L2 is None:
                if not trial.value <= _acceptance_rhs(f, psi, L, 0.5 * sq, step, Delta, delta):
                    return None
                p, L2 = 0, max(L, L_min)
                if L2 != L:
                    return None
            if Delta_fixed * step <= 0.5 * config.epsilon:
                return x_next, trial, Delta_fixed, step, L
            if trial.value <= _acceptance_rhs(f, psi, L, 0.5 * sq, step, 0.0, 0.0):
                return x_next, trial, 0.0, step, L
            p += 1
            L2 *= 2.0
            return None

        (x_next, trial, Delta, step, L), _, _, _, trials = backtrack(
            attempt, triple, Delta_fixed, Delta_fixed, cap, k
        )
        if L == math.inf:  # the step, x itself, has weight 1/L = 0: S could stay 0
            msg = f"restart phase 2 doubled L to inf at iteration {k}"
            raise NonTerminationError(msg, k, (L, 0.0, Delta_fixed), trials)
        return x_next, trial, L, 0.0, Delta, step, trials, p

    trace = _run(config.base, oracle, feasible, restart)
    # Delta_fixed marks the delta-term exit, tested first and always passed at Delta_fixed = 0
    cols = trace.p_hist.tolist(), trace.Delta_hist.tolist(), trace.L_hist.tolist()
    return trace, [RestartRecord(k, p, STOP_DELTA_TERM if D == Delta_fixed else STOP_SMOOTH, L)
                   for k, (p, D, L) in enumerate(zip(*cols))]
