"""Distance kernels: objective and subgradient sweeps over point sets.

Every kernel takes a C-contiguous (m, n) float64 ``centers`` matrix, a 1-D
float64 ``x`` and, optionally, the row norms ``sqnorms`` = ||a_k||^2 from
``row_sqnorms``; the problems compute those once, and a call without them
computes them on the spot.  Squared distances come from the expanded square

    ||x - a_k||^2 = ||a_k||^2 - 2 <a_k, x> + ||x||^2,

so a call costs one BLAS matvec instead of an (m, n) temporary.

The expansion's rounding error is a few ulp of ||a_k||^2 + ||x||^2 (about
20 ulp at n = 1e5), not of the distance.  A row is therefore recomputed from
its differences when

* d^2 <= NEAR_GUARD * (||a_k||^2 + ||x||^2): the point is so close to the
  center that the relative error of d^2, about 2e-13 per ulp of rounding,
  could grow past 1e-12;
* for the ball sums, |d^2 - r^2| <= KINK_GUARD * (||a_k||^2 + ||x||^2):
  rounding could move the row across its kink and flip it in or out of the
  active set, which changes the subgradient.  This margin only has to cover
  the rounding error; a wider one would recompute the rows the iterates
  settle next to, since the minimizer of a ball sum sits on kinks.

The per-row work runs on Python floats: at the m = 10 rows of the paper's
protocols one numpy call costs more than the whole loop.

Each kernel is the sweep ``sq_dists`` followed by a per-row reduction.  The
reductions are public too, so a caller that needs both the value and the
subgradient at one point (``BallSumProblem.evaluate``) sweeps once.
"""

import math

import numpy as np

NEAR_GUARD = 1e-3
KINK_GUARD = 1e-9


def row_sqnorms(centers):
    """Squared euclidean norm of every row of ``centers``."""
    return np.einsum("ij,ij->i", centers, centers)


def sq_dists(centers, x, sqnorms, kink_sq):
    """Squared distances from ``x`` to the rows, as a list of floats, and
    the indices of the rows recomputed from their differences.

    Those are the rows within the guard margins of zero or of ``kink_sq``;
    pass ``math.inf`` when the objective has no kink.
    """
    if sqnorms is None:
        sqnorms = row_sqnorms(centers)
    xx = float(x.dot(x))
    sq = []
    redo = []
    rows = zip(sqnorms.tolist(), (centers @ x).tolist(), strict=True)
    for k, (a2, ax) in enumerate(rows):
        scale = a2 + xx
        d2 = scale - 2.0 * ax
        if d2 <= NEAR_GUARD * scale or abs(d2 - kink_sq) <= KINK_GUARD * scale:
            redo.append(k)
        sq.append(d2)
    if redo:
        exact = ((centers[redo] - x) ** 2).sum(axis=1)
        for k, d2 in zip(redo, exact.tolist()):
            sq[k] = d2
    return sq, redo


def ballsum_value_from(sq, radius):
    """sum_k max(sqrt(sq_k) - radius, 0) over the squared distances ``sq``."""
    total = 0.0
    for d2 in sq:
        d = math.sqrt(d2)
        if d > radius:
            total += d - radius
    return total


def ballsum_subgrad_from(centers, x, radius, sq, redo):
    """sum over rows outside their ball of (x - a_k) / ||x - a_k||, from the
    squared distances ``sq`` and recomputed rows ``redo`` of ``sq_dists``.

    Evaluated as sum(w) * x - w @ centers with w_k = 1 / d_k on those rows,
    except on the recomputed rows: next to a center the two products are
    far larger than their difference, so those rows use x - a_k directly.
    """
    w = [1.0 / d if d > radius else 0.0 for d in map(math.sqrt, sq)]
    exact = [k for k in redo if w[k]]
    w_exact = [w[k] for k in exact]
    for k in exact:
        w[k] = 0.0
    total = sum(w)
    g = total * x - np.array(w) @ centers if total else np.zeros_like(x)
    if exact:
        g += (np.array(w_exact)[:, None] * (x - centers[exact])).sum(axis=0)
    return g


def ballsum_value(centers, x, radius, sqnorms=None):
    """sum_k max(||x - a_k|| - radius, 0)."""
    return ballsum_value_from(sq_dists(centers, x, sqnorms, radius * radius)[0], radius)


def ballsum_subgrad(centers, x, radius, sqnorms=None):
    """sum over rows outside their ball of (x - a_k) / ||x - a_k||."""
    sq, redo = sq_dists(centers, x, sqnorms, radius * radius)
    return ballsum_subgrad_from(centers, x, radius, sq, redo)


def minmax_value(centers, x, sqnorms=None):
    """(max_k ||x - a_k||, k), the lowest k attaining the computed maximum."""
    sq = sq_dists(centers, x, sqnorms, math.inf)[0]
    best = max(sq)
    return math.sqrt(best), sq.index(best)
