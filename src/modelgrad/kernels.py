"""Distance kernels: objective and subgradient sweeps over point sets.

Every kernel takes a C-contiguous (m, n) float64 ``centers`` matrix, a 1-D
float64 ``x`` and, optionally, the row norms ``sqnorms`` = ||a_k||^2 from
``row_sqnorms``; the problems compute those once, and a call without them
computes them on the spot.  Squared distances come from the expanded square

    ||x - a_k||^2 = ||a_k||^2 - 2 <a_k, x> + ||x||^2,

so a call costs one BLAS matvec instead of an (m, n) temporary.  The
matvecs are spelled ``a.dot(b)``: the same BLAS call as ``a @ b``, with
about a microsecond less dispatch at the protocols' sizes.

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

The value kernels reduce in the sweep's row loop and recompute a guard row
there, before its distance reaches ``math.sqrt`` (next to a center the
expanded d^2 can be negative).  ``ballsum_sweep`` also returns the squared
distances and recomputed rows, so ``BallSumProblem`` sweeps each point once
and hands them to ``ballsum_subgrad_from``.  ``sq_dists``, which recomputes
after its loop, and the per-row reductions are the two-pass reference: the
sweeps give their floats, rows, tie rule and NaN results.
"""

import math

import numpy as np

NEAR_GUARD = 1e-3
KINK_GUARD = 1e-9


def row_sqnorms(centers):
    """Squared euclidean norm of every row of ``centers``."""
    return np.einsum("ij,ij->i", centers, centers)


def _products(centers, x, sqnorms):
    """||x||^2 and the lists of ||a_k||^2 and <a_k, x>: a sweep's numpy work.

    Checks the lengths once, so the row loops can zip the two lists without
    ``strict=True``, whose keyword costs about as much as three rows.
    """
    if sqnorms is None:
        sqnorms = row_sqnorms(centers)
    elif len(sqnorms) != len(centers):
        raise ValueError("sqnorms must have one entry per row of centers")
    return float(x.dot(x)), sqnorms.tolist(), centers.dot(x).tolist()


def sq_dists(centers, x, sqnorms, kink_sq):
    """Squared distances from ``x`` to the rows, as a list of floats, and
    the indices of the rows recomputed from their differences.

    Those are the rows within the guard margins of zero or of ``kink_sq``;
    pass ``math.inf`` when the objective has no kink.
    """
    xx, a2s, axs = _products(centers, x, sqnorms)
    sq = []
    redo = []
    for k, (a2, ax) in enumerate(zip(a2s, axs)):
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
    """sum_k max(sqrt(sq_k) - radius, 0) over the squared distances ``sq``.

    A NaN distance (from a point with a NaN or infinite entry) makes the
    sum NaN rather than counting as inside its ball.
    """
    total = 0.0
    for d2 in sq:
        d = math.sqrt(d2)
        if not d <= radius:
            total += d - radius
    return total


def ballsum_subgrad_from(centers, x, radius, sq, redo):
    """sum over rows outside their ball of (x - a_k) / ||x - a_k||, from the
    squared distances ``sq`` and recomputed rows ``redo`` of ``sq_dists``.

    Evaluated as sum(w) * x - w @ centers with w_k = 1 / d_k on those rows,
    except on the recomputed rows: next to a center the two products are
    far larger than their difference, so those rows use x - a_k directly.
    A NaN distance gives a NaN weight, so it reaches the subgradient.
    """
    w = [0.0 if d <= radius else 1.0 / d for d in map(math.sqrt, sq)]
    exact = [k for k in redo if w[k]]
    w_exact = [w[k] for k in exact]
    for k in exact:
        w[k] = 0.0
    total = sum(w)
    if total:
        g = total * x
        g -= np.array(w).dot(centers)
    else:
        g = np.zeros_like(x)
    if exact:
        g += (np.array(w_exact)[:, None] * (x - centers[exact])).sum(axis=0)
    return g


def ballsum_sweep(centers, x, radius, sqnorms=None):
    """(sum_k max(||x - a_k|| - radius, 0), sq, redo) at ``x``: the value
    with the squared distances and recomputed rows of ``sq_dists``, which
    ``ballsum_subgrad_from`` takes.

    The value is summed in the sweep's row loop, in the row order of
    ``ballsum_value_from``, so it is the same float; a NaN distance is not
    a guard row and makes the sum NaN.
    """
    xx, a2s, axs = _products(centers, x, sqnorms)
    kink_sq = radius * radius
    total = 0.0
    sq = []
    redo = []
    for a2, ax in zip(a2s, axs):
        scale = a2 + xx
        d2 = scale - 2.0 * ax
        if d2 <= NEAR_GUARD * scale or abs(d2 - kink_sq) <= KINK_GUARD * scale:
            k = len(sq)
            redo.append(k)
            d2 = float(((centers[k] - x) ** 2).sum())
        sq.append(d2)
        d = math.sqrt(d2)
        if not d <= radius:
            total += d - radius
    return total, sq, redo


def minmax_value(centers, x, sqnorms=None):
    """(max_k ||x - a_k||, k), the lowest k attaining the computed maximum.

    The maximum and its first index are kept in the sweep's row loop by the
    rule of ``max`` and ``list.index`` over ``sq_dists``: the first row
    starts the maximum, so a NaN distance there is the result and a later
    one is skipped.  Only the near guard applies: at ``kink_sq = inf`` the
    kink margin of ``sq_dists`` marks no other row.
    """
    xx, a2s, axs = _products(centers, x, sqnorms)
    if not axs:
        raise ValueError("centers has no rows")
    for k, (a2, ax) in enumerate(zip(a2s, axs)):
        scale = a2 + xx
        d2 = scale - 2.0 * ax
        if d2 <= NEAR_GUARD * scale:
            d2 = float(((centers[k] - x) ** 2).sum())
        if k == 0 or d2 > best:
            best = d2
            j = k
    return math.sqrt(best), j
