"""Timing of the distance kernels and of the solvers' trial-path layers.

Times the ball-sum value and subgradient as ``BallSumProblem`` computes
them (one sweep, whose squared distances the subgradient reuses) and the
min-max kernel, with the row norms precomputed as the problems pass them,
next to the direct formula each replaced, which forms the (m, n)
difference matrix, at the sizes of the paper's protocols and beyond.

Then times the layers one solver trial runs through, on task1's geometry:
the distance sweep each evaluation makes (task1's ball sum, task2's
min-max), also at a point 1e-8 from a center and, for the ball sum, at one
on a kink, where a row is recomputed from its differences; the model step
with its projection onto the unit ball at the origin (a step that stays
inside and one that is projected), the check and evaluation ``core._trial``
makes of each of those two steps' points (the solvers' one trial function,
without the model step), the inside test of that projection alone and of
one on a ball off the origin, one evaluation through the oracle the solvers
query and one through the public ``problem.evaluate``, which checks its
point, and the row an accepted step books through ``Recorder.add``.  Run the
script with another checkout's ``src`` on PYTHONPATH to compare these
layers across versions.

Last, the composite workload's two matrix-vector products, ``A.dot(x)``
and ``A.T.dot(r)``, at its 100x1000 ``A``, with the data of ``A`` 16
bytes past a 64-byte boundary (where numpy's allocator puts an array that
large) and on the boundary (where the problems store their matrices).

Reports the best per-call microseconds of each, and each kernel's
speed-up over its direct formula.  BLAS and OpenMP run on one thread, as
in the repository's benchmark.

Usage: python3 benchmarks/bench_kernels.py [--sizes 1000x10,100000x10] [--repeats 50]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

# last on the path, so a PYTHONPATH pointing at another checkout still wins
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from modelgrad import convex, core, kernels
from modelgrad.core import FeasibleSet
from modelgrad.problems import BallSumProblem, MinMaxBallProblem

SIZES = "1000x10,10000x10,100000x10,1000x1000"


def direct_ballsum_value(centers, x, radius):
    dists = np.sqrt(((centers - x) ** 2).sum(axis=1))
    return float(np.maximum(dists - radius, 0.0).sum())


def direct_ballsum_subgrad(centers, x, radius):
    diff = x[None, :] - centers
    dists = np.sqrt((diff**2).sum(axis=1))
    active = dists > radius
    return (diff[active] / dists[active, None]).sum(axis=0)


def direct_minmax_value(centers, x):
    dists = np.sqrt(((centers - x) ** 2).sum(axis=1))
    j = int(np.argmax(dists))
    return float(dists[j]), j


def sweep_ballsum_value(centers, x, radius, sqnorms):
    return kernels.ballsum_sweep(centers, x, radius, sqnorms)[0]


def sweep_ballsum_subgrad(centers, x, radius, sqnorms):
    _, sq, redo = kernels.ballsum_sweep(centers, x, radius, sqnorms)
    return kernels.ballsum_subgrad_from(centers, x, radius, sq, redo)


def _guard_point(centers, x, sqnorms, kink_sq, where):
    """``x``, after checking that a sweep there recomputes a row."""
    if not kernels.sq_dists(centers, x, sqnorms, kink_sq)[1]:
        raise AssertionError(f"no row is recomputed at the point {where}")
    return x


def trial_path_cases(centers, x, rng):
    """(layer, call) pairs at one size, on task1's geometry."""
    prob = BallSumProblem(centers)
    oracle, feasible = prob.oracle(), prob.feasible
    sqnorms = prob.sqnorms
    minmax = MinMaxBallProblem(centers)
    off_origin = FeasibleSet.ball(np.full(len(x), 1e-3), 1.0)
    n = centers.shape[1]
    g = prob.subgradient(x)
    g_out = rng.standard_normal(n)  # a step of length 2 leaves the unit ball
    g_out *= 2.0 / np.linalg.norm(g_out)
    L_in = 4.0 * np.linalg.norm(g)  # a step of length 1/4 stays inside
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    near = _guard_point(centers, centers[0] + 1e-8 * u, sqnorms, math.inf, "near a center")
    kink = _guard_point(centers, centers[0] + u, sqnorms, 1.0, "on a kink")
    anchor = oracle.evaluate(x)
    y_in = convex.model_step(oracle, feasible, x, L_in, g)
    y_out = convex.model_step(oracle, feasible, x, 1.0, g_out)
    rec = core.Recorder(x, False)
    return (
        ("ballsum sweep", lambda: kernels.ballsum_sweep(centers, x, 1.0, sqnorms)),
        ("minmax sweep", lambda: kernels.minmax_value(centers, x, minmax.sqnorms)),
        ("ballsum sweep, near", lambda: kernels.ballsum_sweep(centers, near, 1.0, sqnorms)),
        ("minmax sweep, near", lambda: kernels.minmax_value(centers, near, minmax.sqnorms)),
        ("ballsum sweep, kink", lambda: kernels.ballsum_sweep(centers, kink, 1.0, sqnorms)),
        ("model_step inside", lambda: convex.model_step(oracle, feasible, x, L_in, g)),
        ("model_step projected", lambda: convex.model_step(oracle, feasible, x, 1.0, g_out)),
        ("core._trial inside", lambda: core._trial(oracle, x, anchor, g, y_in, 0)),
        ("core._trial projected", lambda: core._trial(oracle, x, anchor, g_out, y_out, 0)),
        ("project inside", lambda: feasible.project(x)),
        ("project inside, off 0", lambda: off_origin.project(x)),
        ("oracle.evaluate", lambda: oracle.evaluate(x)),
        ("problem.evaluate", lambda: prob.evaluate(x)),
        ("Recorder.add", lambda: rec.add(x, 0.0, 1.0, 0.0, 0.0, 2, 0.1, math.nan, 0)),
    )


def _at_offset(a, offset):
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte
    boundary."""
    buf = np.empty(a.nbytes + 128, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    out = buf[start : start + a.nbytes].view(np.float64).reshape(a.shape)
    out[...] = a
    return out


def matvec_cases(rng, m, n):
    """(row, call, args) for the composite workload's matvecs."""
    A = rng.standard_normal((m, n))
    x, r = rng.standard_normal(n), rng.standard_normal(m)
    for offset in (16, 0):
        a = _at_offset(A, offset)
        yield f"A.dot(x), off {offset}", a.dot, (x,)
        yield f"A.T.dot(r), off {offset}", a.T.dot, (r,)


def _best_us(fn, args, repeats):
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default=SIZES,
                        help="comma list of NxM: dimension n by number of centers m")
    parser.add_argument("--repeats", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sizes = [tuple(int(v) for v in s.split("x")) for s in args.sizes.split(",") if s.strip()]
    rng = np.random.default_rng(args.seed)
    header = f"{'kernel':<18}{'n':>8}{'m':>6}{'direct us':>12}{'kernel us':>12}{'speed-up':>10}"
    print(header)
    print("-" * len(header))

    cases_by_size = []
    for n, m in sizes:
        # task1's geometry: centers 1 to 1.5 from the origin, x inside the unit ball
        centers = rng.standard_normal((m, n))
        centers *= rng.uniform(1.0, 1.5, m)[:, None] / np.linalg.norm(centers, axis=1)[:, None]
        x = rng.standard_normal(n)
        x *= 0.5 / np.linalg.norm(x)
        cases_by_size.append((n, m, centers, x))
        sqnorms = kernels.row_sqnorms(centers)
        cases = (
            ("ballsum_value", direct_ballsum_value, sweep_ballsum_value, (centers, x, 1.0)),
            ("ballsum_subgrad", direct_ballsum_subgrad, sweep_ballsum_subgrad, (centers, x, 1.0)),
            ("minmax_value", direct_minmax_value, kernels.minmax_value, (centers, x)),
        )
        for name, direct, kernel, call_args in cases:
            t_direct = _best_us(direct, call_args, args.repeats)
            t_kernel = _best_us(kernel, call_args + (sqnorms,), args.repeats)
            print(f"{name:<18}{n:>8}{m:>6}{t_direct:>12.1f}{t_kernel:>12.1f}"
                  f"{t_direct / t_kernel:>9.1f}x")

    header = f"{'trial-path layer':<22}{'n':>8}{'m':>6}{'us':>10}"
    print()
    print(header)
    print("-" * len(header))
    for n, m, centers, x in cases_by_size:
        for name, call in trial_path_cases(centers, x, rng):
            print(f"{name:<22}{n:>8}{m:>6}{_best_us(call, (), args.repeats):>10.1f}")

    header = f"{'composite matvec':<22}{'n':>8}{'m':>6}{'us':>10}"
    print()
    print(header)
    print("-" * len(header))
    m, n = 100, 1000  # the composite workload's A
    for name, call, call_args in matvec_cases(rng, m, n):
        print(f"{name:<22}{n:>8}{m:>6}{_best_us(call, call_args, args.repeats):>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
