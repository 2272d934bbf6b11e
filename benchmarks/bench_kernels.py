"""Timing of the distance kernels against the subtract-square-sum formula.

Times each kernel (with the row norms precomputed, as the problems call
it) next to the direct formula it replaced, which forms the (m, n)
difference matrix, at the sizes of the paper's protocols and beyond.
Reports the best per-call microseconds of each and the speed-up.  BLAS
and OpenMP run on one thread, as in the repository's benchmark.

Usage: python3 benchmarks/bench_kernels.py [--sizes 1000x10,100000x10] [--repeats 50]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import time

import numpy as np

from modelgrad import kernels

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

    for n, m in sizes:
        # task1's geometry: centers 1 to 1.5 from the origin, x inside the unit ball
        centers = rng.standard_normal((m, n))
        centers *= rng.uniform(1.0, 1.5, m)[:, None] / np.linalg.norm(centers, axis=1)[:, None]
        x = rng.standard_normal(n)
        x *= 0.5 / np.linalg.norm(x)
        sqnorms = kernels.row_sqnorms(centers)
        cases = (
            ("ballsum_value", direct_ballsum_value, (centers, x, 1.0)),
            ("ballsum_subgrad", direct_ballsum_subgrad, (centers, x, 1.0)),
            ("minmax_value", direct_minmax_value, (centers, x)),
        )
        for name, direct, call_args in cases:
            t_direct = _best_us(direct, call_args, args.repeats)
            t_kernel = _best_us(getattr(kernels, name), call_args + (sqnorms,), args.repeats)
            print(f"{name:<18}{n:>8}{m:>6}{t_direct:>12.1f}{t_kernel:>12.1f}"
                  f"{t_direct / t_kernel:>9.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
