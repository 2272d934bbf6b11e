"""One protocol call of one workload, in a fresh process.

``run.py`` starts this script once per call and reads the JSON object it
prints as its last line.  Modes:

* ``plain``: the call with only the pass-through at the harness->solver
  boundary (end-to-end metrics);
* ``traced``: the same call with every layer wrapped in spans (per-layer
  metrics);
* ``kernels``: the dispatched distance kernels timed alone at the
  workload's (m, n);
* ``import``: set-up only, to warm the bytecode cache before measuring.

In ``plain`` and ``traced`` modes the worker also times a fixed
calibration loop just before and just after the call and reports the
mean as ``cal_s``; ``run.py`` uses it to correct the call's times for the
host's speed at that moment.

``run.py`` pins BLAS and OpenMP threads to 1 in the environment it starts
the worker with, so the pin holds before numpy is imported.
"""

import argparse
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def calibration_s():
    """Seconds per pass of a fixed loop of small numpy operations (the
    shapes of the workloads' distance sums and matvecs) and plain Python
    arithmetic: the median of five passes.  It runs only numpy and the
    interpreter, so no change to the library can make it faster or slower.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    centers, x = rng.standard_normal((10, 1000)), rng.standard_normal(1000)
    mat, y = rng.standard_normal((160, 100)), rng.standard_normal(100)
    passes = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(800):
            np.linalg.norm(centers - x, axis=1)
            mat @ y
            total = 0
            for i in range(200):
                total += i
        passes.append(time.perf_counter() - t0)
    return sorted(passes)[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "kernels", "import"), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--tmpdir", required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "modelgrad", "__init__.py")):
        sys.exit(f"no modelgrad sources under {SRC}")
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import modelgrad

    if args.workload == "table1":
        import modelgrad.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if not os.path.abspath(modelgrad.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported modelgrad from {modelgrad.__file__}, not from {SRC}")

    import workloads

    t0 = time.perf_counter()
    specs = workloads.build_specs(args.workload, args.seed, args.size)
    setup_s = import_s + time.perf_counter() - t0
    result = {"setup_s": setup_s}

    if args.mode == "kernels":
        result["kernel_us"] = workloads.time_kernels(args.workload, args.seed, args.size)
    elif args.mode in ("plain", "traced"):
        tracer = None
        if args.mode == "traced":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        capture = workloads.Capture()
        capture.install()

        cal_before = calibration_s()
        t0 = time.perf_counter()
        tables = workloads.run(args.workload, specs, args.tmpdir)
        wall_s = time.perf_counter() - t0
        cal_s = (cal_before + calibration_s()) / 2

        stats = workloads.step_stats(capture)
        final, problems = workloads.check(
            args.workload, specs, tables, capture, args.tmpdir, args.size
        )
        result.update(stats)
        result.update(
            wall_s=wall_s,
            cal_s=cal_s,
            final_estimate=final,
            problems=problems,
            fingerprint=workloads.fingerprint(tables, capture),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layer"] = tracing.layer_metrics(tracer, capture.traces, wall_s, stats["steps"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
