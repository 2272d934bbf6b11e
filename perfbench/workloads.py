"""The benchmark's workloads: their settings, protocol calls and checks.

Every workload is one call of a public protocol of the library, built from
an ``ExperimentSpec`` whose ``seed`` is the benchmark's seed:

* ``table1``: the paper's Table 1 through the command line, task1 then
  task2, with the CSV written.  Many cheap steps on small vectors, so
  per-step Python overhead weighs as much as the kernels.
* ``pl-compare``: paired adaptive and frozen-estimate runs on noisy PL
  quadratics.  No distance kernels at all, runs end at the noise floor.
* ``composite``: algo1 with an l1 prox, the only user of ``convex_iterate``
  and of the composite prox.

The settings at size ``tiny`` exist for the smoke test only.
"""

import contextlib
import hashlib
import math
import os
import time

import numpy as np

from tracer import KERNELS

GRID = (200, 400, 600, 800, 1000)

# Windows for the last/first ratio of the table1 means: acceptance
# test 01's setting, which this workload reproduces at full size.
TABLE1_WINDOWS = {"task1": (0.12, 0.40), "task2": (0.15, 0.45)}

SETTINGS = {
    "full": {
        "table1": [
            dict(task="task1", n=1000, m=10, replications=10, iteration_grid=GRID),
            dict(task="task2", n=1000, m=10, replications=10, iteration_grid=GRID),
        ],
        "pl-compare": [
            dict(task="pl-quadratic", n=100, m=160, Delta=1e-3, mode="random-sphere",
                 replications=50, iteration_grid=GRID)
        ],
        "composite": [dict(task="composite", n=1000, m=100, replications=10, iteration_grid=GRID)],
    },
    "tiny": {
        "table1": [
            dict(task="task1", n=40, m=4, replications=2, iteration_grid=(20, 40)),
            dict(task="task2", n=40, m=4, replications=2, iteration_grid=(20, 40)),
        ],
        "pl-compare": [
            dict(task="pl-quadratic", n=10, m=16, Delta=1e-3, mode="random-sphere",
                 replications=2, iteration_grid=(20, 40))
        ],
        "composite": [dict(task="composite", n=40, m=10, replications=2, iteration_grid=(20, 40))],
    },
}


def build_specs(name, seed, size):
    """The specs of one protocol call; building them validates them."""
    from modelgrad.harness import ExperimentSpec

    return [ExperimentSpec(seed=seed, **kw) for kw in SETTINGS[size][name]]


class Capture:
    """Pass-through at the harness->solver boundary: one call per solve.

    Keeps each solver trace (and the result tables the command line
    builds) so per-step latencies and output checks need no tracer.
    """

    def __init__(self):
        self.traces = []  # (solver, trace) in call order
        self.tables = []

    def install(self):
        from modelgrad import cli, harness

        def keep(solver, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                trace = result[0] if solver == "nonsmooth" else result
                self.traces.append((solver, trace))
                return result

            return wrapper

        harness.convex_minimize = keep("convex", harness.convex_minimize)
        harness.nonsmooth_minimize = keep("nonsmooth", harness.nonsmooth_minimize)
        harness.pl_minimize = keep("pl", harness.pl_minimize)
        run_experiment = cli.run_experiment

        def keep_table(spec):
            table = run_experiment(spec)
            self.tables.append(table)
            return table

        cli.run_experiment = keep_table


def run(name, specs, tmpdir):
    """Make the workload's protocol call(s); returns the result tables."""
    from modelgrad import cli, harness

    if name == "table1":
        for spec in specs:
            out = os.path.join(tmpdir, f"{spec.task}.csv")
            argv = ["table1", "--task", spec.task, "--n", str(spec.n), "--m", str(spec.m),
                    "--reps", str(spec.replications),
                    "--iters", ",".join(str(g) for g in spec.iteration_grid),
                    "--seed", str(spec.seed), "--out", out]
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"modelgrad {' '.join(argv)} exited {rc}")
        return None
    if name == "pl-compare":
        return [harness.compare_adaptive_nonadaptive(spec) for spec in specs]
    return [harness.run_experiment(spec) for spec in specs]


def _read_means(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().strip().split("\n")[1:]]
    return [float(r[1]) for r in rows]


def _certificate_problems(label, table, traces):
    """Each averaged-output certificate is finite and bounds the gap from
    below by what the run itself shows: f(x_hat) - f* >= f(x_hat) - f_best."""
    problems = []
    for r, trace in enumerate(traces):
        if not np.all(np.isfinite(trace.cert_hist)):
            problems.append(f"{label} rep {r}: non-finite certificate")
            continue
        f_hat = float(table.aux["per_seed_f_hat_final"][r])
        known_gap = f_hat - float(trace.f_best_running()[-1])
        cert = float(trace.cert_hist[-1])
        if cert < known_gap - 1e-12 * max(1.0, abs(f_hat)):
            problems.append(f"{label} rep {r}: certificate {cert!r} below known gap {known_gap!r}")
    return problems


def _non_increasing_problems(label, table):
    est = np.asarray(table.per_seed_estimates)
    if not np.all(np.isfinite(est)):
        return [f"{label}: non-finite estimate"]
    if np.any(np.diff(est, axis=1) > 0):
        return [f"{label}: an estimate grows along the iteration grid"]
    return []


def check(name, specs, tables, capture, tmpdir, size):
    """Return (final_estimate, list of failed checks) for one call."""
    problems = []
    traces = [t for _, t in capture.traces]
    if name == "table1":
        tables = capture.tables
        finals = []
        for i, spec in enumerate(specs):
            reps = spec.replications
            means = _read_means(os.path.join(tmpdir, f"{spec.task}.csv"))
            finals.append(means[-1])
            if not all(b < a for a, b in zip(means, means[1:])):
                problems.append(f"{spec.task}: table means do not strictly decrease")
            if size == "full":
                lo, hi = TABLE1_WINDOWS[spec.task]
                ratio = means[-1] / means[0]
                if not lo <= ratio <= hi:
                    problems.append(f"{spec.task}: last/first ratio {ratio:.4f} outside [{lo}, {hi}]")
            problems += _certificate_problems(spec.task, tables[i], traces[i * reps:(i + 1) * reps])
        final = max(finals)
    elif name == "pl-compare":
        table = tables[0]
        problems += _non_increasing_problems("pl-compare", table)
        aux = table.aux
        for r, a_trace in enumerate(traces[0::2]):
            a_bound, na_bound = aux["adaptive_bound"][r], aux["nonadaptive_bound"][r]
            if not a_bound <= na_bound:
                problems.append(f"rep {r}: adaptive bound {a_bound!r} above frozen {na_bound!r}")
            gap = aux["adaptive_gap"][r]
            gap0 = a_trace.f0 - (a_trace.f_final - gap)
            if na_bound * gap0 < gap * (1.0 - 1e-9):
                problems.append(f"rep {r}: frozen bound {na_bound * gap0!r} below final gap {gap!r}")
        final = table.mean_estimate[-1]
    else:
        table = tables[0]
        problems += _non_increasing_problems("composite", table)
        est = np.asarray(table.per_seed_estimates)
        for r, trace in enumerate(traces):
            if not 0.0 <= est[r, -1] <= trace.f0:
                problems.append(f"rep {r}: best value {est[r, -1]!r} outside [0, f0]")
        final = table.mean_estimate[-1]
    if not math.isfinite(final):
        problems.append(f"final estimate {final!r} is not finite")
    return float(final), problems


def fingerprint(tables, capture):
    """Digest of every deterministic output; timings are left out."""
    h = hashlib.sha256()
    for table in (tables or []) + capture.tables:
        h.update(np.asarray(table.per_seed_estimates, dtype=np.float64).tobytes())
        h.update(np.asarray(table.mean_estimate, dtype=np.float64).tobytes())
    for _, trace in capture.traces:
        for arr in (trace.f_values, trace.L_hist, trace.inner_hist, trace.x_final):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def step_stats(capture):
    """Accepted steps, trials, and the latency of each step (us).

    Latencies are differences of each trace's ``elapsed_ms``; the first
    step of a solve counts from the solver's own start.
    """
    gaps = [np.diff(np.asarray(t.elapsed_ms), prepend=0.0) for _, t in capture.traces]
    lat_us = np.concatenate(gaps) * 1e3 if gaps else np.zeros(0)
    return {
        "steps": int(sum(t.N_run for _, t in capture.traces)),
        "trials": int(sum(int(np.sum(t.inner_hist)) for _, t in capture.traces)),
        "step_us": [round(v, 3) for v in lat_us.tolist()],
    }


def time_kernels(name, seed, size, target_s=0.25):
    """Per-call microseconds of the dispatched kernels at the workload's
    (m, n): the median over batches of repeated calls on one point.  Only
    ``table1`` calls the kernels; the others report none."""
    from modelgrad import generate_task1, kernels

    if name != "table1":
        return {}
    m, n = SETTINGS[size][name][0]["m"], SETTINGS[size][name][0]["n"]
    centers = generate_task1(n=n, m=m, seed=seed).centers
    x = np.random.default_rng(seed).standard_normal(n)
    x *= 0.5 / np.linalg.norm(x)
    args = {"ballsum_value": (centers, x, 1.0), "ballsum_subgrad": (centers, x, 1.0),
            "minmax_value": (centers, x)}
    out = {}
    for kname in KERNELS:
        fn = getattr(kernels, kname, None)
        if fn is None:
            continue
        fn(*args[kname])
        t0 = time.perf_counter()
        fn(*args[kname])
        per_batch = max(1, int(target_s / 9 / max(time.perf_counter() - t0, 1e-7)))
        samples = []
        for _ in range(9):
            t0 = time.perf_counter()
            for _ in range(per_batch):
                fn(*args[kname])
            samples.append((time.perf_counter() - t0) / per_batch)
        out[kname] = float(np.median(samples)) * 1e6
    return out
