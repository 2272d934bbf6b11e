"""Layer spans and counters, installed from outside the library.

The tracer rebinds public functions and methods of the ``modelgrad``
modules in the benchmark process: nothing under ``src/`` is edited.  Every
wrapper passes its arguments and its return value through untouched, so
object identity (which the oracles' gradient cache is keyed on) and the
float results are exactly those of an untraced run.

Spans are aggregated as they close instead of being kept one by one: the
traced protocols open several hundred thousand of them.  A span's self
time is its duration minus the time covered by the spans it opened.
"""

import functools
import os
import sys
import time
from collections import Counter, defaultdict

KERNELS = ("ballsum_value", "ballsum_subgrad", "minmax_value")


class Tracer:
    def __init__(self):
        self._open = []  # child time accumulated by each open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()  # counts taken at a boundary besides calls
        self.records = []  # restart records returned by nonsmooth solves
        self.pl_terminations = []

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span called ``name`` (its layer is the prefix).

        ``after(args, result)`` runs once the span has closed, so its cost
        is not charged to the span.
        """
        open_spans = self._open
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - open_spans.pop()
                total_s[name] += dt
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


def rebind_function(module, name, make_wrapper):
    """Replace ``module.name`` in every modelgrad module that bound it.

    ``from .core import as_vector`` copies the function object into the
    importing module, so each of those bindings is replaced too.  A name
    the library no longer defines is skipped.
    """
    original = getattr(module, name, None)
    if original is None:
        return
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "modelgrad" or mod_name.startswith("modelgrad.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def rebind_method(cls, name, make_wrapper):
    """Replace a method defined on ``cls`` itself, if it still is."""
    original = cls.__dict__.get(name)
    if original is not None:
        setattr(cls, name, make_wrapper(original))


def install(tracer):
    """Wrap each layer's public entry points with spans and counters."""
    from modelgrad import cli, convex, core, harness, kernels, nonsmooth, pl, problems

    def spanned(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    def count_bytes(args, result):
        centers = args[0]
        tracer.counts["kernels.bytes_computed"] += 8 * centers.size

    for kname in KERNELS:
        rebind_function(kernels, kname, spanned(f"kernels.{kname}", count_bytes))

    for cls in (problems.BallSumProblem, problems.MinMaxBallProblem, problems.PLQuadratic):
        rebind_method(cls, "value", spanned("problems.value"))
        rebind_method(cls, "subgradient", spanned("problems.grad"))
        rebind_method(cls, "gradient", spanned("problems.grad"))
    rebind_method(problems.MinMaxBallProblem, "lower_bound", spanned("problems.lower_bound"))
    rebind_method(problems.CompositeOracle, "value_inexact", spanned("problems.value"))
    rebind_method(problems.CompositeOracle, "_gradient", spanned("problems.grad"))
    rebind_method(problems.CompositeOracle, "composite_prox", spanned("problems.prox"))
    rebind_method(problems.NoisyOracle, "value_inexact", spanned("problems.noise"))
    rebind_method(problems.NoisyOracle, "_gradient", spanned("problems.noise"))
    for gname in ("generate_task1", "generate_task2", "pl_quadratic_make"):
        rebind_function(problems, gname, spanned("problems.generate"))

    rebind_function(core, "as_vector", spanned("core.as_vector"))
    rebind_method(core.FeasibleSet, "project", spanned("core.project"))
    rebind_method(core.ModelOracle, "model", spanned("core.model"))

    def gradient_cache_probe(fn):
        traced = tracer.span("core.model_gradient_at", fn)

        @functools.wraps(fn)
        def wrapper(self, x):
            if getattr(self, "_anchor", None) is not x:
                tracer.counts["core.gradient_evals"] += 1
            return traced(self, x)

        return wrapper

    rebind_method(core.ModelOracle, "model_gradient_at", gradient_cache_probe)

    rebind_function(convex, "model_step", spanned("convex.model_step"))
    rebind_function(convex, "convex_minimize", spanned("convex.solver"))

    def keep_records(args, result):
        tracer.records.extend(result[1])

    rebind_function(nonsmooth, "nonsmooth_minimize", spanned("nonsmooth.solver", keep_records))

    def keep_termination(args, result):
        tracer.pl_terminations.append(result.termination)

    def count_trial(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts["pl.trials"] += 1
            return fn(*args, **kwargs)

        return wrapper

    rebind_function(pl, "pl_minimize", spanned("pl.solver", keep_termination))
    rebind_function(pl, "pl_step_size", count_trial)

    def count_csv_bytes(args, result):
        tracer.counts["harness.csv_bytes"] += os.path.getsize(args[1])

    rebind_function(harness, "run_experiment", spanned("harness.run_experiment"))
    rebind_function(
        harness, "compare_adaptive_nonadaptive", spanned("harness.compare_adaptive_nonadaptive")
    )
    rebind_function(harness, "write_csv", spanned("harness.csv", count_csv_bytes))
    rebind_function(cli, "main", spanned("cli.main"))


def layer_metrics(tracer, traces, wall_s, steps):
    """Per-layer metrics of one traced call; ``traces`` are its
    (solver, trace) pairs and ``steps`` its accepted steps."""
    calls, self_s, total_s, counts = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    kernel_calls = {k: calls[f"kernels.{k}"] for k in KERNELS}
    kernels_self = tracer.layer_self_s("kernels")
    convex_steps = sum(t.N_run for solver, t in traces if solver != "pl")
    pl_steps = sum(t.N_run for solver, t in traces if solver == "pl")
    evals = calls["problems.value"] + calls["problems.grad"]
    grad_at = calls["core.model_gradient_at"]
    records = tracer.records
    terminations = tracer.pl_terminations

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "kernels.calls": sum(kernel_calls.values()),
        "kernels.self_s": kernels_self,
        "kernels.share": ratio(kernels_self, wall_s),
        "kernels.bytes_computed": counts["kernels.bytes_computed"],
        "problems.value_calls": calls["problems.value"],
        "problems.grad_calls": calls["problems.grad"],
        "problems.evals_per_step": ratio(evals, steps),
        "problems.self_s": tracer.layer_self_s("problems"),
        "problems.noise_calls": calls["problems.noise"],
        "problems.noise_s": self_s["problems.noise"],
        "problems.generate_calls": calls["problems.generate"],
        "problems.generate_s": total_s["problems.generate"],
        "core.as_vector.calls": calls["core.as_vector"],
        "core.as_vector_s": self_s["core.as_vector"],
        "core.project.calls": calls["core.project"],
        "core.project_s": self_s["core.project"],
        "core.model.calls": calls["core.model"],
        "core.model_s": self_s["core.model"],
        "core.grad_cache_hit_ratio": (1.0 - counts["core.gradient_evals"] / grad_at) if grad_at else 0.0,
        "core.self_s": tracer.layer_self_s("core"),
        "convex.model_step.calls": calls["convex.model_step"],
        "convex.model_step_self_s": self_s["convex.model_step"],
        "convex.accept_ratio": ratio(convex_steps, calls["convex.model_step"]),
        "convex.solver_self_s": self_s["convex.solver"],
        "nonsmooth.solver_self_s": self_s["nonsmooth.solver"],
        "nonsmooth.p_used_mean": ratio(sum(r.p_used for r in records), len(records)),
        "nonsmooth.smooth_stop_frac": ratio(
            sum(r.stop_reason == "smooth-inequality" for r in records), len(records)
        ),
        "pl.solver_self_s": self_s["pl.solver"],
        "pl.accept_ratio": ratio(pl_steps, counts["pl.trials"]),
        "pl.floor_stops": sum(t == "small-gradient-floor" for t in terminations),
        "harness.self_s": tracer.layer_self_s("harness"),
        "harness.csv_s": total_s["harness.csv"],
        "harness.csv_bytes": counts["harness.csv_bytes"],
        "cli.self_s": tracer.layer_self_s("cli"),
    }
    for name, n in kernel_calls.items():
        out[f"kernels.{name}.calls"] = n
    return out
