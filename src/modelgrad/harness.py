"""Experiment orchestration: configs, runners, and CSV reporting.

The benchmark protocol runs a solver over a grid of iteration budgets with
several replications per cell, averaging a per-run accuracy estimate.  For
the two geometric tasks the estimate is the online certificate of the
averaged output (a rigorous bound on f(x_hat) - f*), which the restarted
nonsmooth solver keeps decaying like 1/N; the raw objective values and the
best-value-minus-lower-bound gap are carried alongside so either reading
of solution quality can be inspected.
"""

from __future__ import annotations

import functools
import math
import os
import tempfile
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import FeasibleSet, ModelOracle, ProxSetup, Vector, as_vector
from .convex import ConvexConfig, ConvexTrace, convex_minimize
from .nonsmooth import NonsmoothConfig, nonsmooth_minimize
from .pl import PLConfig, PLTrace, pl_minimize, pl_rate_bound, pl_rate_bound_nonadaptive
from .problems import (
    L1Penalty,
    NoisyOracle,
    composite_oracle,
    generate_task1,
    generate_task2,
    least_squares,
    pl_quadratic_make,
)

__all__ = [
    "TASKS",
    "SOLVERS",
    "ExperimentSpec",
    "ConfigError",
    "ResultTable",
    "parse_grid",
    "parse_config",
    "write_config",
    "write_csv",
    "run_single",
    "run_experiment",
    "compare_adaptive_nonadaptive",
    "finite_diff_check",
    "default_solver",
]

TASKS = ("task1", "task2", "pl-quadratic", "composite")
SOLVERS = ("algo1", "nonsmooth", "algo2")

TRACE_COLUMNS = "iter,f_value,f_best,L_k,delta_k,Delta_k,inner_calls,step_norm,cert_bound,elapsed_ms"
TABLE_COLUMNS = "iters,mean_estimate,std_estimate,mean_time_ms"

# Divergence radius for the geometric tasks: both minimizers lie in the
# unit ball (feasible set for one, hull of the anchors for the other), so
# V(x*, 0) <= 1/2.
_TASK_R2 = 0.5

_COMPOSITE_WEIGHT = 0.1


class ConfigError(ValueError):
    """Config file problem; carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment cell grid: task, scale, solver, and noise settings.

    ``Delta0``/``delta0`` seed the solver's working constants; zero means
    "start at the injected noise level" for algo1 and algo2.  For the
    restarted nonsmooth solver ``Delta0`` is the fixed kink budget, and
    zero means "use the task's conservative class constant".  ``Delta``
    and ``delta`` are injected oracle noise levels, ``epsilon`` the target
    accuracy of the restarted procedure (default 0.05 when unset).
    """

    task: str
    n: int = 1000
    m: int = 10
    iteration_grid: tuple = (200, 400, 600, 800, 1000)
    replications: int = 10
    seed: int = 0
    solver: Optional[str] = None
    L0: float = 1.0
    Delta0: float = 0.0
    delta0: float = 0.0
    epsilon: Optional[float] = None
    C: float = 3.0
    Delta: float = 0.0
    delta: float = 0.0
    mode: str = "random-sphere"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.solver is None:
            object.__setattr__(self, "solver", default_solver(self.task))
        if self.solver not in SOLVERS:
            raise ValueError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        grid = tuple(int(v) for v in self.iteration_grid)
        if len(grid) == 0:
            raise ValueError("iteration_grid must be nonempty")
        if any(g < 1 for g in grid):
            raise ValueError("iteration grid entries must be positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("iteration grid must be strictly increasing")
        object.__setattr__(self, "iteration_grid", grid)
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.L0 <= 0:
            raise ValueError("L0 must be positive")
        if self.Delta0 < 0 or self.delta0 < 0 or self.Delta < 0 or self.delta < 0:
            raise ValueError("inexactness levels must be nonnegative")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError("epsilon must be positive when given")
        if not self.C > 1:
            raise ValueError("C must exceed 1")
        if self.mode not in NoisyOracle.MODES:
            raise ValueError(f"mode must be one of {NoisyOracle.MODES}")
        if self.solver == "nonsmooth" and (self.Delta > 0 or self.delta > 0):
            raise ValueError(
                "the restarted solver 'nonsmooth' needs exact values and "
                "subgradients, but this spec injects oracle noise "
                f"(Delta={self.Delta!r}, delta={self.delta!r}); "
                "use --solver algo1 for noisy runs"
            )


@dataclass
class ResultTable:
    """Aggregated grid results plus per-seed values for auditing."""

    iters: tuple
    mean_estimate: tuple
    std_estimate: tuple
    mean_time_ms: tuple
    per_seed_estimates: np.ndarray  # shape (replications, len(iters))
    aux: dict


def default_solver(task: str) -> str:
    """Solver a bare --task selection maps to."""
    return {"task1": "nonsmooth", "task2": "nonsmooth",
            "pl-quadratic": "algo2", "composite": "algo1"}[task]


_INT_FIELDS = {"n", "m", "replications", "seed"}
_FLOAT_FIELDS = {"L0", "Delta0", "delta0", "C", "Delta", "delta", "epsilon"}
_STR_FIELDS = {"task", "solver", "mode"}


def parse_grid(text: str) -> tuple:
    """Grid syntax: comma list "200,400,600" or range "start..stop[..step]".

    A two-part range steps by its start value, so "200..1000" expands to
    200, 400, 600, 800, 1000.  The stop is included when hit exactly.
    """
    text = text.strip()
    if ".." in text:
        parts = text.split("..")
        if len(parts) == 2:
            start, stop = (int(p) for p in parts)
            step = start
        elif len(parts) == 3:
            start, stop, step = (int(p) for p in parts)
        else:
            raise ValueError(f"bad grid range {text!r}")
        if start < 1 or step < 1 or stop < start:
            raise ValueError(f"bad grid range {text!r}")
        return tuple(range(start, stop + 1, step))
    return tuple(int(p) for p in text.split(",") if p.strip())


def _format_grid(grid) -> str:
    return ",".join(str(int(g)) for g in grid)


def parse_config(path) -> ExperimentSpec:
    """Read a `key = value` file into an ExperimentSpec.

    `#` starts a comment anywhere on a line.  Keys must name spec fields;
    errors cite the 1-based line number.
    """
    values = {}
    known = {f.name for f in fields(ExperimentSpec)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
            key, _, rhs = line.partition("=")
            key = key.strip()
            rhs = rhs.strip()
            if key not in known:
                raise ConfigError(f"unknown key {key!r}", lineno)
            if key in values:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            try:
                if key == "iteration_grid":
                    values[key] = parse_grid(rhs)
                elif key in _INT_FIELDS:
                    values[key] = int(rhs)
                elif key in _FLOAT_FIELDS:
                    values[key] = float(rhs)
                elif key in _STR_FIELDS:
                    values[key] = rhs
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r}: {rhs!r} ({exc})", lineno
                ) from exc
    if "task" not in values:
        raise ConfigError("missing required key 'task'")
    try:
        return ExperimentSpec(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_config(spec: ExperimentSpec, path) -> None:
    """Emit a config file that parses back to an equal spec."""
    lines = []
    for f in fields(ExperimentSpec):
        value = getattr(spec, f.name)
        if value is None:
            continue
        if f.name == "iteration_grid":
            lines.append(f"{f.name} = {_format_grid(value)}")
        elif f.name in _FLOAT_FIELDS:
            lines.append(f"{f.name} = {repr(float(value))}")
        else:
            lines.append(f"{f.name} = {value}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return repr(float(v))


def _trace_rows(trace) -> list:
    rows = []
    if isinstance(trace, ConvexTrace):
        f_best = trace.f_best_running()
        for i in range(trace.N_run):
            rows.append(
                (
                    i + 1,
                    trace.f_values[i],
                    f_best[i],
                    trace.L_hist[i],
                    trace.delta_hist[i],
                    trace.Delta_hist[i],
                    int(trace.inner_hist[i]),
                    trace.step_norms[i],
                    trace.cert_hist[i],
                    trace.elapsed_ms[i],
                )
            )
    elif isinstance(trace, PLTrace):
        best = math.inf
        for i in range(trace.N_run):
            best = min(best, trace.f_values[i], trace.f0)
            rows.append(
                (
                    i + 1,
                    trace.f_values[i],
                    best,
                    trace.L_hist[i],
                    trace.delta_hist[i],
                    trace.Delta_hist[i],
                    int(trace.inner_hist[i]),
                    trace.h_steps[i] * trace.g_norms[i],
                    math.nan,
                    trace.elapsed_ms[i],
                )
            )
    else:
        raise TypeError(f"cannot serialize {type(trace).__name__} as a trace")
    return rows


def write_csv(obj, path) -> None:
    """Serialize a trace or a ResultTable; full float precision, atomic."""
    if isinstance(obj, ResultTable):
        lines = [TABLE_COLUMNS]
        for i, n_iters in enumerate(obj.iters):
            lines.append(
                f"{int(n_iters)},{_fmt(obj.mean_estimate[i])},"
                f"{_fmt(obj.std_estimate[i])},{_fmt(obj.mean_time_ms[i])}"
            )
    else:
        lines = [TRACE_COLUMNS]
        for row in _trace_rows(obj):
            it, fv, fb, lk, dk, Dk, ic, sn, cb, ms = row
            lines.append(
                f"{it},{_fmt(fv)},{_fmt(fb)},{_fmt(lk)},{_fmt(dk)},{_fmt(Dk)},"
                f"{ic},{_fmt(sn)},{_fmt(cb)},{_fmt(ms)}"
            )
    _atomic_write(path, "\n".join(lines) + "\n")


def _rep_seeds(spec: ExperimentSpec) -> list:
    ss = np.random.SeedSequence(spec.seed)
    return [int(s) for s in ss.generate_state(spec.replications, np.uint64)]


def _nonsmooth_class_Delta(spec: ExperimentSpec) -> float:
    if spec.Delta0 > 0:
        return spec.Delta0
    # conservative kink budgets: each distance term's subgradient jump is
    # at most 1, doubled by the class-to-model conversion
    return 2.0 * spec.m if spec.task == "task1" else 2.0


def _geometric_problem(spec: ExperimentSpec, rep_seed: int):
    gen = generate_task1 if spec.task == "task1" else generate_task2
    return gen(n=spec.n, m=spec.m, seed=rep_seed)


def _quadratic_problem(spec: ExperimentSpec, rep_seed: int):
    rng = np.random.default_rng(rep_seed)
    A = rng.standard_normal((spec.m, spec.n))
    b = rng.standard_normal(spec.m)
    return pl_quadratic_make(A, b)


def _composite_objects(spec: ExperimentSpec, rep_seed: int):
    rng = np.random.default_rng(rep_seed)
    A = rng.standard_normal((spec.m, spec.n))
    b = rng.standard_normal(spec.m)
    evaluate = functools.partial(least_squares, A, b)
    return composite_oracle(
        lambda x: evaluate(x).value,
        lambda x: evaluate(x).gradient(),
        L1Penalty(_COMPOSITE_WEIGHT),
        evaluate_fn=evaluate,
    )


def _maybe_noisy(oracle: ModelOracle, spec: ExperimentSpec, noise_seed: int):
    if spec.Delta == 0.0 and spec.delta == 0.0:
        return oracle
    return NoisyOracle(
        oracle, Delta=spec.Delta, delta=spec.delta, mode=spec.mode, seed=noise_seed
    )


def _validate_combo(spec: ExperimentSpec) -> None:
    allowed = {
        "task1": ("nonsmooth", "algo1"),
        "task2": ("nonsmooth", "algo1"),
        "pl-quadratic": ("algo2",),
        "composite": ("algo1",),
    }[spec.task]
    if spec.solver not in allowed:
        raise ValueError(
            f"task {spec.task!r} supports solvers {allowed}, got {spec.solver!r}"
        )


def _prepare(spec: ExperimentSpec, rep_seed: int):
    """Build (problem, oracle, setup) for one replication; problem is None
    for the composite family (the oracle is the whole problem there)."""
    if spec.task in ("task1", "task2"):
        problem = _geometric_problem(spec, rep_seed)
        oracle = _maybe_noisy(problem.oracle(), spec, rep_seed + 1)
        return problem, oracle, problem.prox_setup()
    if spec.task == "pl-quadratic":
        problem = _quadratic_problem(spec, rep_seed)
        oracle = _maybe_noisy(problem.oracle(), spec, rep_seed + 1)
        return problem, oracle, None
    oracle = _maybe_noisy(_composite_objects(spec, rep_seed), spec, rep_seed + 1)
    return None, oracle, ProxSetup(FeasibleSet.whole_space())


def _working_levels(spec: ExperimentSpec) -> tuple:
    """(delta0, Delta0) for algo1 and algo2: the configured working
    constants, or the injected noise levels where those are unset (zero).
    Starting at zero under injected noise, the acceptance test can fail at
    every L once the steps are short."""
    return (
        spec.delta0 if spec.delta0 > 0 else spec.delta,
        spec.Delta0 if spec.Delta0 > 0 else spec.Delta,
    )


def _solve(spec: ExperimentSpec, problem, oracle, setup):
    """Run the configured solver; returns (trace, restart records or None)."""
    N = max(spec.iteration_grid)
    delta0, Delta0 = _working_levels(spec)
    if spec.task in ("task1", "task2"):
        base = ConvexConfig(
            x0=np.zeros(spec.n),
            L0=spec.L0,
            delta0=delta0 if spec.solver == "algo1" else 0.0,
            Delta0=Delta0 if spec.solver == "algo1" else 0.0,
            N=N,
            R=math.sqrt(_TASK_R2),
            store_iterates=False,
        )
        if spec.solver == "algo1":
            return convex_minimize(base, oracle, setup), None
        cfg = NonsmoothConfig(
            base=base,
            epsilon=spec.epsilon if spec.epsilon is not None else 0.05,
            Delta_known=_nonsmooth_class_Delta(spec),
        )
        return nonsmooth_minimize(cfg, oracle, setup)
    if spec.task == "pl-quadratic":
        cfg = PLConfig(
            x0=np.zeros(spec.n),
            L0=spec.L0,
            Delta0=Delta0,
            delta0=delta0,
            N=N,
            C=spec.C,
            mu=problem.mu,
            Delta_cap=spec.Delta if spec.Delta > 0 else None,
            f_star=problem.f_star,
            store_iterates=False,
        )
        return pl_minimize(cfg, oracle), None
    base = ConvexConfig(
        x0=np.zeros(spec.n),
        L0=spec.L0,
        delta0=delta0,
        Delta0=Delta0,
        N=N,
        store_iterates=False,
    )
    return convex_minimize(base, oracle, setup), None


def run_single(spec: ExperimentSpec, rep_seed: Optional[int] = None):
    """One solver run at N = max(grid); returns (trace, restart records or
    None)."""
    _validate_combo(spec)
    if rep_seed is None:
        rep_seed = _rep_seeds(spec)[0]
    problem, oracle, setup = _prepare(spec, rep_seed)
    return _solve(spec, problem, oracle, setup)


def _estimates_at(trace, spec: ExperimentSpec, extra) -> dict:
    """Per-checkpoint estimate plus auxiliary quality readings."""
    grid = spec.iteration_grid
    out = {"estimate": [], "aux_gap": [], "time_ms": []}
    if spec.task in ("task1", "task2"):
        f_best = trace.f_best_running()
        lb = extra  # lower bound for the best-value gap
        for g in grid:
            k = min(g, trace.N_run) - 1
            out["estimate"].append(float(trace.cert_hist[k]))
            out["aux_gap"].append(float(f_best[k] - lb))
            out["time_ms"].append(float(trace.elapsed_ms[k]))
    elif spec.task == "pl-quadratic":
        f_star = extra
        if trace.N_run == 0:
            for _ in grid:
                out["estimate"].append(float(trace.f0 - f_star))
                out["aux_gap"].append(float(trace.f0 - f_star))
                out["time_ms"].append(0.0)
            return out
        best = np.minimum.accumulate(np.minimum(trace.f_values, trace.f0))
        for g in grid:
            k = min(g, trace.N_run) - 1
            out["estimate"].append(float(best[k] - f_star))
            out["aux_gap"].append(float(trace.f_values[k] - f_star))
            out["time_ms"].append(float(trace.elapsed_ms[k]))
    else:
        best = np.minimum.accumulate(np.minimum(trace.f_values, trace.f0))
        for g in grid:
            k = min(g, trace.N_run) - 1
            out["estimate"].append(float(best[k]))
            out["aux_gap"].append(float(trace.f_values[k]))
            out["time_ms"].append(float(trace.elapsed_ms[k]))
    return out


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Grid runs averaged over replications.

    Each replication runs once to the largest grid value; checkpoint rows
    are sliced from the single trace, which matches per-cell reruns
    exactly because the solvers are deterministic given the seed.
    """
    _validate_combo(spec)
    seeds = _rep_seeds(spec)
    grid = spec.iteration_grid
    est = np.zeros((spec.replications, len(grid)))
    gaps = np.zeros_like(est)
    times = np.zeros_like(est)
    f_hat_final = []

    for r, rep_seed in enumerate(seeds):
        problem, oracle, setup = _prepare(spec, rep_seed)
        trace, _ = _solve(spec, problem, oracle, setup)
        if spec.task in ("task1", "task2"):
            lb = 0.0 if spec.task == "task1" else problem.lower_bound()
            cells = _estimates_at(trace, spec, lb)
            f_hat_final.append(problem.value(trace.x_hat))
        elif spec.task == "pl-quadratic":
            cells = _estimates_at(trace, spec, problem.f_star)
            f_hat_final.append(float(trace.f_final))
        else:
            cells = _estimates_at(trace, spec, None)
            f_hat_final.append(float(trace.f_values[-1]))
        est[r] = cells["estimate"]
        gaps[r] = cells["aux_gap"]
        times[r] = cells["time_ms"]

    return ResultTable(
        iters=tuple(grid),
        mean_estimate=tuple(float(v) for v in est.mean(axis=0)),
        std_estimate=tuple(float(v) for v in est.std(axis=0, ddof=0)),
        mean_time_ms=tuple(float(v) for v in times.mean(axis=0)),
        per_seed_estimates=est,
        aux={
            "per_seed_aux_gap": gaps,
            "per_seed_f_hat_final": f_hat_final,
            "seeds": seeds,
        },
    )


def compare_adaptive_nonadaptive(spec: ExperimentSpec) -> ResultTable:
    """Paired adaptive vs frozen-estimate runs on identical seeds.

    Both contraction products are evaluated on the adaptive trace (the
    adaptive one also on its own recorded estimates), so the comparison
    isolates what adapting the error estimate buys at equal data.
    """
    if spec.solver != "algo2":
        raise ValueError("the comparison protocol is defined for solver algo2")
    seeds = _rep_seeds(spec)
    grid = spec.iteration_grid
    N = max(grid)
    est = np.zeros((spec.replications, len(grid)))
    times = np.zeros_like(est)
    a_bounds, na_bounds, a_gaps, na_gaps, factor_traces = [], [], [], [], []

    for r, rep_seed in enumerate(seeds):
        problem = _quadratic_problem(spec, rep_seed)
        cap = spec.Delta if spec.Delta > 0 else None

        def _run(adapt: bool):
            oracle = _maybe_noisy(problem.oracle(), spec, rep_seed + 1)
            cfg = PLConfig(
                x0=np.zeros(spec.n),
                L0=spec.L0,
                Delta0=spec.Delta,
                delta0=spec.delta,
                N=N,
                C=spec.C,
                mu=problem.mu,
                Delta_cap=cap,
                f_star=problem.f_star,
                store_iterates=False,
                adapt_Delta=adapt,
            )
            return pl_minimize(cfg, oracle)

        tr_a = _run(True)
        tr_na = _run(False)
        bound_a = pl_rate_bound(tr_a, problem.mu, spec.Delta)
        bound_na = pl_rate_bound_nonadaptive(tr_a, problem.mu, spec.Delta)
        a_bounds.append(bound_a)
        na_bounds.append(bound_na)
        a_gaps.append(float(tr_a.f_final - problem.f_star))
        na_gaps.append(float(tr_na.f_final - problem.f_star))
        num = np.maximum(tr_a.g_norms - tr_a.Delta_hist, 0.0)
        den = tr_a.g_norms + spec.Delta
        factor_traces.append(
            1.0 - (problem.mu / tr_a.L_hist) * np.divide(
                num, den, out=np.zeros_like(num), where=den > 0
            ) ** 2
        )
        gap0 = problem.value(np.zeros(spec.n)) - problem.f_star
        prefix = np.cumprod(factor_traces[-1])
        for i, g in enumerate(grid):
            k = min(g, tr_a.N_run) - 1
            est[r, i] = prefix[k] * gap0 if tr_a.N_run else gap0
            times[r, i] = float(tr_a.elapsed_ms[k]) if tr_a.N_run else 0.0

    return ResultTable(
        iters=tuple(grid),
        mean_estimate=tuple(float(v) for v in est.mean(axis=0)),
        std_estimate=tuple(float(v) for v in est.std(axis=0, ddof=0)),
        mean_time_ms=tuple(float(v) for v in times.mean(axis=0)),
        per_seed_estimates=est,
        aux={
            "adaptive_bound": a_bounds,
            "nonadaptive_bound": na_bounds,
            "adaptive_gap": a_gaps,
            "nonadaptive_gap": na_gaps,
            "factor_traces": factor_traces,
            "seeds": seeds,
        },
    )


def finite_diff_check(oracle: ModelOracle, x: Vector, h: float = 1e-6) -> float:
    """Max relative mismatch between the oracle gradient and central
    differences of the value at x."""
    if not h > 0:
        raise ValueError("h must be positive")
    x = as_vector(x)
    g = oracle.model_gradient_at(x)
    worst = 0.0
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (oracle.value_inexact(xp) - oracle.value_inexact(xm)) / (2.0 * h)
        err = abs(fd - g[i]) / max(1.0, abs(fd), abs(g[i]))
        worst = max(worst, err)
    return worst
