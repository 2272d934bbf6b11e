"""Experiment orchestration: configs, runners, and CSV reporting.

The benchmark protocol runs a solver over a grid of iteration budgets with
several replications per cell, averaging a per-run accuracy estimate.  For
the two geometric tasks the estimate is the online certificate of the
averaged output, which the restarted nonsmooth solver keeps decaying like
1/N.  It bounds f(x_hat) - f*; under injected gradient noise it adds the
noise level times the diameter of the unit ball, a loose bound (see
``ConvexTrace``).  The raw objective values and the
best-value-minus-lower-bound gap are carried alongside so either reading
of solution quality can be inspected.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import tempfile
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import FeasibleSet, ModelOracle, Trace, Vector, aligned_empty, as_vector
from .convex import ConvexConfig, convex_minimize
from .nonsmooth import NonsmoothConfig, nonsmooth_minimize
from .pl import PLConfig, _factors, pl_minimize, pl_rate_bound_nonadaptive
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

SOLVERS = ("algo1", "nonsmooth", "algo2")
# the solvers each task runs with, its default first
_TASK_SOLVERS = {
    "task1": ("nonsmooth", "algo1"),
    "task2": ("nonsmooth", "algo1"),
    "pl-quadratic": ("algo2",),
    "composite": ("algo1",),
}
TASKS = tuple(_TASK_SOLVERS)

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
    accuracy of the restarted procedure (default 0.05 when unset).  A
    solver the task does not run with is refused here, before any data is
    generated, and so is a field the solver would ignore: ``epsilon``
    unless the solver is nonsmooth, and a nonzero ``delta0`` for it.
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
    Delta: float = 0.0
    delta: float = 0.0
    mode: str = "random-sphere"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.solver is None:
            object.__setattr__(self, "solver", default_solver(self.task))
        allowed = _TASK_SOLVERS[self.task]
        if self.solver not in allowed:
            raise ValueError(
                f"task {self.task!r} supports solvers {allowed}, got {self.solver!r}"
            )
        for name, low in (("n", 1), ("m", 1), ("replications", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is bool or not (isinstance(value, numbers.Integral) and value >= low):
                kind = "positive" if low else "non-negative"
                raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
        grid = tuple(self.iteration_grid)
        if not all(isinstance(g, numbers.Integral) and type(g) is not bool for g in grid):
            raise ValueError(f"iteration_grid must be a sequence of integers, got {grid!r}")
        grid = tuple(int(v) for v in grid)
        if len(grid) == 0:
            raise ValueError("iteration_grid must be nonempty")
        if any(g < 1 for g in grid):
            raise ValueError("iteration grid entries must be positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("iteration grid must be strictly increasing")
        object.__setattr__(self, "iteration_grid", grid)
        if not 0 < self.L0 < math.inf:
            raise ValueError(f"L0 must be positive and finite, got {self.L0!r}")
        for name in ("Delta0", "delta0", "Delta", "delta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"inexactness level {name} must be nonnegative and finite, "
                    f"got {getattr(self, name)!r}"
                )
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite when given")
        if self.epsilon is not None and self.solver != "nonsmooth":
            raise ValueError(f"solver {self.solver!r} does not read epsilon; leave it unset")
        if self.solver == "nonsmooth" and self.delta0 > 0:
            raise ValueError("solver 'nonsmooth' does not read delta0 (it assumes exact values)")
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
    """Aggregated grid results plus per-seed values for auditing; the
    properties ``mean_estimate`` and ``std_estimate`` are the mean and the
    standard deviation (ddof 0) of ``per_seed_estimates`` per grid value."""

    iters: tuple
    mean_time_ms: tuple
    per_seed_estimates: np.ndarray  # shape (replications, len(iters))
    aux: dict

    @property
    def mean_estimate(self) -> tuple:
        return tuple(self.per_seed_estimates.mean(axis=0).tolist())

    @property
    def std_estimate(self) -> tuple:
        return tuple(self.per_seed_estimates.std(axis=0, ddof=0).tolist())


def default_solver(task: str) -> str:
    """Solver a bare --task selection maps to."""
    return _TASK_SOLVERS[task][0]


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


# how a config file's text becomes each field's value; the fields not named are strings
_READERS = {
    "iteration_grid": parse_grid,
    **dict.fromkeys(("n", "m", "replications", "seed"), int),
    **dict.fromkeys(("L0", "Delta0", "delta0", "Delta", "delta", "epsilon"), float),
}


def _read_config(path) -> dict:
    """The typed fields of a `key = value` file.

    `#` starts a comment anywhere on a line.  Keys must name spec fields;
    syntax, key and value errors raise ConfigError citing the 1-based
    line number.
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
                values[key] = _READERS.get(key, str)(rhs)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r}: {rhs!r} ({exc})", lineno
                ) from exc
    return values


def parse_config(path) -> ExperimentSpec:
    """Read a `key = value` file (see ``_read_config``) into an
    ExperimentSpec; the spec's own checks raise its ValueError."""
    values = _read_config(path)
    if "task" not in values:
        raise ConfigError("missing required key 'task'")
    return ExperimentSpec(**values)


def write_config(spec: ExperimentSpec, path) -> None:
    """Emit a config file that parses back to an equal spec."""
    lines = []
    for f in fields(ExperimentSpec):
        value = getattr(spec, f.name)
        if value is None:
            continue
        if f.name == "iteration_grid":
            lines.append(f"{f.name} = {','.join(map(str, value))}")
        elif _READERS.get(f.name) is float:
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


def write_csv(obj, path) -> None:
    """Serialize a trace or a ResultTable; full float precision, atomic.
    An entry is the ``repr`` of the int or float its column's ``tolist``
    gives."""
    if isinstance(obj, ResultTable):
        header = TABLE_COLUMNS
        cols = (obj.iters, obj.mean_estimate, obj.std_estimate, obj.mean_time_ms)
    elif isinstance(obj, Trace):
        header = TRACE_COLUMNS
        cols = (range(1, obj.N_run + 1), obj.f_values, obj.f_best_running(), obj.L_hist,
                obj.delta_hist, obj.Delta_hist, obj.inner_hist, obj.step_norms, obj.cert_hist,
                obj.elapsed_ms)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} as a trace")
    rows = zip(*(np.asarray(col).tolist() for col in cols))
    _atomic_write(path, "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n")


def _rep_seeds(spec: ExperimentSpec) -> list:
    ss = np.random.SeedSequence(spec.seed)
    return [int(s) for s in ss.generate_state(spec.replications, np.uint64)]


def _least_squares_data(spec: ExperimentSpec, rep_seed: int):
    """The (m, n) matrix ``A``, aligned and read-only, and then ``b`` of a
    least-squares replication, drawn from ``rep_seed``."""
    rng = np.random.default_rng(rep_seed)
    A = aligned_empty((spec.m, spec.n))
    rng.standard_normal(out=A)  # the draws of standard_normal((m, n)), no copy
    A.setflags(write=False)
    return A, rng.standard_normal(spec.m)


def _quadratic_problem(spec: ExperimentSpec, rep_seed: int):
    return pl_quadratic_make(*_least_squares_data(spec, rep_seed))


def _composite_objects(spec: ExperimentSpec, rep_seed: int):
    return composite_oracle(
        functools.partial(least_squares, *_least_squares_data(spec, rep_seed)),
        L1Penalty(_COMPOSITE_WEIGHT),
    )


def _maybe_noisy(oracle: ModelOracle, spec: ExperimentSpec, noise_seed: int):
    if spec.Delta == 0.0 and spec.delta == 0.0:
        return oracle
    return NoisyOracle(
        oracle, Delta=spec.Delta, delta=spec.delta, mode=spec.mode, seed=noise_seed
    )


def _prepare(spec: ExperimentSpec, rep_seed: int):
    """Build (problem, oracle, feasible set) for one replication; problem is
    None for the composite family (the oracle is the whole problem there),
    and the feasible set None for algo2, which takes none."""
    if spec.task == "composite":
        oracle = _maybe_noisy(_composite_objects(spec, rep_seed), spec, rep_seed + 1)
        return None, oracle, FeasibleSet.whole_space()
    quadratic = spec.task == "pl-quadratic"
    if quadratic:
        problem = _quadratic_problem(spec, rep_seed)
    else:
        gen = generate_task1 if spec.task == "task1" else generate_task2
        problem = gen(n=spec.n, m=spec.m, seed=rep_seed)
    oracle = _maybe_noisy(problem.oracle(), spec, rep_seed + 1)
    return problem, oracle, None if quadratic else problem.feasible


def _solve(spec: ExperimentSpec, oracle, feasible, frozen: bool = False):
    """Run the configured solver; returns its trace.
    ``frozen`` freezes algo2's gradient-error estimate at its start value."""
    N = max(spec.iteration_grid)
    # algo1 and algo2 start at the injected noise levels where delta0 and
    # Delta0 are unset (zero): starting at zero under injected noise, the
    # acceptance test can fail at every L once the steps are short
    delta0 = spec.delta0 if spec.delta0 > 0 else spec.delta
    Delta0 = spec.Delta0 if spec.Delta0 > 0 else spec.Delta
    if spec.solver == "algo2":
        cfg = PLConfig(
            x0=np.zeros(spec.n),
            L0=spec.L0,
            Delta0=Delta0,
            delta0=delta0,
            N=N,
            Delta_cap=spec.Delta if spec.Delta > 0 else None,
            store_iterates=False,
            adapt_Delta=not frozen,
        )
        return pl_minimize(cfg, oracle)
    algo1 = spec.solver == "algo1"
    base = ConvexConfig(
        x0=np.zeros(spec.n),
        L0=spec.L0,
        delta0=delta0 if algo1 else 0.0,
        Delta0=Delta0 if algo1 else 0.0,
        N=N,
        R=math.sqrt(_TASK_R2) if spec.task in ("task1", "task2") else None,
        store_iterates=False,
    )
    if algo1:
        return convex_minimize(base, oracle, feasible)
    # conservative kink budgets where Delta0 is unset: each distance term's
    # subgradient jump is at most 1, doubled by the class-to-model conversion
    kinks = 2.0 * spec.m if spec.task == "task1" else 2.0
    cfg = NonsmoothConfig(
        base=base,
        epsilon=spec.epsilon if spec.epsilon is not None else 0.05,
        Delta_known=spec.Delta0 if spec.Delta0 > 0 else kinks,
    )
    return nonsmooth_minimize(cfg, oracle, feasible)[0]


def run_single(spec: ExperimentSpec, rep_seed: Optional[int] = None):
    """One solver run at N = max(grid); returns its trace."""
    if rep_seed is None:
        rep_seed = _rep_seeds(spec)[0]
    return _solve(spec, *_prepare(spec, rep_seed)[1:])


def _at_grid(trace, grid, start: float, *series) -> list:
    """Each per-step array of ``series``, then ``trace.elapsed_ms``, with its
    start value prepended (``start``; 0 ms for the times) and read at index
    min(g, N_run) for each grid value g: one list per array.  A run with no
    step (algo2 at the noise floor from the start) reads its start values."""
    ks = [min(g, trace.N_run) for g in grid]
    starts = (start,) * len(series) + (0.0,)
    arrays = (*series, trace.elapsed_ms)
    return [np.concatenate(([s], a))[ks].tolist() for s, a in zip(starts, arrays)]


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Grid runs averaged over replications.

    Each replication runs once to the largest grid value; checkpoint rows
    are sliced from the single trace, which matches per-cell reruns
    exactly because the solvers are deterministic given the seed.
    """
    seeds = _rep_seeds(spec)
    grid = spec.iteration_grid
    est = np.zeros((spec.replications, len(grid)))
    gaps = np.zeros_like(est)
    times = np.zeros_like(est)
    f_hat_final = []

    for r, rep_seed in enumerate(seeds):
        problem, oracle, feasible = _prepare(spec, rep_seed)
        trace = _solve(spec, oracle, feasible)
        best = trace.f_best_running()
        if spec.task in ("task1", "task2"):  # the certificate, and the best value on the side
            lb = 0.0 if spec.task == "task1" else problem.lower_bound()
            series = (trace.cert_hist, best - lb)
            f_hat_final.append(problem.value(trace.x_hat))
        else:  # the best value, and the last on the side
            lb = 0.0 if problem is None else problem.f_star  # composite has no problem object
            series = (best - lb, trace.f_values - lb)
            f_hat_final.append(trace.f_final)
        est[r], gaps[r], times[r] = _at_grid(trace, grid, float(trace.f0 - lb), *series)

    aux = {"per_seed_aux_gap": gaps, "per_seed_f_hat_final": f_hat_final, "seeds": seeds}
    return ResultTable(grid, tuple(times.mean(axis=0).tolist()), est, aux)


def compare_adaptive_nonadaptive(spec: ExperimentSpec) -> ResultTable:
    """Paired adaptive vs frozen-estimate runs on identical seeds.

    Both contraction products are evaluated on the adaptive trace (the
    adaptive one also on its own recorded estimates), so the comparison
    isolates what adapting the error estimate buys at equal data.  Both
    runs start their estimate at ``Delta``, so a spec that sets ``Delta0``
    or ``delta0`` is refused.
    """
    if spec.solver != "algo2":
        raise ValueError("the comparison protocol is defined for solver algo2")
    for name in ("Delta0", "delta0"):
        if getattr(spec, name):
            raise ValueError(f"compare does not read {name}; leave it unset")
    seeds = _rep_seeds(spec)
    grid = spec.iteration_grid
    est = np.zeros((spec.replications, len(grid)))
    times = np.zeros_like(est)
    a_bounds, na_bounds, a_gaps, na_gaps, factor_traces = [], [], [], [], []

    for r, rep_seed in enumerate(seeds):
        problem = _quadratic_problem(spec, rep_seed)
        tr_a, tr_na = (
            _solve(spec, _maybe_noisy(problem.oracle(), spec, rep_seed + 1), None, frozen)
            for frozen in (False, True)
        )
        factors = _factors(tr_a, problem.mu, spec.Delta, tr_a.Delta_hist)
        factor_traces.append(factors)
        a_bounds.append(float(np.prod(factors)))  # pl_rate_bound(tr_a, mu, Delta)
        na_bounds.append(pl_rate_bound_nonadaptive(tr_a, problem.mu, spec.Delta))
        a_gaps.append(float(tr_a.f_final - problem.f_star))
        na_gaps.append(float(tr_na.f_final - problem.f_star))
        gap0 = problem.value(np.zeros(spec.n)) - problem.f_star
        est[r], times[r] = _at_grid(tr_a, grid, gap0, np.cumprod(factors) * gap0)

    aux = {"adaptive_bound": a_bounds, "nonadaptive_bound": na_bounds, "adaptive_gap": a_gaps,
           "nonadaptive_gap": na_gaps, "factor_traces": factor_traces, "seeds": seeds}
    return ResultTable(grid, tuple(times.mean(axis=0).tolist()), est, aux)


def finite_diff_check(oracle: ModelOracle, x: Vector, h: float = 1e-6) -> float:
    """Max relative mismatch between the oracle gradient and central
    differences of the value at x."""
    if not 0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    x = as_vector(x)
    g = oracle.evaluate(x).gradient()
    worst = 0.0
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (oracle.evaluate(xp).value - oracle.evaluate(xm).value) / (2.0 * h)
        err = abs(fd - g[i]) / max(1.0, abs(fd), abs(g[i]))
        worst = max(worst, err)
    return worst
