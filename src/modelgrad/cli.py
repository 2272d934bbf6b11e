"""Command line entry points.

Four subcommands: `solve` writes a single-run trace, `table1` reproduces
the iteration-grid benchmark table, `compare` pairs adaptive against
frozen-estimate runs, and `check` compares the oracles' gradients with
finite differences and checks the noise envelopes and the composite
value.  Settings come from an optional config file with
flag overrides on top.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .core import FunctionOracle, NonTerminationError
from .harness import (
    SOLVERS,
    TASKS,
    ConfigError,
    ExperimentSpec,
    _read_config,
    compare_adaptive_nonadaptive,
    finite_diff_check,
    parse_grid,
    run_experiment,
    run_single,
    write_csv,
)
from .problems import (
    L1Penalty,
    NoisyOracle,
    composite_oracle,
    generate_task1,
    generate_task2,
    pl_quadratic_make,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelgrad",
        description="Adaptive model-based gradient methods with inexact data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sizes_and_noise(p):
        p.add_argument("--n", type=int, help="problem dimension")
        p.add_argument("--m", type=int, help="number of centers / rows")
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--Delta", type=float, help="gradient noise level")
        p.add_argument("--delta", type=float, help="value noise level")

    def add_experiment(p):
        p.add_argument("--config", help="config file (key = value lines)")
        p.add_argument("--task", choices=TASKS)
        add_sizes_and_noise(p)
        p.add_argument("--iters", help="iteration grid, e.g. 200,400 or 200..1000")
        p.add_argument("--reps", type=int, dest="replications", metavar="REPS",
                       help="replications per grid cell")
        p.add_argument("--out", help="output CSV path")

    for name, help_text in (("solve", "single run, write the trace CSV"),
                            ("table1", "iteration-grid benchmark table")):
        p = sub.add_parser(name, help=help_text)
        add_experiment(p)
        p.add_argument("--solver", choices=SOLVERS)
        p.add_argument("--epsilon", type=float, help="target accuracy")
    p_cmp = sub.add_parser("compare", help="adaptive vs nonadaptive pairing")
    add_experiment(p_cmp)
    p_cmp.set_defaults(solver="algo2")  # compare runs algo2 only
    p_check = sub.add_parser("check", help="oracle gradient and noise checks")
    add_sizes_and_noise(p_check)
    return parser


def _build_spec(args, *, default_task=None) -> ExperimentSpec:
    """One spec from the config file's fields, then every flag that names a
    spec field, then ``default_task`` if neither names a task; the spec
    checks the merged values once."""
    values = _read_config(args.config) if args.config else {}
    for f in fields(ExperimentSpec):
        if (flag := getattr(args, f.name, None)) is not None:
            values[f.name] = flag
    if args.iters:
        values["iteration_grid"] = parse_grid(args.iters)
    values.setdefault("task", default_task)
    if values["task"] is None:
        raise ConfigError("a task is required (--task or config file)")
    return ExperimentSpec(**values)


def _cmd_solve(args) -> int:
    spec = _build_spec(args)
    trace = run_single(spec)
    out = args.out or "trace.csv"
    write_csv(trace, out)
    print(
        f"solved {spec.task} (n={spec.n}, m={spec.m}, solver={spec.solver}): "
        f"{trace.N_run} iterations, final f = {trace.f_final:.6g}, trace -> {out}"
    )
    return 0


def _cmd_table1(args) -> int:
    spec = _build_spec(args, default_task="task1")
    if spec.task not in ("task1", "task2"):
        print("table1 runs the geometric tasks (task1 or task2)", file=sys.stderr)
        return 2
    table = run_experiment(spec)
    out = args.out or "table1.csv"
    write_csv(table, out)
    print(f"{spec.task}: n={spec.n}, m={spec.m}, solver={spec.solver}, "
          f"reps={spec.replications}")
    print(f"{'iters':>8} {'mean_estimate':>16} {'std':>12} {'time_ms':>10}")
    for row in zip(table.iters, table.mean_estimate, table.std_estimate, table.mean_time_ms):
        print("{:>8} {:>16.6g} {:>12.4g} {:>10.1f}".format(*row))
    print(f"table -> {out}")
    return 0


def _cmd_compare(args) -> int:
    spec = _build_spec(args, default_task="pl-quadratic")
    table = compare_adaptive_nonadaptive(spec)
    out = args.out or "compare.csv"
    write_csv(table, out)
    a = np.asarray(table.aux["adaptive_bound"])
    na = np.asarray(table.aux["nonadaptive_bound"])
    print(f"paired runs: {spec.replications} seeds, Delta={spec.Delta}, "
          f"mode={spec.mode}")
    print(f"mean contraction bound: adaptive {a.mean():.6g}, "
          f"nonadaptive {na.mean():.6g}")
    print(f"adaptive bound <= nonadaptive on {int((a <= na).sum())}/"
          f"{len(a)} seeds; table -> {out}")
    return 0


def _report(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    return ok


def _smooth_point(problem, rng, smooth):
    """A random point of norm below 0.99 at which ``smooth`` accepts the
    vector of its distances to the problem's centers."""
    for _ in range(1000):
        x = rng.standard_normal(problem.dim)
        x *= rng.uniform(0.0, 0.99) / np.linalg.norm(x)
        if smooth(np.sqrt(((problem.centers - x) ** 2).sum(axis=1))):
            return x
    raise RuntimeError("could not sample a smooth point")


def _cmd_check(args) -> int:
    n = 20 if args.n is None else args.n
    m = 6 if args.m is None else args.m
    seed = args.seed or 0
    for flag, value, least in (("--n", n, 1), ("--m", m, 1), ("--seed", seed, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    rng = np.random.default_rng(seed)
    ok = True

    t1 = generate_task1(n=n, m=m, seed=seed)
    t2 = generate_task2(n=n, m=m, seed=seed + 1)
    quad = pl_quadratic_make(
        rng.standard_normal((m + 2, n)), rng.standard_normal(m + 2)
    )

    margin = 1e-3

    def off_the_spheres(d):  # task1 is smooth off every ball's boundary
        return np.all(np.abs(d - t1.ball_radius) > margin)

    def one_farthest(d):  # task2 is smooth where one center is farthest
        top = np.sort(d)[-2:]
        return top[-1] > margin and (len(top) == 1 or top[-1] - top[0] > margin)

    for name, problem, smooth in (("task1", t1, off_the_spheres), ("task2", t2, one_farthest)):
        worst = max(
            finite_diff_check(problem.oracle(), _smooth_point(problem, rng, smooth))
            for _ in range(20)
        )
        ok &= _report(f"finite-diff {name}", worst < 1e-5, f"max rel err {worst:.2e}")
    worst = max(
        finite_diff_check(quad.oracle(), rng.standard_normal(n)) for _ in range(20)
    )
    ok &= _report("finite-diff quadratic", worst < 1e-5, f"max rel err {worst:.2e}")

    Delta = 0.3 if args.Delta is None else args.Delta
    delta = 0.05 if args.delta is None else args.delta
    noisy = NoisyOracle(quad.oracle(), Delta=Delta, delta=delta, seed=seed)
    worst_g, worst_v, inside = 0.0, 0.0, True
    for _ in range(500):
        x = rng.standard_normal(n)
        ev = noisy.evaluate(x)
        g_err = float(np.linalg.norm(ev.gradient() - quad.gradient(x)))
        inside &= noisy.within_envelope(g_err, ev.gradient())
        v_err = quad.value(x) - ev.value
        worst_g = max(worst_g, g_err)
        worst_v = max(worst_v, abs(v_err) if v_err < 0 else 0.0, v_err - delta)
    ok &= _report(
        "noise envelopes",
        inside and worst_v <= 0.0,
        f"max grad err {worst_g:.4g} vs Delta={Delta}",
    )

    pen = L1Penalty(0.1)
    comp = composite_oracle(
        FunctionOracle(lambda x: 0.5 * float(np.dot(x, x)), lambda x: x.copy()).evaluate, pen
    )
    x = rng.standard_normal(n)
    v = comp.evaluate(x).value
    expected = 0.5 * float(np.dot(x, x)) + 0.1 * float(np.abs(x).sum())
    ok &= _report("composite value split", abs(v - expected) < 1e-12)

    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_check(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NonTerminationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
