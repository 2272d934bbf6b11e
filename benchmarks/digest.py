"""One SHA-256 per solver case, to check that a change leaves outputs bitwise alone.

Each case runs the library through its public API only and hashes what
comes out:

* every trace field but ``elapsed_ms`` (arrays by dtype, shape and bytes);
* the restarted method's ``RestartRecord`` list;
* the harness's result tables with their ``aux``, but not ``mean_time_ms``;
* for a ``NonTerminationError``, its iteration, triple, ``inner_calls`` and
  partial trace;
* the CLI's trace CSV without its ``elapsed_ms`` column.

The cases: task1 and task2 with the restarted method, without and with
``L_class``, and with algo1; noisy algo1 in both noise modes; algo2 with
an adaptive and a frozen error estimate; noisy composite; the
adaptive/frozen comparison; algo2 at the noise floor from the start;
trial-cap failures of all three solvers at several caps; ``modelgrad
solve`` from a config file with flags on top; and algo1 runs that the
certificate stops early.  Run it against two
checkouts and diff the output (the script imports its own checkout's
``src`` unless PYTHONPATH names another):

    python3 benchmarks/digest.py > after.txt
    PYTHONPATH=../other/src python3 benchmarks/digest.py > before.txt

Usage: python3 benchmarks/digest.py [--n 60] [--m 6] [--iters 150] [--reps 2] [--seeds 0,1,2]
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# last on the path, so a PYTHONPATH pointing at another checkout still wins
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from modelgrad import (
    ConvexConfig,
    ExperimentSpec,
    FeasibleSet,
    FunctionOracle,
    L1Penalty,
    NoisyOracle,
    NonsmoothConfig,
    NonTerminationError,
    PLConfig,
    compare_adaptive_nonadaptive,
    composite_oracle,
    convex_minimize,
    generate_task1,
    generate_task2,
    nonsmooth_minimize,
    pl_minimize,
    pl_quadratic_make,
    run_experiment,
    run_single,
)
from modelgrad import cli

SKIPPED = {"elapsed_ms", "mean_time_ms"}  # timings differ from run to run


def _feed(h, obj) -> None:
    """Feed ``obj`` into the hash ``h``, floats and arrays by their bits."""
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            if f.name not in SKIPPED:
                h.update(f.name.encode())
                _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (np.ndarray, np.floating, float)):
        a = np.asarray(obj)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    else:
        h.update(repr(obj).encode())


def _outcome(run):
    """What ``run()`` returns, or the contents of the ``NonTerminationError``
    it raises."""
    try:
        return run()
    except NonTerminationError as err:
        return ("NonTerminationError", err.iteration, err.triple, err.inner_calls,
                err.partial_trace)


def _spec(args, **kw):
    return ExperimentSpec(n=args.n, m=args.m, iteration_grid=args.grid,
                          replications=args.reps, **kw)


def _harness(args, seed, **kw):
    """The table of ``run_experiment`` and the trace of ``run_single``."""
    spec = _spec(args, seed=seed, **kw)
    return run_experiment(spec), run_single(spec)


def _restarted(gen, args, seed, L_class=None):
    prob = gen(n=args.n, m=args.m, seed=seed)
    cfg = NonsmoothConfig(base=ConvexConfig(x0=np.zeros(args.n), N=args.N, R=0.5**0.5),
                          epsilon=0.05, Delta_known=2.0, L_class=L_class)
    return nonsmooth_minimize(cfg, prob.oracle(), prob.feasible)


def _restarted_L_class(args, seed):
    """The restarted method on task1 and task2 with L_class = 24.  Phase 2
    starts at max(L1, L_class) and ends at that L times 2^p_used, so
    final_L = 24 * 2^p_used marks a start at L_class.  Some restarts must
    start there and some past it."""
    out = [_restarted(gen, args, seed, 24.0) for gen in (generate_task1, generate_task2)]
    at_class = {rec.final_L == 24.0 * 2**rec.p_used for _, records in out for rec in records}
    if at_class != {True, False}:
        raise AssertionError(f"the runs of seed {seed} do not start phase 2 both ways")
    return out


def _quadratic(args, seed):
    rng = np.random.default_rng(seed)
    return pl_quadratic_make(rng.standard_normal((2 * args.m, args.n)),
                             rng.standard_normal(2 * args.m))


def _algo2(args, seed, adapt):
    prob = _quadratic(args, seed)
    oracle = NoisyOracle(prob.oracle(), Delta=1e-3, delta=1e-4, seed=seed + 1)
    cfg = PLConfig(x0=np.zeros(args.n), Delta0=1e-3, delta0=1e-4, N=args.N, Delta_cap=1e-3,
                   adapt_Delta=adapt)
    return pl_minimize(cfg, oracle)


def _floor_at_start(args, seed):
    """algo2 whose start gradient is already within its error estimate,
    directly, through the harness and in the comparison."""
    prob = _quadratic(args, seed)
    gn = float(np.linalg.norm(prob.gradient(np.zeros(args.n))))
    direct = pl_minimize(PLConfig(x0=np.zeros(args.n), Delta0=2.0 * gn, N=args.N), prob.oracle())
    return (direct, _harness(args, seed, task="pl-quadratic", Delta=1e3),
            compare_adaptive_nonadaptive(_spec(args, seed=seed, task="pl-quadratic", Delta=1e3)))


def _cap_failures(args, seed):
    """Each solver at trial caps 1, 4, 5 and 10, from L0 = 1 (a failure
    after some accepted steps, or none) and from L0 = 1e-9 (about 30
    doublings needed at the first step)."""
    prob = generate_task1(n=args.n, m=args.m, seed=seed)
    quad = _quadratic(args, seed)
    x0 = np.zeros(args.n)
    out = []
    for cap in (1, 4, 5, 10):
        for L0 in (1.0, 1e-9):
            base = ConvexConfig(x0=x0, L0=L0, N=args.N, R=0.5**0.5, max_inner_per_iter=cap)
            out.append(_outcome(lambda: convex_minimize(base, prob.oracle(), prob.feasible)))
            out.append(_outcome(lambda: nonsmooth_minimize(
                NonsmoothConfig(base=base, epsilon=0.05, Delta_known=2.0),
                prob.oracle(), prob.feasible)))
            out.append(_outcome(lambda: pl_minimize(
                PLConfig(x0=x0, L0=L0, N=args.N, max_inner_per_iter=cap), quad.oracle())))
    # a run that fails after one accepted step: the value jumps up left of 0.5
    liar = FunctionOracle(lambda x: 0.5 * float(x @ x) if x[0] >= 0.5 else 10.0,
                          lambda x: x.copy())
    start = ConvexConfig(x0=np.array([1.0, 0.0]), L0=4.0, N=5, max_inner_per_iter=10)
    out.append(_outcome(lambda: convex_minimize(start, liar, FeasibleSet.whole_space())))
    out.append(_outcome(lambda: nonsmooth_minimize(
        NonsmoothConfig(base=start, epsilon=0.1), liar, FeasibleSet.whole_space())))
    out.append(_outcome(lambda: pl_minimize(
        PLConfig(x0=start.x0, L0=4.0, N=5, max_inner_per_iter=10), liar)))
    return out


def _cli_config(args, seed):
    """``solve`` from a config file that is valid alone, with flags that pick
    algo1 and add gradient noise: its exit code and its trace CSV without
    the ``elapsed_ms`` column (the last)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "trace.csv")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"task = task2\nn = {args.n}\nm = {args.m}\nseed = {seed}\n"
                     f"iteration_grid = {','.join(map(str, args.grid))}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["solve", "--config", cfg, "--solver", "algo1", "--Delta", "0.05",
                           "--out", out])
        with open(out, encoding="utf-8") as fh:
            return rc, [row.rsplit(",", 1)[0] for row in fh.read().splitlines()]


def _early_stop(args, seed):
    """algo1 with R and epsilon at gamma = 0 on a quadratic, exact and with
    a known value gap, and on the quadratic plus 0.1 ||x||_1.  Each epsilon
    is the certificate the same run without one reads at step N/2, so every
    run stops by then."""
    prob = _quadratic(args, seed)
    dist = float(np.linalg.norm(prob.x_star))
    l1_dist = float(prob.b @ prob.b) / 0.2  # 0.1 ||x*||_1 <= F(x*) <= F(0) = ||b||^2 / 2
    makers = (
        (prob.oracle, 0.0, dist),
        (lambda: NoisyOracle(prob.oracle(), delta=1e-3, seed=seed + 1), 1e-3, dist),
        (lambda: composite_oracle(prob.oracle().evaluate, L1Penalty(0.1)), 0.0, l1_dist),
    )
    whole, out = FeasibleSet.whole_space(), []
    for make, delta0, R_dist in makers:
        cfg = dict(x0=np.zeros(args.n), delta0=delta0, N=args.N, R=R_dist / 2**0.5)
        eps = convex_minimize(ConvexConfig(**cfg), make(), whole).cert_hist[args.N // 2]
        out.append(convex_minimize(ConvexConfig(**cfg, epsilon=eps), make(), whole))
    if not all(trace.stopped_early for trace in out):
        raise AssertionError(f"a run of seed {seed} did not stop early")
    return out


CASES = {
    "task1-restarted": lambda a, s: (_restarted(generate_task1, a, s),
                                     _harness(a, s, task="task1")),
    "task2-restarted": lambda a, s: (_restarted(generate_task2, a, s),
                                     _harness(a, s, task="task2")),
    "restarted-L_class": _restarted_L_class,
    "task1-algo1": lambda a, s: _harness(a, s, task="task1", solver="algo1"),
    "task2-algo1": lambda a, s: _harness(a, s, task="task2", solver="algo1"),
    **{
        f"task2-algo1-noisy-{mode}": (
            lambda a, s, mode=mode: _harness(a, s, task="task2", solver="algo1",
                                             Delta=0.1, delta=0.01, mode=mode)
        )
        for mode in NoisyOracle.MODES
    },
    "algo2-adaptive": lambda a, s: (_algo2(a, s, True),
                                    _harness(a, s, task="pl-quadratic", Delta=1e-3)),
    "algo2-frozen": lambda a, s: _algo2(a, s, False),
    "composite-noisy": lambda a, s: _harness(a, s, task="composite", Delta=0.01, delta=1e-3),
    "compare": lambda a, s: compare_adaptive_nonadaptive(
        _spec(a, seed=s, task="pl-quadratic", Delta=1e-3)),
    "floor-at-start": _floor_at_start,
    "cap-failures": _cap_failures,
    "cli-config": _cli_config,
    "early-stop": _early_stop,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=60, help="problem dimension")
    parser.add_argument("--m", type=int, default=6, help="number of centers / rows")
    parser.add_argument("--iters", type=int, default=150, help="steps per run (N)")
    parser.add_argument("--reps", type=int, default=2, help="harness replications")
    parser.add_argument("--seeds", default="0,1,2", help="comma list of base seeds")
    args = parser.parse_args()
    args.N = args.iters
    args.grid = (max(1, args.iters // 3), args.iters)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    for name, case in CASES.items():
        h = hashlib.sha256()
        for seed in seeds:
            _feed(h, case(args, seed))
        print(f"{name}\t{h.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
