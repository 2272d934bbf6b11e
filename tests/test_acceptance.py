"""End-to-end acceptance suite.

Each test covers one shipped guarantee at its stated tolerance and prints a
single [PASS]/[FAIL] line (run with -s to see them on success).  Expected
values come from independent reference implementations or closed-form
constants, never from the code under test.
"""

import math
import time

import numpy as np

from modelgrad.convex import ConvexConfig, certificate_bound, convex_minimize
from modelgrad.core import FeasibleSet, FunctionOracle
from modelgrad.cli import main
from modelgrad.harness import (
    ExperimentSpec,
    compare_adaptive_nonadaptive,
    finite_diff_check,
)
from modelgrad.nonsmooth import NonsmoothConfig, nonsmooth_minimize, p_bound
from modelgrad.pl import PLConfig, pl_dichotomy_check, pl_minimize
from modelgrad.problems import (
    MinMaxBallProblem,
    NoisyOracle,
    generate_task2,
    pl_quadratic_make,
)
from reference_solvers import reference_adaptive_pgd

WHOLE = FeasibleSet.whole_space()


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}  ({detail})")


def make_controlled(n, ratio, seed, deficient=False):
    """Least-squares instance with curvature ratio mu/L = ratio by
    construction; `deficient` zeroes a third of the spectrum."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.linspace(math.sqrt(ratio), 1.0, n)
    if deficient:
        s[: n // 3] = 0.0
        s[n // 3] = math.sqrt(ratio)
    A = U @ np.diag(s) @ V.T
    z = rng.standard_normal(n)
    return pl_quadratic_make(A, A @ z)


def _read_table(path):
    lines = path.read_text().strip().split("\n")
    rows = [ln.split(",") for ln in lines[1:]]
    iters = [int(r[0]) for r in rows]
    means = [float(r[1]) for r in rows]
    return iters, means


def test_01_benchmark_tables_decrease_within_windows(tmp_path):
    failures = []
    details = []
    for task, lo, hi in (("task1", 0.12, 0.40), ("task2", 0.15, 0.45)):
        out = tmp_path / f"{task}.csv"
        t0 = time.perf_counter()
        rc = main(
            ["table1", "--task", task, "--n", "1000", "--m", "10",
             "--reps", "10", "--iters", "200..1000", "--out", str(out)]
        )
        elapsed = time.perf_counter() - t0
        iters, means = _read_table(out)
        decreasing = all(b < a for a, b in zip(means, means[1:]))
        ratio = means[-1] / means[0]
        ok = (
            rc == 0
            and iters == [200, 400, 600, 800, 1000]
            and decreasing
            and lo <= ratio <= hi
            and elapsed < 180.0
        )
        if not ok:
            failures.append(task)
        details.append(f"{task}: ratio={ratio:.4f} in [{lo},{hi}], {elapsed:.1f}s")
    _report("criterion 1: benchmark table decay", not failures, "; ".join(details))
    assert not failures, details


def test_02_zero_noise_matches_reference_projected_gradient():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(6000 + seed)
        n = 8
        A = rng.standard_normal((10, n))
        b = rng.standard_normal(10)
        prob = pl_quadratic_make(A, b)
        fs = (
            FeasibleSet.ball(np.zeros(n), 0.5)
            if seed < 2
            else FeasibleSet.whole_space()
        )
        cfg = ConvexConfig(x0=np.zeros(n), L0=1.0, N=100)
        tr = convex_minimize(cfg, prob.oracle(), fs)
        ref = reference_adaptive_pgd(
            np.zeros(n), prob.value, prob.gradient, fs.project, 1.0, 100
        )
        diffs = [float(np.abs(a - r).max()) for a, r in zip(tr.iterates[1:], ref)]
        worst = max(worst, max(diffs))
    ok = worst <= 1e-10
    _report(
        "criterion 2: reference-solver agreement",
        ok,
        f"worst coordinatewise diff {worst:.3e} over 5 runs x 100 iterations",
    )
    assert ok


def test_03_inner_call_count_within_raw_budget():
    fails = 0
    min_slack = math.inf
    N = 60
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        A = rng.standard_normal((8, 6))
        b = rng.standard_normal(8)
        prob = pl_quadratic_make(A, b)
        Delta, delta = 0.05, 0.01
        noisy = NoisyOracle(prob.oracle(), Delta=Delta, delta=delta, seed=seed)
        cfg = ConvexConfig(x0=np.zeros(6), L0=prob.L, delta0=delta, Delta0=Delta, N=N)
        tr = convex_minimize(cfg, noisy, WHOLE)
        # raw (unrounded) budget from the true constants, which the run
        # starts at: every log term is exactly log2(2) = 1
        raw = 2 * N + max(
            math.log2(2.0 * prob.L / prob.L), math.log2(2.0), math.log2(2.0)
        )
        if tr.total_inner_calls > raw:
            fails += 1
        min_slack = min(min_slack, raw - tr.total_inner_calls)
    ok = fails == 0
    _report(
        "criterion 3: inner-call budget",
        ok,
        f"{fails}/20 over budget, min slack {min_slack:.1f} calls",
    )
    assert ok


def test_04_certificate_bounds_true_gap():
    violations = 0
    worst_margin = math.inf
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        if seed % 2 == 0:
            A = rng.standard_normal((7, 5))
            b = rng.standard_normal(7)
            prob = pl_quadratic_make(A, b)
            oracle, setup = prob.oracle(), WHOLE
            x_star, f_star, value = prob.x_star, prob.f_star, prob.value
        else:
            a = rng.standard_normal(5)
            mm = MinMaxBallProblem(a[None, :])
            oracle, setup = mm.oracle(), mm.feasible
            x_star, f_star, value = a, 0.0, mm.value
        x0 = np.zeros(5)
        R = float(np.linalg.norm(x_star - x0)) / math.sqrt(2.0)
        cfg = ConvexConfig(x0=x0, L0=1.0, N=80, store_iterates=False)
        tr = convex_minimize(cfg, oracle, setup)
        bound = certificate_bound(tr, R)
        gap = value(tr.x_hat) - f_star
        worst_margin = min(worst_margin, bound - gap)
        if gap > bound + 1e-12 * max(1.0, abs(bound)):
            violations += 1
    ok = violations == 0
    _report(
        "criterion 4: averaged-output certificate",
        ok,
        f"{violations}/50 violations, worst margin {worst_margin:.3e}",
    )
    assert ok


def test_05_exact_gradient_linear_rate():
    violations = []
    runs = []
    for seed in range(8):
        runs.append(
            make_controlled(
                16, 0.25 if seed % 2 else 0.1, 3000 + seed, deficient=seed % 3 == 0
            )
        )
    # dyadic rank-deficient instance where the step lands exactly on the
    # minimizer: the bound degenerates to zero and the gap must match it
    runs.append(pl_quadratic_make(np.diag([1.0, 0.0]), np.array([1.0, 0.0])))

    for i, prob in enumerate(runs):
        x0 = np.array([1.5, 0.7]) if i == len(runs) - 1 else np.zeros(16)
        cfg = PLConfig(
            x0=x0, L0=2.0 * prob.L, N=200,
            store_iterates=False,
        )
        tr = pl_minimize(cfg, prob.oracle())
        assert tr.N_run <= 200
        gap0 = tr.f0 - prob.f_star
        bound = (1.0 - prob.mu / prob.L) ** tr.N_run * gap0 * (1.0 + 1e-9)
        gap = tr.f_final - prob.f_star
        if gap > bound:
            violations.append((i, gap, bound))
    ok = not violations
    _report(
        "criterion 5: gradient-dominated linear rate",
        ok,
        f"{len(violations)}/9 violations (8 spectra + exact-landing instance)",
    )
    assert ok, violations


def test_06_noisy_gradient_dichotomy():
    unexplained = 0
    branches = {"linear-rate": 0, "noise-floor": 0}
    # short exact-regime budget at small noise, long budget at large noise;
    # the frozen error estimate keeps every accepted constant at or below
    # the true curvature, which the linear-branch bound relies on
    for Delta, N in ((0.01, 5), (0.1, 300)):
        for seed in range(10):
            prob = make_controlled(12, 0.2, 4000 + seed)
            noisy = NoisyOracle(prob.oracle(), Delta=Delta, seed=seed)
            gap0 = prob.value(np.zeros(12)) - prob.f_star
            cfg = PLConfig(
                x0=np.zeros(12), L0=2.0 * prob.L, Delta0=Delta, N=N,
                Delta_cap=Delta,
                store_iterates=False, adapt_Delta=False,
            )
            tr = pl_minimize(cfg, noisy)
            assert np.all(tr.L_hist <= prob.L * (1.0 + 1e-12))
            rep = pl_dichotomy_check(tr, prob.mu, prob.L, Delta, 3.0, gap0)
            branches[rep.branch] += 1
            gaps = np.concatenate(([tr.f0], tr.f_values)) - prob.f_star
            if rep.branch == "linear-rate":
                explained = tr.f_final - prob.f_star <= rep.bound * (1 + 1e-9) + 1e-15
            else:
                explained = gaps.min() < rep.floor * (1.0 + 1e-9)
            unexplained += not explained
    ok = unexplained == 0 and all(v > 0 for v in branches.values())
    _report(
        "criterion 6: noise-level dichotomy",
        ok,
        f"{unexplained}/20 unexplained, branches {branches}",
    )
    assert ok, branches


def test_07_restart_doubling_count_within_bound():
    cap = p_bound(2.0, 0.05, 1.0)
    worst_p = 0
    for seed in range(10):
        prob = generate_task2(n=1000, m=10, seed=5000 + seed)
        base = ConvexConfig(
            x0=np.zeros(1000), L0=1.0, N=150, R=math.sqrt(0.5),
            store_iterates=False,
        )
        cfg = NonsmoothConfig(base=base, epsilon=0.05, Delta_known=2.0, L_class=1.0)
        _, records = nonsmooth_minimize(cfg, prob.oracle(), prob.feasible)
        worst_p = max(worst_p, max(r.p_used for r in records))
    ok = worst_p <= cap
    _report(
        "criterion 7: restart doubling budget",
        ok,
        f"worst doublings {worst_p} <= bound {cap} over 10 seeds x 150 restarts",
    )
    assert ok


def _drop_violations(tr, slack=1e-12):
    """Accepted steps whose decrease falls short of the certified amount
    (g~ - Delta)^2 / (2 L) at the accepted constants."""
    f_prev = tr.f0
    bad = 0
    for k in range(tr.N_run):
        need = (tr.g_norms[k] - tr.Delta_hist[k]) ** 2 / (2.0 * tr.L_hist[k])
        if f_prev - tr.f_values[k] < need - slack * max(1.0, abs(f_prev)):
            bad += 1
        f_prev = tr.f_values[k]
    return bad


def test_08_per_step_decrease_is_quantitative():
    total_bad = 0
    total_steps = 0
    for seed in range(10):
        prob = make_controlled(12, 0.2, 7000 + seed)
        Delta = 0.05 if seed % 2 else 0.0
        oracle = (
            NoisyOracle(prob.oracle(), Delta=Delta, seed=seed)
            if Delta
            else prob.oracle()
        )
        cfg = PLConfig(
            x0=np.zeros(12), L0=2.0 * prob.L, Delta0=Delta, N=100,
            Delta_cap=Delta if Delta else None,
            store_iterates=False,
        )
        tr = pl_minimize(cfg, oracle)
        total_bad += _drop_violations(tr)
        total_steps += tr.N_run
    ok = total_bad == 0 and total_steps > 0
    _report(
        "criterion 8: certified per-step decrease",
        ok,
        f"{total_bad} short steps out of {total_steps} accepted",
    )
    assert ok


def test_09_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    from modelgrad.problems import generate_task1

    def smooth_point_t1(problem, margin=1e-3):
        # resample until every distance term is clear of its kink sphere
        while True:
            x = rng.standard_normal(problem.dim)
            x *= rng.uniform(0.0, 0.99) / np.linalg.norm(x)
            d = np.sqrt(((problem.centers - x) ** 2).sum(axis=1))
            if np.all(np.abs(d - problem.ball_radius) > margin):
                return x

    def smooth_point_t2(problem, margin=1e-3):
        # the max must be uniquely attained and away from zero
        while True:
            x = rng.standard_normal(problem.dim)
            x *= rng.uniform(0.0, 0.99) / np.linalg.norm(x)
            d = np.sort(np.sqrt(((problem.centers - x) ** 2).sum(axis=1)))
            if d[-1] - d[-2] > margin and d[-1] > margin:
                return x

    t1 = generate_task1(n=20, m=6, seed=0)
    t2 = generate_task2(n=20, m=6, seed=1)
    quad = make_controlled(20, 0.2, 8000)
    rngc = np.random.default_rng(9)
    Ac = rngc.standard_normal((15, 20))
    bc = rngc.standard_normal(15)
    smooth_part = FunctionOracle(
        lambda x: 0.5 * float(np.dot(Ac @ x - bc, Ac @ x - bc)),
        lambda x: Ac.T @ (Ac @ x - bc),
    )

    worst = {}
    w = 0.0
    for _ in range(100):
        w = max(w, finite_diff_check(t1.oracle(), smooth_point_t1(t1)))
    worst["task1"] = w
    w = 0.0
    for _ in range(100):
        w = max(w, finite_diff_check(t2.oracle(), smooth_point_t2(t2)))
    worst["task2"] = w
    w = 0.0
    for _ in range(100):
        w = max(w, finite_diff_check(quad.oracle(), rng.standard_normal(20)))
    worst["quadratic"] = w
    w = 0.0
    for _ in range(100):
        w = max(w, finite_diff_check(smooth_part, rng.standard_normal(20)))
    worst["composite-smooth"] = w

    ok = all(v < 1e-5 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _report("criterion 9: finite-difference agreement", ok, detail)
    assert ok, worst


def test_10_adapting_the_error_estimate_never_hurts():
    spec = ExperimentSpec(
        task="pl-quadratic", n=10, m=16, iteration_grid=(60,), replications=10,
        seed=11, Delta=0.1, solver="algo2",
    )
    table = compare_adaptive_nonadaptive(spec)
    a = np.array(table.aux["adaptive_bound"])
    na = np.array(table.aux["nonadaptive_bound"])
    good = int((a <= na).sum())
    ok = good == 10
    _report(
        "criterion 10: adaptive vs frozen error estimate",
        ok,
        f"adaptive bound <= frozen bound on {good}/10 paired seeds",
    )
    assert ok
