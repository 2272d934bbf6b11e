import dataclasses
import functools

import numpy as np
import pytest

from modelgrad import cli, harness
from modelgrad.cli import main
from modelgrad.convex import ConvexConfig
from modelgrad.core import FeasibleSet, NonTerminationError, aligned_empty
from modelgrad.harness import (
    TABLE_COLUMNS,
    TRACE_COLUMNS,
    ConfigError,
    ExperimentSpec,
    compare_adaptive_nonadaptive,
    default_solver,
    finite_diff_check,
    parse_config,
    parse_grid,
    run_experiment,
    run_single,
    write_config,
    write_csv,
)
from modelgrad.nonsmooth import NonsmoothConfig, nonsmooth_minimize
from modelgrad.problems import (
    L1Penalty,
    composite_oracle,
    generate_task1,
    least_squares,
    pl_quadratic_make,
)


class TestParseGrid:
    def test_range_steps_by_start(self):
        assert parse_grid("200..1000") == (200, 400, 600, 800, 1000)

    def test_explicit_step(self):
        assert parse_grid("100..500..200") == (100, 300, 500)

    def test_comma_list(self):
        assert parse_grid("50,100") == (50, 100)
        assert parse_grid(" 50, 100 ,150") == (50, 100, 150)

    def test_stop_included_only_on_exact_hit(self):
        assert parse_grid("100..550..200") == (100, 300, 500)

    def test_bad_ranges(self):
        for text in ("0..10", "5..1", "10..20..0", "1..2..3..4", "a,b"):
            with pytest.raises(ValueError):
                parse_grid(text)


class TestExperimentSpec:
    def test_solver_defaults_follow_task(self):
        assert ExperimentSpec(task="task1").solver == "nonsmooth"
        assert ExperimentSpec(task="task2").solver == "nonsmooth"
        assert ExperimentSpec(task="pl-quadratic").solver == "algo2"
        assert ExperimentSpec(task="composite").solver == "algo1"
        assert default_solver("task1") == "nonsmooth"

    def test_explicit_solver_kept(self):
        assert ExperimentSpec(task="task1", solver="algo1").solver == "algo1"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(task="task3")
        with pytest.raises(ValueError):
            ExperimentSpec(task="task1", solver="newton")
        with pytest.raises(ValueError):
            ExperimentSpec(task="task1", n=0)
        with pytest.raises(ValueError):
            ExperimentSpec(task="task1", iteration_grid=())
        with pytest.raises(ValueError):
            ExperimentSpec(task="task1", iteration_grid=(100, 100))
        with pytest.raises(ValueError):
            ExperimentSpec(task="task1", replications=0)
        with pytest.raises(ValueError):
            ExperimentSpec(task="task1", Delta=-0.1)
        with pytest.raises(ValueError):
            ExperimentSpec(task="task1", mode="gaussian")

    def test_grid_entry_below_one_refused(self):
        with pytest.raises(ValueError, match="entries must be positive"):
            ExperimentSpec(task="task1", iteration_grid=(0, 5))

    # each of these runs exactly as it would without the field
    @pytest.mark.parametrize(
        "kw, message",
        [(dict(task="task2", solver="algo1", epsilon=0.1), "solver 'algo1' does not read epsilon"),
         (dict(task="pl-quadratic", epsilon=0.1), "solver 'algo2' does not read epsilon"),
         (dict(task="composite", epsilon=0.1), "solver 'algo1' does not read epsilon"),
         (dict(task="task2", delta0=0.1), "'nonsmooth' does not read delta0")],
        ids=["algo1-epsilon", "algo2-epsilon", "composite-epsilon", "nonsmooth-delta0"],
    )
    def test_fields_the_solver_ignores_refused(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(**kw)

    def test_fields_the_solver_reads_kept(self):
        assert ExperimentSpec(task="task1", epsilon=0.1).epsilon == 0.1
        assert ExperimentSpec(task="task1", solver="algo1", delta0=0.1).delta0 == 0.1
        assert ExperimentSpec(task="task1", Delta0=0.1).Delta0 == 0.1

    def test_cli_refuses_epsilon_for_algo1(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["solve", "--task", "task2", "--solver", "algo1", "--epsilon", "0.1",
                   "--n", "5", "--m", "3", "--iters", "5", "--out", str(out)])
        assert rc == 2
        assert "does not read epsilon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["task1", "task2"])
    @pytest.mark.parametrize("noise", [{"Delta": 0.1}, {"delta": 0.1}])
    def test_noisy_restarted_runs_refused_up_front(self, task, noise):
        with pytest.raises(ValueError, match="--solver algo1"):
            ExperimentSpec(task=task, **noise)
        with pytest.raises(ValueError, match="--solver algo1"):
            ExperimentSpec(task=task, solver="nonsmooth", **noise)
        assert ExperimentSpec(task=task, solver="algo1", **noise).solver == "algo1"

    def test_cli_refuses_noisy_restarted_table1(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        rc = main(["table1", "--task", "task1", "--Delta", "0.1", "--out", str(out)])
        assert rc == 2
        assert "--solver algo1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("L0", "Delta0", "delta0", "Delta", "delta")
         for v in (np.nan, np.inf, -np.inf)] + [("L0", 0.0), ("L0", -1.0)]
        + [("n", 2.5), ("m", 3.0), ("replications", 2.5), ("seed", 1.5), ("seed", -1),
           ("iteration_grid", (1.5, 3)), ("n", True), ("seed", False),
           ("iteration_grid", (True, 3))],
    )
    def test_bad_constants_refused_when_built(self, field, value):
        solver = {} if field in ("L0", "Delta0", "delta0") else {"solver": "algo1"}
        with pytest.raises(ValueError, match=f"{field} must be"):
            ExperimentSpec(task="task1", **solver, **{field: value})

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["--solver", "algo1", "--Delta", "nan"], None, "Delta must be nonnegative and finite"),
            (["--solver", "algo1", "--delta", "inf"], None, "delta must be nonnegative and finite"),
            ([], "task = task1\nL0 = nan\n", "L0 must be positive and finite"),
            (["--epsilon", "inf"], None, "epsilon must be positive and finite"),
            (["--seed", "-1"], None, "seed must be a non-negative integer"),
        ],
        ids=["Delta-nan", "delta-inf", "config-L0-nan", "epsilon-inf", "seed-negative"],
    )
    def test_cli_refuses_non_finite_constants_before_generating(
        self, tmp_path, capsys, monkeypatch, args, config, message
    ):
        def no_data(*a, **kw):
            raise AssertionError("data generated for a spec that should be refused")

        monkeypatch.setattr("modelgrad.harness.generate_task1", no_data)
        if config is not None:
            (tmp_path / "exp.cfg").write_text(config)
            args = [*args, "--config", str(tmp_path / "exp.cfg")]
        out = tmp_path / "t.csv"
        rc = main(["table1", "--task", "task1", *args, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_incompatible_combo_rejected_at_construction(self):
        with pytest.raises(ValueError, match="supports solvers \\('algo2',\\)"):
            ExperimentSpec(task="pl-quadratic", solver="algo1")


class TestConfigFiles:
    def test_roundtrip_equality(self, tmp_path):
        spec = ExperimentSpec(
            task="task2",
            n=37,
            m=5,
            iteration_grid=(10, 30, 70),
            replications=4,
            seed=12,
            solver="algo1",
            L0=0.7,
            Delta=0.125,
            delta=0.0625,
            delta0=0.031,
        )
        path = tmp_path / "run.cfg"
        write_config(spec, path)
        assert parse_config(path) == spec

    def test_comments_and_spacing_tolerated(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            "task = task1  # geometric\n"
            "\n"
            "n= 17\n"
            "iteration_grid = 10..30..10\n"
        )
        spec = parse_config(path)
        assert spec.task == "task1"
        assert spec.n == 17
        assert spec.iteration_grid == (10, 20, 30)

    @pytest.mark.parametrize(
        "content,lineno",
        [
            ("task = task1\nbudget = 3\n", 2),
            ("task = task1\nC = 3.0\n", 2),
            ("task = task1\ntask = task2\n", 2),
            ("n = seven\ntask = task1\n", 1),
            ("task task1\n", 1),
        ],
    )
    def test_errors_cite_line_numbers(self, tmp_path, content, lineno):
        path = tmp_path / "bad.cfg"
        path.write_text(content)
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert info.value.line == lineno

    def test_missing_task_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 10\n")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestCSV:
    @pytest.mark.parametrize(
        "spec",
        [ExperimentSpec(task="task1", n=8, m=3, iteration_grid=(15,)),
         ExperimentSpec(task="pl-quadratic", n=4, m=6, iteration_grid=(20,))],
        ids=["task1", "pl-quadratic"],
    )
    def test_trace_roundtrip_full_precision(self, spec, tmp_path):
        trace = run_single(spec)
        path = tmp_path / "trace.csv"
        write_csv(trace, path)

        lines = path.read_text().strip().split("\n")
        assert lines[0] == TRACE_COLUMNS
        assert len(lines) == 1 + trace.N_run
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(data[:, 0], np.arange(1, trace.N_run + 1))
        columns = (trace.f_values, trace.f_best_running(), trace.L_hist, trace.delta_hist,
                   trace.Delta_hist, trace.inner_hist, trace.step_norms, trace.cert_hist,
                   trace.elapsed_ms)
        for j, column in enumerate(columns, 1):
            assert data[:, j].tobytes() == np.asarray(column, dtype=np.float64).tobytes()

    def test_table_schema(self, tmp_path):
        spec = ExperimentSpec(
            task="task1", n=8, m=3, iteration_grid=(10, 20), replications=2
        )
        table = run_experiment(spec)
        path = tmp_path / "table.csv"
        write_csv(table, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == TABLE_COLUMNS
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 10
        assert float(first[1]) == table.mean_estimate[0]

    def test_refuses_an_object_that_is_neither_trace_nor_table(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize dict"):
            write_csv({"iters": (1,)}, tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "out.cfg"
        target.mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(OSError):
            write_config(ExperimentSpec(task="task1"), target)
        assert list(tmp_path.iterdir()) == [target]


class TestRunners:
    def test_run_single_deterministic(self):
        spec = ExperimentSpec(task="task2", n=10, m=4, iteration_grid=(25,), seed=3)
        t1 = run_single(spec, rep_seed=99)
        t2 = run_single(spec, rep_seed=99)
        np.testing.assert_array_equal(t1.f_values, t2.f_values)
        np.testing.assert_array_equal(t1.x_hat, t2.x_hat)

    def test_estimates_decrease_over_grid(self):
        spec = ExperimentSpec(
            task="task1", n=12, m=4, iteration_grid=(20, 40, 60), replications=3
        )
        table = run_experiment(spec)
        means = table.mean_estimate
        assert all(b < a for a, b in zip(means, means[1:]))
        assert table.per_seed_estimates.shape == (3, 3)

    def test_compare_zero_noise_arms_coincide(self):
        spec = ExperimentSpec(
            task="pl-quadratic",
            n=6,
            m=8,
            iteration_grid=(30,),
            replications=3,
            seed=5,
        )
        table = compare_adaptive_nonadaptive(spec)
        np.testing.assert_array_equal(
            table.aux["adaptive_bound"], table.aux["nonadaptive_bound"]
        )
        np.testing.assert_array_equal(
            table.aux["adaptive_gap"], table.aux["nonadaptive_gap"]
        )

    def test_composite_estimates_read_the_trace_at_the_grid(self):
        spec = ExperimentSpec(task="composite", n=8, m=5, iteration_grid=(5, 10, 20),
                              replications=1, seed=2)
        table = run_experiment(spec)
        est = table.per_seed_estimates[0]
        trace = run_single(spec)
        assert np.isfinite(est).all() and np.all(np.diff(est) <= 0)
        assert np.all((0 <= est) & (est <= trace.f0))
        np.testing.assert_array_equal(est, trace.f_best_running()[[4, 9, 19]])

    def test_nonsmooth_reads_Delta0_as_the_kink_budget(self):
        spec = ExperimentSpec(task="task1", n=10, m=4, iteration_grid=(30,), Delta0=3.0)
        trace = run_single(spec, rep_seed=7)
        prob = generate_task1(n=10, m=4, seed=7)
        base = ConvexConfig(x0=np.zeros(10), N=30, R=np.sqrt(0.5), store_iterates=False)
        want, _ = nonsmooth_minimize(NonsmoothConfig(base=base, epsilon=0.05, Delta_known=3.0),
                                     prob.oracle(), prob.feasible)
        assert 3.0 in trace.Delta_hist
        for name in ("f_values", "L_hist", "Delta_hist", "step_norms", "cert_hist", "x_hat"):
            np.testing.assert_array_equal(getattr(trace, name), getattr(want, name), name)

    def test_empty_runs_read_their_start_at_every_grid_value(self):
        # Delta far above every gradient: algo2 stops at the noise floor
        # before its first step, so no run has a step to read
        spec = ExperimentSpec(task="pl-quadratic", n=5, m=8, Delta=1e3, replications=2,
                              iteration_grid=(3, 6))
        assert run_single(spec).N_run == 0
        quadratics = [harness._quadratic_problem(spec, s) for s in harness._rep_seeds(spec)]
        gaps = [[q.value(np.zeros(5)) - q.f_star] * 2 for q in quadratics]
        table, paired = run_experiment(spec), compare_adaptive_nonadaptive(spec)
        for t in (table, paired):
            assert t.per_seed_estimates.tolist() == gaps
            assert t.mean_time_ms == (0.0, 0.0)
        assert paired.aux["adaptive_bound"] == paired.aux["nonadaptive_bound"] == [1.0, 1.0]

    def test_compare_requires_algo2(self):
        spec = ExperimentSpec(task="task1", n=6, m=3)
        with pytest.raises(ValueError):
            compare_adaptive_nonadaptive(spec)

    # compare freezes its estimate at Delta and has no certificate stop; it
    # used to run on and print the same estimates whatever these fields said.
    # algo2 never reads epsilon, so the spec itself refuses that one.
    @pytest.mark.parametrize("field, value", [("epsilon", 0.5), ("Delta0", 0.01), ("delta0", 0.3)])
    def test_compare_refuses_fields_it_ignores(self, monkeypatch, field, value):
        def no_data(*args):
            raise AssertionError("data drawn before the spec was checked")

        monkeypatch.setattr(harness, "_quadratic_problem", no_data)
        if field == "epsilon":
            with pytest.raises(ValueError, match="solver 'algo2' does not read epsilon"):
                ExperimentSpec(task="pl-quadratic", n=5, m=7, **{field: value})
            return
        spec = ExperimentSpec(task="pl-quadratic", n=5, m=7, **{field: value})
        with pytest.raises(ValueError, match=f"compare does not read {field}"):
            compare_adaptive_nonadaptive(spec)


def _at_offset(a, offset):
    """A copy of ``a`` whose data starts ``offset`` bytes past a 64-byte
    boundary."""
    out = aligned_empty((a.size + 8,))[offset // 8 :][: a.size].reshape(a.shape)
    out[...] = a
    return out


def test_composite_outputs_do_not_depend_on_where_A_sits():
    spec = ExperimentSpec(task="composite", n=1000, m=100, iteration_grid=(60,))
    A, b = harness._composite_objects(spec, 0)._evaluate_smooth.args
    assert A.ctypes.data % 64 == 0
    assert A.flags.c_contiguous and not A.flags.writeable
    traces = []
    for offset in (0, 16, 32, 48):
        moved = _at_offset(A, offset)
        assert moved.ctypes.data % 64 == offset
        oracle = composite_oracle(
            functools.partial(least_squares, moved, b), L1Penalty(harness._COMPOSITE_WEIGHT)
        )
        traces.append(harness._solve(spec, oracle, FeasibleSet.whole_space()))
    assert traces[0].N_run == 60
    for trace in traces[1:]:
        for f in dataclasses.fields(trace):
            if f.name == "elapsed_ms":
                continue
            got, want = getattr(trace, f.name), getattr(traces[0], f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name


class TestFiniteDiff:
    def test_exact_gradient_passes(self):
        rng = np.random.default_rng(0)
        prob = pl_quadratic_make(rng.standard_normal((6, 4)), rng.standard_normal(6))
        assert finite_diff_check(prob.oracle(), rng.standard_normal(4)) < 1e-8

    def test_wrong_gradient_detected(self):
        from modelgrad.core import FunctionOracle

        oracle = FunctionOracle(
            lambda x: 0.5 * float(x @ x), lambda x: 1.1 * x
        )
        assert finite_diff_check(oracle, np.array([1.0, 2.0])) > 1e-3

    def test_rejects_bad_step(self):
        from modelgrad.core import FunctionOracle

        oracle = FunctionOracle(lambda x: 0.0, lambda x: np.zeros_like(x))
        with pytest.raises(ValueError):
            finite_diff_check(oracle, np.zeros(2), h=0.0)


class TestCLI:
    def test_solve_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(
            ["solve", "--task", "task1", "--n", "10", "--m", "3",
             "--iters", "30", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().startswith(TRACE_COLUMNS)
        assert "solved task1" in capsys.readouterr().out

    def test_table1_writes_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        rc = main(
            ["table1", "--task", "task2", "--n", "10", "--m", "3",
             "--iters", "10..30..10", "--reps", "2", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == TABLE_COLUMNS
        assert len(lines) == 4
        assert "10" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "task, noise",
        [
            ("task1", ["--delta", "0.05"]),
            ("task2", ["--delta", "0.05"]),
            ("task1", ["--Delta", "0.05", "--delta", "0.01"]),
        ],
    )
    def test_noisy_algo1_table1_starts_at_injected_levels(self, tmp_path, capsys, task, noise):
        # with delta0 = Delta0 = 0 under injected noise these runs found no
        # acceptable step within the trial cap after a few iterations
        out = tmp_path / "table.csv"
        rc = main(
            ["table1", "--task", task, "--n", "200", "--m", "10", "--iters", "50..200",
             "--reps", "3", "--solver", "algo1", *noise, "--out", str(out)]
        )
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 4
        assert all(np.isfinite(float(v)) for row in rows for v in row.split(","))
        capsys.readouterr()

    def test_table1_rejects_non_geometric_task(self, capsys):
        rc = main(["table1", "--task", "pl-quadratic"])
        assert rc == 2
        capsys.readouterr()

    def test_compare_refuses_a_geometric_task(self, tmp_path, capsys):
        # compare runs algo2, which task1 does not take; it used to run PL
        # quadratics anyway and exit 0
        out = tmp_path / "cmp.csv"
        rc = main(["compare", "--task", "task1", "--n", "5", "--m", "3", "--out", str(out)])
        assert rc == 2
        assert "supports solvers ('nonsmooth', 'algo1')" in capsys.readouterr().err
        assert not out.exists()

    # each subcommand takes only the flags it reads: check builds no spec,
    # and compare always runs algo2 with no certificate stop
    @pytest.mark.parametrize(
        "argv",
        [["check", "--task", "task1"], ["compare", "--solver", "algo1"],
         ["compare", "--epsilon", "0.1"]],
        ids=["check --task", "compare --solver", "compare --epsilon"],
    )
    def test_subcommand_refuses_a_flag_it_would_ignore(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["epsilon = 0.5", "Delta0 = 0.01", "delta0 = 0.3"])
    def test_compare_refuses_a_config_field_it_ignores(self, tmp_path, capsys, line):
        cfg, out = tmp_path / "spec.cfg", tmp_path / "cmp.csv"
        cfg.write_text(f"task = pl-quadratic\n{line}\n")
        rc = main(["compare", "--config", str(cfg), "--n", "5", "--m", "7", "--iters", "25",
                   "--reps", "2", "--Delta", "0.1", "--out", str(out)])
        assert rc == 2
        field = line.split()[0]
        reader = "solver 'algo2'" if field == "epsilon" else "compare"  # the spec refuses epsilon
        assert f"{reader} does not read {field}" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_smoke(self, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main(
            ["compare", "--n", "5", "--m", "7", "--iters", "25",
             "--reps", "2", "--Delta", "0.1", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_check_passes_on_shipped_families(self, capsys):
        rc = main(["check", "--n", "8", "--m", "3", "--seed", "0"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "[PASS]" in captured
        assert "[FAIL]" not in captured

    def test_check_keeps_explicit_zero_noise_levels(self, capsys):
        rc = main(["check", "--Delta", "0", "--delta", "0", "--n", "8", "--m", "3"])
        assert rc == 0
        assert "vs Delta=0.0)" in capsys.readouterr().out

    def test_check_allows_the_rounding_of_a_tiny_Delta(self, capsys):
        # the gradient error of Delta = 1e-12 beside ||g|| of order 1 rounds
        # past Delta; NoisyOracle's own envelope rule allows for it
        assert main(["check", "--Delta", "1e-12", "--delta", "0"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, least", [("--n", 0, 1), ("--m", 0, 1), ("--seed", -1, 0)],
        ids=["--n", "--m", "--seed"],
    )
    def test_check_refuses_sizes_below_one(self, flag, value, least, capsys):
        assert main(["check", flag, str(value)]) == 2
        assert f"{flag} must be at least {least}, got {value}" in capsys.readouterr().err

    def test_check_runs_with_one_center(self, capsys):
        assert main(["check", "--n", "8", "--m", "1"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_config_file_drives_solve(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "task = task1\nn = 8\nm = 3\niteration_grid = 20\nreplications = 2\n"
        )
        out = tmp_path / "trace.csv"
        rc = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert out.exists()

    # the file's fields and the flags merge before the spec's one check, so
    # a flag can complete or repair a file that is invalid alone
    @pytest.mark.parametrize(
        "command, lines, flags, as_flags",
        [
            ("solve", "task = task1\nDelta = 0.1\n", ["--solver", "algo1"],
             ["--task", "task1", "--Delta", "0.1", "--solver", "algo1"]),
            ("solve", "task = task2\nsolver = algo1\nepsilon = 0.1\n", ["--solver", "nonsmooth"],
             ["--task", "task2", "--epsilon", "0.1", "--solver", "nonsmooth"]),
            ("solve", "", ["--task", "task1"], ["--task", "task1"]),
            ("table1", "", [], ["--task", "task1"]),
        ],
        ids=["flag-repairs-noise", "flag-repairs-epsilon", "flag-names-task", "default-task"],
    )
    def test_flags_complete_a_config_file(self, tmp_path, capsys, command, lines, flags,
                                          as_flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines + "n = 8\nm = 3\niteration_grid = 10,20\nreplications = 2\n")
        merged, flags_only = tmp_path / "merged.csv", tmp_path / "flags.csv"
        assert main([command, "--config", str(cfg), *flags, "--out", str(merged)]) == 0
        assert main([command, *as_flags, "--n", "8", "--m", "3", "--iters", "10,20",
                     "--reps", "2", "--out", str(flags_only)]) == 0

        def without_time(path):  # the time column is the last in both formats
            return [row.rsplit(",", 1)[0] for row in path.read_text().split("\n")]

        assert without_time(merged) == without_time(flags_only)
        capsys.readouterr()

    def test_flag_that_breaks_a_valid_config_file_is_refused(self, tmp_path, capsys,
                                                             monkeypatch):
        def no_data(*a, **kw):
            raise AssertionError("data generated for a spec that should be refused")

        monkeypatch.setattr("modelgrad.harness.generate_task2", no_data)
        cfg, out = tmp_path / "run.cfg", tmp_path / "t.csv"
        cfg.write_text("task = task2\nn = 8\nm = 3\n")
        rc = main(["solve", "--config", str(cfg), "--Delta", "0.1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the restarted solver 'nonsmooth' needs exact values")
        assert "use --solver algo1" in err
        assert not out.exists()

    def test_config_file_value_error_cites_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task = task1\nn = seven\n")
        assert main(["solve", "--config", str(cfg), "--n", "8"]) == 2
        assert capsys.readouterr().err.startswith("config error: line 2: bad value for 'n'")

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task = task9\n")
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err != ""

    def test_solver_failure_exits_2(self, monkeypatch, capsys):
        def fail(spec):
            raise NonTerminationError("no acceptance after 3 trials at iteration 0", 0, None, 3)

        monkeypatch.setattr(cli, "run_single", fail)
        rc = main(["solve", "--task", "task1", "--n", "4", "--m", "2", "--iters", "5"])
        assert rc == 2
        assert capsys.readouterr().err == "error: no acceptance after 3 trials at iteration 0\n"

    def test_missing_task_exits_2(self, capsys):
        rc = main(["solve"])
        assert rc == 2
        capsys.readouterr()
