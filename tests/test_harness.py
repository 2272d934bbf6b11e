import numpy as np
import pytest

from modelgrad.cli import main
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
from modelgrad.problems import pl_quadratic_make


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

    def test_incompatible_combo_rejected_at_run(self):
        spec = ExperimentSpec(task="pl-quadratic", solver="algo1")
        with pytest.raises(ValueError):
            run_single(spec)


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
            epsilon=0.031,
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
    def test_trace_roundtrip_full_precision(self, tmp_path):
        spec = ExperimentSpec(task="task1", n=8, m=3, iteration_grid=(15,))
        trace, _ = run_single(spec)
        path = tmp_path / "trace.csv"
        write_csv(trace, path)

        lines = path.read_text().strip().split("\n")
        assert lines[0] == TRACE_COLUMNS
        assert len(lines) == 1 + trace.N_run
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        np.testing.assert_array_equal(data[:, 1], trace.f_values)
        np.testing.assert_array_equal(data[:, 3], trace.L_hist)
        np.testing.assert_array_equal(data[:, 7], trace.step_norms)
        np.testing.assert_array_equal(data[:, 8], trace.cert_hist)

    def test_pl_trace_serializes(self, tmp_path):
        spec = ExperimentSpec(task="pl-quadratic", n=4, m=6, iteration_grid=(20,))
        trace, _ = run_single(spec)
        path = tmp_path / "pl.csv"
        write_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == TRACE_COLUMNS
        assert len(lines) == 1 + trace.N_run

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


class TestRunners:
    def test_run_single_deterministic(self):
        spec = ExperimentSpec(task="task2", n=10, m=4, iteration_grid=(25,), seed=3)
        t1, _ = run_single(spec, rep_seed=99)
        t2, _ = run_single(spec, rep_seed=99)
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

    def test_compare_requires_algo2(self):
        spec = ExperimentSpec(task="task1", n=6, m=3)
        with pytest.raises(ValueError):
            compare_adaptive_nonadaptive(spec)


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

    def test_config_file_drives_solve(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "task = task1\nn = 8\nm = 3\niteration_grid = 20\nreplications = 2\n"
        )
        out = tmp_path / "trace.csv"
        rc = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task = task9\n")
        rc = main(["solve", "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err != ""

    def test_missing_task_exits_2(self, capsys):
        rc = main(["solve"])
        assert rc == 2
        capsys.readouterr()
