"""The scripts under ``benchmarks/`` still run against the library."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    # no PYTHONPATH: each script finds the checkout's own src
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / name), *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def test_bench_kernels_runs_at_a_tiny_size():
    out = _run_script("bench_kernels.py", "--sizes", "30x3", "--repeats", "2")
    for row in ("ballsum_value", "minmax_value", "ballsum sweep", "minmax sweep",
                "ballsum sweep, near", "minmax sweep, near", "ballsum sweep, kink",
                "model_step projected", "core._trial inside", "core._trial projected",
                "project inside, off 0",
                "oracle.evaluate", "problem.evaluate", "Recorder.add",
                "A.dot(x), off 16", "A.dot(x), off 0",
                "A.T.dot(r), off 16", "A.T.dot(r), off 0"):
        assert row in out


def test_digest_prints_one_hash_per_case():
    out = _run_script("digest.py", "--n", "12", "--m", "3", "--iters", "20", "--reps", "2",
                      "--seeds", "0")
    rows = [line.split("\t") for line in out.strip().split("\n")]
    names = [row[0] for row in rows]
    assert names == ["task1-restarted", "task2-restarted", "restarted-L_class", "task1-algo1",
                     "task2-algo1",
                     "task2-algo1-noisy-random-sphere",
                     "task2-algo1-noisy-adversarial-fixed-direction",
                     "algo2-adaptive", "algo2-frozen", "composite-noisy", "compare",
                     "floor-at-start", "cap-failures", "cli-config", "early-stop"]
    for row in rows:
        assert len(row) == 2 and re.fullmatch("[0-9a-f]{64}", row[1]), row
    assert len({row[1] for row in rows}) == len(rows)
