"""The timing scripts under ``benchmarks/`` still run against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_kernels_runs_at_a_tiny_size():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
         "--sizes", "30x3", "--repeats", "2"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    for row in ("ballsum_value", "minmax_value", "ballsum sweep", "minmax sweep",
                "model_step projected", "core._trial inside", "core._trial projected",
                "project inside, off 0",
                "oracle.evaluate", "problem.evaluate", "Recorder.add",
                "A.dot(x), off 16", "A.dot(x), off 0",
                "A.T.dot(r), off 16", "A.T.dot(r), off 0"):
        assert row in out
