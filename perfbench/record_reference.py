"""Record each workload's final_estimate per seed into reference.json.

    python3 perfbench/record_reference.py --seeds 0..49 [--workloads table1,composite]

``run.py`` checks every run's final_estimate against the value recorded
here for its seed (seeds without a record skip that check).  The values
were recorded at the commit that introduced the benchmark; re-record only
in a change whose purpose is to change what the solvers compute, and say
so in that change.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import run as bench


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0..49", help="range a..b (inclusive)")
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split(".."))

    table = {}
    if os.path.isfile(bench.REFERENCE):
        with open(bench.REFERENCE, encoding="utf-8") as fh:
            table = json.load(fh)
    tmpdir = os.path.join(bench.ROOT, ".perfbench_tmp", "record")
    os.makedirs(tmpdir, exist_ok=True)
    env = bench.pinned_env()
    for name in args.workloads.split(","):
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, bench.WORKER, "--workload", name, "--seed", str(seed),
                   "--mode", "plain", "--tmpdir", tmpdir]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            if report["problems"]:
                sys.exit(f"{name} seed {seed}: {report['problems']}")
            table.setdefault(name, {})[str(seed)] = report["final_estimate"]
            print(f"{name} seed {seed}: final {report['final_estimate']!r} "
                  f"steps {report['steps']} trials {report['trials']} wall {report['wall_s']:.3f}",
                  flush=True)
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(tmpdir)
    try:
        os.rmdir(os.path.dirname(tmpdir))
    except OSError:
        pass  # a benchmark run is using it


if __name__ == "__main__":
    main()
