"""cogpat benchmark runner.

    python3 perfbench/run.py --workload reason --seed 1 --seconds 30 --trace 0

runs one workload (reason, graph or plan) in a fresh process with
PYTHONHASHSEED pinned, and prints its metrics; the last line is a JSON
object {"correct", "attempted", "failed", "metrics"}.  `--trace 1` reports
the per-layer metrics of a traced run instead.  `--workload all` runs every
workload, each in its own process one after another, prints one table of
the end-to-end metrics and, with `--trace 1`, also the traced runs and
their overhead.  Run it from the root of a checkout; it reads and writes
only there (results go to perfbench/out/results/).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
WORKLOADS = ("reason", "graph", "plan")
# Pinned for every workload process: `cog mine` does different work under
# different hash seeds (its tie-break uses repr of a frozenset).
HASH_SEED = "0"
WORKER_TIMEOUT_S = 170


def run_worker(workload: str, seed: int, seconds: float, trace: int):
    """Run bench.py for one workload; returns (exit code, stdout lines)."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(CHECKOUT / "src"))
    env.pop("COGPAT_SEED", None)  # commands without --seed use the default 42
    cmd = [sys.executable, str(BENCH / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=CHECKOUT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker ran over {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def run_all(seed: int, seconds: float, trace: int) -> int:
    results = {}
    for workload in WORKLOADS:
        for t in ((0, 1) if trace else (0,)):
            rc, lines = run_worker(workload, seed, seconds, t)
            print("\n".join(lines[:-1]))
            if rc != 0 or not lines:
                print(f"{workload} (trace {t}) failed with exit code {rc}", file=sys.stderr)
                return rc or 1
            results[(workload, t)] = json.loads(lines[-1])

    first = results[(WORKLOADS[0], 0)]["metrics"]
    print("\n" + f"{'workload':10s}" + "".join(f"{m:>18s}" for m in first) + f"{'error_rate':>12s}")
    print(f"{'':10s}" + "".join(f"{'(' + v['unit'] + ')':>18s}" for v in first.values()))
    for workload in WORKLOADS:
        r = results[(workload, 0)]
        cells = "".join(f"{v['value']:18.6g}" for v in r["metrics"].values())
        print(f"{workload:10s}{cells}{r['failed'] / r['attempted']:12.4f}")
    if trace:
        print("\ntracing overhead (traced tasks_per_s vs untraced):")
        for workload in WORKLOADS:
            plain = results[(workload, 0)]["metrics"]["tasks_per_s"]["value"]
            traced = results[(workload, 1)]["metrics"]["trace.tasks_per_s"]["value"]
            print(f"  {workload:8s} {traced:.4g} vs {plain:.4g} 1/s: "
                  f"{100 * (1 - traced / plain):.1f}% slower")

    untraced = [results[(w, 0)] for w in WORKLOADS]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "metrics": {f"{w}.{k}": v for w, r in zip(WORKLOADS, untraced)
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (CHECKOUT / "src" / "cogpat" / "cli.py").is_file():
        print(f"no cogpat source under {CHECKOUT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    rc, lines = run_worker(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    return rc


if __name__ == "__main__":
    sys.exit(main())
