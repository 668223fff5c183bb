"""Run one workload in this process: set up, measure in a closed loop,
check every output, and print the result.

Started by run.py with PYTHONHASHSEED pinned and `src` on PYTHONPATH; not
meant to be run directly.  The last line of standard output is the result
object; a results file (and, for a traced run, a spans file) goes to
perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
# A task running longer than this is stopped and counted as failed.
TASK_TIMEOUT_S = 60
# Stop mid-block past this many seconds of process life, to end in time.
HARD_LIMIT_S = 150


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout(f"task ran over {TASK_TIMEOUT_S} s")


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def run_task(task, tracer, task_id):
    """Time one task; returns (seconds, error text or None, check failed)."""
    if tracer is not None:
        tracer.begin_task(task_id)
    signal.setitimer(signal.ITIMER_REAL, TASK_TIMEOUT_S)
    start = time.perf_counter()
    try:
        result = task.run()
        error = None
    except Exception as exc:  # every failure of the program is counted
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end_task()
    if error is not None:
        return elapsed, error, False
    try:
        task.check(result)
    except Exception as exc:  # CheckError, or a malformed artifact
        return elapsed, f"check: {type(exc).__name__}: {exc}", True
    return elapsed, None, False


def setup(name: str, seed: int):
    """Generate inputs, write fixtures and warm up; returns the workload,
    its set-up time and any warm-up failures."""
    import workloads

    root = OUT / name
    start = time.perf_counter()
    shutil.rmtree(root, ignore_errors=True)
    (root / "fixtures").mkdir(parents=True)
    (root / "out").mkdir()
    wl = workloads.WORKLOADS[name](seed, root)
    warm_failures = []
    for task in wl.warmup:
        _, error, _ = run_task(task, None, None)
        if error is not None:
            warm_failures.append(f"{task.kind}: {error}")
    return wl, time.perf_counter() - start, warm_failures


def measure(wl, seconds: float, tracer, process_start: float) -> dict:
    latencies = []
    by_kind = defaultdict(list)
    failures = Counter()
    check_failures = 0
    blocks = 0
    task_id = 0
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = process_start + HARD_LIMIT_S
    while time.perf_counter() < deadline:
        for task in wl.blocks[blocks % len(wl.blocks)]:
            if time.perf_counter() > hard_stop:
                break
            task_id += 1
            elapsed, error, check_failed = run_task(task, tracer, task_id)
            latencies.append(elapsed)
            by_kind[task.kind].append(elapsed)
            if error is not None:
                failures[f"{task.kind}: {error}"] += 1
                check_failures += check_failed
        else:
            blocks += 1
            continue
        break
    return {
        "latencies": latencies,
        "by_kind": by_kind,
        "failures": failures,
        "check_failures": check_failures,
        "blocks": blocks,
        "wall_s": time.perf_counter() - start,
    }


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


def main() -> int:
    process_start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import workloads  # imports cogpat
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        wl, setup_time, warm_failures = setup(args.workload, args.seed)
        setup_times.append(setup_time)
    tracer = None
    if args.trace:
        import layers
        tracer = layers.make_tracer()

    run = measure(wl, args.seconds, tracer, process_start)
    lat = run["latencies"]
    attempted = len(lat)
    failed = sum(run["failures"].values())
    busy_s = sum(lat)
    tasks_per_s = attempted / busy_s
    task_p90 = p90(lat)
    end_to_end = {
        "tasks_per_s": (tasks_per_s, "1/s"),
        "task_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "task_p90_ms": (task_p90 * 1000, "ms"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "error_rate": failed / attempted,
        "samples": attempted,
        "samples_beyond_p90": sum(1 for x in lat if x > task_p90),
        "blocks": run["blocks"],
        "wall_s": run["wall_s"],
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "warmup_failures": warm_failures,
        "failures": dict(run["failures"]),
        "kinds": {
            kind: {"count": len(v), "total_s": sum(v), "p50_ms": statistics.median(v) * 1000,
                   "latencies_ms": [round(x * 1000, 3) for x in v]}
            for kind, v in sorted(run["by_kind"].items())
        },
    }
    metrics = end_to_end
    if tracer is not None:
        import layers
        per_layer = layers.per_layer(tracer)
        per_layer["trace.tasks_per_s"] = (tasks_per_s, "1/s")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        result["bypass"] = {
            metric: {"value": per_layer[metric][0], "allowed_on": list(allowed),
                     "ok": args.workload in allowed or per_layer[metric][0] == 0}
            for metric, allowed in layers.BYPASS
        }
        result["spans_recorded"] = len(tracer.spans)
        result["spans_dropped"] = tracer.spans_dropped
        metrics = per_layer

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.dump(results_dir / f"{stem}-spans.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"PYTHONHASHSEED {result['env']['pythonhashseed']}  python {result['env']['python']}  "
          f"nproc {result['env']['nproc']}  git {result['env']['git_sha']}")
    print(f"samples {attempted} ({result['samples_beyond_p90']} beyond p90) in "
          f"{run['blocks']} blocks, {run['wall_s']:.1f} s; error_rate {result['error_rate']:.4f}")
    for text, n in sorted(run["failures"].items()):
        print(f"  failed x{n}: {text[:200]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if tracer is not None:
        for metric, row in result["bypass"].items():
            print(f"  bypass {metric}: {row['value']} "
                  f"({'ok' if row['ok'] else 'UNEXPECTED'}; may be > 0 on {', '.join(row['allowed_on'])})")
    print(json.dumps({
        "correct": run["check_failures"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
