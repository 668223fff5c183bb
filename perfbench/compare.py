"""Compare two sets of benchmark results, one row per workload.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are each a results file written by run.py or a directory of
them (perfbench/out/results/ after some runs; copy it aside before running
the other commit).  Untraced results of a side are pooled per workload and
each end-to-end metric's median is compared.  A metric that got worse by
more than its bound in BENCHMARK.json is flagged.  With four or more runs
on a side, the spread (quartile distance over median) is shown too.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg: str) -> dict:
    """workload -> metric -> list of values, from untraced results."""
    path = Path(arg)
    files = sorted(path.glob("*-trace0.json")) if path.is_dir() else [path]
    out: dict = defaultdict(lambda: defaultdict(list))
    for f in files:
        res = json.loads(f.read_text())
        for name, m in res["end_to_end"].items():
            out[res["workload"]][name].append(m["value"])
    return out


def spread(values: list) -> float | None:
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    old, new = load(sys.argv[1]), load(sys.argv[2])
    worse_any = False
    for workload in sorted(set(old) & set(new)):
        cells = []
        for m in spec:
            a, b = old[workload].get(m["name"]), new[workload].get(m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            worse = -change if m["better"] == "higher" else change
            flag = " WORSE" if worse > m["bound"] else ""
            worse_any |= bool(flag)
            sa, sb = spread(a), spread(b)
            noise = f" spread {sa:.3f}/{sb:.3f}" if sa is not None and sb is not None else ""
            cells.append(f"{m['name']} {ma:.4g}->{mb:.4g} {m['unit']} ({change:+.1%}){noise}{flag}")
        runs = f"{len(next(iter(old[workload].values())))}/{len(next(iter(new[workload].values())))} runs"
        print(f"{workload:7s} [{runs}] " + " | ".join(cells))
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
