"""Run-to-run spread of the end-to-end metrics, the basis of each bound.

    python3 bench/spread.py [--first-seed 1] [--out FILE]

Runs bench/run.py on ten seeds for every workload, one run at a time, and
reports for every end-to-end metric the median of its values and the
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median.  A spread below a
third of the metric's bound in BENCHMARK.json counts as steady.  With
--out, writes the medians, spreads and raw values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            if not proc.stdout.strip():
                sys.exit(f"{workload} seed {seed}: no result, exit {proc.returncode}\n"
                         f"{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: failed {result['failed']} of "
                      f"{result['attempted']}", file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals), "spread": spread(vals),
                          "bound": bounds[name], "values": vals}
            mark = "ok" if rows[name]["spread"] < bounds[name] / 3 else "WIDE"
            steady = steady and (mark == "ok" or name == "setup_s")
            print(f"{workload:15s} {name:12s} median {rows[name]['median']:<12.6g} "
                  f"spread {rows[name]['spread']:.4f}  bound {bounds[name]}  {mark}", flush=True)
        rows["run_wall_s"] = walls
        print(f"{workload:15s} run wall time: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
        report[workload] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
