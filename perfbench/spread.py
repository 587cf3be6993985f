#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed N]

Runs ``run.py`` once per seed and workload, untraced, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for each metric the
median, the distance between the first and third quartile as a share of the
median, and that share against the metric's bound.  Quartiles are those of
``statistics.quantiles(values, n=4)``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: the workloads of BENCHMARK.json")
    args = ap.parse_args()
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            walls.append(time.monotonic() - t0)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, {statistics.median(walls):.1f} s median wall, {max(walls):.1f} s max")
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = "ok" if share < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<12} median {med:.6g} {m['unit']:<6} spread {share:.4f} bound {m['bound']} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
