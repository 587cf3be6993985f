#!/usr/bin/env python3
"""Smoke check of the benchmark itself; not part of the test suite.

    python3 perfbench/smoke.py

For each workload that ``run.py`` knows: one untraced and two traced runs of one op each, every
one checked for each metric ``BENCHMARK.json`` names, with its unit; the two
traced runs (same seed) must report identical ``*.calls`` counts.  Finally
the benchmark is run from a directory holding only ``BENCHMARK.json`` and
``perfbench/``, where it must fail without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


def run(cwd: Path, workload: str, trace: int, ops: int = 1) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--ops", str(ops)],
        cwd=cwd, capture_output=True, text=True, timeout=200,
    )
    return proc.returncode, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        calls = []
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, spec["per_layer"])):
            code, out = run(ROOT, name, trace)
            if code != 0:
                problems.append(f"{name} trace {trace}: exit {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                problems.append(f"{name} trace {trace}: result {result}")
            got = result["metrics"]
            for m in wanted:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    problems.append(f"{name} trace {trace}: {m['name']} missing or without unit {m['unit']}")
            if set(got) != {m["name"] for m in wanted}:
                problems.append(f"{name} trace {trace}: unexpected metrics {sorted(set(got) - {m['name'] for m in wanted})}")
            if trace:
                calls.append({k: v["value"] for k, v in got.items() if k.endswith(".calls")})
        if len(calls) == 2 and calls[0] != calls[1]:
            problems.append(f"{name}: traced call counts differ: {calls}")
        print(f"{name}: checked")

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out = run(bare, WORKLOADS[0], 0)
    shutil.rmtree(bare)
    if code == 0 or '"metrics"' in out:
        problems.append(f"without sources: exit {code}, output {out!r}")
    print("bare directory: checked")

    for p in problems:
        print("PROBLEM", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
