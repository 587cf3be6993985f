#!/usr/bin/env python3
"""fiarma-lab benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The workloads are listed in ``BENCHMARK.json`` with the reason
each was chosen.  With ``--trace 0`` the run reports the end-to-end metrics:
the set-up of a fresh worker process is timed three times (the median is
``setup_s``), and the last of those workers then runs the measured phase.
Every timing is scaled to the reference speed of a ``speedref`` task, timed
right before each set-up and after each op.
With ``--trace 1`` one worker records spans around every call into the
program and reports the per-layer metrics.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the environment, per-op times and any
failure reasons, goes to ``perfbench/out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speedref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-startup", "cli-export", "analysis-n32", "mc-replications")
SETUPS = 3
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _spawn(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker; returns (seconds from spawn to READY, final stdout line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited with code {code} (killed at the deadline if negative)")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help="stop after this many ops (smoke checks)")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # turn SIGTERM into SystemExit so that the worker is killed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "fiarma_lab" / "__init__.py").is_file():
        print(f"no fiarma_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = HERE / "out"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / f"work-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--ops", str(args.ops), "--work", str(work),
    ]
    if args.trace:
        cmd += ["--spans", str(results / f"{stem}-spans.jsonl")]
    try:
        setups: list[float] = []
        refs: list[list[float]] = []
        for _ in range(0 if args.trace else SETUPS - 1):
            refs.append(speedref.STARTUP.sample(1))
            setups.append(_spawn(cmd + ["--setup-only"], deadline)[0])
        if not args.trace:
            refs.append(speedref.STARTUP.sample(1))
        ready, line = _spawn(cmd, deadline)
        raw = json.loads(line)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = raw["metrics"]
    if not args.trace:
        setups.append(ready)
        measured["setup_s"] = statistics.median(speedref.STARTUP.scale(setups, refs))
        raw["setup_samples"] = setups
        raw["setup_reference_samples"] = refs
    # a layer function the workload never calls has no spans: zero calls, zero time
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0) if args.trace else measured[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    raw["workload"] = args.workload
    (results / f"{stem}.json").write_text(json.dumps(raw, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload}  {name:<44} {m['value']:.6g} {m['unit']}")
    if "wall" in raw:
        w, r = raw["wall"], raw["reference"]
        print(
            f"{args.workload}  unscaled wall time: ops_per_s {w['ops_per_s']:.6g} op/s, op_s_p50 {w['op_s_p50']:.6g} s, "
            f"op_s_tail {w['op_s_tail']:.6g} s; reference task {r['task']} median {r['median_s']:.6g} s "
            f"(scaled to {r['nominal_s']} s) over {r['samples']} samples"
        )
    if "tail" in raw:
        t = raw["tail"]
        print(f"{args.workload}  op_s_tail is p{t['percentile']:.1f} of {t['samples']} ops ({t['beyond']} beyond)")
    print(f"{args.workload}  failed_frac {raw['failed'] / raw['attempted']:.6g} ({raw['failed']} of {raw['attempted']})")
    for idx, reason in raw["failures"].items():
        print(f"{args.workload}  op {idx} failed: {reason.strip().splitlines()[-1]}")
    print(f"{args.workload}  environment {json.dumps(raw['environment'])}")
    print(f"{args.workload}  record {(results / f'{stem}.json').relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": raw["failed"] == 0,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
