"""One benchmark worker: set up a workload, then run it in a closed loop.

Started by ``run.py``.  The worker prints ``READY`` once its set-up is done
(imports, inputs generated from the seed, fixed models built); with
``--setup-only`` it exits there.  Otherwise it runs whole cycles of ops until
another cycle would overrun ``--seconds`` (at least one cycle), checks every
op's output outside the timed region, and prints one JSON line with its raw
results.  Untraced, the timing metrics are op wall times scaled to the
reference speed of the workload's ``speedref`` task; the raw wall times go
to the record too.
``--trace 1`` records spans around every call into the program and
reports per-layer numbers instead of end-to-end ones.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def tail(samples: list[float]) -> dict:
    """Value at the highest percentile, at most the 90th, with at least ten
    samples beyond it.

    Above the 90th percentile, bursts of stalls on a shared 2-core machine
    moved the value by up to 30% between runs.  With fewer than 20 samples
    the percentile would sit at or below the median, so the maximum is
    reported instead, with no sample beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = min(n - 10, math.ceil(0.9 * n)) if n >= 20 else n  # 1-based
    return {"value": xs[rank - 1], "percentile": 100.0 * rank / n, "beyond": n - rank, "samples": n}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help="stop after this many ops (0: no limit)")
    ap.add_argument("--work", type=Path, required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--spans", type=Path, help="file for the recorded spans (traced runs)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import fiarma_lab

    if not Path(fiarma_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"fiarma_lab imported from {fiarma_lab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    args.work.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    wl = workloads.make(args.workload, ROOT, args.work, args.seed, trace)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # the CLI workloads' work happens in child processes
    usage = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliWorkload) else resource.RUSAGE_SELF
    clock = time.perf_counter
    durations: list[float] = []
    refs: list[list[float]] = []
    failures: dict[int, str] = {}
    phase = 0.0
    cycles = 0
    peak_kb = 0
    i = 0
    while True:
        done = []
        start = clock()
        for _ in range(wl.cycle):
            if tracer:
                tracer.op = i
                tracer.enabled = True
            t0 = clock()
            try:
                result, error = wl.run(i), None
            except Exception:  # an op that raises is a failed op; the run goes on
                result, error = None, traceback.format_exc(limit=3)
            durations.append(clock() - t0)
            if tracer:
                tracer.enabled = False
            else:
                refs.append(wl.reference.sample(wl.ref_reps))
            done.append((i, result, error))
            i += 1
            if args.ops and i >= args.ops:
                break
        phase += clock() - start
        cycles += 1
        peak_kb = max(peak_kb, resource.getrusage(usage).ru_maxrss)
        for idx, result, error in done:
            if error is None:
                try:
                    error = wl.check(idx, result)
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=3)
            if error:
                failures[idx] = error
        del done
        if (args.ops and i >= args.ops) or phase + phase / cycles > args.seconds:
            break
    if tracer:
        tracer.uninstall()
    failures.update(wl.finish())

    from envinfo import environment

    out = {
        "attempted": i,
        "failed": len(failures),
        "failures": {str(k): v for k, v in sorted(failures.items())[:20]},
        "cycles": cycles,
        "phase_s": phase,
        "durations": durations,
        "environment": environment(args.seed),
        "diagnostics": wl.diagnostics(),
    }
    passed = i - len(failures)
    if not trace:
        scaled = wl.reference.scale(durations, refs)
        out["scaled_durations"] = scaled
        out["reference"] = {
            "task": wl.reference.name,
            "nominal_s": wl.reference.nominal_s,
            "median_s": statistics.median(t for r in refs for t in r),
            "samples": sum(map(len, refs)),
        }
        out["wall"] = {
            "ops_per_s": passed / sum(durations),
            "op_s_p50": statistics.median(durations),
            "op_s_tail": tail(durations)["value"],
        }
        out["tail"] = tail(scaled)
        out["metrics"] = {
            "ops_per_s": passed / sum(scaled),
            "op_s_p50": statistics.median(scaled),
            "op_s_tail": out["tail"]["value"],
            "peak_rss_mb": peak_kb / 1024.0,
            "passed_frac": passed / i,
        }
    else:
        from tracing import import_probe, span_cost

        layers = tracer.summary(i, sum(durations))
        import_s, import_scipy_s = import_probe(ROOT)
        layers["cli.import_s"] = import_s
        layers["cli.import_scipy_s"] = import_scipy_s
        layers["cli.bytes_written"] = wl.bytes_written / i
        layers["trace.overhead_frac"] = span_cost() * layers["trace.spans"] * i / sum(durations)
        layers["spectral.autocov_hosking_relerr"] = workloads.hosking_diagnostic(args.work, args.seed)
        layers.update(wl.diagnostics())
        out["metrics"] = layers
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
