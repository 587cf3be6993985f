#!/usr/bin/env python3
"""Reference outputs of the CLI on the benchmark's start-up configs.

Runs the ops of one seed's ``cli-startup`` workload (four cycles of eleven
subcommand ops on n=2 configs: fractional ``d*``, white-noise ``hosking*``,
power-law ``n*``, the refused ``blocked*`` and the malformed ``broken*``),
then a fixed list of ops on the README example's base: memory operators
without a unitary frame, one that is only near normal, and a one-row
periodogram.  Every op runs through :func:`fiarma_lab.cli.main` in process.  For each op it records the
exit code, the first line of stderr, and for every output file except
``manifest.json`` the shape, the largest absolute value and eight seeded
entries of its numbers (the other leaves of a JSON output are kept as
text).  The config texts are stored with the records, so the tier-1 test
``tests/test_reference_outputs.py`` replays them without the benchmark
package.

Regenerate only when a change of output is intended, from the repository
root:

    PYTHONPATH=src python3 scripts/reference_outputs.py --out tests/data/reference_outputs.json
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from fiarma_lab import cli

ROOT = Path(__file__).resolve().parent.parent
# Entries sampled from each output, at indices drawn by a generator of this seed.
SAMPLES = 8
SAMPLE_SEED = 0

# The README example's grid, ``phi`` and ``Sigma``, with small run sizes.
_EXAMPLE_GRID = {"points": [0.0, 1.0], "weights": [0.5, 0.5]}
_EXAMPLE_PHI = [[[0.3, 0.0], [0.0, 0.2]]]
_EXAMPLE_SIGMA = [[1.0, 0.0], [0.0, 1.0]]
_EXAMPLE_RUN = {"T": 256, "K_trunc": 64, "n_freq": 256, "seed": 7}


def _example_config(memory: dict, phi: list = _EXAMPLE_PHI, **run) -> str:
    model = {"phi": phi, "theta": [], "sigma": _EXAMPLE_SIGMA, **memory}
    return json.dumps({"grid": _EXAMPLE_GRID, "model": model, "run": {**_EXAMPLE_RUN, **run}})


_FRAMELESS_D = {"D": [[0.2, 0.1], [0.0, 0.1]]}
# Configs of the extra ops: the upper-triangular D and N have no unitary
# frame; the near-normal D fails the commutator test at 1e-10 but its frame
# reproduces it to 8e-11 relative.
EXTRA_CONFIGS = {
    "frameless_D.json": _example_config(_FRAMELESS_D),
    "frameless_N.json": _example_config({"N": [[0.8, 0.2], [0.0, 0.9]]}, phi=[]),
    "near_normal_D.json": _example_config(
        {"D": (0.4 * np.array([[1.0, 8e-11], [0.0, -1.0]])).tolist()}
    ),
    "frameless_D_T1.json": _example_config(_FRAMELESS_D, T=1),
}
EXTRA_OPS = (
    *[
        (sub, "frameless_D.json")
        for sub in (
            "density", "autocov", "frac-coeffs", "simulate", "check-existence",
            "existence-integral",
        )
    ],
    ("duker-decompose", "frameless_N.json"),
    ("simulate", "frameless_N.json"),
    ("density", "near_normal_D.json"),
    ("check-existence", "near_normal_D.json"),
    ("periodogram", "frameless_D_T1.json"),
)


def _leaves(doc, prefix: str = ""):
    """``(dotted path, value)`` of every leaf of a JSON document, in key order."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], f"{prefix}{key}.")
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _leaves(item, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), doc


def summarise(target: Path) -> dict:
    """Shape, largest absolute value and seeded entries of one output's numbers."""
    text = {}
    if target.suffix == ".json":
        numbers = []
        for key, value in _leaves(json.loads(target.read_text())):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                numbers.append(float(value))
            else:
                text[key] = value
        values = np.array(numbers, dtype=float)
    else:
        body = target.read_text().splitlines()[1:]
        values = np.array([[float(c) for c in line.split(",")] for line in body], dtype=float)
    flat = values.ravel()
    rng = np.random.default_rng(SAMPLE_SEED)
    index = rng.integers(flat.size, size=SAMPLES) if flat.size else np.zeros(0, dtype=int)
    return {
        "shape": list(values.shape),
        "max_abs": float(np.abs(flat).max(initial=0.0)),
        "index": index.tolist(),
        "values": flat[index].tolist(),
        "text": text,
    }


def run_op(sub: str, config_text: str, work: Path) -> dict:
    """Exit code, first stderr line and output summaries of one CLI op run in ``work``."""
    config, out = work / "config.json", work / "out"
    config.write_text(config_text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([sub, "--config", str(config), "--out", str(out)])
    names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    return {
        "code": code,
        "stderr": err.getvalue().partition("\n")[0],
        "manifest": (out / "manifest.json").exists(),
        "outputs": {name: summarise(out / name) for name in names},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="cli-startup workload seed")
    ap.add_argument("--out", required=True, help="fixture file to write")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import cli_startup

    configs, ops = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        workload = cli_startup(ROOT, work, args.seed, trace=True)
        for cycle in workload.cycles:
            for op in cycle:
                name = op.config.name
                configs[name] = op.config.read_text()
                op_dir = work / f"op{len(ops)}"
                op_dir.mkdir()
                record = run_op(op.sub, configs[name], op_dir)
                ops.append({"sub": op.sub, "config": name, **record})
        configs.update(EXTRA_CONFIGS)
        for sub, name in EXTRA_OPS:
            op_dir = work / f"op{len(ops)}"
            op_dir.mkdir()
            ops.append({"sub": sub, "config": name, **run_op(sub, configs[name], op_dir)})
    fixture = {"seed": args.seed, "configs": configs, "ops": ops}
    Path(args.out).write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
