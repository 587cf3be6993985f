#!/usr/bin/env python3
"""Reference outputs of the CLI on the benchmark's start-up configs.

Runs the ops of one seed's ``cli-startup`` workload (four cycles of eleven
subcommand ops on n=2 configs: fractional ``d*``, white-noise ``hosking*``,
power-law ``n*``, the refused ``blocked*`` and the malformed ``broken*``),
then a fixed list of ops on the README example's base: memory operators
without a unitary frame, one that is only near normal, a power-law
exponent that fails its conditions, an existence integral past the double
range and one too deep for it, a one-row periodogram, the example with an
explicit zero MA matrix, a base whose half-factor overflows, one whose
half-factor is finite but squares past the double range, a covariance and
a memory operator near the double range, power-law exponents far above
1/2, a power-law exponent that fails only off the innovation's support, an
AR pole too close to the unit circle for the impulse response's row cap,
and autocovariance lags past half the frequency grid.  Every op
runs through :func:`fiarma_lab.cli.main` in process.  For each op it records the
exit code, the first line of stderr, and for every output file except
``manifest.json`` the shape, the largest finite absolute value and eight seeded
entries of its numbers, each with the largest finite absolute value of the
table column or JSON leaf it was written from (the other leaves of a JSON
output are kept as text).  The config texts are stored with the records, so
the tier-1 test ``tests/test_reference_outputs.py`` replays them without the
benchmark package, comparing each fresh record with its reference by
:func:`differences`.

When ``--out`` names an existing fixture, each of its records whose fresh
run of the same config text shows no :func:`differences` is kept as it is;
only records that moved, or are new, are rewritten.  A run on an unchanged
program thus leaves the fixture byte-identical.  From the repository root:

    PYTHONPATH=src python3 scripts/reference_outputs.py --out tests/data/reference_outputs.json
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from fiarma_lab import cli

ROOT = Path(__file__).resolve().parent.parent
# Entries sampled from each output, at indices drawn by a generator of this seed.
SAMPLES = 8
SAMPLE_SEED = 0
# Relative tolerance of a replayed number, also against its array's scale.
RTOL = 1e-12

# The README example's grid, ``phi`` and ``Sigma``, with small run sizes.
_EXAMPLE_GRID = {"points": [0.0, 1.0], "weights": [0.5, 0.5]}
_EXAMPLE_PHI = [[[0.3, 0.0], [0.0, 0.2]]]
_EXAMPLE_SIGMA = [[1.0, 0.0], [0.0, 1.0]]
_EXAMPLE_RUN = {"T": 256, "K_trunc": 64, "n_freq": 256, "seed": 7}


def _example_config(
    memory: dict,
    phi: list = _EXAMPLE_PHI,
    theta: list | tuple = (),
    sigma: list = _EXAMPLE_SIGMA,
    **run,
) -> str:
    model = {"phi": phi, "theta": theta, "sigma": sigma, **memory}
    return json.dumps({"grid": _EXAMPLE_GRID, "model": model, "run": {**_EXAMPLE_RUN, **run}})


_README_D = {"D": [[0.3, 0.0], [0.0, 0.1]]}
_FRAMELESS_D = {"D": [[0.2, 0.1], [0.0, 0.1]]}
_HUGE = (1e300 * np.eye(2)).tolist()
# Configs of the extra ops: the upper-triangular D and N have no unitary
# frame; the near-normal D fails the commutator test at 1e-10 but its frame
# reproduces it to 8e-11 relative; the failing N has the exponent 0.3, not
# above 1/2, so the power-law conditions refuse it; the exponent 30 takes
# the existence integral's shells past the double range, and 1100 shells
# reach below the smallest normal double; the zero MA matrix after the last
# nonzero one configures the README example itself; theta = Sigma = 1e300 Id
# leave phi certified but overflow the base's half-factor; theta = 1e200 Id
# with Sigma = Id gives a finite half-factor whose square overflows;
# Sigma = 1.7e308 Id is in range though Sigma + Sigma^H is not; the memory
# eigenvalue 1e308 takes exp(t D) and the MA coefficients past the double
# range; the power-law exponents 200 and 1e7 have the matching constant 0,
# and 1e308 is a value where z + 1 == z; the exponent 0.3 of the deficient N
# carries no innovation, as Sigma = diag(0, 1); the pole 0.9999 leaves the AR
# response at 0.37 of its peak after the row cap; the lags n_freq / 2 would
# read their alias.
EXTRA_CONFIGS = {
    "frameless_D.json": _example_config(_FRAMELESS_D),
    "frameless_N.json": _example_config({"N": [[0.8, 0.2], [0.0, 0.9]]}, phi=[]),
    "failing_N.json": _example_config({"N": [[0.3, 0.0], [0.0, 0.8]]}, phi=[]),
    "overflow_D.json": _example_config({"D": [[30.0, 0.0], [0.0, 0.1]]}),
    "deep_shells.json": _example_config(_README_D, n_refine=1100),
    "near_normal_D.json": _example_config(
        {"D": (0.4 * np.array([[1.0, 8e-11], [0.0, -1.0]])).tolist()}
    ),
    "frameless_D_T1.json": _example_config(_FRAMELESS_D, T=1),
    "zero_theta.json": _example_config(_README_D, theta=[np.zeros((2, 2)).tolist()]),
    "overflow_base.json": _example_config(_README_D, theta=[_HUGE], sigma=_HUGE),
    "overflow_square.json": _example_config(_README_D, theta=[(1e200 * np.eye(2)).tolist()]),
    "near_range_sigma.json": _example_config(_README_D, sigma=(1.7e308 * np.eye(2)).tolist()),
    "near_range_D.json": _example_config({"D": [[1e308, 0.0], [0.0, 0.1]]}),
    **{
        f"far_N_{exponent:g}.json": _example_config({"N": [[exponent, 0.0], [0.0, 0.9]]}, phi=[])
        for exponent in (200.0, 1e7, 1e308)
    },
    "deficient_N.json": _example_config(
        {"N": [[0.3, 0.0], [0.0, 0.8]]}, phi=[], sigma=[[0.0, 0.0], [0.0, 1.0]]
    ),
    "near_unit_phi.json": _example_config(_README_D, phi=[(0.9999 * np.eye(2)).tolist()]),
    "half_grid_lags.json": _example_config(_README_D, lags=_EXAMPLE_RUN["n_freq"] // 2),
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
    ("duker-verify", "frameless_N.json"),
    ("simulate", "failing_N.json"),
    ("duker-verify", "failing_N.json"),
    ("check-existence", "overflow_D.json"),
    ("existence-integral", "overflow_D.json"),
    ("existence-integral", "deep_shells.json"),
    ("simulate", "zero_theta.json"),
    ("periodogram", "zero_theta.json"),
    *[
        (sub, "overflow_base.json")
        for sub in ("density", "check-existence", "existence-integral", "simulate")
    ],
    *[
        (sub, "overflow_square.json")
        for sub in (
            "density", "autocov", "check-existence", "existence-integral", "simulate",
            "periodogram",
        )
    ],
    *[
        (sub, name)
        for name in ("near_range_sigma.json", "near_range_D.json")
        for sub in (
            "density", "autocov", "frac-coeffs", "check-existence", "existence-integral",
            "simulate", "periodogram",
        )
    ],
    *[
        (sub, f"far_N_{exponent}.json")
        for exponent in ("200", "1e+07", "1e+308")
        for sub in ("duker-decompose", "duker-verify", "simulate")
    ],
    ("simulate", "deficient_N.json"),
    ("duker-verify", "deficient_N.json"),
    ("simulate", "near_unit_phi.json"),
    ("autocov", "half_grid_lags.json"),
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


# A table's column name less its entry suffix (``m_1_2_re`` -> ``m``), and a
# JSON leaf's dotted path less its list indices (``shells.3`` -> ``shells``):
# the array each number was written from.
_ENTRY_SUFFIX = re.compile(r"(_\d+)+_(re|im)$")
_LIST_INDEX = re.compile(r"\.\d+")


def summarise(target: Path) -> dict:
    """Shape, largest finite absolute value and seeded entries of one output's
    numbers.  Each entry comes with the largest finite absolute value of the
    array or JSON leaf it was written from, the scale it is compared at."""
    text = {}
    if target.suffix == ".json":
        numbers, arrays = [], []
        for key, value in _leaves(json.loads(target.read_text())):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                numbers.append(float(value))
                arrays.append(_LIST_INDEX.sub("", key))
            else:
                text[key] = value
        values = np.array(numbers, dtype=float)
    else:
        header, *body = target.read_text().splitlines()
        values = np.array([[float(c) for c in line.split(",")] for line in body], dtype=float)
        arrays = [_ENTRY_SUFFIX.sub("", name) for name in header.split(",")] * len(body)
    flat = values.ravel()
    arrays = np.array(arrays, dtype=str)
    magnitude = np.where(np.isfinite(flat), np.abs(flat), 0.0)
    rng = np.random.default_rng(SAMPLE_SEED)
    index = rng.integers(flat.size, size=SAMPLES) if flat.size else np.zeros(0, dtype=int)
    return {
        "shape": list(values.shape),
        "max_abs": float(magnitude.max(initial=0.0)),
        "index": index.tolist(),
        "values": flat[index].tolist(),
        "scales": [float(magnitude[arrays == arrays[i]].max()) for i in index],
        "text": text,
    }


def run_op(sub: str, config_text: str, work: Path) -> dict:
    """Exit code, first stderr line and output summaries of one CLI op run in ``work``."""
    config, out = work / "config.json", work / "out"
    config.write_text(config_text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([sub, "--config", str(config), "--out", str(out)])
    # a run that fails creates no output directory
    files = out.iterdir() if out.exists() else ()
    names = sorted(p.name for p in files if p.name != "manifest.json")
    return {
        "code": code,
        "stderr": err.getvalue().partition("\n")[0],
        "manifest": (out / "manifest.json").exists(),
        "outputs": {name: summarise(out / name) for name in names},
    }


def differences(got: dict, want: dict) -> list[str]:
    """Where the record ``got`` of a replayed op departs from its reference
    ``want``: the exit code, the first stderr line, the manifest and the
    output names must be equal, and so must each output's shape, sampled
    indices and text.  Its largest absolute value must agree to ``RTOL``
    relative, and each sampled entry to ``RTOL`` relative or ``RTOL`` times
    the largest magnitude of the array it came from, which lets an entry at
    rounding level beside large ones match, but no entry ride on another
    array's scale."""
    found = [
        f"{key}: {got[key]!r} != {want[key]!r}"
        for key in ("code", "stderr", "manifest")
        if got[key] != want[key]
    ]
    if sorted(got["outputs"]) != sorted(want["outputs"]):
        return [*found, f"outputs: {sorted(got['outputs'])} != {sorted(want['outputs'])}"]
    for name, ref in want["outputs"].items():
        out = got["outputs"][name]
        found += (
            f"{name} {key}: {out[key]!r} != {ref[key]!r}"
            for key in ("shape", "index", "text")
            if out[key] != ref[key]
        )
        if not np.isclose(out["max_abs"], ref["max_abs"], rtol=RTOL, atol=0.0):
            found.append(f"{name} max_abs: {out['max_abs']!r} != {ref['max_abs']!r}")
        atol = RTOL * np.array(ref["scales"])
        if out["index"] == ref["index"] and not np.all(
            np.isclose(out["values"], ref["values"], rtol=RTOL, atol=atol, equal_nan=True)
        ):
            found.append(f"{name} values: {out['values']!r} != {ref['values']!r}")
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0, help="cli-startup workload seed")
    ap.add_argument("--out", required=True, help="fixture file to write")
    args = ap.parse_args()
    target = Path(args.out)
    accepted = {}
    if target.exists():
        old = json.loads(target.read_text())
        accepted = {(op["sub"], old["configs"][op["config"]]): op for op in old["ops"]}

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
                ops.append((op.sub, name))
        configs.update(EXTRA_CONFIGS)
        ops += EXTRA_OPS
        records = []
        for sub, name in ops:
            op_dir = work / f"op{len(records)}"
            op_dir.mkdir()
            record = {"sub": sub, "config": name, **run_op(sub, configs[name], op_dir)}
            kept = accepted.get((sub, configs[name]))
            if kept is not None and not differences(record, kept):
                record = {**kept, "config": name}
            records.append(record)
    fixture = {"seed": args.seed, "configs": configs, "ops": records}
    target.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
