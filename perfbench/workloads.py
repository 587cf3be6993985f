"""The four benchmark workloads.

A workload is built once per worker process (its set-up), then runs ops by
index in a closed loop.  Ops come in cycles of ``cycle`` ops with a fixed mix
of kinds, and the worker measures whole cycles, so every run weighs the kinds
the same.  ``run`` is the timed part of an op; ``check`` verifies its output
afterwards, untimed, and returns a failure reason or ``None``; ``finish``
runs the checks that need the whole run and returns failures by op index.
The untraced run times the workload's ``speedref`` reference task
``ref_reps`` times after each op.

Calls into the program go through module attributes (``fl.name``), never
through names bound here, so the traced run sees every one of them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import fiarma_lab as fl
import fiarma_lab.cli
import speedref
from envinfo import program_env
from inputs import (
    ModelSpec,
    arma11_model,
    config_text,
    density_relerr,
    hosking_model,
    hosking_relerr,
    power_config_text,
    power_exponent,
    random_unitary,
    sample_rows,
    set_memory,
)

# Relative operator-norm distance allowed between the program's density and
# the dense oracle.  Both are exact up to rounding in double precision; the
# observed distance is about 1e-13.
DENSITY_TOL = 1e-8

# How the CLI's message starts for each failing exit code.
REFUSAL_PREFIX = {1: "config error:", 2: "refused:"}

# Files each subcommand lists in its manifest.
OUTPUTS = {
    "simulate": ["path.csv"],
    "density": ["density.csv"],
    "autocov": ["autocov.csv"],
    "frac-coeffs": ["frac_coeffs.csv"],
    "check-existence": ["existence.json"],
    "existence-integral": ["existence_integral.json", "shells.csv"],
    "duker-decompose": ["duker_C.csv", "duker_deltas.csv", "duker_decompose.json"],
    "duker-verify": ["duker_verify.json"],
    "periodogram": ["periodogram.csv"],
}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def parse_csv(path: Path) -> np.ndarray:
    """Parse a CLI table into a float array; raises ValueError when malformed."""
    header, _, body = path.read_text().partition("\n")
    width = len(header.split(","))
    cells = body.rstrip("\n").replace("\n", ",").split(",")
    if not body or len(cells) % width:
        raise ValueError(f"{path.name}: ragged or empty table")
    return np.array(cells, dtype=float).reshape(-1, width)


class CliOp:
    """One CLI invocation: subcommand, config file and the expected exit code."""

    def __init__(self, sub: str, config: Path, code: int = 0, spec: ModelSpec | None = None):
        self.sub = sub
        self.config = config
        self.code = code
        self.spec = spec  # model to check a density table against


class CliWorkload:
    """Ops are fresh ``python -m fiarma_lab.cli`` processes, run one at a time.

    The traced run calls ``fiarma_lab.cli.main`` in process instead, so the
    spans of every layer below it are recorded.
    """

    reference = speedref.STARTUP
    ref_reps = 1

    def __init__(self, root: Path, work: Path, seed: int, trace: bool, cycles: list[list[CliOp]]):
        self.root = root
        self.work = work
        self.trace = trace
        self.cycles = cycles
        self.cycle = len(cycles[0])
        self.env = program_env(root)
        self.bytes_written = 0
        self.density_relerr = 0.0
        self.rows = _rng(seed, 99)

    def op(self, i: int) -> CliOp:
        return self.cycles[(i // self.cycle) % len(self.cycles)][i % self.cycle]

    def run(self, i: int):
        op = self.op(i)
        out = self.work / f"op{i}"
        argv = [op.sub, "--config", str(op.config), "--out", str(out)]
        if self.trace:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = fiarma_lab.cli.main(argv)
            return code, out, err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "fiarma_lab.cli", *argv],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        return proc.returncode, out, proc.stderr

    def check(self, i: int, result) -> str | None:
        op = self.op(i)
        code, out, err = result
        try:
            if code != op.code:
                return f"{op.sub}: exit {code}, expected {op.code}: {err.strip()[-300:]}"
            manifest = out / "manifest.json"
            if op.code != 0:
                if manifest.exists():
                    return f"{op.sub}: wrote a manifest despite exit {code}"
                prefix = REFUSAL_PREFIX[op.code]
                return None if err.startswith(prefix) else f"{op.sub}: stderr does not start with {prefix!r}"
            listed = json.loads(manifest.read_text())["outputs"]
            if listed != OUTPUTS[op.sub]:
                return f"{op.sub}: manifest lists {listed}"
            for name in listed:
                target = out / name
                self.bytes_written += target.stat().st_size
                if name.endswith(".json"):
                    json.loads(target.read_text())
                    continue
                table = parse_csv(target)
                if name == "density.csv" and op.spec is not None:
                    n = op.spec.n
                    rows = sample_rows(self.rows, table.shape[0], 8)
                    vals = table[rows, 1:].reshape(-1, n, n, 2)
                    rel = density_relerr(op.spec, table[rows, 0], vals[..., 0] + 1j * vals[..., 1])
                    self.density_relerr = max(self.density_relerr, rel)
                    if not rel <= DENSITY_TOL:
                        return f"density: relative error {rel:.3e} against the dense oracle"
            self.bytes_written += manifest.stat().st_size
            return None
        except (OSError, ValueError, KeyError) as exc:
            return f"{op.sub}: unreadable output: {exc!r}"
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def finish(self) -> dict[int, str]:
        return {}

    def diagnostics(self) -> dict:
        return {"spectral.density_max_relerr": self.density_relerr}


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def cli_startup(root: Path, work: Path, seed: int, trace: bool) -> CliWorkload:
    """n=2 configs; one cycle runs all nine subcommands plus a refusal and a
    malformed config."""
    cycles = []
    for c in range(4):
        rng = _rng(seed, 1, c)
        run = {"seed": seed * 1000 + c}
        spec = arma11_model(rng, 2)
        cfg = _write(work / f"d{c}.json", config_text(spec, run))
        hcfg = _write(work / f"hosking{c}.json", config_text(hosking_model(_rng(seed, 4, c)), run))
        n_op, sigma = power_exponent(rng, 2)
        ncfg = _write(work / f"n{c}.json", power_config_text(n_op, sigma, run))
        blocked = arma11_model(rng, 2)
        blocked = set_memory(blocked, [0.6, blocked.d[1]])  # 0.6 >= 1/2: simulate must refuse
        bcfg = _write(work / f"blocked{c}.json", config_text(blocked, run))
        broken = _write(work / f"broken{c}.json", config_text(spec, run)[:-9])
        cycles.append(
            [
                CliOp("simulate", cfg),
                CliOp("density", cfg, spec=spec),
                CliOp("autocov", hcfg),
                CliOp("frac-coeffs", cfg),
                CliOp("check-existence", cfg),
                CliOp("existence-integral", cfg),
                CliOp("periodogram", cfg),
                CliOp("duker-decompose", ncfg),
                CliOp("duker-verify", ncfg),
                CliOp("simulate", bcfg, code=2),
                CliOp("density", broken, code=1),
            ]
        )
    return CliWorkload(root, work, seed, trace, cycles)


def cli_export(root: Path, work: Path, seed: int, trace: bool) -> CliWorkload:
    """n=16 configs with the default run section except T=4096, all tables in CSV."""
    cycles = []
    for c in range(2):
        spec = arma11_model(_rng(seed, 2, c), 16)
        cfg = _write(work / f"e{c}.json", config_text(spec, {"T": 4096, "seed": seed * 1000 + c}))
        cycles.append(
            [
                CliOp("density", cfg, spec=spec),
                CliOp("periodogram", cfg),
                CliOp("autocov", cfg),
                CliOp("frac-coeffs", cfg),
                CliOp("simulate", cfg),
            ]
        )
    return CliWorkload(root, work, seed, trace, cycles)


def _operators(spec: ModelSpec):
    grid = fl.HilbertGrid.uniform(spec.n)
    base = fl.ArmaModel(
        fl.OperatorPolynomial(grid, (fl.LinearOperator(spec.phi, grid),)),
        fl.OperatorPolynomial(grid, (fl.LinearOperator(spec.theta, grid),)),
        fl.LinearOperator(spec.sigma, grid),
    )
    frac = fl.FracIntegrationSpec(fl.LinearOperator(spec.D, grid))
    return base, frac, fl.FiarmaModel(base, frac)


class AnalysisN32:
    """Full in-process analysis of one n=32 model per op; every 4th model has
    a non-normal memory operator, which skips the existence steps."""

    cycle = 4
    reference = speedref.COMPUTE
    ref_reps = 40
    T = 4096
    K_TRUNC = 2048
    N_FREQ = 4096

    def __init__(self, seed: int):
        self.seed = seed
        self.models = [
            arma11_model(_rng(seed, 3, i), 32, normal=i % self.cycle != self.cycle - 1)
            for i in range(2 * self.cycle)
        ]
        self.freqs = fl.density_frequencies(self.N_FREQ)
        self.fourier = fl.fourier_frequencies(self.T)
        self.rows = _rng(seed, 99)
        self.bytes_written = 0
        self.density_relerr = 0.0

    def run(self, i: int):
        spec = self.models[i % len(self.models)]
        base, frac, model = _operators(spec)
        dens = fl.fiarma_spectral_density(model, self.freqs)
        fl.autocov_sequence(dens, 8)
        existence = None
        if spec.normal:
            report = fl.check_conditions(base, frac)
            integral = fl.existence_integral(base, frac, eta=1.0)
            existence = (report.verdict, integral.diverges)
        cfg = fl.SimConfig(T=self.T, K_trunc=self.K_TRUNC, seed=self.seed, replication=i)
        path = fl.simulate_fiarma(model, cfg)
        fl.periodogram(path, self.fourier)
        return dens, existence

    def check(self, i: int, result) -> str | None:
        dens, existence = result
        spec = self.models[i % len(self.models)]
        rows = sample_rows(self.rows, self.N_FREQ, 8)
        err = density_relerr(spec, dens.freqs[rows], dens.values[rows])
        self.density_relerr = max(self.density_relerr, err)
        if not err <= DENSITY_TOL:
            return f"density: relative error {err:.3e} against the dense oracle"
        try:
            dens.validate()
        except ValueError as exc:
            return f"density: {exc}"
        if existence is not None and existence != ("holds", False):
            return f"existence: verdict {existence[0]}, diverges {existence[1]}"
        return None

    def finish(self) -> dict[int, str]:
        return {}

    def diagnostics(self) -> dict:
        return {"spectral.density_max_relerr": self.density_relerr}


def _binned_rel_err(values: np.ndarray, target: np.ndarray, n_bins: int) -> float:
    m = values.size - values.size % n_bins
    got = values[:m].reshape(n_bins, -1).mean(axis=1)
    want = target[:m].reshape(n_bins, -1).mean(axis=1)
    return float(np.max(np.abs(got / want - 1.0)))


class McReplications:
    """One replication per op of the fixed 4x4 FIARMA(1,d,1) Monte Carlo model:
    simulate, then the periodogram at every Fourier frequency."""

    cycle = 1
    reference = speedref.COMPUTE
    ref_reps = 1
    T = 4096
    K_TRUNC = 1024
    N_BINS = 32
    # Binned error bound of the Monte Carlo acceptance test, which averages
    # 200 replications; fewer replications widen it by the standard error.
    TOL = 0.15
    TOL_REPS = 200

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(7)
        u = random_unitary(rng, 4)
        d = np.array([0.1, 0.35, 0.2, -0.1])
        a1 = rng.normal(size=(4, 4))
        a1 *= 0.3 / np.linalg.norm(a1, 2)
        b1 = rng.normal(size=(4, 4))
        b1 *= 0.4 / np.linalg.norm(b1, 2)
        m = rng.normal(size=(4, 4))
        sigma = m @ m.T / 4 + 0.3 * np.eye(4)
        # the library's AR sign convention is Id - A z, as in the acceptance test
        self.spec = ModelSpec(a1, b1, sigma, u.conj().T @ (d[:, None] * u), u, d, True)
        self.model = _operators(self.spec)[2]
        self.freqs = fl.fourier_frequencies(self.T)
        self.band = (self.freqs >= 0.1) & (self.freqs <= np.pi)
        self.target = fl.fiarma_spectral_density(self.model, self.freqs[self.band])
        self.acc = np.zeros(int(self.band.sum()))
        self.digests: list[bytes] = []
        self.bytes_written = 0
        self.density_relerr = 0.0
        self.binned_relerr = float("nan")

    def config(self, i: int):
        return fl.SimConfig(T=self.T, K_trunc=self.K_TRUNC, seed=self.seed, replication=i)

    def run(self, i: int):
        path = fl.simulate_fiarma(self.model, self.config(i))
        return path, fl.periodogram(path, self.freqs)

    def check(self, i: int, result) -> str | None:
        path, pg = result
        self.digests.append(hashlib.sha256(path.values.tobytes()).digest())
        self.acc += pg.trace()[self.band]
        return None

    def finish(self) -> dict[int, str]:
        reps = len(self.digests)
        if not reps:
            return {}
        rows = sample_rows(_rng(self.seed, 99), self.target.freqs.size, 8)
        self.density_relerr = density_relerr(
            self.spec, self.target.freqs[rows], self.target.values[rows]
        )
        self.binned_relerr = _binned_rel_err(self.acc / reps, self.target.trace(), self.N_BINS)
        tol = self.TOL * np.sqrt(max(1.0, self.TOL_REPS / reps))
        failures = {}
        if not self.density_relerr <= DENSITY_TOL or not self.binned_relerr <= tol:
            reason = (
                f"binned periodogram error {self.binned_relerr:.3f} (bound {tol:.3f}), "
                f"target density error {self.density_relerr:.3e}"
            )
            failures = {i: reason for i in range(reps)}
        k = reps // 2
        replay = fl.simulate_fiarma(self.model, self.config(k))
        if hashlib.sha256(replay.values.tobytes()).digest() != self.digests[k]:
            failures[k] = f"replication {k} did not replay bit-identically"
        return failures

    def diagnostics(self) -> dict:
        return {
            "spectral.density_max_relerr": self.density_relerr,
            "mc.binned_relerr": self.binned_relerr,
        }


def hosking_diagnostic(work: Path, seed: int) -> float:
    """Lag-0 error of the CLI ``autocov`` table for cli-startup's first
    white-noise config, against Hosking's closed form."""
    spec = hosking_model(_rng(seed, 4, 0))
    cfg = _write(work / "hosking.json", config_text(spec, {"seed": seed * 1000}))
    out = work / "hosking"
    with contextlib.redirect_stderr(io.StringIO()):
        code = fiarma_lab.cli.main(["autocov", "--config", str(cfg), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"autocov exited {code}")
    table = parse_csv(out / "autocov.csv")
    shutil.rmtree(out)
    cells = table[table[:, 0] == 0, 1:].reshape(spec.n, spec.n, 2)
    return hosking_relerr(spec, cells[..., 0] + 1j * cells[..., 1])


def make(name: str, root: Path, work: Path, seed: int, trace: bool):
    if name == "cli-startup":
        return cli_startup(root, work, seed, trace)
    if name == "cli-export":
        return cli_export(root, work, seed, trace)
    if name == "analysis-n32":
        return AnalysisN32(seed)
    if name == "mc-replications":
        return McReplications(seed)
    raise ValueError(f"unknown workload {name!r}")
