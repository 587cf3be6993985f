"""Batch command-line interface.

Each invocation runs one subcommand against a JSON config, writes its output
files plus a run manifest into the output directory, and exits with 0 on
success, 2 when an existence check refuses the run, and 1 on any error,
usage errors of the command line included.
The manifest embeds the fully resolved config so every output can be
regenerated bit-identically from it.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .config import ConfigError, ModelConfig, parse_config
from .dataio import _atomic_write, _complex_cells, _table_bytes, write_path
from .existence import ExistenceRefusal, IntegralReport, check_conditions, existence_integral
from .simulate import (
    SampledPath,
    key_range_error,
    simulate_arma,
    simulate_duker,
    simulate_fiarma,
    verify_longmemory_decomposition,
)
from .spectral import (
    ArmaModel,
    FiarmaModel,
    PowerLawModel,
    SpectralDensityGrid,
    arma_spectral_density,
    autocov_sequence,
    density_frequencies,
    fiarma_spectral_density,
    fourier_frequencies,
    periodogram,
)
from .transfer import duker_decomposition, frac_ma_coeffs


def _matrix_header(n: int) -> list[str]:
    cols = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cols += [f"m_{i}_{j}_re", f"m_{i}_{j}_im"]
    return cols


def _write_table(
    target: Path, header: list[str], cells: np.ndarray, index: np.ndarray | None = None
) -> None:
    """One CSV table: float ``cells`` per row, led by the integer ``index``."""
    _atomic_write(target, _table_bytes(header, cells, index))


def _write_json(target: Path, payload: dict) -> None:
    _atomic_write(target, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _density_table(out: Path, name: str, freqs: np.ndarray, values: np.ndarray) -> str:
    cells = np.column_stack([freqs, _complex_cells(values)])
    _write_table(out / name, ["lambda"] + _matrix_header(values.shape[1]), cells)
    return name


def _simulate(cfg: ModelConfig, force: bool) -> SampledPath:
    """Path of the configured model: fractional (D), power-law (N) or plain ARMA."""
    if isinstance(cfg.model, FiarmaModel):
        return simulate_fiarma(cfg.model, cfg.run, force=force)
    if isinstance(cfg.model, PowerLawModel):
        return simulate_duker(cfg.model, cfg.run, force=force)
    return simulate_arma(cfg.model, cfg.run)


def _density(cfg: ModelConfig) -> SpectralDensityGrid:
    """Density of the configured model on the run's frequency grid."""
    freqs = density_frequencies(cfg.run.n_freq)
    if isinstance(cfg.model, FiarmaModel):
        return fiarma_spectral_density(cfg.model, freqs)
    return arma_spectral_density(cfg.model, freqs)


def _run_simulate(cfg: ModelConfig, out: Path, force: bool) -> list[str]:
    path = _simulate(cfg, force)
    name = f"path.{cfg.run.format}"
    write_path(path, out / name, fmt=cfg.run.format)
    return [name]


def _run_density(cfg: ModelConfig, out: Path, force: bool) -> list[str]:
    g = _density(cfg)
    return [_density_table(out, "density.csv", g.freqs, g.values)]


def _run_autocov(cfg: ModelConfig, out: Path, force: bool) -> list[str]:
    seq = autocov_sequence(_density(cfg), cfg.run.lags)
    lags = np.arange(-seq.max_lag, seq.max_lag + 1)
    header = ["h"] + _matrix_header(cfg.grid.n)
    _write_table(out / "autocov.csv", header, _complex_cells(seq.data), lags)
    return ["autocov.csv"]


def _run_frac_coeffs(cfg: ModelConfig, out: Path, force: bool) -> list[str]:
    seq = frac_ma_coeffs(cfg.model.D, cfg.run.K)
    header = ["k"] + _matrix_header(cfg.grid.n)
    _write_table(out / "frac_coeffs.csv", header, _complex_cells(seq.data), np.arange(len(seq)))
    return ["frac_coeffs.csv"]


def _existence_integral(cfg: ModelConfig) -> IntegralReport:
    """The existence integral on the run's window, shells and nodes per shell."""
    run = cfg.run
    return existence_integral(
        cfg.model.base, cfg.model.D, eta=run.eta, n_freq=run.shell_points, n_refine=run.n_refine
    )


def _run_check_existence(cfg: ModelConfig, out: Path, force: bool) -> list[str]:
    report = check_conditions(cfg.model.base, cfg.model.D).to_dict()
    report["i_eta"] = _existence_integral(cfg).to_dict()
    _write_json(out / "existence.json", report)
    return ["existence.json"]


def _run_existence_integral(cfg: ModelConfig, out: Path, force: bool) -> list[str]:
    report = _existence_integral(cfg)
    _write_json(out / "existence_integral.json", report.to_dict())
    levels = np.arange(len(report.shells))
    hi = report.eta * 2.0**-levels
    cells = np.column_stack([hi / 2.0, hi, report.shells])
    _write_table(out / "shells.csv", ["level", "lo", "hi", "contribution"], cells, levels)
    return ["existence_integral.json", "shells.csv"]


def _run_duker_decompose(cfg: ModelConfig, out: Path, force: bool) -> list[str]:
    c_mat, deltas, rho = duker_decomposition(cfg.model.N, cfg.run.K)
    header = _matrix_header(cfg.grid.n)
    _write_table(out / "duker_C.csv", header, _complex_cells(c_mat.entries[None]))
    norms = deltas.norms()
    ks = np.arange(len(norms))
    _write_table(out / "duker_deltas.csv", ["k", "delta_norm"], norms[:, None], ks)
    _write_json(out / "duker_decompose.json", {"rho": float(rho), "K": cfg.run.K})
    return ["duker_C.csv", "duker_deltas.csv", "duker_decompose.json"]


def _run_duker_verify(cfg: ModelConfig, out: Path, force: bool) -> list[str]:
    check = verify_longmemory_decomposition(cfg.model, cfg.run)
    _write_json(out / "duker_verify.json", check.to_dict())
    return ["duker_verify.json"]


def _run_periodogram(cfg: ModelConfig, out: Path, force: bool) -> list[str]:
    path = _simulate(cfg, force)
    freqs = fourier_frequencies(path.t_len)
    pg = periodogram(path, freqs)
    return [_density_table(out, "periodogram.csv", pg.freqs, pg.values)]


# Each subcommand's runner and the model families it takes: plain ARMA,
# fractional (``model.D``) and power-law (``model.N``).
_EVERY_FAMILY = (ArmaModel, FiarmaModel, PowerLawModel)
RUNNERS = {
    "simulate": (_run_simulate, _EVERY_FAMILY),
    "density": (_run_density, (ArmaModel, FiarmaModel)),
    "autocov": (_run_autocov, (ArmaModel, FiarmaModel)),
    "frac-coeffs": (_run_frac_coeffs, (FiarmaModel,)),
    "check-existence": (_run_check_existence, (FiarmaModel,)),
    "existence-integral": (_run_existence_integral, (FiarmaModel,)),
    "duker-decompose": (_run_duker_decompose, (PowerLawModel,)),
    "duker-verify": (_run_duker_verify, (PowerLawModel,)),
    "periodogram": (_run_periodogram, _EVERY_FAMILY),
}
_CONFIG_KEY = {FiarmaModel: "model.D", PowerLawModel: "model.N"}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1: exit code 2 means a refusal."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fiarma-lab",
        description="Operator-valued fractional ARMA toolbox (batch CLI)",
    )
    parser.add_argument("subcommand", choices=RUNNERS, help="what to compute")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument("--force", action="store_true", help="bypass existence refusals")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand in process and return its exit code.

    It leaves the interpreter's garbage collector as it found it; only the
    process entry :func:`run` touches it.
    """
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(raw.decode())
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 1

    if args.seed is not None:
        message = key_range_error("--seed", args.seed)
        if message:
            print(f"config error: {message}", file=sys.stderr)
            return 1
        cfg.run.seed = args.seed

    runner, takes = RUNNERS[args.subcommand]
    if not isinstance(cfg.model, takes):
        # a one-family subcommand names the key it needs, any other the key it refuses
        if len(takes) == 1:
            message = f"{_CONFIG_KEY[takes[0]]} is required by this subcommand"
        else:
            message = f"{_CONFIG_KEY[type(cfg.model)]} is not taken by this subcommand"
        print(f"error: {message}", file=sys.stderr)
        return 1
    try:
        outputs = runner(cfg, out, args.force)
    except ExistenceRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    manifest = {
        "tool": "fiarma-lab",
        "version": __version__,
        "subcommand": args.subcommand,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "resolved_config": cfg.resolved(),
        "seed": cfg.run.seed,
        "force": bool(args.force),
        "outputs": outputs,
    }
    _write_json(out / "manifest.json", manifest)
    return 0


def run() -> NoReturn:
    """Process entry of ``python -m fiarma_lab.cli`` and ``fiarma-lab``.

    Every module is imported by now, so :func:`gc.freeze` moves the
    import-time heap out of the collector's reach and the collections at
    interpreter shutdown skip it.  The collector stays enabled: cyclic
    garbage made by the run is still collected.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    run()
