"""Batch command-line interface.

Each invocation runs one subcommand against a JSON config.  The subcommand's
runner returns its outputs by file name, and :func:`dataio.write_outputs`
creates the output directory and writes them plus a run manifest into it.  It
exits with 0 on success, 2 when an existence check refuses the run, and 1 on
any error, usage errors of the command line included; such a run creates no
output directory.
The manifest embeds the fully resolved config so every output can be
regenerated bit-identically from it.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .config import ConfigError, ModelConfig, parse_config
from .dataio import write_outputs
from .existence import ExistenceRefusal, IntegralReport, check_conditions, existence_integral
from .simulate import echo, key_range_error, simulate_fiarma, verify_longmemory_decomposition
from .spectral import (
    ArmaModel,
    FiarmaModel,
    PowerLawModel,
    autocov_sequence,
    density_frequencies,
    fiarma_spectral_density,
    fourier_frequencies,
    periodogram,
)
from .transfer import duker_decomposition, frac_ma_coeffs


def _run_simulate(cfg: ModelConfig, force: bool) -> dict:
    return {f"path.{cfg.run.format}": simulate_fiarma(cfg.model, cfg.run, force=force)}


def _run_density(cfg: ModelConfig, force: bool) -> dict:
    g = fiarma_spectral_density(cfg.model, density_frequencies(cfg.run.n_freq))
    return {"density.csv": {"lambda": g.freqs, "m": g.values}}


def _run_autocov(cfg: ModelConfig, force: bool) -> dict:
    g = fiarma_spectral_density(cfg.model, density_frequencies(cfg.run.n_freq))
    seq = autocov_sequence(g, cfg.run.lags)
    return {"autocov.csv": {"h": np.arange(seq.k_min, seq.k_max + 1), "m": seq.data}}


def _run_frac_coeffs(cfg: ModelConfig, force: bool) -> dict:
    seq = frac_ma_coeffs(cfg.model.D, cfg.run.K)
    return {"frac_coeffs.csv": {"k": np.arange(len(seq)), "m": seq.data}}


def _existence_integral(cfg: ModelConfig) -> IntegralReport:
    """The existence integral on the run's window, shells and nodes per shell."""
    run = cfg.run
    return existence_integral(
        cfg.model.base, cfg.model.D, eta=run.eta, n_freq=run.shell_points, n_refine=run.n_refine
    )


def _run_check_existence(cfg: ModelConfig, force: bool) -> dict:
    report = check_conditions(cfg.model.base, cfg.model.D)
    return {"existence.json": {**vars(report), "i_eta": vars(_existence_integral(cfg))}}


def _run_existence_integral(cfg: ModelConfig, force: bool) -> dict:
    report = _existence_integral(cfg)
    lo, hi = report.edges.T
    shells = {"level": np.arange(len(lo)), "lo": lo, "hi": hi, "contribution": report.shells}
    return {"existence_integral.json": vars(report), "shells.csv": shells}


def _run_duker_decompose(cfg: ModelConfig, force: bool) -> dict:
    c_mat, deltas, rho = duker_decomposition(cfg.model.N, cfg.run.K)
    norms = deltas.norms()
    return {
        "duker_C.csv": {"m": c_mat.entries[None]},
        "duker_deltas.csv": {"k": np.arange(len(norms)), "delta_norm": norms},
        "duker_decompose.json": {"rho": float(rho), "K": cfg.run.K},
    }


def _run_duker_verify(cfg: ModelConfig, force: bool) -> dict:
    check = verify_longmemory_decomposition(cfg.model, cfg.run, force=force)
    return {"duker_verify.json": check.to_dict()}


def _run_periodogram(cfg: ModelConfig, force: bool) -> dict:
    path = simulate_fiarma(cfg.model, cfg.run, force=force)
    pg = periodogram(path, fourier_frequencies(path.t_len))
    return {"periodogram.csv": {"lambda": pg.freqs, "m": pg.values}}


# Each subcommand's runner, ``(cfg, force) -> {file name: output}`` in write
# order, and the model families it takes: plain ARMA, fractional
# (``model.D``) and power-law (``model.N``).
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


def _seed(text: str) -> int:
    """``--seed`` as an integer; a value ``int`` refuses is named in bounded form."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fiarma-lab",
        description="Operator-valued fractional ARMA toolbox (batch CLI)",
    )
    parser.add_argument("subcommand", choices=RUNNERS, help="what to compute")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=_seed, default=None, help="override run.seed")
    parser.add_argument("--force", action="store_true", help="bypass existence refusals")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand in process and return its exit code.

    It leaves the interpreter's garbage collector as it found it; only the
    process entry :func:`run` touches it.
    """
    args = _build_parser().parse_args(argv)
    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        print(f"config error: not UTF-8 text: {exc.reason} at byte {exc.start}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
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
        outputs = runner(cfg, args.force)  # a refusal writes nothing
        manifest = {
            "outputs": list(outputs),
            "tool": "fiarma-lab",
            "version": __version__,
            "subcommand": args.subcommand,
            "config_sha256": hashlib.sha256(raw).hexdigest(),
            "resolved_config": cfg.resolved(),
            "seed": cfg.run.seed,
            "force": bool(args.force),
        }
        write_outputs(Path(args.out), {**outputs, "manifest.json": manifest})
    except ExistenceRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
