"""JSON model configuration: parsing, validation, and assembly.

A config document carries the grid, the model operators (complex entries
written as ``[re, im]`` pairs, bare reals accepted), and a run section with
simulation and frequency-grid settings.  Validation reports every defect it
can find in one pass instead of stopping at the first.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .hilbert import HilbertGrid, LinearOperator
from .simulate import NOISE_KINDS, SimConfig, key_range_error
from .spectral import ArmaModel, FiarmaModel, PowerLawModel
from .transfer import FracIntegrationSpec, OperatorPolynomial, SingularTransferError


class ConfigError(ValueError):
    """Carries the full list of validation messages."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class RunConfig(SimConfig):
    """The ``run`` section: the simulation settings of :class:`SimConfig`
    followed by the frequency-grid, existence and export settings.  Its
    fields are the allowed keys and their defaults."""

    n_freq: int = 4096
    eta: float = 1.0
    n_refine: int = 40
    shell_points: int = 64
    K: int = 64
    lags: int = 8
    format: str = "csv"


_RUN_KEYS = {f.name for f in fields(RunConfig)}


@dataclass(eq=False)
class ModelConfig:
    """Validated configuration with its one model, built and certified once
    by :func:`parse_config`: a :class:`FiarmaModel` when ``model.D`` is given,
    a :class:`PowerLawModel` when ``model.N`` is, else an :class:`ArmaModel`.
    """

    model: ArmaModel | FiarmaModel | PowerLawModel
    run: RunConfig

    @property
    def grid(self) -> HilbertGrid:
        return self.model.grid

    def resolved(self) -> dict:
        """Round-trippable document with all defaults filled in."""
        model = self.model
        base = model if isinstance(model, ArmaModel) else model.base
        exponent = {}
        if isinstance(model, FiarmaModel):
            exponent = {"D": _matrix_doc(model.D.D.entries)}
        elif isinstance(model, PowerLawModel):
            exponent = {"N": _matrix_doc(model.N.D.entries)}
        return {
            "grid": {
                "points": list(map(float, self.grid.points)),
                "weights": list(map(float, self.grid.weights)),
            },
            "model": {
                "phi": [_matrix_doc(c.entries) for c in base.phi.coeffs],
                "theta": [_matrix_doc(c.entries) for c in base.theta.coeffs],
                "sigma": _matrix_doc(base.sigma.entries),
                **exponent,
            },
            "run": asdict(self.run),
        }


def _matrix_doc(entries: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in entries]


def _is_number(obj, kinds: tuple = (int, float)) -> bool:
    """A JSON number (an integer with ``kinds=(int,)``); booleans are not numbers here."""
    return isinstance(obj, kinds) and not isinstance(obj, bool)


def _parse_entry(obj, name: str, errors: list[str]) -> complex:
    if _is_number(obj):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(v) for v in obj):
        return complex(obj[0], obj[1])
    errors.append(f"{name}: entries must be numbers or [re, im] pairs")
    return 0.0


def _parse_matrix(obj, name: str, n: int | None, errors: list[str]) -> np.ndarray | None:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        errors.append(f"{name}: expected a matrix as a list of rows")
        return None
    rows = len(obj)
    cols = {len(r) for r in obj}
    if len(cols) != 1 or cols.pop() != rows:
        errors.append(f"{name}: matrix must be square")
        return None
    if n is not None and rows != n:
        errors.append(f"{name}: dimension {rows} does not match grid size {n}")
        return None
    before = len(errors)
    mat = np.array(
        [[_parse_entry(v, name, errors) for v in row] for row in obj], dtype=complex
    )
    if len(errors) > before:
        return None
    if not np.all(np.isfinite(mat.view(float))):
        errors.append(f"{name}: entries must be finite")
        return None
    return mat


def _check_keys(section: dict, allowed: set[str], where: str, errors: list[str]) -> None:
    for key in section:
        if key not in allowed:
            errors.append(f"{where}: unknown key {key!r}")


def parse_config(text: str) -> ModelConfig:
    """Parse and validate a JSON configuration document.

    Raises :class:`ConfigError` carrying every validation message found;
    a well-formed document comes back as its one assembled model with run
    defaults filled in.
    """
    errors: list[str] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"]
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a JSON object"])
    _check_keys(doc, {"grid", "model", "run"}, "config", errors)

    # grid
    grid = None
    gsec = doc.get("grid")
    if not isinstance(gsec, dict):
        errors.append("grid: section missing or not an object")
    else:
        _check_keys(gsec, {"points", "weights"}, "grid", errors)
        points = gsec.get("points")
        weights = gsec.get("weights")
        if not isinstance(points, list) or not points or not all(map(_is_number, points)):
            errors.append("grid.points: need a nonempty list of numbers")
        elif not isinstance(weights, list) or len(weights) != len(points):
            errors.append("grid.weights: need a list matching grid.points in length")
        elif any(not _is_number(w) or w <= 0 for w in weights):
            errors.append("grid.weights: all weights must be strictly positive numbers")
        else:
            grid = HilbertGrid(np.asarray(points, float), np.asarray(weights, float))
    n = grid.n if grid is not None else None

    # model operators
    msec = doc.get("model")
    phi_mats: list[np.ndarray] = []
    theta_mats: list[np.ndarray] = []
    sigma_mat = None
    d_mat = None
    n_mat = None
    if not isinstance(msec, dict):
        errors.append("model: section missing or not an object")
    else:
        _check_keys(msec, {"phi", "theta", "sigma", "D", "N"}, "model", errors)
        for label, sink in (("phi", phi_mats), ("theta", theta_mats)):
            seq = msec.get(label, [])
            if not isinstance(seq, list):
                errors.append(f"model.{label}: expected a list of matrices")
                continue
            for k, m in enumerate(seq):
                mat = _parse_matrix(m, f"model.{label}[{k}]", n, errors)
                if mat is not None:
                    sink.append(mat)
        if "sigma" not in msec:
            errors.append("model.sigma: required")
        else:
            sigma_mat = _parse_matrix(msec["sigma"], "model.sigma", n, errors)
        if "D" in msec and "N" in msec:
            errors.append("model: provide at most one of D and N")
        if "N" in msec and (msec.get("phi") or msec.get("theta")):
            errors.append("model.N: the power-law moving average takes no phi or theta")
        if "D" in msec:
            d_mat = _parse_matrix(msec["D"], "model.D", n, errors)
        if "N" in msec:
            n_mat = _parse_matrix(msec["N"], "model.N", n, errors)

    # run section
    rsec = doc.get("run", {})
    run_kwargs = {}
    if not isinstance(rsec, dict):
        errors.append("run: section must be an object")
    else:
        _check_keys(rsec, _RUN_KEYS, "run", errors)
        run_kwargs = {k: v for k, v in rsec.items() if k in _RUN_KEYS}
    _check_run(asdict(RunConfig()) | run_kwargs, errors)

    # semantic checks that need assembled pieces
    if grid is not None and sigma_mat is not None:
        herm = 0.5 * (sigma_mat + sigma_mat.conj().T)
        defect = np.linalg.norm(sigma_mat - sigma_mat.conj().T, 2)
        scale = max(np.linalg.norm(herm, 2), 1e-300)
        if defect > 1e-10 * scale:
            errors.append("model.sigma: not Hermitian")
        else:
            eigs = np.linalg.eigvalsh(herm)
            if eigs[0] < -1e-10 * scale:
                errors.append(f"model.sigma: Sigma not PSD (min eig {eigs[0]:.6g})")
    if errors:
        raise ConfigError(errors)
    try:
        arma = ArmaModel(
            OperatorPolynomial(grid, tuple(LinearOperator(m, grid) for m in phi_mats)),
            OperatorPolynomial(grid, tuple(LinearOperator(m, grid) for m in theta_mats)),
            LinearOperator(sigma_mat, grid),
        )
    except SingularTransferError as exc:
        raise ConfigError(
            [f"model.phi: not invertible on the unit circle (margin {exc.margin:.3e})"]
        ) from exc
    model = arma
    if d_mat is not None:
        model = FiarmaModel(arma, FracIntegrationSpec(LinearOperator(d_mat, grid)))
    elif n_mat is not None:
        model = PowerLawModel(arma, FracIntegrationSpec(LinearOperator(n_mat, grid)))
    return ModelConfig(model, RunConfig(**run_kwargs))


# The smallest value of each size in the run section: a path needs a row, a
# density grid and an existence shell need a frequency, and the existence
# integral needs four dyadic shells.
_RUN_MINIMUM = {
    "T": 1, "K_trunc": 0, "n_freq": 1, "n_refine": 4, "shell_points": 1, "K": 0, "lags": 0,
}


def _check_run(run: dict, errors: list[str]) -> None:
    """Append a message for every invalid value of the run section."""
    for key, low in _RUN_MINIMUM.items():
        if not _is_number(run[key], (int,)) or run[key] < 0:
            errors.append(f"run.{key}: must be a nonnegative integer")
        elif run[key] < low:
            errors.append(f"run.{key}: must be at least {low}")
    for key in ("seed", "replication"):  # may be negative: they key the noise stream
        if not _is_number(run[key], (int,)):
            errors.append(f"run.{key}: must be an integer")
        elif message := key_range_error(f"run.{key}", run[key]):
            errors.append(message)
    if run["burnin"] is not None and (not _is_number(run["burnin"], (int,)) or run["burnin"] < 0):
        errors.append("run.burnin: must be a nonnegative integer or null")
    if run["noise_kind"] not in NOISE_KINDS:
        errors.append(f"run.noise_kind: unknown kind {run['noise_kind']!r}")
    eta = run["eta"]
    if not _is_number(eta) or not 0.0 < eta < np.pi:
        errors.append("run.eta: must lie in (0, pi)")
    if run["format"] not in ("csv", "bin"):
        errors.append(f"run.format: unknown format {run['format']!r}")
