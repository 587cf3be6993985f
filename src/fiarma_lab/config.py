"""JSON model configuration: parsing, validation, and assembly.

A config document carries the grid, the model operators (complex entries
written as ``[re, im]`` pairs, bare reals accepted), and a run section with
simulation and frequency-grid settings.  Validation reports every defect it
can find in one pass instead of stopping at the first.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterator

import numpy as np

from .dataio import PATH_FORMATS
from .existence import shell_depth_error
from .hilbert import HilbertGrid, LinearOperator, NotPSDError
from .simulate import SimConfig
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

    # a density grid and an existence shell need a frequency, and the
    # existence integral needs four dyadic shells
    SIZES = SimConfig.SIZES | {"n_freq": 1, "n_refine": 4, "shell_points": 1, "K": 0, "lags": 0}

    @classmethod
    def errors(cls, values: dict, prefix: str = "") -> Iterator[str]:
        yield from super().errors(values, prefix)
        eta, n_refine = values["eta"], values["n_refine"]
        if not _is_number(eta) or not 0.0 < eta < np.pi:
            yield f"{prefix}eta: must lie in (0, pi)"
        elif isinstance(n_refine, int) and (message := shell_depth_error(eta, n_refine)):
            yield prefix + message
        if values["format"] not in PATH_FORMATS:
            yield f"{prefix}format: unknown format {values['format']!r}"


_RUN_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


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
        base = model.base
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


def _is_number(obj) -> bool:
    """A JSON number; booleans are not numbers here."""
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def _as_float(obj) -> float:
    """A JSON number as a double.  An integer beyond the double range becomes
    infinite, as a float literal beyond it does when the JSON is read, so the
    finiteness rules refuse it."""
    try:
        return float(obj)
    except OverflowError:
        return math.inf if obj > 0 else -math.inf


def _parse_entry(obj, name: str, errors: list[str]) -> complex:
    if _is_number(obj):
        return complex(_as_float(obj))
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(v) for v in obj):
        return complex(_as_float(obj[0]), _as_float(obj[1]))
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
        elif not all(map(_is_number, weights)):
            errors.append("grid.weights: need a list of numbers")
        else:
            points, weights = (np.array(list(map(_as_float, v))) for v in (points, weights))
            # the grid's own rules: finite points, finite and strictly positive weights
            grid_errors = list(HilbertGrid.errors(points, weights, prefix="grid."))
            errors += grid_errors
            if not grid_errors:
                grid = HilbertGrid(points, weights)
    n = grid.n if grid is not None else None

    # model operators
    msec = doc.get("model")
    phi_mats: list[np.ndarray | None] = []  # None for a matrix that did not parse
    theta_mats: list[np.ndarray | None] = []
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
                sink.append(None)
                continue
            sink += (_parse_matrix(m, f"model.{label}[{k}]", n, errors) for k, m in enumerate(seq))
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

    # run section: RunConfig's own rules, every broken one reported
    rsec = doc.get("run", {})
    run_kwargs = {}
    if not isinstance(rsec, dict):
        errors.append("run: section must be an object")
    else:
        _check_keys(rsec, _RUN_DEFAULTS, "run", errors)
        run_kwargs = {k: v for k, v in rsec.items() if k in _RUN_DEFAULTS}
    errors.extend(RunConfig.errors(_RUN_DEFAULTS | run_kwargs, prefix="run."))

    # the model certifies itself in the same pass: Sigma and the AR symbol
    arma = None
    if grid is not None and all(m is not None for m in [sigma_mat, *phi_mats, *theta_mats]):
        try:
            arma = ArmaModel(
                OperatorPolynomial(grid, tuple(LinearOperator(m, grid) for m in phi_mats)),
                OperatorPolynomial(grid, tuple(LinearOperator(m, grid) for m in theta_mats)),
                LinearOperator(sigma_mat, grid),
            )
        except NotPSDError as exc:
            why = exc if exc.min_eig is None else f"Sigma not PSD (min eig {exc.min_eig:.6g})"
            errors.append(f"model.sigma: {why}")
        except SingularTransferError as exc:
            margin = f"margin {exc.margin:.3e}"
            errors.append(f"model.phi: not invertible on the unit circle ({margin})")
    if errors:
        raise ConfigError(errors)
    model = arma
    if d_mat is not None:
        model = FiarmaModel(arma, FracIntegrationSpec(LinearOperator(d_mat, grid)))
    elif n_mat is not None:
        model = PowerLawModel(arma, FracIntegrationSpec(LinearOperator(n_mat, grid)))
    return ModelConfig(model, RunConfig(**run_kwargs))
