"""JSON model configuration: parsing, validation, and assembly.

A config document carries the grid, the model operators (complex entries
written as ``[re, im]`` pairs, bare reals accepted), and a run section with
simulation and frequency-grid settings.  Validation reports every defect it
can find in one pass instead of stopping at the first.
"""
from __future__ import annotations

import json
import math
import sys
from typing import Iterator

import numpy as np

from .dataio import PATH_FORMATS
from .existence import N_REFINE, SHELL_POINTS, shell_depth_error
from .hilbert import HilbertGrid, LinearOperator, NotPSDError
from .simulate import SimConfig, echo, is_int
from .spectral import ArmaModel, FiarmaModel, PowerLawModel
from .transfer import FracIntegrationSpec, OperatorPolynomial, SingularTransferError


class ConfigError(ValueError):
    """Carries the full list of validation messages."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class RunConfig(SimConfig):
    """The ``run`` section: the simulation settings of :class:`SimConfig`
    followed by the frequency-grid, existence and export settings.  Its
    fields are the allowed keys and their defaults."""

    # a density grid and an existence shell need a frequency, and the
    # existence integral needs four dyadic shells
    SIZES = SimConfig.SIZES | {"n_freq": 1, "n_refine": 4, "shell_points": 1, "K": 0, "lags": 0}

    def __init__(self, T: int = 1024, K_trunc: int = 2048, seed: int = 0, noise_kind: str = "auto",
                 replication: int = 0, n_freq: int = 4096, eta: float = 1.0,
                 n_refine: int = N_REFINE, shell_points: int = SHELL_POINTS, K: int = 64,
                 lags: int = 8, format: str = "csv") -> None:
        self._set(locals())

    @classmethod
    def errors(cls, values: dict, prefix: str = "") -> Iterator[str]:
        yield from super().errors(values, prefix)
        eta, n_refine = values["eta"], values["n_refine"]
        if not _is_number(eta) or not 0.0 < eta < np.pi:
            yield f"{prefix}eta: must lie in (0, pi)"
        elif is_int(n_refine) and (message := shell_depth_error(eta, n_refine)):
            yield prefix + message
        lags, n_freq = values["lags"], values["n_freq"]
        # the lags that n_freq frequencies resolve (autocov_sequence), once both sizes are valid
        if is_int(lags) and is_int(n_freq) and 0 <= lags and 2 * lags >= n_freq >= 1:
            yield f"{prefix}lags: must be below n_freq / 2 = {n_freq / 2:g}, got {lags}"
        if values["format"] not in PATH_FORMATS:
            yield f"{prefix}format: unknown format {echo(values['format'])}"


class ModelConfig:
    """Validated configuration with its one model, built and certified once
    by :func:`parse_config`: a :class:`FiarmaModel` when ``model.D`` is given,
    a :class:`PowerLawModel` when ``model.N`` is, else an :class:`ArmaModel`.
    """

    def __init__(self, model: ArmaModel | FiarmaModel | PowerLawModel, run: RunConfig) -> None:
        self.model = model
        self.run = run

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
            "run": dict(vars(self.run)),
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


def _parse_entry(obj) -> complex | None:
    """A JSON number or ``[re, im]`` pair as a complex number; None otherwise."""
    if _is_number(obj):
        return complex(_as_float(obj))
    if isinstance(obj, list) and len(obj) == 2 and all(_is_number(v) for v in obj):
        return complex(_as_float(obj[0]), _as_float(obj[1]))
    return None


def _parse_matrix(obj, name: str, n: int | None, errors: list[str]) -> np.ndarray | None:
    """A nonempty list of equal-length rows as the matrix that passes
    :meth:`LinearOperator.errors` on ``n`` points (its own rows when no grid
    parsed); None when refused.  Bad entries are reported once per matrix
    and stand in as 0 for the operator's rules."""
    rows = isinstance(obj, list) and all(isinstance(r, list) for r in obj)
    if not rows or len({len(r) for r in obj}) != 1:
        errors.append(f"{name}: expected a matrix as a list of rows")
        return None
    before = len(errors)
    entries = [_parse_entry(v) for row in obj for v in row]
    if None in entries:
        errors.append(f"{name}: entries must be numbers or [re, im] pairs")
    mat = np.array([0j if v is None else v for v in entries], dtype=complex).reshape(len(obj), -1)
    errors += LinearOperator.errors(mat, len(mat) if n is None else n, prefix=f"{name}: ")
    return None if len(errors) > before else mat


# the run section's keys and their defaults
_RUN_DEFAULTS = vars(RunConfig())


def _check_keys(section: dict, allowed: set[str], where: str, errors: list[str]) -> None:
    for key in section:
        if key not in allowed:
            errors.append(f"{where}: unknown key {echo(key)}")


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
    except RecursionError as exc:  # the parser recurses once per level of nesting
        raise ConfigError(["nested too deeply to parse"]) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise ConfigError([f"an integer has more than {limit} digits"]) from exc
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

    # the model certifies itself in the same pass: Sigma, the AR symbol and
    # a power-law model's white base
    model = None
    if grid is not None and all(m is not None for m in [sigma_mat, *phi_mats, *theta_mats]):
        try:
            model = ArmaModel(
                OperatorPolynomial(grid, tuple(LinearOperator(m, grid) for m in phi_mats)),
                OperatorPolynomial(grid, tuple(LinearOperator(m, grid) for m in theta_mats)),
                LinearOperator(sigma_mat, grid),
            )
        except NotPSDError as exc:
            errors.append(f"model.sigma: {exc}")
        except SingularTransferError as exc:
            errors.append(f"model.phi: {exc}")
    if model is not None and d_mat is not None:
        model = FiarmaModel(model, FracIntegrationSpec(LinearOperator(d_mat, grid)))
    elif model is not None and n_mat is not None:
        try:
            model = PowerLawModel(model, FracIntegrationSpec(LinearOperator(n_mat, grid)))
        except ValueError as exc:
            errors.append(f"model.N: {exc}")
    if errors:
        raise ConfigError(errors)
    return ModelConfig(model, RunConfig(**run_kwargs))
