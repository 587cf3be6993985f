"""Seeded inputs for the benchmark workloads, and the independent oracles
their outputs are checked against.

Everything here uses only numpy and scipy, never ``fiarma_lab``: the
generated models reach the program as plain matrices or JSON configs, and
the oracles recompute densities and autocovariances by a different route
(``scipy.linalg.inv`` and ``scipy.linalg.expm`` at single frequencies, and
Hosking's closed form), so a defect in the program cannot hide in the check.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

# Eigenvalues of the memory operator in the white-noise autocovariance
# config.  0.4 is the value at which midpoint quadrature of the spectral
# pole loses about 14% of the lag-0 variance at 4096 frequencies; it stays
# in so that the defect shows in the reported diagnostic.
HOSKING_D = (0.4, 0.2)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _scaled(rng: np.random.Generator, n: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a * (norm / np.linalg.norm(a, 2))


@dataclass(eq=False)
class ModelSpec:
    """One ARMA(1,1) model with a memory operator, as plain matrices.

    ``phi`` and ``theta`` are the lag-1 AR and MA coefficients (AR sign
    convention ``Id - phi z``), ``sigma`` the noise covariance and ``D`` the
    memory operator.  ``frame`` and ``d`` give ``D = frame^H diag(d) frame``
    when ``D`` is normal; a non-normal ``D`` adds a strictly upper-triangular
    part inside the frame, so it keeps the eigenvalues ``d``.
    """

    phi: np.ndarray
    theta: np.ndarray
    sigma: np.ndarray
    D: np.ndarray
    frame: np.ndarray
    d: np.ndarray
    normal: bool

    @property
    def n(self) -> int:
        return self.sigma.shape[0]


def arma11_model(
    rng: np.random.Generator, n: int, normal: bool = True, white: bool = False
) -> ModelSpec:
    """Generic ARMA(1,1) base with memory eigenvalues in [-0.2, 0.45].

    AR and MA coefficients have operator norm 0.5, so the AR symbol is
    invertible on the unit circle; with random dense draws, ``phi``,
    ``theta`` and ``sigma`` do not commute with each other or with ``D``.
    """
    zero = np.zeros((n, n))
    phi = zero if white else _scaled(rng, n, 0.5)
    theta = zero if white else _scaled(rng, n, 0.5)
    m = rng.normal(size=(n, n))
    sigma = np.eye(n) if white else m @ m.T / n + 0.3 * np.eye(n)
    frame = random_unitary(rng, n)
    d = rng.uniform(-0.2, 0.45, n)
    core = np.diag(d).astype(complex)
    if not normal:
        core += np.triu(rng.normal(size=(n, n)), 1) * (0.3 / np.sqrt(n))
    D = frame.conj().T @ core @ frame
    return ModelSpec(phi, theta, sigma, D, frame, d, normal)


def set_memory(spec: ModelSpec, d) -> ModelSpec:
    """Make ``D`` normal with eigenvalues ``d`` in the model's frame."""
    spec.d = np.asarray(d, dtype=float)
    spec.D = spec.frame.conj().T @ (spec.d[:, None] * spec.frame)
    spec.normal = True
    return spec


def hosking_model(rng: np.random.Generator, n: int = 2) -> ModelSpec:
    """White-noise FIARMA with ``Sigma = Id`` and ``D`` normal in a seeded frame."""
    return set_memory(arma11_model(rng, n, white=True), HOSKING_D[:n])


def power_exponent(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal power-law exponent ``N`` with real eigenvalues in (0.6, 1.2), and a noise covariance."""
    frame = random_unitary(rng, n)
    h = rng.uniform(0.6, 1.2, n)
    m = rng.normal(size=(n, n))
    return frame.conj().T @ (h[:, None] * frame), m @ m.T / n + 0.3 * np.eye(n)


def _matrix_doc(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat)]


def _grid_doc(n: int) -> dict:
    return {"points": [(i + 1) / n for i in range(n)], "weights": [1.0 / n] * n}


def config_text(spec: ModelSpec, run: dict) -> str:
    """JSON config for the CLI describing ``spec``."""
    model = {"sigma": _matrix_doc(spec.sigma), "D": _matrix_doc(spec.D)}
    if np.any(spec.phi):
        model["phi"] = [_matrix_doc(spec.phi)]
    if np.any(spec.theta):
        model["theta"] = [_matrix_doc(spec.theta)]
    return json.dumps({"grid": _grid_doc(spec.n), "model": model, "run": run})


def power_config_text(n_op: np.ndarray, sigma: np.ndarray, run: dict) -> str:
    model = {"sigma": _matrix_doc(sigma), "N": _matrix_doc(n_op)}
    return json.dumps({"grid": _grid_doc(n_op.shape[0]), "model": model, "run": run})


def oracle_density(spec: ModelSpec, lam: float) -> np.ndarray:
    """Density ``F T Sigma T^H F^H / (2 pi)`` at one frequency, evaluated densely.

    ``T = inv(Id - phi z) (Id + theta z)`` and ``F = expm(-log(1 - z) D)``
    with ``z = exp(-i lam)``; no eigendecomposition is involved.
    """
    z = np.exp(-1j * lam)
    eye = np.eye(spec.n)
    transfer = scipy.linalg.inv(eye - spec.phi * z) @ (eye + spec.theta * z)
    frac = scipy.linalg.expm(-np.log(1.0 - z) * spec.D)
    half = frac @ transfer
    return half @ spec.sigma @ half.conj().T / (2.0 * np.pi)


def density_relerr(spec: ModelSpec, freqs: np.ndarray, values: np.ndarray) -> float:
    """Largest ``||g - g_oracle||_2 / ||g_oracle||_2`` over the given frequencies."""
    worst = 0.0
    for lam, got in zip(freqs, values):
        want = oracle_density(spec, float(lam))
        err = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
        worst = max(worst, float(err))
    return worst


def hosking_relerr(spec: ModelSpec, gamma0: np.ndarray) -> float:
    """Largest relative error of lag-0 variance per eigenvalue against
    Hosking's ``Gamma(1-2d) / Gamma(1-d)^2`` (white noise, ``Sigma = Id``)."""
    got = np.diag(spec.frame @ gamma0 @ spec.frame.conj().T).real
    want = scipy.special.gamma(1.0 - 2.0 * spec.d) / scipy.special.gamma(1.0 - spec.d) ** 2
    return float(np.max(np.abs(got / want - 1.0)))


def sample_rows(rng: np.random.Generator, n_freq: int, count: int) -> np.ndarray:
    """Indices of ``count`` grid rows: the middle two (the frequencies closest
    to 0 on a symmetric grid) plus random ones."""
    mid = n_freq // 2
    rest = rng.choice(n_freq, size=count - 2, replace=False)
    return np.unique(np.concatenate([[mid - 1, mid], rest]))
