import numpy as np
import pytest

from fiarma_lab import (
    ArmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    OperatorPolynomial,
    PowerLawModel,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def scalar_grid() -> HilbertGrid:
    return HilbertGrid(np.array([0.5]), np.array([1.0]))


def make_grid(n: int, uniform: bool = True) -> HilbertGrid:
    if uniform:
        return HilbertGrid.uniform(n)
    rng = np.random.default_rng(7 * n)
    return HilbertGrid(np.sort(rng.uniform(0, 1, n)), rng.uniform(0.2, 2.0, n))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def op(mat, grid=None) -> LinearOperator:
    mat = np.asarray(mat, dtype=complex)
    if grid is None:
        grid = HilbertGrid.uniform(mat.shape[0])
    return LinearOperator(mat, grid)


def power_law_model(n_op: LinearOperator, sigma: LinearOperator) -> PowerLawModel:
    """Power-law moving average with exponent ``n_op`` of white noise with covariance ``sigma``."""
    g = n_op.grid
    white = ArmaModel(OperatorPolynomial(g), OperatorPolynomial(g), sigma)
    return PowerLawModel(white, FracIntegrationSpec(n_op))
