import numpy as np
import pytest

from fiarma_lab import (
    ArmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    OperatorPolynomial,
    PowerLawModel,
    identity,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def nilpotent_shift_model() -> ArmaModel:
    """``Id - 1.5 S z`` with S the nilpotent shift on n=32: determinant 1, but
    its smallest singular value is about 2e-6 on the whole circle and its
    companion is defective.  Built once: its certificate spends its whole
    evaluation budget, about 2 s."""
    g = make_grid(32)
    phi = OperatorPolynomial(g, (op(1.5 * np.eye(32, k=1), g),))
    return ArmaModel(phi, OperatorPolynomial(g), identity(g))


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


def reconstruct(spec: FracIntegrationSpec) -> np.ndarray:
    """``U^H diag(d) U`` from the frame and eigenvalues that ``spec`` found."""
    return spec.U.conj().T @ (spec.d[:, None] * spec.U)


def white_model(grid: HilbertGrid, sigma: LinearOperator | None = None) -> ArmaModel:
    """White noise with covariance ``sigma``, the identity by default: the
    ARMA model with no AR and no MA coefficients."""
    sigma = identity(grid) if sigma is None else sigma
    return ArmaModel(OperatorPolynomial(grid), OperatorPolynomial(grid), sigma)


def ar1_model(grid: HilbertGrid, a: complex = 0.5) -> ArmaModel:
    """``(Id - a z) X_t = eps_t`` with identity innovation covariance."""
    return ArmaModel(OperatorPolynomial.scalar(grid, a), OperatorPolynomial(grid), identity(grid))


def power_law_model(n_op: LinearOperator, sigma: LinearOperator) -> PowerLawModel:
    """Power-law moving average with exponent ``n_op`` of white noise with covariance ``sigma``."""
    return PowerLawModel(white_model(n_op.grid, sigma), FracIntegrationSpec(n_op))
