"""Unitary equivariance of the model's quantities.

The grid's coordinates are one orthonormal basis of the function space, so
for a unitary W the model ``W M W^H`` (phi, theta, Sigma and D each rotated)
must give the rotated quantities of M: ``W F(lam) W^H`` for the fractional
transfer, ``W g(lam) W^H`` for the density, ``W Gamma(h) W^H`` for the
autocovariances and ``W C_k W^H`` for the MA coefficients, and the same
existence verdict, condition (iii) value and existence integral.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiarma_lab import (
    ArmaModel,
    FiarmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    OperatorPolynomial,
    autocov_sequence,
    check_conditions,
    density_frequencies,
    existence_integral,
    fiarma_spectral_density,
    frac_ma_coeffs,
)
from fiarma_lab.transfer import frac_transfer_batch

from conftest import random_unitary

DRAWS = dict(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))


def _complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def draw(seed: int, n: int) -> tuple[HilbertGrid, dict, np.ndarray]:
    """A grid with non-uniform weights, the matrices of a normal FIARMA(1,d,1)
    model with complex coefficients, and a unitary W."""
    rng = np.random.default_rng(seed)
    grid = HilbertGrid(np.sort(rng.uniform(0.0, 1.0, n)), rng.uniform(0.2, 2.0, n))
    phi, theta, m = (_complex(rng, n) for _ in range(3))
    d = rng.uniform(-0.4, 0.45, n) + 1j * rng.uniform(-0.3, 0.3, n)
    frame = random_unitary(rng, n)
    mats = {
        "phi": phi * (0.5 / np.linalg.norm(phi, 2)),
        "theta": theta * (0.5 / np.linalg.norm(theta, 2)),
        "sigma": m @ m.conj().T / n + 0.1 * np.eye(n),
        "D": frame.conj().T @ (d[:, None] * frame),
    }
    return grid, mats, random_unitary(rng, n)


def build(grid: HilbertGrid, mats: dict, w: np.ndarray) -> FiarmaModel:
    """The model whose matrices are ``w M w^H`` for each matrix M of ``mats``."""
    rot = {key: LinearOperator(w @ m @ w.conj().T, grid) for key, m in mats.items()}
    phi, theta = (OperatorPolynomial(grid, (rot[key],)) for key in ("phi", "theta"))
    base = ArmaModel(phi, theta, rot["sigma"])
    return FiarmaModel(base, FracIntegrationSpec(rot["D"]))


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_autocovariances_rotate_with_the_model(n, seed):
    grid, mats, w = draw(seed, n)
    freqs = density_frequencies(512)
    max_lag = 6
    gamma = autocov_sequence(fiarma_spectral_density(build(grid, mats, np.eye(n)), freqs), max_lag)
    rotated = autocov_sequence(fiarma_spectral_density(build(grid, mats, w), freqs), max_lag)
    want = w @ gamma.data @ w.conj().T  # lags -H..H
    assert np.abs(rotated.data - want).max() <= 1e-12 * np.abs(gamma.data).max()


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_fractional_transfer_rotates_with_the_memory_operator(n, seed):
    grid, mats, w = draw(seed, n)
    freqs = np.concatenate([density_frequencies(256), [0.0, np.pi]])
    values = frac_transfer_batch(build(grid, mats, np.eye(n)).D, freqs)
    rotated = frac_transfer_batch(build(grid, mats, w).D, freqs)
    want = w @ values @ w.conj().T
    assert np.abs(rotated - want).max() <= 1e-12 * np.abs(values).max()


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_density_rotates_with_the_model(n, seed):
    grid, mats, w = draw(seed, n)
    freqs = density_frequencies(256)
    values = fiarma_spectral_density(build(grid, mats, np.eye(n)), freqs).values
    rotated = fiarma_spectral_density(build(grid, mats, w), freqs).values
    want = w @ values @ w.conj().T
    assert np.abs(rotated - want).max() <= 1e-12 * np.abs(values).max()


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_ma_coefficients_rotate_with_the_memory_operator(n, seed):
    grid, mats, w = draw(seed, n)
    coeffs = frac_ma_coeffs(build(grid, mats, np.eye(n)).D, 64).data
    rotated = frac_ma_coeffs(build(grid, mats, w).D, 64).data
    want = w @ coeffs @ w.conj().T
    assert np.abs(rotated - want).max() <= 1e-12 * np.abs(coeffs).max()


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_existence_conditions_are_basis_free(n, seed):
    grid, mats, w = draw(seed, n)
    model, rotated = build(grid, mats, np.eye(n)), build(grid, mats, w)
    report = check_conditions(model.base, model.D)
    turned = check_conditions(rotated.base, rotated.D)
    assert turned.verdict == report.verdict
    assert abs(turned.cond_iii_value - report.cond_iii_value) <= 1e-12 * report.cond_iii_value


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_existence_integral_is_basis_free(n, seed):
    grid, mats, w = draw(seed, n)
    model, rotated = build(grid, mats, np.eye(n)), build(grid, mats, w)
    value = existence_integral(model.base, model.D, eta=1.0, n_freq=16, n_refine=12).value
    turned = existence_integral(rotated.base, rotated.D, eta=1.0, n_freq=16, n_refine=12).value
    assert abs(turned - value) <= 1e-12 * value


@pytest.mark.xfail(
    strict=True,
    reason="sigma_w divides the squared rows of D's eigenframe, in the Schur order that "
    "numpy.linalg.eig finds in the given basis, by the grid weights in grid order; with "
    "non-uniform weights the pairing and so the values depend on the basis (ROADMAP item 10)",
)
@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_sigma_w_is_basis_free(n, seed):
    grid, mats, w = draw(seed, n)
    model, rotated = build(grid, mats, np.eye(n)), build(grid, mats, w)
    values = check_conditions(model.base, model.D).sigma_w
    turned = check_conditions(rotated.base, rotated.D).sigma_w
    assert np.abs(turned - values).max() <= 1e-12 * values.max()
