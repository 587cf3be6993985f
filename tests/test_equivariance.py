"""Unitary equivariance of the model's quantities.

The grid's coordinates are one orthonormal basis of the function space, so
for a unitary W the model ``W M W^H`` (phi, theta, Sigma and D each rotated)
must give the rotated quantities of M: ``W F(lam) W^H`` for the fractional
transfer, ``W g(lam) W^H`` for the density, ``W Gamma(h) W^H`` for the
autocovariances and ``W C_k W^H`` for the MA coefficients, and the same
existence verdict, condition (iii) value, exponent clusters with their
masses, and existence integral.  A D without a unitary frame rotates its
transfer, density and MA coefficients the same way.  A path
rotated to ``W x_t`` has the periodogram ``W I(lam) W^H``.  The power-law
model with exponent ``N = Id - D`` of the same draw rotates its matching
constant, remainders and weights, and keeps its conditions.

Kolmogorov's log-determinant identity is basis-free and needs no frame: the
grid mean of ``log det(2 pi g)`` is ``log det Sigma`` less the memory's
``2 Re tr D log 2 / F`` on every draw, and exceeds it by Jensen's
``2 sum log(1/|z_i|)`` when ``det theta`` has zeros ``z_i`` in the disk.
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
    PowerLawModel,
    SampledPath,
    SimConfig,
    autocov_sequence,
    check_conditions,
    check_duker_conditions,
    density_frequencies,
    duker_decomposition,
    existence_integral,
    fiarma_spectral_density,
    fourier_frequencies,
    frac_ma_coeffs,
    periodogram,
    power_law_weights,
    simulate_fiarma,
)
from fiarma_lab.transfer import frac_transfer_batch

from conftest import power_law_model, random_unitary

DRAWS = dict(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))


def _complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def draw(seed: int, n: int, upper: float = 0.0) -> tuple[HilbertGrid, dict, np.ndarray]:
    """A grid with non-uniform weights, the matrices of a normal FIARMA(1,d,1)
    model with complex coefficients, and a unitary W.  A positive ``upper``
    (n >= 2) adds a strictly upper part of that norm to D's triangle in its
    frame, so that D is not normal."""
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
    w = random_unitary(rng, n)
    if upper:
        strict = np.triu(_complex(rng, n), 1)
        mats["D"] += frame.conj().T @ (strict * (upper / np.linalg.norm(strict, 2))) @ frame
    return grid, mats, w


def build(grid: HilbertGrid, mats: dict, w: np.ndarray) -> FiarmaModel:
    """The model whose matrices are ``w M w^H`` for each matrix M of ``mats``."""
    rot = {key: LinearOperator(w @ m @ w.conj().T, grid) for key, m in mats.items()}
    phi, theta = (OperatorPolynomial(grid, (rot[key],)) for key in ("phi", "theta"))
    base = ArmaModel(phi, theta, rot["sigma"])
    return FiarmaModel(base, FracIntegrationSpec(rot["D"]))


def build_power_law(grid: HilbertGrid, mats: dict, w: np.ndarray) -> PowerLawModel:
    """The power-law model with exponent ``N = Id - D`` of white noise with
    covariance Sigma, each rotated to ``w M w^H``: N is normal, with the real
    parts of its eigenvalues in (0.55, 1.4)."""
    n_mat = np.eye(grid.n) - mats["D"]
    n_op, sigma = (LinearOperator(w @ m @ w.conj().T, grid) for m in (n_mat, mats["sigma"]))
    return power_law_model(n_op, sigma)


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
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_frameless_memory_operator_rotates_with_the_model(n, seed):
    """D is its frame's triangle plus a strictly upper part of norm 0.2: it
    and its rotation are both without a unitary frame, so no draw crosses
    the frame rule, and the dense ``expm`` and recursion rotate the
    transfer, the density and the MA coefficients."""
    grid, mats, w = draw(seed, n, upper=0.2)
    model, rotated = build(grid, mats, np.eye(n)), build(grid, mats, w)
    assert model.D.frame_error is not None and rotated.D.frame_error is not None
    freqs = density_frequencies(256)
    for quantity in (
        lambda m: frac_transfer_batch(m.D, np.concatenate([freqs, [0.0, np.pi]])),
        lambda m: fiarma_spectral_density(m, freqs).values,
        lambda m: frac_ma_coeffs(m.D, 64).data,
    ):
        values = quantity(model)
        want = w @ values @ w.conj().T
        assert np.abs(quantity(rotated) - want).max() <= 1e-12 * np.abs(values).max()


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
@given(**DRAWS, repeated=st.booleans())
def test_existence_integral_is_basis_free(n, seed, repeated):
    """Also where an eigenvalue repeats: the integral groups the rows of
    its eigenvectors, which are arbitrary, into one cluster."""
    grid, mats, w = draw(seed, n)
    if repeated:
        mats = with_repeated_eigenvalue(mats, n, seed)
    model, rotated = build(grid, mats, np.eye(n)), build(grid, mats, w)
    value = existence_integral(model.base, model.D, eta=1.0, n_freq=16, n_refine=12).value
    turned = existence_integral(rotated.base, rotated.D, eta=1.0, n_freq=16, n_refine=12).value
    assert abs(turned - value) <= 1e-12 * value


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_periodogram_rotates_with_the_path(n, seed):
    grid, mats, w = draw(seed, n)
    path = simulate_fiarma(build(grid, mats, np.eye(n)), SimConfig(T=128, K_trunc=64, seed=seed))
    freqs = fourier_frequencies(path.t_len)
    values = periodogram(path, freqs).values
    rotated = periodogram(SampledPath(path.values @ w.T, grid), freqs).values
    want = w @ values @ w.conj().T
    assert np.abs(rotated - want).max() <= 1e-12 * np.abs(values).max()


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_power_law_decomposition_rotates_with_the_exponent(n, seed):
    grid, mats, w = draw(seed, n)
    model, rotated = build_power_law(grid, mats, np.eye(n)), build_power_law(grid, mats, w)
    c_mat, deltas, rho = duker_decomposition(model.N, 64)
    c_turned, deltas_turned, rho_turned = duker_decomposition(rotated.N, 64)
    for got, values in ((c_turned.entries, c_mat.entries), (deltas_turned.data, deltas.data)):
        want = w @ values @ w.conj().T
        assert np.abs(got - want).max() <= 1e-12 * np.abs(values).max()
    assert abs(rho_turned - rho) <= 1e-12
    weights = power_law_weights(model.N, 64).data
    turned = power_law_weights(rotated.N, 64).data
    assert np.abs(turned - w @ weights @ w.conj().T).max() <= 1e-12 * np.abs(weights).max()


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_power_law_conditions_are_basis_free(n, seed):
    """The condition's sum runs over the exponent's clusters and their masses,
    which are basis-free."""
    grid, mats, w = draw(seed, n)
    report = check_duker_conditions(build_power_law(grid, mats, np.eye(n)))
    turned = check_duker_conditions(build_power_law(grid, mats, w))
    assert turned.cond_ii == report.cond_ii and turned.verdict == report.verdict
    assert abs(turned.cond_iii_value - report.cond_iii_value) <= 1e-12 * report.cond_iii_value


def assert_spectral_record_is_basis_free(model: FiarmaModel, rotated: FiarmaModel):
    """The exponents and masses that ``check_conditions`` reports for
    ``model`` and ``rotated``, and the conditions read from them, agree."""
    report = check_conditions(model.base, model.D)
    turned = check_conditions(rotated.base, rotated.D)
    assert turned.exponents.shape == report.exponents.shape
    scale = max(1.0, np.abs(report.exponents).max())
    assert np.abs(turned.exponents - report.exponents).max() <= 1e-12 * scale
    assert np.abs(turned.masses - report.masses).max() <= 1e-12 * report.masses.sum()
    assert (turned.cond_ii, turned.verdict) == (report.cond_ii, report.verdict)


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_masses_are_basis_free(n, seed):
    grid, mats, w = draw(seed, n)
    assert_spectral_record_is_basis_free(build(grid, mats, np.eye(n)), build(grid, mats, w))


def with_spectrum(mats: dict, d: np.ndarray, seed: int) -> dict:
    """``mats`` with D replaced by the normal operator of eigenvalues ``d``
    in a random frame."""
    frame = random_unitary(np.random.default_rng(seed), len(d))
    return mats | {"D": frame.conj().T @ (d[:, None] * frame)}


def with_repeated_eigenvalue(mats: dict, n: int, seed: int) -> dict:
    """``mats`` with D replaced by a normal operator whose first eigenvalue
    has multiplicity ``1 + n // 2``."""
    d = np.random.default_rng(seed).uniform(-0.4, 0.45, n).astype(complex)
    d[: 1 + n // 2] = d[0]
    return with_spectrum(mats, d, seed + 1)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_masses_of_a_repeated_eigenvalue_are_basis_free(n, seed):
    """An eigenvalue of multiplicity two or more: its eigenvectors are
    arbitrary, and the mass on its eigenspace is not."""
    grid, mats, w = draw(seed, n)
    mats = with_repeated_eigenvalue(mats, n, seed)
    model, rotated = build(grid, mats, np.eye(n)), build(grid, mats, w)
    assert_spectral_record_is_basis_free(model, rotated)
    assert len(check_conditions(model.base, model.D).masses) == n - n // 2


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), side=st.sampled_from([-1.0, 1.0]))
def test_condition_ii_near_its_boundary_is_basis_free(n, seed, side):
    """One exponent on the innovation's support has a real part within 1e-9
    of 1/2, below or above it: condition (ii) and the verdict do not move."""
    grid, mats, w = draw(seed, n)
    d = np.random.default_rng(seed).uniform(-0.4, 0.45, n) + 0j
    d[-1] = 0.5 + side * 1e-9
    model = build(grid, with_spectrum(mats, d, seed + 1), np.eye(n))
    assert check_conditions(model.base, model.D).cond_ii == (side < 0)
    assert_spectral_record_is_basis_free(model, build(grid, with_spectrum(mats, d, seed + 1), w))


def log_det_gap(model: ArmaModel | FiarmaModel, n_freq: int) -> float:
    """The grid mean of ``log det(2 pi g) = 2 log|det h|`` over
    ``density_frequencies(n_freq)``, less ``log det Sigma - 2 Re tr D log 2 / F``
    (tr D = 0 for an ARMA model).  On that grid ``prod_k 2 sin(pi (k + 1/2) / F)
    = 2``, so the memory's term is exact and the gap is 0 up to rounding and
    the ARMA part's exponentially small quadrature error, when phi is causal,
    ``det theta`` has no zero in the closed unit disk and Sigma has full rank
    (Brockwell & Davis 1991, section 5.8)."""
    half = fiarma_spectral_density(model, density_frequencies(n_freq)).half
    mean = 2.0 * np.linalg.slogdet(half)[1].mean()
    trace = np.trace(model.D.D.entries).real if isinstance(model, FiarmaModel) else 0.0
    log_det_sigma = np.linalg.slogdet(model.base.sigma.entries)[1]
    return mean - log_det_sigma + 2.0 * trace * np.log(2.0) / n_freq


@settings(max_examples=25, deadline=None)
@given(**DRAWS, frameless=st.booleans())
def test_log_determinant_identity_holds_on_every_draw(n, seed, frameless):
    """phi and theta have spectral norm 0.5, so phi is causal and det theta
    has no zero in the closed disk, and Sigma has full rank.  The identity
    holds for a D without a frame and for the ARMA base through the same entry."""
    grid, mats, w = draw(seed, n, upper=0.2 if frameless and n > 1 else 0.0)
    model = build(grid, mats, w)
    for member in (model, model.base):
        for n_freq in (64, 256):
            assert abs(log_det_gap(member, n_freq)) <= 1e-12


@pytest.mark.parametrize("b, gap", [(2.0, 2.0 * np.log(2.0)), (4.0, 2.0 * np.log(4.0)), (0.5, 0.0)])
def test_log_determinant_gap_counts_the_zeros_of_theta_in_the_disk(b, gap):
    """theta = 1 + b z vanishes at -1/b, inside the disk for b > 1: Sigma is
    then not the innovation variance, and the gap is ``2 log b``."""
    grid = HilbertGrid(np.array([0.5]), np.array([1.0]))
    theta = OperatorPolynomial.scalar(grid, b)
    base = ArmaModel(OperatorPolynomial(grid), theta, LinearOperator(np.eye(1), grid))
    model = FiarmaModel(base, FracIntegrationSpec.scalar(grid, 0.3))
    assert abs(log_det_gap(model, 256) - gap) <= 1e-12
