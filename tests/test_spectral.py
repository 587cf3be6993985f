import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fiarma_lab
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
    SingularTransferError,
    SpectralDensityGrid,
    autocov_sequence,
    check_conditions,
    density_frequencies,
    empirical_autocov,
    envelope_bounds,
    existence_integral,
    fiarma_spectral_density,
    fourier_frequencies,
    identity,
    kernel_of,
    local_factorization,
    operator_norm,
    periodogram,
    simulate_fiarma,
)
from fiarma_lab.config import parse_config
from fiarma_lab.transfer import arma_transfer_batch, frac_transfer_batch

from conftest import ar1_model, make_grid, op, random_unitary, white_model
from test_io_cli import NEAR_RANGE_SIGMA_CONFIG


def scalar_grid():
    return HilbertGrid(np.array([0.0]), np.array([1.0]))


def all_fourier_frequencies(t_len):
    """The Fourier frequencies ``2 pi j / T`` in ``(-pi, pi]``, sorted, frequency 0 included."""
    return np.sort(np.append(fourier_frequencies(t_len), 0.0))


def random_psd(rng, grid):
    m = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    return LinearOperator(m @ m.conj().T / grid.n + 0.1 * np.eye(grid.n), grid)


class TestModelInvariants:
    def test_rejects_unit_root_phi(self):
        g = scalar_grid()
        with pytest.raises(SingularTransferError):
            ArmaModel(OperatorPolynomial.scalar(g, 1.0), OperatorPolynomial(g), identity(g))

    def test_zero_coefficients_are_white_noise(self):
        g = make_grid(2)
        zero = OperatorPolynomial.scalar(g, 0.0)
        model = ArmaModel(zero, zero, identity(g))
        assert model.phi.degree == model.theta.degree == 0 and model.is_white_noise()
        ma2 = ArmaModel(zero, OperatorPolynomial.scalar(g, 0.0, 0.5), identity(g))
        assert ma2.theta.degree == 2 and not ma2.is_white_noise()

    @pytest.mark.parametrize("family, name", [(FiarmaModel, "D"), (PowerLawModel, "N")])
    def test_memory_operator_must_be_a_spec(self, family, name):
        """A bare operator is refused when the model is built, naming the
        argument and the type it needs, not later by a missing attribute."""
        g = make_grid(2)
        bare = LinearOperator(0.2 * np.eye(2), g)
        message = f"^{name} must be a FracIntegrationSpec, not LinearOperator$"
        with pytest.raises(TypeError, match=message):
            family(white_model(g), bare)

    def test_rejects_indefinite_sigma(self):
        g = make_grid(2)
        with pytest.raises(ValueError):
            ArmaModel(
                OperatorPolynomial(g),
                OperatorPolynomial(g),
                LinearOperator(np.diag([1.0, -0.5]), g),
            )


class TestArmaDensity:
    def test_white_noise_is_flat(self, rng):
        g = make_grid(3)
        sigma = random_psd(rng, g)
        dens = fiarma_spectral_density(white_model(g, sigma), density_frequencies(64))
        for j in range(64):
            assert np.allclose(dens.values[j], sigma.entries / (2 * np.pi), atol=1e-13)
        gamma0 = autocov_sequence(dens, 0).operator(0)
        assert operator_norm(gamma0.entries - sigma.entries) < 1e-10

    def test_scalar_ar1_value_at_zero(self):
        g = scalar_grid()
        dens = fiarma_spectral_density(ar1_model(g), np.array([0.0]))
        assert dens.values[0, 0, 0].real * 2 * np.pi == pytest.approx(4.0)

    def test_scalar_ar1_matches_modulus_oracle(self):
        g = scalar_grid()
        freqs = density_frequencies(128)
        dens = fiarma_spectral_density(ar1_model(g), freqs)
        oracle = 1.0 / np.abs(1 - 0.5 * np.exp(-1j * freqs)) ** 2 / (2 * np.pi)
        assert np.allclose(dens.values[:, 0, 0].real, oracle, rtol=1e-12)

    def test_differencing_ma_vanishes_at_zero(self):
        g = make_grid(2)
        model = ArmaModel(
            OperatorPolynomial(g), OperatorPolynomial.scalar(g, -1.0), identity(g)
        )
        dens = fiarma_spectral_density(model, np.array([0.0]))
        assert operator_norm(dens.values[0]) < 1e-14

    def test_values_hermitian_psd(self, rng):
        g = make_grid(3)
        a1 = rng.normal(size=(3, 3)) * 0.2
        model = ArmaModel(
            OperatorPolynomial(g, (op(a1, g),)),
            OperatorPolynomial.scalar(g, 0.4),
            random_psd(rng, g),
        )
        dens = fiarma_spectral_density(model, density_frequencies(128))
        dens.validate()

    def test_uncertified_margin_model_matches_closed_form(self, nilpotent_shift_model):
        # Id - 1.5 S z with S the nilpotent shift: the circle certificate
        # proves no positive margin, yet the symbol is invertible everywhere
        # with inverse sum_{k<n} (1.5 z S)^k, and the density must match it
        n = 32
        shift = np.eye(n, k=1)
        model = nilpotent_shift_model
        assert model.margin == 0.0
        freqs = density_frequencies(16)
        dens = fiarma_spectral_density(model, freqs)
        for lam, got in zip(freqs, dens.values):
            step = 1.5 * np.exp(-1j * lam) * shift
            inv = sum(np.linalg.matrix_power(step, k) for k in range(n))
            expected = inv @ inv.conj().T / (2 * np.pi)
            assert operator_norm(got - expected) <= 1e-12 * operator_norm(expected)


class TestCertifiedOnce:
    """A built model's AR symbol was certified by its constructor, which
    keeps its poles, so its densities, existence checks, window guard and
    causality check must not run another singular value decomposition or
    eigendecomposition."""

    def test_no_svd_after_construction(self, rng, monkeypatch):
        g = make_grid(3)
        u = random_unitary(rng, 3)
        model = FiarmaModel(
            ArmaModel(
                OperatorPolynomial(g, (op(0.3 * rng.normal(size=(3, 3)), g),)),
                OperatorPolynomial(g, (op(0.3 * rng.normal(size=(3, 3)), g),)),
                random_psd(rng, g),
            ),
            FracIntegrationSpec(op(u.conj().T @ np.diag([0.1, 0.25, 0.4]) @ u, g)),
        )
        calls = []
        for name in ("svd", "eig", "eigvals"):
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        freqs = density_frequencies(64)
        for run in (
            lambda: fiarma_spectral_density(model.base, freqs),
            lambda: fiarma_spectral_density(model, freqs),
            lambda: existence_integral(model.base, model.D, 0.5),
            lambda: check_conditions(model.base, model.D),
            lambda: local_factorization(model.base, 0.5, freqs[:8] / 8),
            lambda: simulate_fiarma(model, SimConfig(T=64, K_trunc=32, seed=1)),
        ):
            calls.clear()
            run()
            assert not calls


class TestFiarmaDensity:
    def test_power_law_model_is_refused(self):
        g = make_grid(2)
        model = PowerLawModel(white_model(g), FracIntegrationSpec.scalar(g, 0.7))
        message = "^fiarma_spectral_density takes .*, not PowerLawModel; .*has only simulated paths$"
        with pytest.raises(TypeError, match=message):
            fiarma_spectral_density(model, density_frequencies(8))

    def test_zero_memory_reduces_to_arma(self, rng):
        g = make_grid(2)
        model = ar1_model(g, 0.3)
        freqs = density_frequencies(32)
        base = fiarma_spectral_density(model, freqs)
        frac = fiarma_spectral_density(
            FiarmaModel(model, FracIntegrationSpec.scalar(g, 0.0)), freqs
        )
        assert np.allclose(base.values, frac.values, atol=1e-13)

    def test_scalar_long_memory_modulus_oracle(self):
        g = scalar_grid()
        freqs = density_frequencies(256)
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.3))
        dens = fiarma_spectral_density(model, freqs)
        oracle = (2 * np.sin(np.abs(freqs) / 2.0)) ** -0.6 / (2 * np.pi)
        assert np.allclose(dens.values[:, 0, 0].real * 2 * np.pi, oracle * 2 * np.pi, rtol=1e-10)

    def test_zero_frequency_value_is_zero(self):
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.3))
        dens = fiarma_spectral_density(model, np.array([0.0, 0.5]))
        assert operator_norm(dens.values[0]) == 0.0
        assert operator_norm(dens.values[1]) > 0.0

    def test_trace_growth_inside_envelope(self):
        g = scalar_grid()
        d = 0.3
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, d))
        lams = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        dens = fiarma_spectral_density(model, lams)
        for lam, val in zip(lams, dens.values[:, 0, 0].real * 2 * np.pi):
            lo, hi = envelope_bounds(-d, lam)
            assert lo <= val <= hi

    def test_filtering_rule_consistency(self, rng):
        g = make_grid(4)
        u = random_unitary(rng, 4)
        mem = u.conj().T @ (np.array([0.1, 0.2, -0.3, 0.4])[:, None] * u)
        model = FiarmaModel(
            ArmaModel(
                OperatorPolynomial.scalar(g, 0.3),
                OperatorPolynomial.scalar(g, 0.2),
                random_psd(rng, g),
            ),
            FracIntegrationSpec(LinearOperator(mem, g)),
        )
        freqs = density_frequencies(128)
        one_shot = fiarma_spectral_density(model, freqs).values
        base = fiarma_spectral_density(model.base, freqs).values
        scale = max(operator_norm(v) for v in one_shot)
        for j, lam in enumerate(freqs):
            f_d = frac_transfer_batch(model.D, [lam])[0]
            recomposed = f_d @ base[j] @ f_d.conj().T
            assert operator_norm(one_shot[j] - recomposed) < 1e-12 * scale


class TestAutocovariance:
    def test_white_noise_lags(self, rng):
        g = make_grid(2)
        sigma = random_psd(rng, g)
        dens = fiarma_spectral_density(white_model(g, sigma), density_frequencies(4096))
        seq = autocov_sequence(dens, 1)
        assert operator_norm(seq.operator(0).entries - sigma.entries) < 1e-6
        assert operator_norm(seq.operator(1).entries) < 1e-6

    def test_ar1_autocorrelation(self):
        g = scalar_grid()
        dens = fiarma_spectral_density(ar1_model(g), density_frequencies(4096))
        seq = autocov_sequence(dens, 1)
        g0 = seq.operator(0).entries[0, 0].real
        g1 = seq.operator(1).entries[0, 0].real
        assert g1 / g0 == pytest.approx(0.5, abs=1e-9)
        assert g0 == pytest.approx(1.0 / (1 - 0.25), abs=1e-9)

    def test_frequencies_out_of_order_are_refused(self):
        """Reversed, the equal steps are negative and the lag-0 value would be
        -Sigma; an unsorted irregular grid would mix signs in the trapezoid
        rule.  Both are refused, naming the first frequency out of order."""
        g = make_grid(2)
        dens = fiarma_spectral_density(white_model(g), density_frequencies(64))
        reversed_dens = SpectralDensityGrid(dens.freqs[::-1], dens.half[::-1], g)
        with pytest.raises(ValueError, match="must increase: 2.99433 follows 3.09251"):
            autocov_sequence(reversed_dens, 0)
        with pytest.raises(ValueError, match="must increase: 0.1 follows 0.5"):
            autocov_sequence(SpectralDensityGrid([-1.0, 0.5, 0.1, 2.0], dens.half[:4], g), 0)

    def test_irregular_grid_integrates_white_noise_exactly(self, rng):
        """The periodic trapezoid's weights sum to 2 pi on any grid, so a
        white density's lag 0 is Sigma also after the equal steps move by
        1e-8: dropping the wrap-around gap lost 1.6e-2 of it."""
        g = make_grid(2)
        sigma = random_psd(rng, g)
        freqs = density_frequencies(64)
        dens = fiarma_spectral_density(white_model(g, sigma), freqs + 1e-8 * np.sin(3.0 * freqs))
        gamma0 = autocov_sequence(dens, 0).operator(0).entries
        assert operator_norm(gamma0 - sigma.entries) <= 1e-14 * operator_norm(sigma)

    def test_one_frequency_carries_the_whole_period(self):
        g = make_grid(2)
        # the value is g = h h^H / (2 pi) with 2 pi g = [[1.25, 0.5j], [-0.5j, 1]]
        half = np.array([[[1.0, 0.5j], [0.0, 1.0]]])
        seq = autocov_sequence(SpectralDensityGrid([0.3], half, g), 0)
        want = np.array([[1.25, 0.5j], [-0.5j, 1.0]])
        np.testing.assert_allclose(seq.operator(0).entries, want, rtol=1e-15)

    def test_grid_spanning_a_period_is_refused(self):
        """The first frequency one period on must follow the last."""
        g = make_grid(2)
        half = np.tile(np.eye(2), (2, 1, 1))
        with pytest.raises(ValueError, match="must increase: 3.14159 follows 3.14159"):
            autocov_sequence(SpectralDensityGrid([-np.pi, np.pi], half, g), 0)

    def test_no_frequencies_are_refused(self):
        g = make_grid(2)
        empty = SpectralDensityGrid(np.zeros(0), np.zeros((0, 2, 1)), g)
        with pytest.raises(ValueError, match="^need at least one frequency$"):
            autocov_sequence(empty, 1)

    def test_lags_past_half_the_grid_are_refused(self):
        """On 64 half-cell frequencies the quadrature of lag h also reads
        -Gamma(h - 64): an AR(1) with a = 0.5 gave -1.3333 = -Gamma(0) at lag
        64, and -0.6667 at lag 63, where the exact value is 1.4e-19.  Lag 31
        is the last one taken: its alias is the farther lag 33."""
        dens = fiarma_spectral_density(ar1_model(scalar_grid()), density_frequencies(64))
        for lag in (32, 63, 64):
            with pytest.raises(ValueError, match=f"^max_lag {lag} needs more than {2 * lag} "):
                autocov_sequence(dens, lag)
        got = autocov_sequence(dens, 31).operator(31).entries[0, 0]
        assert abs(got - (0.5**31 - 0.5**33) / 0.75) <= 1e-15

    def test_negative_lag_is_adjoint(self, rng):
        g = make_grid(3)
        model = ArmaModel(
            OperatorPolynomial(g, (op(rng.normal(size=(3, 3)) * 0.2, g),)),
            OperatorPolynomial(g),
            random_psd(rng, g),
        )
        dens = fiarma_spectral_density(model, density_frequencies(256))
        seq = autocov_sequence(dens, 3)
        for h in range(4):
            assert np.array_equal(
                seq.operator(-h).entries, seq.operator(h).entries.conj().T
            )
        ev = np.linalg.eigvalsh(seq.operator(0).entries)
        assert ev.min() > -1e-10


class TestEmpiricalAutocov:
    def test_constant_path_centered_away(self):
        g = make_grid(2)
        path = SampledPath(np.ones((50, 2), dtype=complex), g)
        assert operator_norm(empirical_autocov(path, 0).entries) == 0.0

    def test_adjoint_symmetry_exact(self, rng):
        g = make_grid(2)
        vals = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
        path = SampledPath(vals, g)
        for h in (1, 5):
            a = empirical_autocov(path, h).entries
            b = empirical_autocov(path, -h).entries
            assert np.array_equal(b, a.conj().T)

    def test_iid_noise_recovers_sigma(self, rng):
        g = make_grid(2)
        sigma = random_psd(rng, g)
        t_len = 100_000
        path = simulate_fiarma(white_model(g, sigma), SimConfig(T=t_len, seed=11, K_trunc=0))
        gamma0 = empirical_autocov(path, 0).entries
        tol = 5 * operator_norm(sigma.entries) / np.sqrt(t_len)
        assert operator_norm(gamma0 - sigma.entries) < tol

    def test_lag_bound(self):
        g = make_grid(1)
        path = SampledPath(np.zeros((5, 1)), g)
        with pytest.raises(ValueError):
            empirical_autocov(path, 5)


class TestPeriodogram:
    def test_zero_path(self):
        g = make_grid(2)
        path = SampledPath(np.zeros((64, 2)), g)
        pg = periodogram(path, fourier_frequencies(64))
        assert np.all(pg.values == 0.0)

    def test_rejects_non_fourier_frequency(self):
        g = make_grid(1)
        path = SampledPath(np.zeros((64, 1)), g)
        with pytest.raises(ValueError, match="Fourier"):
            periodogram(path, np.array([0.1]))
        freqs = np.concatenate([fourier_frequencies(64)[:3], [0.1], fourier_frequencies(64)[3:]])
        with pytest.raises(ValueError, match=r"^0\.1 is not a Fourier frequency for T=64$"):
            periodogram(path, freqs)

    def test_matches_direct_sum(self, rng):
        """Entry-wise against ``d(lam) d(lam)^H / (2 pi T)`` with ``d`` the
        direct sum over the mean-centered path, at every Fourier frequency
        including 0 and pi."""
        g = make_grid(3)
        t_len = 64
        vals = rng.normal(size=(t_len, 3)) + 1j * rng.normal(size=(t_len, 3))
        freqs = all_fourier_frequencies(t_len)
        assert freqs[0] == pytest.approx(-np.pi + 2 * np.pi / t_len) and freqs[-1] == np.pi
        pg = periodogram(SampledPath(vals, g), freqs)
        centered = vals - vals.mean(axis=0)
        d = np.exp(-1j * np.outer(freqs, np.arange(t_len))) @ centered
        want = d[:, :, None] * d[:, None, :].conj() / (2 * np.pi * t_len)
        assert np.abs(pg.values - want).max() <= 1e-12 * np.abs(want).max()

    def test_empty_frequencies(self):
        pg = periodogram(SampledPath(np.ones((16, 2)), make_grid(2)), np.array([]))
        assert pg.values.shape == (0, 2, 2)

    def test_parseval(self, rng):
        g = make_grid(3)
        t_len = 128
        vals = rng.normal(size=(t_len, 3)) + 1j * rng.normal(size=(t_len, 3))
        path = SampledPath(vals, g)
        freqs = all_fourier_frequencies(t_len)
        pg = periodogram(path, freqs)
        lhs = pg.trace().sum() * (2 * np.pi / t_len)
        centered = vals - vals.mean(axis=0)
        rhs = np.sum(np.abs(centered) ** 2) / t_len
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_mean_tracks_white_density(self, rng):
        g = make_grid(2)
        sigma = random_psd(rng, g)
        t_len, reps = 256, 200
        freqs = fourier_frequencies(t_len)
        acc = np.zeros((freqs.size, 2, 2), dtype=complex)
        for r in range(reps):
            path = simulate_fiarma(white_model(g, sigma), SimConfig(T=t_len, seed=99, K_trunc=0, replication=r))
            acc += periodogram(path, freqs).values
        acc /= reps
        target = sigma.entries / (2 * np.pi)
        # averaged over replications and over 8-frequency bins
        m = freqs.size - freqs.size % 8
        binned = acc[:m].reshape(-1, 8, 2, 2).mean(axis=1)
        for val in binned:
            assert operator_norm(val - target) < 0.10 * operator_norm(target)

    def test_rank_one_psd(self, rng):
        g = make_grid(2)
        path = simulate_fiarma(white_model(g), SimConfig(T=64, seed=1, K_trunc=0))
        pg = periodogram(path, fourier_frequencies(64))
        for v in pg.values:
            ev = np.linalg.eigvalsh(0.5 * (v + v.conj().T))
            assert ev.min() > -1e-12
            assert np.linalg.matrix_rank(v, tol=1e-10) <= 1

    def test_constant_shift_changes_only_frequency_zero(self, rng):
        """Centering makes the periodogram blind to the path's mean: adding a
        constant vector moves no value at a nonzero Fourier frequency."""
        g = make_grid(3)
        t_len = 96
        vals = rng.normal(size=(t_len, 3)) + 1j * rng.normal(size=(t_len, 3))
        shift = np.array([2.5, -1.0 + 3.0j, -4.0j])
        freqs = all_fourier_frequencies(t_len)
        pg = periodogram(SampledPath(vals, g), freqs).values
        shifted = periodogram(SampledPath(vals + shift, g), freqs).values
        nonzero = freqs != 0.0
        assert nonzero.sum() == t_len - 1
        assert np.abs(shifted[nonzero] - pg[nonzero]).max() <= 1e-13 * np.abs(pg).max()

    @pytest.mark.parametrize("t_len", [50, 51])
    def test_frequency_zero_row_is_exactly_zero(self, rng, t_len):
        g = make_grid(2)
        vals = rng.normal(size=(t_len, 2)) + np.array([3.0, -7.0 + 1.0j])
        pg = periodogram(SampledPath(vals, g), all_fourier_frequencies(t_len))
        zero = pg.freqs == 0.0
        assert zero.sum() == 1
        assert np.all(pg.values[zero] == 0.0)

    def test_large_mean_keeps_the_centered_precision(self, rng):
        """A mean 1e8 times the spread is removed before the transform, so the
        values match the direct transform of the centered path."""
        g = make_grid(2)
        t_len = 64
        vals = rng.normal(size=(t_len, 2)) + 1j * rng.normal(size=(t_len, 2))
        vals += np.array([1e8, -3e8j])
        freqs = fourier_frequencies(t_len)
        pg = periodogram(SampledPath(vals, g), freqs).values
        centered = vals - vals.mean(axis=0)
        j = np.rint(freqs * t_len / (2.0 * np.pi)) % t_len
        d = np.exp(-2j * np.pi * np.outer(j, np.arange(t_len)) / t_len) @ centered
        direct = d[:, :, None] * d[:, None, :].conj() / (2.0 * np.pi * t_len)
        assert np.abs(pg - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 32])
    def test_values_contiguous_and_exactly_hermitian(self, rng, n):
        """The rank-one values (r = 1) at an odd and an even length."""
        g = make_grid(n)
        for t_len in (127, 128):
            vals = rng.normal(size=(t_len, n)) + 1j * rng.normal(size=(t_len, n))
            freqs = all_fourier_frequencies(t_len)
            pg = periodogram(SampledPath(vals, g), freqs)
            assert pg.half.shape == (t_len, n, 1)
            v = pg.values
            assert v.flags.c_contiguous
            assert np.array_equal(v, v.conj().transpose(0, 2, 1))
            j = np.rint(freqs * t_len / (2.0 * np.pi)).astype(int) % t_len
            d = np.fft.fft(vals - vals.mean(axis=0), axis=0)[j]
            ref = d[:, :, None] * d[:, None, :].conj() / (2.0 * np.pi * t_len)
            assert np.abs(v - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_frequencies_whole_periods_away_read_the_same_rows(self, rng):
        """A frequency some whole periods away from the principal range has
        its index reduced modulo T, and reads the principal frequency's row
        bit for bit."""
        t_len = 64
        path = SampledPath(rng.normal(size=(t_len, 2)), make_grid(2))
        freqs = all_fourier_frequencies(t_len)
        periods = rng.integers(-5, 6, size=freqs.size)
        periods[:2] = (-1, 1)
        far = periodogram(path, freqs + 2.0 * np.pi * periods)
        assert np.array_equal(far.half, periodogram(path, freqs).half)

    @pytest.mark.parametrize("freq", ["nan", "inf", "1e300"])
    def test_far_or_non_finite_frequency_returns_at_once(self, freq):
        """A NaN passed the Fourier check and cast to the smallest index, and
        ``np.take(..., mode="wrap")`` reduced a far index by subtracting T
        repeatedly: each of these calls ran past 20 s.  A non-finite
        frequency is refused by name; 1e300 is a multiple of 2 pi / 64 to
        double precision, and its index modulo 64 is 0."""
        script = (
            "import numpy as np\n"
            "from fiarma_lab import HilbertGrid, SampledPath, periodogram\n"
            "g = HilbertGrid(np.array([0.0, 1.0]), np.array([0.5, 0.5]))\n"
            "path = SampledPath(np.random.default_rng(0).normal(size=(64, 2)), g)\n"
            "try:\n"
            f"    pg = periodogram(path, [float('{freq}')])\n"
            "    print('values', np.abs(pg.values).max())\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(fiarma_lab.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        want = "values 0.0" if freq == "1e300" else f"{freq} is not a Fourier frequency for T=64"
        assert proc.stdout == want + "\n"


def forbid_values(monkeypatch):
    """Fail the test on any read of a grid's values."""

    def formed(grid):
        raise AssertionError("the values were formed")

    monkeypatch.setattr(SpectralDensityGrid, "values", property(formed))


class TestHalfFactor:
    """A grid keeps its half-factor and forms the square only when read."""

    def grids(self, rng):
        """A periodogram (r = 1) and a FIARMA density (r = n = 4)."""
        g = make_grid(4)
        path = SampledPath(rng.normal(size=(256, 4)) + 1j * rng.normal(size=(256, 4)), g)
        u = random_unitary(rng, 4)
        mem = u.conj().T @ (np.array([0.1, 0.35, 0.2, -0.1])[:, None] * u)
        model = FiarmaModel(
            ArmaModel(
                OperatorPolynomial(g, (op(0.3 * np.eye(4), g),)),
                OperatorPolynomial.scalar(g, 0.2),
                random_psd(rng, g),
            ),
            FracIntegrationSpec(LinearOperator(mem, g)),
        )
        pg = periodogram(path, fourier_frequencies(256))
        dens = fiarma_spectral_density(model, density_frequencies(256))
        assert pg.half.shape == (255, 4, 1) and dens.half.shape == (256, 4, 4)
        return pg, dens

    def test_trace_reads_the_row_energies(self, rng):
        for grid in self.grids(rng):
            want = np.einsum("fii->f", grid.values).real
            assert np.abs(grid.trace() / want - 1.0).max() <= 1e-15

    def test_trace_is_the_gufunc_energies_sum_bitwise(self, rng):
        """For a periodogram (r = 1) and a model density (r = n), the trace
        is the sum of the gufunc's row energies over 2 pi, bit for bit."""
        for grid in self.grids(rng):
            want = np.vecdot(grid.half, grid.half).real.sum(axis=1) * (0.5 / np.pi)
            assert np.array_equal(grid.trace(), want)

    def test_rank_one_energies_are_the_gufunc_bitwise(self, rng):
        """A rank-one factor's squared moduli have the bits of the gufunc's
        one-term sum on ordinary draws and on entries whose squares sit near
        the top of the double range (1e154) or beyond it (1e155), underflow
        (subnormals), or are inf or NaN."""
        special = [0.0, -0.0, 1e154, -1.3e154, 1e155, -3e155, 5e-324, -2.2e-310,
                   1e-160, np.inf, -np.inf, np.nan, 1.0, -2.5]
        half = np.empty((400, 6, 1), dtype=complex)
        half.real = rng.choice(special, size=half.shape)
        half.imag = rng.choice(special, size=half.shape)
        half[::2].real = rng.normal(size=(200, 6, 1)) * 10.0 ** rng.integers(-200, 200, (200, 6, 1))
        half[1::4].imag = rng.normal(size=(100, 6, 1))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = fiarma_lab.spectral._row_energies(half)
            want = np.ascontiguousarray(np.vecdot(half, half).real)
        assert got.shape == (400, 6)
        assert np.isnan(want).any() and np.isinf(want).any() and (want == 0.0).any()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_trace_forms_the_row_energies_once(self, rng, monkeypatch):
        """The row energies are found when the grid is built and kept:
        reading the trace again finds them no second time."""
        calls = []
        energies = fiarma_lab.spectral._row_energies

        def spy(half):
            calls.append(half.shape)
            return energies(half)

        monkeypatch.setattr(fiarma_lab.spectral, "_row_energies", spy)
        for grid in self.grids(rng):
            calls.clear()
            first = grid.trace()
            for _ in range(3):
                assert np.array_equal(grid.trace(), first)
            assert calls == []
        path = SampledPath(rng.normal(size=(64, 4)), make_grid(4))
        pg = periodogram(path, fourier_frequencies(64))
        for _ in range(3):
            pg.trace()
        assert calls == [(63, 4, 1)]

    def test_operator_is_the_value_bitwise(self, rng):
        for grid in self.grids(rng):
            values = grid.values
            for j in (0, 1, len(grid.freqs) // 2, -1):
                assert np.array_equal(grid.operator(j).entries, values[j])

    def test_values_exactly_hermitian_for_every_rank(self, rng):
        for grid in self.grids(rng):
            v = grid.values
            assert v.flags.c_contiguous
            assert np.array_equal(v, v.conj().transpose(0, 2, 1))

    def test_blocked_symmetrising_is_the_whole_sum_bitwise(self, rng):
        """At n=32 one block of the symmetrising pass holds 16 frequencies:
        one fewer, one block and one more give the unblocked square bitwise."""
        block = fiarma_lab.spectral._SQUARE_BLOCK // 32**2
        for f_len in (block - 1, block, block + 1):
            half = rng.normal(size=(f_len, 32, 3)) + 1j * rng.normal(size=(f_len, 32, 3))
            grid = SpectralDensityGrid(np.arange(f_len), half, make_grid(32))
            want = half @ half.conj().transpose(0, 2, 1)
            want = want + want.conj().transpose(0, 2, 1)
            want *= 0.25 / np.pi
            assert np.array_equal(grid.values, want)

    @pytest.mark.parametrize("rank", [1, 32])
    def test_reading_the_values_copies_no_second_square(self, rng, rank):
        """The product and the symmetrising pass hold one block of the square
        at a time, so a read's traced peak is little more than the values it
        returns: for a periodogram's factor (r = 1) and a model density's
        (r = n)."""
        if rank == 1:
            path = SampledPath(rng.normal(size=(512, 32)), make_grid(32))
            grid = periodogram(path, fourier_frequencies(512))
        else:
            half = rng.normal(size=(512, 32, rank)) + 1j * rng.normal(size=(512, 32, rank))
            grid = SpectralDensityGrid(np.arange(512.0), half, make_grid(32))
        tracemalloc.start()
        try:
            values = grid.values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * values.nbytes

    def test_large_periodogram_holds_only_its_factor(self, rng, monkeypatch):
        """At n=128 and T=4096 the values alone would take 1.07 GB; the
        factor takes 8.4 MB, and nothing reads the values."""
        forbid_values(monkeypatch)
        vals = rng.normal(size=(4096, 128)) + 1j * rng.normal(size=(4096, 128))
        path = SampledPath(vals, make_grid(128))
        freqs = fourier_frequencies(4096)
        tracemalloc.start()
        try:
            pg = periodogram(path, freqs)
            trace = pg.trace()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pg.half.shape == (4095, 128, 1)
        assert trace.shape == (4095,) and np.all(trace > 0.0)
        assert peak < 64 * 2**20

    def test_overflow_is_raised_before_the_values_are_read(self, monkeypatch):
        """The near-range covariance Sigma = 1.7e308 Id squares past the
        double range: the grid refuses its factor at construction."""
        cfg = parse_config(NEAR_RANGE_SIGMA_CONFIG)
        forbid_values(monkeypatch)
        freqs = density_frequencies(cfg.run.n_freq)
        message = r"^spectral density overflows at frequency -3\.12932$"
        with pytest.raises(OverflowError, match=message):
            fiarma_spectral_density(cfg.model, freqs)


class TestLocalFactorization:
    def test_identity_model(self):
        g = make_grid(2)
        freqs = np.linspace(-0.4, 0.4, 9)
        h0, k_vals = local_factorization(white_model(g), 0.5, freqs)
        assert np.allclose(h0.entries, np.eye(2), atol=1e-12)
        assert np.max(np.abs(k_vals)) < 1e-12

    def test_scalar_ar1_slope(self):
        g = scalar_grid()
        freqs = np.linspace(-0.2, 0.2, 41)
        h0, k_vals = local_factorization(ar1_model(g), 0.3, freqs)
        assert h0.entries[0, 0] == pytest.approx(2.0)
        sup = np.max(np.abs(k_vals))
        assert np.isfinite(sup) and sup < 10.0
        # taylor oracle: derivative of (1 - a e^{-i lam})^{-1} at 0 is -i a/(1-a)^2
        center = np.argmin(np.abs(freqs))
        small = np.abs(freqs) < 0.05
        oracle = -1j * 0.5 / 0.25
        assert np.allclose(k_vals[small, 0, 0], oracle, atol=0.2)

    def test_reconstruction_identity(self, rng):
        g = make_grid(2)
        model = ArmaModel(
            OperatorPolynomial.scalar(g, 0.4),
            OperatorPolynomial.scalar(g, 0.1),
            random_psd(rng, g),
        )
        freqs = np.linspace(-0.3, 0.3, 13)
        h0, k_vals = local_factorization(model, 0.4, freqs)
        halves = arma_transfer_batch(model, freqs)
        for j, lam in enumerate(freqs):
            rebuilt = h0.entries + lam * k_vals[j]
            assert operator_norm(rebuilt - halves[j]) < 1e-10

    def test_window_guard(self):
        g = scalar_grid()
        model = ar1_model(g, 0.9999999)
        with pytest.raises(SingularTransferError, match="eta too large"):
            local_factorization(model, 3.0, np.array([0.1]))

    def test_nilpotent_symbol_matches_closed_form(self, nilpotent_shift_model):
        """``Id - 1.5 S z`` with S the nilpotent shift has all its poles at 0,
        so no window is refused although its smallest singular value is about
        2e-6 everywhere; ``h0 + lam k(lam)`` is its inverse
        ``sum_{k<n} (1.5 e^{-i lam} S)^k``."""
        shift = np.eye(32, k=1)
        freqs = np.linspace(-0.4, 0.4, 9)
        h0, k_vals = local_factorization(nilpotent_shift_model, 0.5, freqs)
        for lam, k in zip(freqs, k_vals):
            step = 1.5 * np.exp(-1j * lam) * shift
            inv = sum(np.linalg.matrix_power(step, j) for j in range(32))
            assert operator_norm(h0.entries + lam * k - inv) <= 1e-12 * operator_norm(inv)

    def test_window_guard_names_the_pole_frequency(self):
        """A pole ``r e^{0.8i}`` next to the circle refuses every window that
        reaches frequency 0.8, at that frequency, and no window short of it;
        the closest point of a shorter window is its end, 0.5 away."""
        g = scalar_grid()
        model = ar1_model(g, (1.0 - 1e-7) * np.exp(0.8j))
        with pytest.raises(SingularTransferError, match="eta too large.* at frequency 0.8$"):
            local_factorization(model, 1.0, np.array([0.1]))
        local_factorization(model, 0.3, np.array([0.1]))

    def test_frequency_range_checked(self):
        g = scalar_grid()
        with pytest.raises(ValueError):
            local_factorization(white_model(g), 0.2, np.array([0.3]))


class TestCrossSpectralKernel:
    def test_rank_one_white_noise(self, rng):
        g = make_grid(4, uniform=False)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        f /= np.sqrt(np.sum(np.abs(f) ** 2 * g.weights))
        coords = f * np.sqrt(g.weights)
        sigma = LinearOperator(np.outer(coords, coords.conj()), g)
        dens = fiarma_spectral_density(white_model(g, sigma), density_frequencies(8))
        kern = [kernel_of(dens.operator(j)) for j in range(8)]
        target = np.outer(f, f.conj()) / (2 * np.pi)
        for j in range(8):
            assert np.allclose(kern[j], target, atol=1e-12)

    def test_hermitian_symmetry_and_schatten2(self, rng):
        g = make_grid(3, uniform=False)
        model = ArmaModel(
            OperatorPolynomial.scalar(g, 0.3),
            OperatorPolynomial(g),
            random_psd(rng, g),
        )
        dens = fiarma_spectral_density(model, density_frequencies(16))
        kern = [kernel_of(dens.operator(j)) for j in range(16)]
        ww = np.outer(g.weights, g.weights)
        for j in range(16):
            assert np.allclose(kern[j], kern[j].conj().T, atol=1e-10)
            quad = np.sum(np.abs(kern[j]) ** 2 * ww)
            assert quad == pytest.approx(np.linalg.norm(dens.values[j], "fro") ** 2, rel=1e-10)


class TestBochnerRoundTrip:
    @pytest.mark.parametrize("kind", ["white", "ar1"])
    def test_density_vs_empirical(self, kind):
        g = scalar_grid()
        model = white_model(g) if kind == "white" else ar1_model(g)
        t_len = 40_000
        path = simulate_fiarma(model, SimConfig(T=t_len, seed=21, K_trunc=0))
        dens = fiarma_spectral_density(model, density_frequencies(4096))
        tol = 5.0 / np.sqrt(t_len)
        seq = autocov_sequence(dens, 2)
        for h in (0, 1, 2):
            want = seq.operator(h).entries[0, 0]
            got = empirical_autocov(path, h).entries[0, 0]
            assert abs(want - got) < tol
