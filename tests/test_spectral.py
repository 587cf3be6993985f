import numpy as np
import pytest

from fiarma_lab import (
    ArmaModel,
    FiarmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    OperatorPolynomial,
    SampledPath,
    SimConfig,
    SingularTransferError,
    SpectralDensityGrid,
    arma_spectral_density,
    autocov_from_density,
    autocov_sequence,
    check_conditions,
    cross_spectral_kernel,
    density_frequencies,
    empirical_autocov,
    envelope_bounds,
    existence_integral,
    fiarma_spectral_density,
    fourier_frequencies,
    frac_transfer,
    gaussian_white_noise,
    identity,
    kernel_of,
    local_factorization,
    normal_decompose,
    operator_norm,
    periodogram,
    schatten_norm,
    simulate_arma,
    simulate_fiarma,
    sqrt_psd,
)

from conftest import make_grid, op, random_unitary


def scalar_grid():
    return HilbertGrid(np.array([0.0]), np.array([1.0]))


def white_model(grid, sigma=None):
    sigma = identity(grid) if sigma is None else sigma
    return ArmaModel(OperatorPolynomial(grid), OperatorPolynomial(grid), sigma)


def ar1_model(grid, a=0.5):
    return ArmaModel(
        OperatorPolynomial.scalar(grid, a), OperatorPolynomial(grid), identity(grid)
    )


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
        dens = arma_spectral_density(white_model(g, sigma), density_frequencies(64))
        for j in range(64):
            assert np.allclose(dens.values[j], sigma.entries / (2 * np.pi), atol=1e-13)
        gamma0 = autocov_from_density(dens, 0)
        assert operator_norm(gamma0.entries - sigma.entries) < 1e-10

    def test_scalar_ar1_value_at_zero(self):
        g = scalar_grid()
        dens = arma_spectral_density(ar1_model(g), np.array([0.0]))
        assert dens.values[0, 0, 0].real * 2 * np.pi == pytest.approx(4.0)

    def test_scalar_ar1_matches_modulus_oracle(self):
        g = scalar_grid()
        freqs = density_frequencies(128)
        dens = arma_spectral_density(ar1_model(g), freqs)
        oracle = 1.0 / np.abs(1 - 0.5 * np.exp(-1j * freqs)) ** 2 / (2 * np.pi)
        assert np.allclose(dens.values[:, 0, 0].real, oracle, rtol=1e-12)

    def test_differencing_ma_vanishes_at_zero(self):
        g = make_grid(2)
        model = ArmaModel(
            OperatorPolynomial(g), OperatorPolynomial.scalar(g, -1.0), identity(g)
        )
        dens = arma_spectral_density(model, np.array([0.0]))
        assert operator_norm(dens.values[0]) < 1e-14

    def test_values_hermitian_psd(self, rng):
        g = make_grid(3)
        a1 = rng.normal(size=(3, 3)) * 0.2
        model = ArmaModel(
            OperatorPolynomial(g, (op(a1, g),)),
            OperatorPolynomial.scalar(g, 0.4),
            random_psd(rng, g),
        )
        dens = arma_spectral_density(model, density_frequencies(128))
        dens.validate(1e-10)

    def test_uncertified_margin_model_matches_closed_form(self, nilpotent_shift_model):
        # Id - 1.5 S z with S the nilpotent shift: the circle certificate
        # proves no positive margin, yet the symbol is invertible everywhere
        # with inverse sum_{k<n} (1.5 z S)^k, and the density must match it
        n = 32
        shift = np.eye(n, k=1)
        model = nilpotent_shift_model
        assert model.margin == 0.0
        freqs = density_frequencies(16)
        dens = arma_spectral_density(model, freqs)
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
            lambda: arma_spectral_density(model.base, freqs),
            lambda: fiarma_spectral_density(model, freqs),
            lambda: existence_integral(model.base, model.D, 0.5),
            lambda: check_conditions(model.base, model.D),
            lambda: local_factorization(model.base, model.D.decomposition, 0.5, freqs[:8] / 8),
            lambda: simulate_fiarma(model, SimConfig(T=64, K_trunc=32, seed=1)),
        ):
            calls.clear()
            run()
            assert not calls


class TestFiarmaDensity:
    def test_zero_memory_reduces_to_arma(self, rng):
        g = make_grid(2)
        model = ar1_model(g, 0.3)
        freqs = density_frequencies(32)
        base = arma_spectral_density(model, freqs)
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
        one_shot = fiarma_spectral_density(model, freqs)
        base = arma_spectral_density(model.base, freqs)
        scale = max(operator_norm(v) for v in one_shot.values)
        for j, lam in enumerate(freqs):
            f_d = frac_transfer(model.D, lam).entries
            recomposed = f_d @ base.values[j] @ f_d.conj().T
            assert operator_norm(one_shot.values[j] - recomposed) < 1e-12 * scale


class TestAutocovariance:
    def test_white_noise_lags(self, rng):
        g = make_grid(2)
        sigma = random_psd(rng, g)
        dens = arma_spectral_density(white_model(g, sigma), density_frequencies(4096))
        assert operator_norm(
            autocov_from_density(dens, 0).entries - sigma.entries
        ) < 1e-6
        assert operator_norm(autocov_from_density(dens, 1).entries) < 1e-6

    def test_ar1_autocorrelation(self):
        g = scalar_grid()
        dens = arma_spectral_density(ar1_model(g), density_frequencies(4096))
        g0 = autocov_from_density(dens, 0).entries[0, 0].real
        g1 = autocov_from_density(dens, 1).entries[0, 0].real
        assert g1 / g0 == pytest.approx(0.5, abs=1e-9)
        assert g0 == pytest.approx(1.0 / (1 - 0.25), abs=1e-9)

    def test_frequencies_out_of_order_are_refused(self):
        """Reversed, the equal steps are negative and the lag-0 value would be
        -Sigma; an unsorted irregular grid would mix signs in the trapezoid
        rule.  Both are refused, naming the first frequency out of order."""
        g = make_grid(2)
        dens = arma_spectral_density(white_model(g), density_frequencies(64))
        reversed_dens = SpectralDensityGrid(dens.freqs[::-1], dens.values[::-1], g)
        with pytest.raises(ValueError, match="must increase: 2.99433 follows 3.09251"):
            autocov_from_density(reversed_dens, 0)
        with pytest.raises(ValueError, match="must increase: 0.1 follows 0.5"):
            autocov_from_density(SpectralDensityGrid([-1.0, 0.5, 0.1, 2.0], dens.values[:4], g), 0)

    def test_negative_lag_is_adjoint(self, rng):
        g = make_grid(3)
        model = ArmaModel(
            OperatorPolynomial(g, (op(rng.normal(size=(3, 3)) * 0.2, g),)),
            OperatorPolynomial(g),
            random_psd(rng, g),
        )
        dens = arma_spectral_density(model, density_frequencies(256))
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
        path = gaussian_white_noise(sigma, SimConfig(T=t_len, seed=11, K_trunc=0))
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
        freqs = fourier_frequencies(t_len, drop_zero=False)
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
        freqs = fourier_frequencies(t_len, drop_zero=False)
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
            path = gaussian_white_noise(sigma, SimConfig(T=t_len, seed=99, K_trunc=0, replication=r))
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
        path = gaussian_white_noise(identity(g), SimConfig(T=64, seed=1, K_trunc=0))
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
        freqs = fourier_frequencies(t_len, drop_zero=False)
        pg = periodogram(SampledPath(vals, g), freqs).values
        shifted = periodogram(SampledPath(vals + shift, g), freqs).values
        nonzero = freqs != 0.0
        assert nonzero.sum() == t_len - 1
        assert np.abs(shifted[nonzero] - pg[nonzero]).max() <= 1e-13 * np.abs(pg).max()

    @pytest.mark.parametrize("t_len", [50, 51])
    def test_frequency_zero_row_is_exactly_zero(self, rng, t_len):
        g = make_grid(2)
        vals = rng.normal(size=(t_len, 2)) + np.array([3.0, -7.0 + 1.0j])
        pg = periodogram(SampledPath(vals, g), fourier_frequencies(t_len, drop_zero=False))
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
        """Values are made in blocks of ``4096 // n`` frequencies: ``step``
        frequencies fill exactly one block, one more starts a second block
        of width 1, and 127 frequencies fill part of one block."""
        g = make_grid(n)
        step = 4096 // n
        for t_len in (127, step, step + 1):
            vals = rng.normal(size=(t_len, n)) + 1j * rng.normal(size=(t_len, n))
            freqs = fourier_frequencies(t_len, drop_zero=False)
            v = periodogram(SampledPath(vals, g), freqs).values
            assert v.flags.c_contiguous
            assert np.array_equal(v, v.conj().transpose(0, 2, 1))
            j = np.rint(freqs * t_len / (2.0 * np.pi)).astype(int) % t_len
            d = np.fft.fft(vals - vals.mean(axis=0), axis=0)[j]
            ref = d[:, :, None] * d[:, None, :].conj() / (2.0 * np.pi * t_len)
            assert np.abs(v - ref).max() <= 1e-13 * np.abs(ref).max()


class TestLocalFactorization:
    def test_identity_model(self):
        g = make_grid(2)
        freqs = np.linspace(-0.4, 0.4, 9)
        h0, k_vals = local_factorization(white_model(g), None, 0.5, freqs)
        assert np.allclose(h0.entries, np.eye(2), atol=1e-12)
        assert np.max(np.abs(k_vals)) < 1e-12

    def test_scalar_ar1_slope(self):
        g = scalar_grid()
        freqs = np.linspace(-0.2, 0.2, 41)
        h0, k_vals = local_factorization(ar1_model(g), None, 0.3, freqs)
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
        dec = normal_decompose(identity(g))
        freqs = np.linspace(-0.3, 0.3, 13)
        h0, k_vals = local_factorization(model, dec, 0.4, freqs)
        root = sqrt_psd(model.sigma).entries
        from fiarma_lab import arma_transfer

        for j, lam in enumerate(freqs):
            h_lam = dec.U @ arma_transfer(model.phi, model.theta, lam).entries @ root @ dec.U.conj().T
            rebuilt = h0.entries + lam * k_vals[j]
            assert operator_norm(rebuilt - h_lam) < 1e-10

    def test_window_guard(self):
        g = scalar_grid()
        model = ar1_model(g, 0.9999999)
        with pytest.raises(SingularTransferError, match="eta too large"):
            local_factorization(model, None, 3.0, np.array([0.1]))

    def test_nilpotent_symbol_matches_closed_form(self, nilpotent_shift_model):
        """``Id - 1.5 S z`` with S the nilpotent shift has all its poles at 0,
        so no window is refused although its smallest singular value is about
        2e-6 everywhere; ``h0 + lam k(lam)`` is its inverse
        ``sum_{k<n} (1.5 e^{-i lam} S)^k``."""
        shift = np.eye(32, k=1)
        freqs = np.linspace(-0.4, 0.4, 9)
        h0, k_vals = local_factorization(nilpotent_shift_model, None, 0.5, freqs)
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
        with pytest.raises(SingularTransferError, match="eta too large") as err:
            local_factorization(model, None, 1.0, np.array([0.1]))
        assert err.value.lam == pytest.approx(0.8)
        local_factorization(model, None, 0.3, np.array([0.1]))

    def test_frequency_range_checked(self):
        g = scalar_grid()
        with pytest.raises(ValueError):
            local_factorization(white_model(g), None, 0.2, np.array([0.3]))


class TestCrossSpectralKernel:
    def test_rank_one_white_noise(self, rng):
        g = make_grid(4, uniform=False)
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        f /= np.sqrt(np.sum(np.abs(f) ** 2 * g.weights))
        coords = f * np.sqrt(g.weights)
        sigma = LinearOperator(np.outer(coords, coords.conj()), g)
        dens = arma_spectral_density(white_model(g, sigma), density_frequencies(8))
        kern = cross_spectral_kernel(dens)
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
        dens = arma_spectral_density(model, density_frequencies(16))
        kern = cross_spectral_kernel(dens)
        ww = np.outer(g.weights, g.weights)
        for j in range(16):
            assert np.allclose(kern[j], kern[j].conj().T, atol=1e-10)
            quad = np.sum(np.abs(kern[j]) ** 2 * ww)
            assert quad == pytest.approx(
                schatten_norm(dens.operator(j), 2) ** 2, rel=1e-10
            )


class TestBochnerRoundTrip:
    @pytest.mark.parametrize("kind", ["white", "ar1"])
    def test_density_vs_empirical(self, kind):
        g = scalar_grid()
        model = white_model(g) if kind == "white" else ar1_model(g)
        t_len = 40_000
        path = simulate_arma(model, SimConfig(T=t_len, seed=21, K_trunc=0))
        dens = arma_spectral_density(model, density_frequencies(4096))
        tol = 5.0 / np.sqrt(t_len)
        for h in (0, 1, 2):
            want = autocov_from_density(dens, h).entries[0, 0]
            got = empirical_autocov(path, h).entries[0, 0]
            assert abs(want - got) < tol
