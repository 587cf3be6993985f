import numpy as np
import pytest
import scipy.linalg

from fiarma_lab import (
    ArmaModel,
    ExistenceRefusal,
    FiarmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    OperatorPolynomial,
    SimConfig,
    empirical_autocov,
    gaussian_white_noise,
    identity,
    operator_norm,
    simulate_arma,
    simulate_duker,
    simulate_fiarma,
    verify_longmemory_decomposition,
    zero_operator,
)

from conftest import make_grid, op, random_unitary


@pytest.fixture
def schur_calls(monkeypatch):
    """Record every Schur factorization made through scipy.linalg."""
    calls = []
    real = scipy.linalg.schur

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    return calls


def scalar_grid():
    return HilbertGrid(np.array([0.0]), np.array([1.0]))


def white_model(grid):
    return ArmaModel(OperatorPolynomial(grid), OperatorPolynomial(grid), identity(grid))


def ar1_model(grid, a=0.5):
    return ArmaModel(
        OperatorPolynomial.scalar(grid, a), OperatorPolynomial(grid), identity(grid)
    )


class TestWhiteNoise:
    def test_zero_covariance(self):
        g = make_grid(2)
        path = gaussian_white_noise(zero_operator(g), SimConfig(T=64, seed=1))
        assert np.all(path.values == 0.0)

    def test_seed_determinism(self):
        g = make_grid(3)
        cfg = SimConfig(T=256, seed=123, K_trunc=16)
        a = gaussian_white_noise(identity(g), cfg)
        b = gaussian_white_noise(identity(g), cfg)
        assert np.array_equal(a.values, b.values)

    def test_replications_differ(self):
        g = make_grid(2)
        a = gaussian_white_noise(identity(g), SimConfig(T=64, seed=5, replication=0))
        b = gaussian_white_noise(identity(g), SimConfig(T=64, seed=5, replication=1))
        assert not np.array_equal(a.values, b.values)

    def test_empirical_covariance(self):
        g = make_grid(2)
        t_len = 100_000
        path = gaussian_white_noise(identity(g), SimConfig(T=t_len, seed=2, K_trunc=0))
        gamma0 = empirical_autocov(path, 0).entries
        assert operator_norm(gamma0 - np.eye(2)) < 5.0 / np.sqrt(t_len)

    def test_complex_kind_unit_covariance(self):
        g = make_grid(1)
        cfg = SimConfig(T=200_000, seed=3, K_trunc=0, noise_kind="complex-gaussian")
        path = gaussian_white_noise(identity(g), cfg)
        var = np.mean(np.abs(path.values) ** 2)
        assert var == pytest.approx(1.0, abs=0.02)
        assert np.iscomplexobj(path.values) and np.abs(path.values.imag).max() > 0


class TestSimulateArma:
    def test_trivial_model_returns_noise(self):
        g = make_grid(2)
        cfg = SimConfig(T=512, seed=9)
        assert np.array_equal(
            simulate_arma(white_model(g), cfg).values,
            gaussian_white_noise(identity(g), cfg).values,
        )

    def test_ar1_autocorrelation(self):
        g = scalar_grid()
        cfg = SimConfig(T=100_000, burnin=1000, seed=31, K_trunc=0)
        path = simulate_arma(ar1_model(g), cfg)
        g0 = empirical_autocov(path, 0).entries[0, 0].real
        g1 = empirical_autocov(path, 1).entries[0, 0].real
        assert g1 / g0 == pytest.approx(0.5, abs=0.02)

    def test_ma1_autocorrelation(self):
        g = scalar_grid()
        model = ArmaModel(
            OperatorPolynomial(g), OperatorPolynomial.scalar(g, 0.5), identity(g)
        )
        cfg = SimConfig(T=100_000, seed=32, K_trunc=0)
        path = simulate_arma(model, cfg)
        g0 = empirical_autocov(path, 0).entries[0, 0].real
        g1 = empirical_autocov(path, 1).entries[0, 0].real
        assert g1 / g0 == pytest.approx(0.4, abs=0.02)

    def test_burnin_auto_resolved(self):
        g = scalar_grid()
        path = simulate_arma(ar1_model(g, 0.9), SimConfig(T=128, seed=4))
        assert path.meta["burnin"] > 10

    def test_operator_ar_determinism(self, rng):
        g = make_grid(3)
        a1 = rng.normal(size=(3, 3)) * 0.2
        model = ArmaModel(
            OperatorPolynomial(g, (op(a1, g),)), OperatorPolynomial(g), identity(g)
        )
        cfg = SimConfig(T=200, seed=77)
        assert np.array_equal(
            simulate_arma(model, cfg).values, simulate_arma(model, cfg).values
        )

    def test_lead_rows_prepended(self):
        g = scalar_grid()
        cfg = SimConfig(T=100, seed=8, K_trunc=32)
        plain = simulate_arma(ar1_model(g), cfg)
        extended = simulate_arma(ar1_model(g), cfg, lead=32)
        assert extended.values.shape[0] == 132
        assert np.array_equal(extended.values[32:], plain.values)


class TestSimulateFiarma:
    def test_zero_memory_equals_arma(self):
        g = scalar_grid()
        model = FiarmaModel(ar1_model(g), FracIntegrationSpec.scalar(g, 0.0))
        cfg = SimConfig(T=1024, seed=13)
        frac = simulate_fiarma(model, cfg)
        base = simulate_arma(ar1_model(g), cfg)
        assert np.abs(frac.values - base.values).max() < 1e-12

    def test_refusal_cites_condition(self):
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.6))
        with pytest.raises(ExistenceRefusal) as err:
            simulate_fiarma(model, SimConfig(T=64, seed=1))
        assert err.value.condition == "ii"
        assert "(ii)" in str(err.value)

    def test_force_overrides_refusal(self):
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.6))
        path = simulate_fiarma(model, SimConfig(T=64, seed=1), force=True)
        assert path.t_len == 64
        assert path.meta["existence"] == "forced"

    def test_vacuous_sigma_w_proceeds(self):
        g = scalar_grid()
        differencing = ArmaModel(
            OperatorPolynomial(g), OperatorPolynomial.scalar(g, -1.0), identity(g)
        )
        model = FiarmaModel(differencing, FracIntegrationSpec.scalar(g, 0.75))
        path = simulate_fiarma(model, SimConfig(T=64, seed=1))
        assert path.meta["existence"] == "holds"

    def test_matches_manual_convolution(self):
        from fiarma_lab import frac_ma_coeffs

        g = scalar_grid()
        k_trunc = 64
        cfg = SimConfig(T=256, seed=6, K_trunc=k_trunc)
        model = FiarmaModel(ar1_model(g), FracIntegrationSpec.scalar(g, 0.3))
        frac = simulate_fiarma(model, cfg)
        base = simulate_arma(ar1_model(g), cfg, lead=k_trunc)
        coeffs = frac_ma_coeffs(model.D, k_trunc)
        manual = np.zeros_like(frac.values)
        for t in range(cfg.T):
            s = t + k_trunc
            for k in range(k_trunc + 1):
                manual[t] += coeffs[k] @ base.values[s - k]
        assert np.abs(manual - frac.values).max() < 1e-10

    def test_variance_monotone_in_truncation(self):
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.4))
        variances = []
        for k_trunc in (4, 64, 1024):
            cfg = SimConfig(T=20_000, seed=55, K_trunc=k_trunc)
            path = simulate_fiarma(model, cfg)
            variances.append(np.var(path.values.real))
        assert variances[0] < variances[1] < variances[2]

    def test_truncation_diagnostics_present(self):
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.3))
        path = simulate_fiarma(model, SimConfig(T=64, seed=1, K_trunc=128))
        assert path.meta["coeff_tail_norm"] > 0
        assert np.isfinite(path.meta["truncation_tail_estimate"])


class TestSimulateDuker:
    def test_seed_determinism(self):
        g = make_grid(2)
        n_op = op(0.7 * np.eye(2), g)
        cfg = SimConfig(T=512, seed=14, K_trunc=256)
        assert np.array_equal(
            simulate_duker(n_op, identity(g), cfg).values,
            simulate_duker(n_op, identity(g), cfg).values,
        )

    def test_harmonic_weights_manual_oracle(self):
        g = scalar_grid()
        n_op = op(np.eye(1), g)
        cfg = SimConfig(T=128, seed=15, K_trunc=32, burnin=0)
        path = simulate_duker(n_op, identity(g), cfg, force=True)
        noise = gaussian_white_noise(identity(g), SimConfig(T=128, seed=15, K_trunc=32, burnin=0))
        # reconstruct y_T-1 from returned noise rows: weights 1/(k+1), k <= t
        t = 127
        manual = sum(noise.values[t - k, 0] / (k + 1) for k in range(0, 33))
        assert abs(path.values[t, 0] - manual) < 1e-10

    def test_condition_refusal_and_force(self):
        g = make_grid(2)
        n_op = op(0.5 * np.eye(2), g)
        with pytest.raises(ExistenceRefusal):
            simulate_duker(n_op, identity(g), SimConfig(T=32, seed=1))
        path = simulate_duker(n_op, identity(g), SimConfig(T=32, seed=1), force=True)
        assert path.t_len == 32

    def test_exponent_decomposed_once(self, schur_calls):
        g = make_grid(2)
        simulate_duker(op(np.diag([0.7, 0.8]), g), identity(g), SimConfig(T=32, seed=1, K_trunc=16))
        assert len(schur_calls) == 1

    def test_autocovariance_decay_slope(self):
        # scalar power-law weights (k+1)^{-0.7}: lag autocovariance decays
        # like h^{-0.4}; fit the log-log slope over h in [10, 500]
        g = scalar_grid()
        n_op = op(0.7 * np.eye(1), g)
        cfg = SimConfig(T=200_000, seed=16, K_trunc=4096)
        path = simulate_duker(n_op, identity(g), cfg)
        lags = np.unique(np.geomspace(10, 500, 24).astype(int))
        acov = np.array(
            [empirical_autocov(path, int(h)).entries[0, 0].real for h in lags]
        )
        assert np.all(acov > 0)
        slope = np.polyfit(np.log(lags), np.log(acov), 1)[0]
        assert slope == pytest.approx(-0.4, abs=0.15)


class TestLongMemoryDecomposition:
    def test_identity_exponent(self):
        g = make_grid(2)
        check = verify_longmemory_decomposition(
            op(np.eye(2), g), identity(g), SimConfig(T=256, seed=18, K_trunc=64)
        )
        assert check.residual < 1e-8

    def test_scalar_case(self):
        g = scalar_grid()
        check = verify_longmemory_decomposition(
            op(0.7 * np.eye(1), g), identity(g), SimConfig(T=2000, seed=19, K_trunc=500)
        )
        assert check.residual < 1e-8
        assert check.rho == pytest.approx(0.7)

    def test_normal_two_by_two(self, rng):
        g = make_grid(2)
        u = random_unitary(rng, 2)
        n_mat = u.conj().T @ (np.array([0.6, 0.8])[:, None] * u)
        check = verify_longmemory_decomposition(
            op(n_mat, g), identity(g), SimConfig(T=2000, seed=20, K_trunc=500)
        )
        assert check.residual < 1e-8
        sums = check.partial_sums
        # Cauchy tail: the last half contributes little
        assert sums[-1] - sums[len(sums) // 2] < 1e-2 * sums[-1]

    def test_exponent_decomposed_once(self, schur_calls):
        g = make_grid(2)
        verify_longmemory_decomposition(
            op(np.diag([0.7, 0.8]), g), identity(g), SimConfig(T=64, seed=1, K_trunc=32)
        )
        assert len(schur_calls) == 1

    def test_refuses_failing_conditions(self):
        g = make_grid(2)
        with pytest.raises(ExistenceRefusal):
            verify_longmemory_decomposition(
                op(0.3 * np.eye(2), g), identity(g), SimConfig(T=64, seed=1)
            )
