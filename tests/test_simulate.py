import functools
import gc
import hashlib
import math
import os
import pickle
import select
import signal
import threading
import warnings
import weakref

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

import fiarma_lab.simulate
import fiarma_lab.transfer
from fiarma_lab import (
    ArmaModel,
    ExistenceRefusal,
    FiarmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    NonCausalError,
    NotNormalError,
    OperatorPolynomial,
    PowerLawModel,
    SimConfig,
    check_duker_conditions,
    duker_decomposition,
    empirical_autocov,
    fourier_frequencies,
    frac_ma_coeffs,
    identity,
    operator_norm,
    periodogram,
    simulate_fiarma,
    verify_longmemory_decomposition,
)

from conftest import ar1_model, make_grid, op, power_law_model, random_unitary, white_model


@pytest.fixture
def eig_calls(monkeypatch):
    """Record every eigendecomposition made through numpy.linalg.eig, the
    factorization behind each unitary eigenframe."""
    calls = []
    real = np.linalg.eig

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counting)
    return calls


def sim_plan(model):
    """The filter plan that the simulator keeps for ``model``."""
    return fiarma_lab.simulate._STATES[model].plan[1]


@pytest.fixture
def counted(monkeypatch):
    """``counted(name)`` wraps ``fiarma_lab.simulate.<name>`` and returns the
    list that records the arguments of each call."""

    def wrap(name):
        calls = []
        real = getattr(fiarma_lab.simulate, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fiarma_lab.simulate, name, counting)
        return calls

    return wrap


def scalar_grid():
    return HilbertGrid(np.array([0.0]), np.array([1.0]))


class TestWhiteNoise:
    def test_zero_covariance(self):
        g = make_grid(2)
        path = simulate_fiarma(white_model(g, op(np.zeros((2, 2)), g)), SimConfig(T=64, seed=1))
        assert np.all(path.values == 0.0)

    def test_seed_determinism(self):
        g = make_grid(3)
        cfg = SimConfig(T=256, seed=123, K_trunc=16)
        a = simulate_fiarma(white_model(g), cfg)
        b = simulate_fiarma(white_model(g), cfg)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("key", ["seed", "replication"])
    @pytest.mark.parametrize("value", [2**64, -(2**63) - 1])
    def test_key_outside_64_bits_refused(self, key, value):
        """Such a value would wrap onto the noise stream of another key."""
        with pytest.raises(ValueError, match=f"{key}: must lie in"):
            SimConfig(**{key: value})

    @pytest.mark.parametrize(
        "value, digits",
        [
            (2**64, 20),
            (-(2**63) - 1, 19),
            (10**20 - 1, 20),
            (10**20, 21),
            (-(10**40), 41),
            (10**5000, 5001),
        ],
        ids=["2**64", "-2**63-1", "10**20-1", "10**20", "-10**40", "10**5000"],
    )
    def test_key_range_error_counts_digits(self, value, digits):
        """The message names the digit count, not the value, so it stays short
        for a key too long for ``str``."""
        message = fiarma_lab.simulate.key_range_error("seed", value)
        assert message == (
            f"seed: must lie in [-2**63, 2**64) to key the noise stream, got {digits} digits"
        )

    def test_key_digit_count_at_every_power_of_ten(self):
        """Each side of every power of ten past the 64-bit range, where the
        count from the bit length is one short and must be corrected."""
        for k in range(20, 400):
            for value in (10**k - 1, 10**k, -(10**k)):
                message = fiarma_lab.simulate.key_range_error("seed", value)
                assert message.endswith(f"got {len(str(abs(value)))} digits"), value

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"T": True}, "T"),
            ({"T": 0}, "T"),
            ({"K_trunc": 2.0}, "K_trunc"),
            ({"seed": 1.0}, "seed"),
            ({"noise_kind": "uniform"}, "noise_kind"),
        ],
    )
    def test_field_rules_refused(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            SimConfig(**kwargs)

    def test_negative_key_is_its_twos_complement(self):
        g = make_grid(2)
        a = simulate_fiarma(white_model(g), SimConfig(T=8, seed=-1, replication=-(2**63)))
        b = simulate_fiarma(white_model(g), SimConfig(T=8, seed=2**64 - 1, replication=2**63))
        assert np.array_equal(a.values, b.values)

    def test_replications_differ(self):
        g = make_grid(2)
        a = simulate_fiarma(white_model(g), SimConfig(T=64, seed=5, replication=0))
        b = simulate_fiarma(white_model(g), SimConfig(T=64, seed=5, replication=1))
        assert not np.array_equal(a.values, b.values)

    def test_empirical_covariance(self):
        g = make_grid(2)
        t_len = 100_000
        path = simulate_fiarma(white_model(g), SimConfig(T=t_len, seed=2, K_trunc=0))
        gamma0 = empirical_autocov(path, 0).entries
        assert operator_norm(gamma0 - np.eye(2)) < 5.0 / np.sqrt(t_len)

    def test_complex_kind_unit_covariance(self):
        g = make_grid(1)
        cfg = SimConfig(T=200_000, seed=3, K_trunc=0, noise_kind="complex-gaussian")
        path = simulate_fiarma(white_model(g), cfg)
        var = np.mean(np.abs(path.values) ** 2)
        assert var == pytest.approx(1.0, abs=0.02)
        assert np.iscomplexobj(path.values) and np.abs(path.values.imag).max() > 0


class TestSimulateArma:
    def test_trivial_model_returns_noise(self):
        g = make_grid(2)
        cfg = SimConfig(T=512, seed=9)
        assert np.array_equal(
            simulate_fiarma(white_model(g), cfg).values,
            simulate_fiarma(white_model(g), cfg).values,
        )

    def test_ar1_autocorrelation(self):
        g = scalar_grid()
        cfg = SimConfig(T=100_000, seed=31, K_trunc=0)
        path = simulate_fiarma(ar1_model(g), cfg)
        g0 = empirical_autocov(path, 0).entries[0, 0].real
        g1 = empirical_autocov(path, 1).entries[0, 0].real
        assert g1 / g0 == pytest.approx(0.5, abs=0.02)

    def test_ma1_autocorrelation(self):
        g = scalar_grid()
        model = ArmaModel(
            OperatorPolynomial(g), OperatorPolynomial.scalar(g, 0.5), identity(g)
        )
        cfg = SimConfig(T=100_000, seed=32, K_trunc=0)
        path = simulate_fiarma(model, cfg)
        g0 = empirical_autocov(path, 0).entries[0, 0].real
        g1 = empirical_autocov(path, 1).entries[0, 0].real
        assert g1 / g0 == pytest.approx(0.4, abs=0.02)

    def test_operator_ar_determinism(self, rng):
        g = make_grid(3)
        a1 = rng.normal(size=(3, 3)) * 0.2
        model = ArmaModel(
            OperatorPolynomial(g, (op(a1, g),)), OperatorPolynomial(g), identity(g)
        )
        cfg = SimConfig(T=200, seed=77)
        assert np.array_equal(
            simulate_fiarma(model, cfg).values, simulate_fiarma(model, cfg).values
        )

    def test_arma_model_is_the_zero_memory_member(self):
        """A plain ARMA model has no verdict and no truncated memory filter:
        its path's meta has neither ``existence`` nor ``coeff_tail_norm``,
        and ``force`` changes nothing."""
        cfg = SimConfig(T=64, seed=3)
        path = simulate_fiarma(ar1_model(scalar_grid()), cfg)
        assert list(path.meta) == ["seed", "replication", "K_trunc", "noise_kind"]
        forced = simulate_fiarma(ar1_model(scalar_grid()), cfg, force=True)
        assert forced.meta == path.meta and np.array_equal(forced.values, path.values)


class TestSimulateFiarma:
    def test_zero_memory_equals_arma(self):
        """With ``D = 0`` the filter is the base's, padded by ``K_trunc`` zero
        taps: the path is the last ``T`` rows of the ARMA path that draws the
        same block, ``K_trunc`` rows longer."""
        g = scalar_grid()
        model = FiarmaModel(ar1_model(g), FracIntegrationSpec.scalar(g, 0.0))
        cfg = SimConfig(T=1024, seed=13)
        frac = simulate_fiarma(model, cfg)
        base = simulate_fiarma(ar1_model(g), SimConfig(T=cfg.T + cfg.K_trunc, seed=13))
        assert np.abs(frac.values - base.values[cfg.K_trunc :]).max() < 1e-12

    def test_refusal_cites_condition(self):
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.6))
        with pytest.raises(ExistenceRefusal, match=r"existence condition \(ii\) fails"):
            simulate_fiarma(model, SimConfig(T=64, seed=1))

    def test_force_overrides_refusal(self):
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.6))
        path = simulate_fiarma(model, SimConfig(T=64, seed=1), force=True)
        assert path.t_len == 64
        assert path.meta["existence"] == "forced"

    def test_innovation_without_mass_proceeds(self):
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
        # the recursion's ARMA rows on the same noise, with K_trunc rows of pre-history
        rows = sim_plan(model).rows
        base = recursion_arma(ar1_model(g), cfg, "real-gaussian", rows, lead=k_trunc)
        coeffs = frac_ma_coeffs(model.D, k_trunc)
        manual = np.zeros_like(frac.values)
        for t in range(cfg.T):
            s = t + k_trunc
            for k in range(k_trunc + 1):
                manual[t] += coeffs[k] @ base[s - k]
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

    def test_forced_overflow_is_refused_before_noise(self, monkeypatch):
        """theta = Sigma = 1e300 Id overflows the base's filter: a forced
        simulation raises OverflowError before it draws any noise, and no
        overflow warning escapes."""
        g = make_grid(2)
        huge = op(1e300 * np.eye(2), g)
        base = ArmaModel(
            OperatorPolynomial(g, (op(np.diag([0.3, 0.2]), g),)),
            OperatorPolynomial(g, (huge,)),
            huge,
        )
        model = FiarmaModel(base, FracIntegrationSpec(op(np.diag([0.3, 0.1]), g)))
        draws = []
        monkeypatch.setattr(fiarma_lab.simulate, "_standard_block", lambda *a: draws.append(a))
        with pytest.raises(OverflowError, match="simulation filter overflows"):
            simulate_fiarma(model, SimConfig(T=256, K_trunc=64, seed=7), force=True)
        assert not draws

    def test_truncation_diagnostics_present(self):
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.3))
        path = simulate_fiarma(model, SimConfig(T=64, seed=1, K_trunc=128))
        assert path.meta["coeff_tail_norm"] > 0


def fi_partial_sum_variance(d, t_len):
    """Exact ``Var(S_T)`` of ``S_T = X_1 + ... + X_T`` for FI(d) with unit
    innovation variance: ``Gamma(1-2d) / ((1+2d) Gamma(1+d) Gamma(1-d))``
    times ``Gamma(T+1+d)/Gamma(T-d) - Gamma(1+d)/Gamma(-d)``, with
    ``Gamma(-d) = -Gamma(1-d)/d`` so that every gamma has a positive argument."""
    lg = math.lgamma
    scale = math.exp(lg(1.0 - 2.0 * d) - lg(1.0 + d) - lg(1.0 - d)) / (1.0 + 2.0 * d)
    growth = math.exp(lg(t_len + 1.0 + d) - lg(t_len - d))
    return scale * (growth + d * math.exp(lg(1.0 + d) - lg(1.0 - d)))


def hosking_partial_sum_variance(d, t_len):
    """``sum_{|h|<T} (T-|h|) gamma(h)`` over Hosking's (1981) autocovariances
    ``gamma(0) = Gamma(1-2d)/Gamma(1-d)^2``, ``gamma(h) = gamma(h-1) (h-1+d)/(h-d)``."""
    gamma = [math.gamma(1.0 - 2.0 * d) / math.gamma(1.0 - d) ** 2]
    for h in range(1, t_len):
        gamma.append(gamma[-1] * (h - 1 + d) / (h - d))
    return math.fsum([t_len * gamma[0]] + [2.0 * (t_len - h) * gamma[h] for h in range(1, t_len)])


# d, T, K_trunc: the truncated MA keeps 53% and 59% of the exact Var(S_T)
PARTIAL_SUM_SIZES = [(0.4, 1024, 2048), (0.3, 4096, 2048)]
PARTIAL_SUM_REPS = 1000


@functools.cache
def mean_square_partial_sum(d, t_len, k_trunc):
    """Mean of ``|S_T|^2`` over the fixed-seed replications of scalar white
    FIARMA (n = 1, Sigma = 1)."""
    g = scalar_grid()
    model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, d))
    sums = [
        simulate_fiarma(model, SimConfig(T=t_len, K_trunc=k_trunc, seed=11, replication=r))
        .values.sum()
        for r in range(PARTIAL_SUM_REPS)
    ]
    return float(np.mean(np.abs(sums) ** 2))


class TestPartialSumVariance:
    """Long memory lives in partial sums: ``Var(S_T)`` grows like
    ``T^{1+2d}``.  A Gaussian S_T has ``Var(|S_T|^2) = 2 Var(S_T)^2`` (real
    noise), so the replications' mean square has the relative standard
    error ``sqrt(2/R)``; each band is 4 of them."""

    BAND = 4.0 * math.sqrt(2.0 / PARTIAL_SUM_REPS)

    @pytest.mark.parametrize("d", [0.3, 0.4, 0.45])
    def test_closed_form_is_hoskings_sum(self, d):
        exact = fi_partial_sum_variance(d, 100)
        assert abs(exact / hosking_partial_sum_variance(d, 100) - 1.0) <= 1e-13

    @pytest.mark.parametrize("d, t_len, k_trunc", PARTIAL_SUM_SIZES)
    def test_matches_the_truncated_law(self, d, t_len, k_trunc):
        """A path is the truncated MA ``sum_{k<=K} psi_k eps_{t-k}``, so
        ``S_T = sum_s c_s eps_s`` with ``c = psi * 1_T`` and
        ``Var(S_T) = sum_s |c_s|^2``: the plan's taps, pinned."""
        psi = frac_ma_coeffs(FracIntegrationSpec.scalar(scalar_grid(), d), k_trunc).data[:, 0, 0]
        c = np.convolve(psi, np.ones(t_len))
        truncated = float(np.sum(np.abs(c) ** 2))
        assert truncated < 0.6 * fi_partial_sum_variance(d, t_len)
        mean = mean_square_partial_sum(d, t_len, k_trunc)
        assert abs(mean / truncated - 1.0) <= self.BAND

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 3: the truncated MA loses 41-47% of Var(S_T) here; "
        "exact (circulant) simulation is still open",
    )
    @pytest.mark.parametrize("d, t_len, k_trunc", PARTIAL_SUM_SIZES)
    def test_matches_the_exact_law(self, d, t_len, k_trunc):
        mean = mean_square_partial_sum(d, t_len, k_trunc)
        assert abs(mean / fi_partial_sum_variance(d, t_len) - 1.0) <= self.BAND


class TestSimulateDuker:
    def test_entry_refuses_an_object_that_is_not_a_model(self):
        """The one entry takes the three model families, and nothing else:
        not even a model's spec, which has a grid."""
        g = make_grid(2)
        message = "^simulate_fiarma takes .* or a PowerLawModel, not FracIntegrationSpec$"
        with pytest.raises(TypeError, match=message):
            simulate_fiarma(FracIntegrationSpec.scalar(g, 0.7), SimConfig(T=8))

    def test_seed_determinism(self):
        g = make_grid(2)
        n_op = op(0.7 * np.eye(2), g)
        cfg = SimConfig(T=512, seed=14, K_trunc=256)
        assert np.array_equal(
            simulate_fiarma(power_law_model(n_op, identity(g)), cfg).values,
            simulate_fiarma(power_law_model(n_op, identity(g)), cfg).values,
        )

    def test_harmonic_weights_manual_oracle(self):
        g = scalar_grid()
        n_op = op(np.eye(1), g)
        cfg = SimConfig(T=128, seed=15, K_trunc=32)
        path = simulate_fiarma(power_law_model(n_op, identity(g)), cfg, force=True)
        # white noise on the same block: its T + K_trunc rows
        noise = simulate_fiarma(white_model(g), SimConfig(T=160, seed=15, K_trunc=0))
        # reconstruct y_T-1 from returned noise rows: weights 1/(k+1), k <= K_trunc
        t = 127
        manual = sum(noise.values[t + 32 - k, 0] / (k + 1) for k in range(0, 33))
        assert abs(path.values[t, 0] - manual) < 1e-10

    def test_matches_direct_sum_with_correlated_noise(self):
        """``y_t = sum_k (k+1)^{-N} eps_{t-k}`` over the white-noise rows of
        the same noise block, with a non-diagonal ``Sigma`` and ``N``."""
        g = make_grid(2)
        c, s = np.cos(0.4), np.sin(0.4)
        rot = np.array([[c, -s], [s, c]])
        exps = np.array([0.7, 0.9])
        sigma = op([[1.0, 0.6], [0.6, 0.8]], g)
        k_trunc, t_len = 24, 64
        cfg = SimConfig(T=t_len, K_trunc=k_trunc, seed=21, replication=1)
        path = simulate_fiarma(power_law_model(op(rot @ np.diag(exps) @ rot.T, g), sigma), cfg)
        eps_cfg = SimConfig(T=t_len + k_trunc, K_trunc=0, seed=21, replication=1)
        eps = simulate_fiarma(white_model(g, sigma), eps_cfg).values
        want = np.zeros((t_len, 2), dtype=complex)
        for k in range(k_trunc + 1):
            weight = rot @ np.diag((k + 1.0) ** -exps) @ rot.T
            want += eps[k_trunc - k : k_trunc - k + t_len] @ weight.T
        assert rel_diff(path.values, want) <= 1e-13

    def test_condition_refusal_and_force(self):
        g = make_grid(2)
        n_op = op(0.5 * np.eye(2), g)
        model = power_law_model(n_op, identity(g))
        with pytest.raises(ExistenceRefusal):
            simulate_fiarma(model, SimConfig(T=32, seed=1))
        path = simulate_fiarma(model, SimConfig(T=32, seed=1), force=True)
        assert path.t_len == 32

    def test_exponent_off_the_innovations_support_holds(self):
        """N = diag(0.3, 0.8) with Sigma = diag(0, 1): the exponent that fails
        carries no innovation, so the path holds and equals the forced one."""
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.3, 0.8]), g), op(np.diag([0.0, 1.0]), g))
        cfg = SimConfig(T=32, seed=1, K_trunc=16)
        path = simulate_fiarma(model, cfg)
        assert path.meta["existence"] == "holds"
        forced = simulate_fiarma(model, cfg, force=True)
        assert np.array_equal(path.values, forced.values) and not path.values[:, 0].any()

    def test_model_refuses_an_arma_part(self):
        g = scalar_grid()
        with pytest.raises(ValueError, match="no AR or MA part"):
            PowerLawModel(ar1_model(g), FracIntegrationSpec.scalar(g, 0.7))

    def test_model_takes_an_explicit_zero_ar_term(self):
        """A zero AR matrix is trimmed, so the base has degree 0: the model
        takes it and simulates the path of the base without an AR term."""
        g = make_grid(2)
        zero_ar = ArmaModel(OperatorPolynomial.scalar(g, 0.0), OperatorPolynomial(g), identity(g))
        assert zero_ar.phi.degree == 0 and zero_ar.is_white_noise()
        cfg = SimConfig(T=64, seed=3, K_trunc=16)
        model = PowerLawModel(zero_ar, FracIntegrationSpec.scalar(g, 0.7))
        got = simulate_fiarma(model, cfg)
        want = simulate_fiarma(power_law_model(op(0.7 * np.eye(2), g), identity(g)), cfg)
        assert sim_plan(model).rows == cfg.T + cfg.K_trunc
        assert got.meta == want.meta and np.array_equal(got.values, want.values)

    def test_exponent_decomposed_once(self, eig_calls):
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.7, 0.8]), g), identity(g))
        simulate_fiarma(model, SimConfig(T=32, seed=1, K_trunc=16))
        assert len(eig_calls) == 1

    def test_autocovariance_decay_slope(self):
        # scalar power-law weights (k+1)^{-0.7}: lag autocovariance decays
        # like h^{-0.4}; fit the log-log slope over h in [10, 500]
        g = scalar_grid()
        n_op = op(0.7 * np.eye(1), g)
        cfg = SimConfig(T=200_000, seed=16, K_trunc=4096)
        path = simulate_fiarma(power_law_model(n_op, identity(g)), cfg)
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
            power_law_model(op(np.eye(2), g), identity(g)), SimConfig(T=256, seed=18, K_trunc=64)
        )
        assert check.residual < 1e-8

    def test_scalar_case(self):
        g = scalar_grid()
        check = verify_longmemory_decomposition(
            power_law_model(op(0.7 * np.eye(1), g), identity(g)),
            SimConfig(T=2000, seed=19, K_trunc=500),
        )
        assert check.residual < 1e-8
        assert check.rho == pytest.approx(0.7)

    def test_normal_two_by_two(self, rng):
        g = make_grid(2)
        u = random_unitary(rng, 2)
        n_mat = u.conj().T @ (np.array([0.6, 0.8])[:, None] * u)
        check = verify_longmemory_decomposition(
            power_law_model(op(n_mat, g), identity(g)), SimConfig(T=2000, seed=20, K_trunc=500)
        )
        assert check.residual < 1e-8
        sums = check.partial_sums
        # Cauchy tail: the last half contributes little
        assert sums[-1] - sums[len(sums) // 2] < 1e-2 * sums[-1]

    def test_residual_sees_wrong_frame_binomials(self, rng, monkeypatch):
        """Path A takes its binomials from the dense recursion on ``Id - N``,
        so an error in the per-eigenvalue binomials, wherever the library
        uses them, shows in the residual."""
        g = make_grid(2)
        u = random_unitary(rng, 2)
        n_op = op(u.conj().T @ (np.array([0.6, 0.8])[:, None] * u), g)
        model = power_law_model(n_op, identity(g))
        cfg = SimConfig(T=256, seed=20, K_trunc=64)
        assert verify_longmemory_decomposition(model, cfg).residual < 1e-12
        real = fiarma_lab.transfer._binomial_scalars

        def shifted(shift, order, name):
            return real(shift + 1e-3, order, name)

        for module in (fiarma_lab.transfer, fiarma_lab.simulate):
            monkeypatch.setattr(module, "_binomial_scalars", shifted, raising=False)
        assert verify_longmemory_decomposition(model, cfg).residual > 1e-6

    def test_only_the_remainder_sees_a_wrong_matching_constant(self, monkeypatch):
        """Path B is ``C Y + Z`` with ``Delta_k = b_k - C (k+1)^{-N}``, the
        path of the frame's binomials for any ``C``: a wrong ``C`` leaves the
        residual at rounding, and shows in the remainder norms' tail."""
        g = make_grid(2)
        model = power_law_model(op([[0.7, 0.05], [0.05, 0.8]], g), identity(g))
        cfg = SimConfig(T=256, seed=3, K_trunc=128)
        right = verify_longmemory_decomposition(model, cfg)
        real = fiarma_lab.transfer._rgamma
        monkeypatch.setattr(fiarma_lab.transfer, "_rgamma", lambda z: 2.0 * real(z) + 0.3)
        wrong = verify_longmemory_decomposition(model, cfg)
        assert max(right.residual, wrong.residual) < 1e-13
        assert right.delta_norms[-1] < 1e-4 < 1e-2 < wrong.delta_norms[-1]
        assert right.to_dict()["delta_norm_tail_fraction"] < 0.01
        assert wrong.to_dict()["delta_norm_tail_fraction"] > 0.1

    @pytest.mark.parametrize("family", ["fiarma", "arma"])
    def test_refuses_a_model_without_power_law_memory(self, family):
        model = fiarma_2x2() if family == "fiarma" else white_model(make_grid(2))
        message = f"^verify_longmemory_decomposition takes a PowerLawModel, not {type(model).__name__}$"
        with pytest.raises(TypeError, match=message):
            verify_longmemory_decomposition(model, SimConfig(T=16, seed=1, K_trunc=8))

    def test_exponent_decomposed_once(self, eig_calls):
        g = make_grid(2)
        verify_longmemory_decomposition(
            power_law_model(op(np.diag([0.7, 0.8]), g), identity(g)),
            SimConfig(T=64, seed=1, K_trunc=32),
        )
        assert len(eig_calls) == 1

    def test_force_bypasses_failing_conditions(self):
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.3, 0.8]), g), identity(g))
        cfg = SimConfig(T=64, seed=1, K_trunc=32)
        assert verify_longmemory_decomposition(model, cfg, force=True).residual < 1e-12
        with pytest.raises(ExistenceRefusal):
            verify_longmemory_decomposition(model, cfg)

    def test_refuses_failing_conditions(self):
        g = make_grid(2)
        with pytest.raises(ExistenceRefusal):
            verify_longmemory_decomposition(
                power_law_model(op(0.3 * np.eye(2), g), identity(g)), SimConfig(T=64, seed=1)
            )


class TestNotNormalExponent:
    """An N that passes the commutator test but has no unitary frame: its
    eigenvalue repeats, so the commutator is quadratic in the 1e-7 entry
    while the frame's reconstruction error is linear in it."""

    def frameless(self):
        g = make_grid(2)
        return op([[0.3, 1e-7], [0.0, 0.3]], g), identity(g)

    def test_duker_decomposition(self):
        n_op, _ = self.frameless()
        with pytest.raises(NotNormalError):
            duker_decomposition(FracIntegrationSpec(n_op), 8)

    def test_check_duker_conditions(self):
        n_op, sigma = self.frameless()
        with pytest.raises(NotNormalError):
            check_duker_conditions(power_law_model(n_op, sigma))

    def test_simulate_duker(self):
        """The weights need no frame, so the path is the forced one, marked
        ``unchecked``."""
        n_op, sigma = self.frameless()
        cfg = SimConfig(T=16, seed=1, K_trunc=8)
        path = simulate_fiarma(power_law_model(n_op, sigma), cfg)
        assert path.meta["existence"] == "unchecked (memory operator not normal)"
        forced = simulate_fiarma(power_law_model(n_op, sigma), cfg, force=True)
        assert np.array_equal(path.values, forced.values)

    def test_verify_longmemory_decomposition(self):
        n_op, sigma = self.frameless()
        with pytest.raises(NotNormalError):
            verify_longmemory_decomposition(
                power_law_model(n_op, sigma), SimConfig(T=16, seed=1, K_trunc=8)
            )

    def test_refusal_keeps_the_reason(self):
        """The exponent passes the commutator test, and the refusal of what
        needs its frame says which check of its eigenframe failed."""
        n_op, sigma = self.frameless()
        reason = "unitary diagonalization leaves reconstruction error 1.000e-07"
        with pytest.raises(NotNormalError, match=f"^operator not normal: {reason}$"):
            verify_longmemory_decomposition(
                power_law_model(n_op, sigma), SimConfig(T=16, seed=1, K_trunc=8)
            )


def recursion_arma(model, cfg, kind, rows, lead=0):
    """Reference ARMA path: the per-step MA-then-AR recursion from zero
    starts over the ``rows - T`` noise rows before the path, on the same
    block of ``rows`` rows, which the white path of that length draws."""
    pre = rows - cfg.T
    block = SimConfig(
        T=rows,
        K_trunc=0,
        seed=cfg.seed,
        replication=cfg.replication,
        noise_kind=kind,
    )
    noise = simulate_fiarma(white_model(model.grid, model.sigma), block).values
    eps = noise.copy()
    for k, b in enumerate(model.theta.stacked(), start=1):
        eps[k:] += noise[:-k] @ b.T
    x = np.zeros_like(eps)
    phis = model.phi.stacked()
    for t in range(x.shape[0]):
        acc = eps[t]
        for j in range(1, min(len(phis), t) + 1):
            acc = acc + x[t - j] @ phis[j - 1].T
        x[t] = acc
    return x[pre - lead :]


def recursion_fiarma(model, cfg, kind, rows):
    """Reference fractional path: the recursion's ARMA rows with ``K_trunc``
    lead rows on the block of ``rows`` rows, then the direct sum
    ``sum_k C_k x_{t-k}``."""
    k_trunc = cfg.K_trunc
    x = recursion_arma(model.base, cfg, kind, rows, lead=k_trunc)
    coeffs = frac_ma_coeffs(model.D, k_trunc).data
    y = np.zeros((cfg.T, model.grid.n), dtype=complex)
    for k in range(k_trunc + 1):
        y += x[k_trunc - k : k_trunc - k + cfg.T] @ coeffs[k].T
    return y


def rel_diff(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def mc_model():
    """The fixed 4x4 FIARMA(1,d,1) model of the Monte Carlo acceptance test."""
    rng = np.random.default_rng(7)
    g4 = make_grid(4)
    u = random_unitary(rng, 4)
    d_op = op(u.conj().T @ (np.array([0.1, 0.35, 0.2, -0.1])[:, None] * u), g4)
    a1 = rng.normal(size=(4, 4))
    a1 *= 0.3 / np.linalg.norm(a1, 2)
    b1 = rng.normal(size=(4, 4))
    b1 *= 0.4 / np.linalg.norm(b1, 2)
    m = rng.normal(size=(4, 4))
    sigma = op(m @ m.T / 4 + 0.3 * np.eye(4), g4)
    base = ArmaModel(
        OperatorPolynomial(g4, (op(a1, g4),)), OperatorPolynomial(g4, (op(b1, g4),)), sigma
    )
    return FiarmaModel(base, FracIntegrationSpec(d_op))


def transient_ar2():
    g = make_grid(3)
    a1 = np.array([[0.5, 4.0, 0.0], [0.0, 0.5, 4.0], [0.0, 0.0, 0.5]])
    phi = OperatorPolynomial(g, (op(a1, g), op(0.1 * np.eye(3), g)))
    return ArmaModel(phi, OperatorPolynomial(g), identity(g))


def complex_arma11(rng):
    g = make_grid(2)
    a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a1 *= 0.6 / np.linalg.norm(a1, 2)
    b1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma = op(m @ m.conj().T + 0.5 * np.eye(2), g)
    return ArmaModel(
        OperatorPolynomial(g, (op(a1, g),)), OperatorPolynomial(g, (op(b1, g),)), sigma
    )


def ma2_model(rng):
    g = make_grid(3)
    b = [op(0.5 * rng.normal(size=(3, 3)), g) for _ in range(2)]
    return ArmaModel(OperatorPolynomial(g), OperatorPolynomial(g, tuple(b)), identity(g))


class TestFilterOracle:
    """The FFT filter against the per-step recursion from zero, started on
    the first row of the path's own block."""

    @pytest.mark.parametrize(
        "case, kind",
        [
            ("transient", "auto"),
            ("near-unit-root", "auto"),
            ("complex", "complex-gaussian"),
            ("ma2", "auto"),
        ],
    )
    def test_arma_matches_recursion(self, rng, case, kind):
        model = {
            "transient": transient_ar2,
            "near-unit-root": lambda: ar1_model(scalar_grid(), 0.99),
            "complex": lambda: complex_arma11(rng),
            "ma2": lambda: ma2_model(rng),
        }[case]()
        cfg = SimConfig(T=512, K_trunc=24, seed=41, noise_kind=kind)
        path = simulate_fiarma(model, cfg)
        want = recursion_arma(model, cfg, path.meta["noise_kind"], sim_plan(model).rows)
        assert path.values.shape == want.shape
        assert rel_diff(path.values, want) <= 1e-12

    def test_transient_growth_is_exercised(self):
        a1 = transient_ar2().phi.coeffs[0].entries
        assert max(np.abs(np.linalg.eigvals(a1))) < 1.0
        assert max(operator_norm(np.linalg.matrix_power(a1, k)) for k in range(8)) > 10.0

    def test_real_models_give_real_paths(self):
        g = scalar_grid()
        cfg = SimConfig(T=256, K_trunc=32, seed=3)
        fractional = FiarmaModel(ar1_model(g, 0.5), FracIntegrationSpec.scalar(g, 0.3))
        for path in (simulate_fiarma(transient_ar2(), cfg), simulate_fiarma(fractional, cfg)):
            assert np.all(path.values.imag == 0.0)

    def test_complex_noise_kind_kept(self, rng):
        cfg = SimConfig(T=64, seed=2, noise_kind="complex-gaussian")
        path = simulate_fiarma(complex_arma11(rng), cfg)
        assert path.meta["noise_kind"] == "complex-gaussian"
        assert np.abs(path.values.imag).max() > 0

    @pytest.mark.parametrize("kind", ["real-gaussian", "complex-gaussian"])
    def test_white_base_fiarma_matches_recursion(self, counted, kind):
        """A white base's tap ``Sigma^{1/2}``, here correlated, is folded into
        the memory factor: one stacked transform, and the recursion's path."""
        stack_calls = counted("_fft_stack")
        g = make_grid(2)
        sigma = op([[1.0, 0.6], [0.6, 0.5]], g)
        base = ArmaModel(OperatorPolynomial(g), OperatorPolynomial(g), sigma)
        model = FiarmaModel(base, FracIntegrationSpec(op([[0.3, 0.1], [0.1, 0.2]], g)))
        cfg = SimConfig(T=256, K_trunc=64, seed=8, noise_kind=kind)
        path = simulate_fiarma(model, cfg, force=True)
        assert len(stack_calls) == 1
        want = recursion_fiarma(model, cfg, kind, sim_plan(model).rows)
        assert rel_diff(path.values, want) <= 1e-12

    @pytest.mark.parametrize(
        "family, kind", [("power-law", "complex-gaussian"), ("fractional", "real-gaussian")]
    )
    def test_auto_noise_rule(self, family, kind):
        """``auto`` follows N and Sigma for a power-law model, and the base
        alone for a fractional one: a complex Hermitian N draws complex
        noise, a complex Hermitian D on a real base draws real noise."""
        g = make_grid(2)
        sigma = op([[1.0, 0.2], [0.2, 0.5]], g)
        cfg = SimConfig(T=64, K_trunc=16, seed=4)
        if family == "power-law":
            path = simulate_fiarma(power_law_model(op([[0.75, 0.1j], [-0.1j, 0.8]], g), sigma), cfg)
        else:
            base = ArmaModel(OperatorPolynomial.scalar(g, 0.5), OperatorPolynomial(g), sigma)
            d_op = op([[0.25, 0.1j], [-0.1j, 0.3]], g)
            path = simulate_fiarma(FiarmaModel(base, FracIntegrationSpec(d_op)), cfg, force=True)
        assert path.meta["noise_kind"] == kind

    def test_zero_truncation_row_sees_both_taps(self):
        """``K_trunc = 0`` keeps the two taps ``Id, D``, and every row, the
        first included, sees both: the block is the white path of ``T + 1``
        rows."""
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.3))
        path = simulate_fiarma(model, SimConfig(T=8, K_trunc=0, seed=6))
        noise = simulate_fiarma(white_model(g), SimConfig(T=9, K_trunc=0, seed=6)).values[:, 0]
        want = noise[1:] + 0.3 * noise[:-1]
        assert np.abs(path.values[:, 0] - want).max() <= 1e-12

    def test_mc_fiarma_matches_recursion(self):
        """A complex filter applied to real noise goes through the half-length
        transform and the Hermitian rebuild; complex noise takes the full one."""
        model = mc_model()
        for kind in ("real-gaussian", "complex-gaussian"):
            cfg = SimConfig(T=1024, K_trunc=256, seed=2000, replication=3, noise_kind=kind)
            path = simulate_fiarma(model, cfg)
            plan = sim_plan(model)
            assert np.abs(plan.filter_fft.imag).max() > 0
            assert rel_diff(path.values, recursion_fiarma(model, cfg, kind, plan.rows)) <= 1e-12


def direct_filter(model, k_trunc):
    """The coefficients of the model's filter, built here from the model's
    matrices: the memory factor's (the binomial recursion of ``(1 - z)^{-D}``
    at ``max(K_trunc, 1)``, or ``expm(-log(k+1) N)``), times the base's
    ``psi_k = B_k + sum_j A_j psi_{k-j}`` for the ``_ar_impulse`` rows
    plus ``q``, times ``Sigma^{1/2}``."""
    base, n = model.base, model.grid.n
    vals, vecs = np.linalg.eigh(base.sigma.entries)
    root = vecs @ (np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.conj().T)
    a, b = base.phi.stacked(), base.theta.stacked()
    psi_len = len(fiarma_lab.simulate._ar_impulse(base.phi)) + len(b)
    psi = np.zeros((psi_len, n, n), dtype=complex)
    for k in range(psi_len):
        psi[k] = np.eye(n) if k == 0 else (b[k - 1] if k <= len(b) else 0.0)
        for j in range(1, min(len(a), k) + 1):
            psi[k] += a[j - 1] @ psi[k - j]
    if isinstance(model, PowerLawModel):
        n_mat = model.N.D.entries
        memory = [scipy.linalg.expm(-np.log(k + 1.0) * n_mat) for k in range(k_trunc + 1)]
    elif isinstance(model, FiarmaModel):
        d_mat = model.D.D.entries
        memory = [np.eye(n, dtype=complex)]
        for k in range(1, max(k_trunc, 1) + 1):
            memory.append(memory[-1] @ (d_mat + (k - 1) * np.eye(n)) / k)
    else:
        memory = [np.eye(n, dtype=complex)]
    coeffs = np.zeros((len(memory) + psi_len - 1, n, n), dtype=complex)
    for i, m_i in enumerate(memory):
        coeffs[i : i + psi_len] += m_i @ psi
    return coeffs @ root


def white_base_fiarma():
    g = make_grid(2)
    base = ArmaModel(OperatorPolynomial(g), OperatorPolynomial(g), op([[1.0, 0.6], [0.6, 0.5]], g))
    return FiarmaModel(base, FracIntegrationSpec(op([[0.3, 0.1], [0.1, 0.2]], g)))


# Each family, non-white bases and a K_trunc = 0 memory factor among them.
OWN_BLOCK_CASES = {
    "arma": (lambda: complex_arma11(np.random.default_rng(3)), 16),
    "fiarma": (mc_model, 32),
    "fiarma-k0": (mc_model, 0),
    "fiarma-white-k0": (white_base_fiarma, 0),
    "power-law": (lambda: power_law_2x2(), 24),
}


class TestOwnBlock:
    @pytest.mark.parametrize("kind", ["real-gaussian", "complex-gaussian"])
    @pytest.mark.parametrize("case", OWN_BLOCK_CASES)
    def test_path_is_the_direct_sum_over_its_block(self, case, kind):
        """Row ``t`` is ``sum_{j < taps} C_j xi_{t + taps - 1 - j}`` over the
        ``T + taps - 1`` rows of its own ``(seed, replication)`` block: every
        row sees every tap, and no row of the block goes unread."""
        make, k_trunc = OWN_BLOCK_CASES[case]
        model = make()
        cfg = SimConfig(T=40, K_trunc=k_trunc, seed=11, replication=2, noise_kind=kind)
        path = simulate_fiarma(model, cfg)
        coeffs = direct_filter(model, k_trunc)
        taps = len(coeffs)
        rows = sim_plan(model).rows
        assert rows == cfg.T + taps - 1
        xi = fiarma_lab.simulate._standard_block(11, 2, rows, model.grid.n, kind)
        want = np.zeros((cfg.T, model.grid.n), dtype=complex)
        for j in range(taps):
            want += xi[taps - 1 - j : taps - 1 - j + cfg.T] @ coeffs[j].T
        assert rel_diff(path.values, want) <= 1e-12


class TestBlockRows:
    """A path draws the ``T + taps - 1`` noise rows that its filter reads: an
    AR(1) response runs until it falls to rounding, longer as ``a`` nears 1."""

    @pytest.mark.parametrize("a, psi_len", [(0.15, 23), (0.9, 396), (0.99, 4140)])
    def test_ar1_rows_follow_the_response(self, counted, a, psi_len):
        block_calls = counted("_standard_block")
        model = ar1_model(scalar_grid(), a)
        simulate_fiarma(model, SimConfig(T=64, seed=1))
        assert len(fiarma_lab.simulate._ar_impulse(model.phi)) == psi_len
        assert sim_plan(model).rows == block_calls[0][2] == 64 + psi_len - 1

    def test_mc_model_rows(self, counted):
        """The ARMA(1, 1) base has ``23 + 1`` taps, the memory factor ``K_trunc + 1``."""
        block_calls = counted("_standard_block")
        simulate_fiarma(mc_model(), SimConfig(T=64, K_trunc=16, seed=1))
        assert block_calls[0][2] == 64 + (16 + 1) + (23 + 1) - 2

    @pytest.mark.parametrize("k_trunc", [0, 16, 2048])
    def test_arma_rows_ignore_the_truncation(self, counted, rng, k_trunc):
        """An ARMA path has no memory factor to truncate: it draws
        ``T + len(psi) - 1`` rows whatever ``K_trunc`` is."""
        block_calls = counted("_standard_block")
        model = complex_arma11(rng)
        simulate_fiarma(model, SimConfig(T=100, K_trunc=k_trunc, seed=1))
        psi_len = len(fiarma_lab.simulate._ar_impulse(model.phi)) + model.theta.degree
        assert [call[2] for call in block_calls] == [100 + psi_len - 1]


class TestFftHelpers:
    def test_next_fast_len_matches_scipy(self):
        """The real-transform lengths: numpy's rfft has no radix-7 or -11 pass."""
        lengths = [fiarma_lab.simulate._next_fast_len(n) for n in range(1, 20_001)]
        assert lengths == [scipy.fft.next_fast_len(n, real=True) for n in range(1, 20_001)]

    def test_next_fast_len_of_large_targets(self):
        """The search is over the 5-smooth numbers, not a scan of integers:
        a target near 1e18, or with 401 digits, is answered at once."""
        rng = np.random.default_rng(15)
        targets = [int(t) for e in range(5, 19) for t in rng.integers(1, 10**e, 20)]
        lengths = [fiarma_lab.simulate._next_fast_len(t) for t in targets]
        assert lengths == [scipy.fft.next_fast_len(t, real=True) for t in targets]
        target = 10**400 + 1
        m = fiarma_lab.simulate._next_fast_len(target)
        rest = m
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        assert rest == 1 and target <= m < 2 * target

    @pytest.mark.parametrize("t_len, k_trunc", [(4096, 1024), (1024, 2048), (100, 32)])
    def test_plans_use_5_smooth_lengths(self, counted, t_len, k_trunc):
        stack_calls = counted("_fft_stack")
        cfg = SimConfig(T=t_len, K_trunc=k_trunc, seed=3)
        simulate_fiarma(mc_model(), cfg)
        simulate_fiarma(mc_model().base, cfg)
        g = make_grid(2)
        simulate_fiarma(power_law_model(op(0.7 * np.eye(2), g), identity(g)), cfg)
        lengths = [args[1] for args in stack_calls]
        assert len(lengths) == 4  # two for the fractional plan
        assert lengths == [scipy.fft.next_fast_len(m, real=True) for m in lengths]

    def test_stacked_fft_matches_time_axis_fft(self, rng):
        ops = rng.normal(size=(37, 3, 3)) + 1j * rng.normal(size=(37, 3, 3))
        got = fiarma_lab.simulate._fft_stack(ops, 60)
        want = np.fft.fft(ops, 60, axis=0).transpose(1, 2, 0)
        assert got.shape == (3, 3, 60) and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestFilterPlanCache:
    def test_model_is_a_plain_value(self):
        """The Monte Carlo model pickles to the same bytes before and after a
        replication at the benchmark's sizes: the simulator, not the model,
        keeps the plan and the verdict."""
        model = mc_model()
        before = pickle.dumps(model)
        simulate_fiarma(model, SimConfig(T=4096, K_trunc=1024, seed=7))
        assert pickle.dumps(model) == before and len(before) < 10_000
        assert sim_plan(model) is not None

    def test_state_is_dropped_with_the_model(self):
        model = mc_model()
        simulate_fiarma(model, SimConfig(T=128, K_trunc=32, seed=5))
        model_ref = weakref.ref(model)
        state_ref = weakref.ref(fiarma_lab.simulate._STATES[model])
        del model
        gc.collect()
        assert model_ref() is None and state_ref() is None

    def test_warm_plans_match_cold(self):
        makers = [
            mc_model,
            lambda: FiarmaModel(
                complex_arma11(np.random.default_rng(3)),
                FracIntegrationSpec.scalar(make_grid(2), 0.2),
            ),
        ]
        warm_models = [make() for make in makers]
        cfgs = [
            SimConfig(T=128, K_trunc=32, seed=5),
            SimConfig(T=96, K_trunc=48, seed=5, replication=2),
        ]
        for _ in range(2):
            for cfg in cfgs:
                for model, make in zip(warm_models, makers):
                    warm = simulate_fiarma(model, cfg)
                    cold = simulate_fiarma(make(), cfg)
                    assert np.array_equal(warm.values, cold.values)
                    assert warm.meta == cold.meta

    def test_fixed_model_work_done_once(self, counted):
        coeff_calls = counted("frac_ma_coeffs")
        check_calls = counted("check_conditions")
        model = mc_model()
        for r in range(3):
            simulate_fiarma(model, SimConfig(T=128, K_trunc=32, seed=5, replication=r))
        assert len(coeff_calls) == 1
        assert len(check_calls) == 1

    def test_warm_replication_makes_no_extra_pass(self, monkeypatch, counted, two_cpus):
        """Warm Monte Carlo replications (path, then its periodogram) run, over
        both threads, one ``rfft`` and one ``ifft`` for each path and one
        ``fft`` for each periodogram; each path's block is drawn and its
        filtered spectrum made once, and the noise kind is never re-decided.
        Replication 1's spectrum is made on the calling thread, 2's and 3's
        ahead, and every inverse FFT runs on the calling thread."""
        fft_calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            real = getattr(np.fft, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                fft_calls.append((_name, threading.current_thread() is threading.main_thread()))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        model = mc_model()
        freqs = fourier_frequencies(256)
        periodogram(simulate_fiarma(model, SimConfig(T=256, K_trunc=64, seed=5)), freqs)
        fft_calls.clear()
        block_calls = counted("_standard_block")
        spectrum_calls = counted("_filtered_spectrum")
        kind_calls = counted("_resolve_noise_kind")
        for rep in (1, 2):
            path = simulate_fiarma(model, SimConfig(T=256, K_trunc=64, seed=5, replication=rep))
            periodogram(path, freqs)
            assert path.meta["noise_kind"] == "real-gaussian"
        assert wait_ahead(model)[1] == 3
        on_main = [name for name, main in fft_calls if main]
        off_main = [name for name, main in fft_calls if not main]
        assert sorted(on_main) == ["fft", "fft", "ifft", "ifft", "rfft"]
        assert sorted(off_main) == ["rfft", "rfft"]
        assert sorted(call[1] for call in block_calls) == [1, 2, 3]
        assert len(spectrum_calls) == 3
        assert kind_calls == []

    def test_warm_replication_calls_no_blas_dot(self, monkeypatch):
        """A BLAS dot product above its threading threshold wakes the BLAS
        thread pool, whose worker then spins on another core."""
        calls = []
        for name in ("vdot", "dot"):
            real = getattr(np, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        model = mc_model()
        freqs = fourier_frequencies(4096)
        periodogram(simulate_fiarma(model, SimConfig(T=4096, K_trunc=64, seed=5)), freqs)
        calls.clear()
        path = simulate_fiarma(model, SimConfig(T=4096, K_trunc=64, seed=5, replication=1))
        periodogram(path, freqs)
        assert calls == []

    def test_power_law_model_work_done_once(self, monkeypatch, counted):
        """A power-law model decides its frame, weights and plan on the first
        call; every later replication only draws noise and convolves."""
        g = make_grid(2)
        n_op = op([[0.7, 0.05], [0.05, 0.8]], g)
        sigma = op([[1.0, 0.2], [0.2, 0.5]], g)
        model = power_law_model(n_op, sigma)
        cfgs = [SimConfig(T=128, K_trunc=64, seed=5, replication=r) for r in range(4)]
        simulate_fiarma(model, cfgs[0])
        plan = sim_plan(model)
        eig_calls = []
        for name in ("eig", "eigh"):
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                eig_calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        weight_calls = counted("power_law_weights")
        warm = [simulate_fiarma(model, cfg) for cfg in cfgs[1:]]
        assert eig_calls == [] and weight_calls == []
        assert sim_plan(model) is plan
        for cfg, path in zip(cfgs[1:], warm):
            cold = simulate_fiarma(power_law_model(n_op, sigma), cfg)
            assert np.array_equal(path.values, cold.values)
            assert path.meta == cold.meta

    def test_refusal_builds_no_plan(self, monkeypatch, counted):
        def no_plan(*args):
            raise AssertionError("filter plan built for a refused model")

        monkeypatch.setattr(fiarma_lab.simulate, "_filter_plan", no_plan)
        check_calls = counted("check_conditions")
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.6))
        for _ in range(2):
            with pytest.raises(ExistenceRefusal, match=r"existence condition \(ii\) fails"):
                simulate_fiarma(model, SimConfig(T=64, seed=1))
        assert len(check_calls) == 1

    def test_forced_run_never_checks(self, counted):
        check_calls = counted("check_conditions")
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.6))
        for r in range(2):
            simulate_fiarma(model, SimConfig(T=64, seed=1, replication=r), force=True)
        assert check_calls == []
        with pytest.raises(ExistenceRefusal):
            simulate_fiarma(model, SimConfig(T=64, seed=1))

    def test_non_normal_memory_unchecked_once(self, counted):
        check_calls = counted("check_conditions")
        g = make_grid(2)
        d_op = op([[0.2, 0.3], [0.0, 0.1]], g)
        model = FiarmaModel(white_model(g), FracIntegrationSpec(d_op))
        assert model.D.frame_error is not None
        for r in range(2):
            path = simulate_fiarma(model, SimConfig(T=64, K_trunc=16, seed=1, replication=r))
            assert path.meta["existence"] == "unchecked (memory operator not normal)"
        assert len(check_calls) == 1

    def test_power_law_verdict_decided_once(self, counted):
        """A failing exponent is checked on its first unforced call and
        refused with condition ``ii`` on every one, the decomposition check
        included; a forced run neither checks nor refuses."""
        check_calls = counted("check_duker_conditions")
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.3, 0.8]), g), identity(g))
        cfg = SimConfig(T=32, K_trunc=16, seed=1)
        assert simulate_fiarma(model, cfg, force=True).meta["existence"] == "forced"
        assert check_calls == []
        for run in (simulate_fiarma, verify_longmemory_decomposition, simulate_fiarma):
            with pytest.raises(ExistenceRefusal, match=r"existence condition \(ii\) fails") as err:
                run(model, cfg)
            assert str(err.value).startswith("existence condition (ii) fails for this model")
        assert len(check_calls) == 1

    def test_power_law_verdict_holds(self, counted):
        check_calls = counted("check_duker_conditions")
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.7, 0.8]), g), identity(g))
        for r in range(2):
            path = simulate_fiarma(model, SimConfig(T=32, K_trunc=16, seed=1, replication=r))
            assert path.meta["existence"] == "holds"
        assert len(check_calls) == 1

    def test_frameless_exponent_unchecked_once(self, counted):
        check_calls = counted("check_duker_conditions")
        g = make_grid(2)
        model = power_law_model(op([[0.3, 1e-7], [0.0, 0.3]], g), identity(g))
        for r in range(2):
            path = simulate_fiarma(model, SimConfig(T=16, K_trunc=8, seed=1, replication=r))
            assert path.meta["existence"] == "unchecked (memory operator not normal)"
        assert len(check_calls) == 1

    def test_forced_path_matches_recursion(self):
        g = scalar_grid()
        model = FiarmaModel(ar1_model(g, 0.5), FracIntegrationSpec.scalar(g, 0.6))
        cfg = SimConfig(T=256, K_trunc=64, seed=9)
        path = simulate_fiarma(model, cfg, force=True)
        assert path.meta["existence"] == "forced"
        want = recursion_fiarma(model, cfg, "real-gaussian", sim_plan(model).rows)
        assert rel_diff(path.values, want) <= 1e-12

    def test_arma_plan_sized_for_its_path(self):
        """The block and the filter cover ``T + len(psi) - 1`` rows, not the
        ``K_trunc`` rows of pre-history, and the path still matches the
        recursion on the same noise block."""
        model = ar1_model(scalar_grid(), 0.5)
        cfg = SimConfig(T=200, K_trunc=64, seed=12)
        path = simulate_fiarma(model, cfg)
        psi_len = len(fiarma_lab.simulate._ar_impulse(model.phi))
        assert psi_len < 100
        plan = sim_plan(model)
        assert plan.rows == cfg.T + psi_len - 1
        assert plan.filter_fft.shape[-1] == fiarma_lab.simulate._next_fast_len(plan.rows)
        want = recursion_arma(model, cfg, "real-gaussian", plan.rows)
        assert path.values.shape == want.shape
        assert rel_diff(path.values, want) <= 1e-12


def digest(path):
    return hashlib.sha256(path.values.tobytes()).hexdigest()


def power_law_2x2():
    g = make_grid(2)
    return power_law_model(op([[0.7, 0.05], [0.05, 0.8]], g), op([[1.0, 0.2], [0.2, 0.5]], g))


def fiarma_2x2():
    return FiarmaModel(
        complex_arma11(np.random.default_rng(3)), FracIntegrationSpec.scalar(make_grid(2), 0.2)
    )


# A real and a complex ARMA and FIARMA model, and a power-law model.
AHEAD_MODELS = {
    "arma-real": lambda: ar1_model(make_grid(3), 0.5),
    "arma-complex": lambda: complex_arma11(np.random.default_rng(3)),
    "fiarma-real": mc_model,
    "fiarma-complex": fiarma_2x2,
    "power-law": power_law_2x2,
}


OTHER_KIND = {"real-gaussian": "complex-gaussian", "complex-gaussian": "real-gaussian"}


@pytest.fixture
def two_cpus(monkeypatch):
    """The process may run on two CPUs, whatever the machine gives it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def drawing_threads(monkeypatch):
    """Each ``(replication, calling thread is the main thread)`` of a noise
    draw, recorded through ``fiarma_lab.simulate._standard_block``."""
    draws = []
    real = fiarma_lab.simulate._standard_block

    def recording(*key):
        draws.append((key[1], threading.current_thread() is threading.main_thread()))
        return real(*key)

    monkeypatch.setattr(fiarma_lab.simulate, "_standard_block", recording)
    return draws


def wait_ahead(model):
    """Wait for the spectrum being made ahead for ``model``, if any, and return its block key."""
    ahead = fiarma_lab.simulate._STATES[model].ahead
    if not ahead:
        return None
    ahead_key, _, future, _ = ahead[0]
    future.exception(timeout=30)
    return ahead_key


class TestNoiseDrawnAhead:
    """A call that follows the model's call for the replication before makes
    the next replication's filtered spectrum ahead, its noise block drawn,
    transformed and multiplied by the filter; every path stays what a fresh
    model gives."""

    @pytest.mark.parametrize("noise_kind", ["auto", "real-gaussian", "complex-gaussian"])
    @pytest.mark.parametrize("make", AHEAD_MODELS.values(), ids=AHEAD_MODELS)
    def test_every_call_matches_a_fresh_model(self, two_cpus, make, noise_kind):
        base = dict(T=48, K_trunc=16, seed=5, noise_kind=noise_kind)
        steps = [
            (3, {}), (4, {}), (5, {}),  # sequential: 5 is served from ahead
            (4, {}),  # a jump back
            (9, {}), (10, {}), (11, {}),  # a jump ahead, then sequential again
            (12, {"seed": 6}), (13, {"seed": 6}),
            (14, {"T": 40}), (15, {"T": 40}),
            (16, {"K_trunc": 4}), (17, {"K_trunc": 4}),
            (18, {"K_trunc": 4, "noise_kind": "other"}),  # the family 17 did not draw
            (19, {"K_trunc": 4, "noise_kind": "other"}),
        ]
        model = make()
        drawn_ahead = []
        other = None
        for rep, change in steps:
            if change.get("noise_kind") == "other":
                change = change | {"noise_kind": other}
            cfg = SimConfig(**(base | change), replication=rep)
            path = simulate_fiarma(model, cfg)
            if rep == 17:
                other = OTHER_KIND[path.meta["noise_kind"]]
            fresh = simulate_fiarma(make(), cfg)
            assert digest(path) == digest(fresh), (rep, change)
            assert path.meta == fresh.meta
            drawn_ahead.append(wait_ahead(model))
        ahead_reps = [key and key[1] for key in drawn_ahead]
        assert ahead_reps == [None, 5, 6, None, None, 11, 12, None, 14, None, 16, None, 18, None, 20]

    def test_sequential_replications_draw_only_ahead(self, two_cpus, drawing_threads):
        model = mc_model()
        for rep in range(5):
            simulate_fiarma(model, SimConfig(T=64, K_trunc=16, seed=2, replication=rep))
            wait_ahead(model)
        main = [rep for rep, on_main in drawing_threads if on_main]
        ahead = [rep for rep, on_main in drawing_threads if not on_main]
        assert main == [0, 1] and ahead == [2, 3, 4, 5]

    def test_decomposition_check_draws_its_own_block(self, two_cpus, drawing_threads):
        """The check filters the raw block, which a spectrum made ahead does
        not keep: it draws the block itself and leaves the spectrum made
        ahead to the simulation of the same replication."""
        model = power_law_2x2()
        for rep in range(2):
            simulate_fiarma(model, SimConfig(T=32, K_trunc=8, seed=1, replication=rep))
        assert wait_ahead(model)[1] == 2
        cfg = SimConfig(T=32, K_trunc=8, seed=1, replication=2)
        got = verify_longmemory_decomposition(model, cfg).to_dict()
        assert got == verify_longmemory_decomposition(power_law_2x2(), cfg).to_dict()
        path = simulate_fiarma(model, cfg)
        assert digest(path) == digest(simulate_fiarma(power_law_2x2(), cfg))
        assert wait_ahead(model)[1] == 3
        main = [rep for rep, on_main in drawing_threads if on_main]
        assert main == [0, 1, 2, 2, 2]  # each check's block, then the fresh model's path

    def test_one_cpu_draws_nothing_ahead(self, monkeypatch, drawing_threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        model = mc_model()
        for rep in range(3):
            simulate_fiarma(model, SimConfig(T=32, K_trunc=8, seed=2, replication=rep))
            assert fiarma_lab.simulate._STATES[model].ahead == []
        assert drawing_threads == [(0, True), (1, True), (2, True)]

    def test_no_block_ahead_for_a_refused_replication(self, two_cpus):
        model = ar1_model(make_grid(2))
        for rep in (2**64 - 2, 2**64 - 1):
            simulate_fiarma(model, SimConfig(T=16, seed=1, replication=rep))
        assert fiarma_lab.simulate._STATES[model].ahead == []
        for rep in (-2, -1):
            simulate_fiarma(model, SimConfig(T=16, seed=1, replication=rep))
        assert wait_ahead(model)[1] == 0
        path = simulate_fiarma(model, SimConfig(T=16, seed=1))
        assert digest(path) == digest(simulate_fiarma(ar1_model(make_grid(2)), SimConfig(T=16, seed=1)))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
    def test_numpy_integer_keys_draw_the_int_stream(self, two_cpus, dtype):
        """A numpy integer seed or replication keys the stream of its value,
        and a sequence of them draws ahead as ints do."""
        model, fresh = mc_model(), mc_model()
        for rep in range(3):
            cfg = SimConfig(T=32, K_trunc=8, seed=dtype(3), replication=dtype(rep))
            want = simulate_fiarma(fresh, SimConfig(T=32, K_trunc=8, seed=3, replication=rep))
            assert digest(simulate_fiarma(model, cfg)) == digest(want)
        assert wait_ahead(model)[1] == 3

    def test_plan_with_the_same_rows_never_takes_another_plans_path(self, two_cpus):
        """A white-base fractional model filters 64 noise rows at T=48,
        K_trunc=16 and at T=40, K_trunc=24: the spectrum made ahead with the
        first plan is not taken for the second plan's path."""
        def make():
            g = make_grid(2)
            return FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.3))

        model = make()
        for rep in range(2):
            simulate_fiarma(model, SimConfig(T=48, K_trunc=16, seed=3, replication=rep))
        first_plan = sim_plan(model)
        assert wait_ahead(model)[1] == 2 and first_plan.rows == 64
        cfg = SimConfig(T=40, K_trunc=24, seed=3, replication=2)
        path = simulate_fiarma(model, cfg)
        assert sim_plan(model) is not first_plan and sim_plan(model).rows == 64
        fresh = simulate_fiarma(make(), cfg)
        assert digest(path) == digest(fresh) and path.meta == fresh.meta

    @pytest.mark.parametrize("make", [*AHEAD_MODELS.values(), lambda: ar1_model(make_grid(1), 0.5)],
                             ids=[*AHEAD_MODELS, "arma-n1"])
    def test_path_holds_only_its_rows(self, two_cpus, make):
        """A path, its spectrum made on the calling thread or ahead, holds its
        ``T`` rows, not the rest of the convolution's buffer: at n = 1 a view
        of the buffer's rows would pass for contiguous."""
        model = make()
        for noise_kind in ("auto", "complex-gaussian"):
            for rep in range(3):
                cfg = SimConfig(T=40, K_trunc=24, seed=3, replication=rep, noise_kind=noise_kind)
                path = simulate_fiarma(model, cfg)
                assert path.values.base is None or path.values.base.shape[0] == 40
            assert wait_ahead(model)[1] == 3

    def test_failed_filter_ahead_is_filtered_again(self, two_cpus, monkeypatch):
        real = fiarma_lab.simulate._filtered_spectrum

        def fails_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no room ahead")
            return real(*args)

        monkeypatch.setattr(fiarma_lab.simulate, "_filtered_spectrum", fails_off_main)
        model = mc_model()
        for rep in range(4):
            cfg = SimConfig(T=64, K_trunc=16, seed=4, replication=rep)
            path = simulate_fiarma(model, cfg)
            fresh = simulate_fiarma(mc_model(), cfg)
            assert digest(path) == digest(fresh) and path.meta == fresh.meta
            wait_ahead(model)

    def test_failing_filter_raises_the_callers_own_error(self, two_cpus, monkeypatch):
        """Replication 4's spectrum ahead fails, and so does its filtering on
        the calling thread, whose error is the one raised."""
        model = mc_model()
        for rep in range(3):
            simulate_fiarma(model, SimConfig(T=64, K_trunc=16, seed=4, replication=rep))
        assert wait_ahead(model)[1] == 3

        def fails(*args):
            where = "calling" if threading.current_thread() is threading.main_thread() else "ahead"
            raise MemoryError(f"no room on the {where} thread")

        monkeypatch.setattr(fiarma_lab.simulate, "_filtered_spectrum", fails)
        simulate_fiarma(model, SimConfig(T=64, K_trunc=16, seed=4, replication=3))
        assert wait_ahead(model)[1] == 4
        with pytest.raises(MemoryError, match="no room on the calling thread"):
            simulate_fiarma(model, SimConfig(T=64, K_trunc=16, seed=4, replication=4))

    def test_failed_draw_ahead_is_drawn_again(self, two_cpus, monkeypatch):
        real = fiarma_lab.simulate._standard_block

        def fails_off_main(*key):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no room ahead")
            return real(*key)

        monkeypatch.setattr(fiarma_lab.simulate, "_standard_block", fails_off_main)
        model = mc_model()
        cfgs = [SimConfig(T=64, K_trunc=16, seed=4, replication=rep) for rep in range(4)]
        for cfg in cfgs:
            path = simulate_fiarma(model, cfg)
            assert digest(path) == digest(simulate_fiarma(mc_model(), cfg))
            wait_ahead(model)

    def test_failing_draw_raises_its_own_error(self, two_cpus, monkeypatch):
        """Replication 2 was drawn ahead before every draw started to fail;
        replication 3's draw ahead fails, and so does its own."""
        model = mc_model()
        cfgs = [SimConfig(T=64, K_trunc=16, seed=4, replication=rep) for rep in range(4)]
        want = digest(simulate_fiarma(mc_model(), cfgs[2]))
        for cfg in cfgs[:2]:
            simulate_fiarma(model, cfg)
        wait_ahead(model)

        def fails(*key):
            raise MemoryError(f"no room for replication {key[1]}")

        monkeypatch.setattr(fiarma_lab.simulate, "_standard_block", fails)
        assert digest(simulate_fiarma(model, cfgs[2])) == want
        assert wait_ahead(model)[1] == 3
        with pytest.raises(MemoryError, match="no room for replication 3"):
            simulate_fiarma(model, cfgs[3])

    def test_same_replication_from_two_threads(self, two_cpus, monkeypatch):
        """Replication 2's spectrum is being made ahead, held until both
        threads that call for replication 2 have reached the record: one of
        them takes it, the other makes its own, and each runs its inverse
        FFT on its own array."""
        gate = threading.Event()
        real_block = fiarma_lab.simulate._standard_block
        real_take = fiarma_lab.simulate._take
        reached = threading.Semaphore(0)
        draws = []

        def held_ahead(*key):
            ahead = threading.current_thread().name.startswith("fiarma-ahead")
            draws.append((key[1], ahead))
            if ahead:
                gate.wait(60)
            return real_block(*key)

        def reaching(*args):
            reached.release()
            return real_take(*args)

        monkeypatch.setattr(fiarma_lab.simulate, "_standard_block", held_ahead)
        model = mc_model()
        cfgs = [SimConfig(T=64, K_trunc=16, seed=9, replication=rep) for rep in range(3)]
        want = digest(simulate_fiarma(mc_model(), cfgs[2]))
        for cfg in cfgs[:2]:
            simulate_fiarma(model, cfg)
        monkeypatch.setattr(fiarma_lab.simulate, "_take", reaching)
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(digest(simulate_fiarma(model, cfgs[2]))))
            for _ in range(2)
        ]
        try:
            for thread in threads:
                thread.start()
            assert all(reached.acquire(timeout=30) for _ in threads)
        finally:
            gate.set()
            for thread in threads:
                thread.join(30)
        wait_ahead(model)
        assert got == [want, want]
        # the fresh model's block, then one made ahead and one by a caller
        assert sorted(draw for draw in draws if draw[0] == 2) == [(2, False), (2, False), (2, True)]

    def test_two_sizes_from_two_threads(self, two_cpus):
        """Two threads alternate two ``(T, K_trunc)`` sizes on one model, so
        each call replaces the plan the other just kept: every path has its
        own ``T`` rows and is a fresh model's."""
        sizes = [(48, 16), (40, 24)]
        reps = range(12)
        cfgs = {
            (size, rep): SimConfig(*size, seed=2, replication=rep) for size in sizes for rep in reps
        }
        want = {key: digest(simulate_fiarma(mc_model(), cfg)) for key, cfg in cfgs.items()}
        model = mc_model()
        got = {}

        def run(first):
            for rep in reps:
                size = sizes[(first + rep) % 2]
                path = simulate_fiarma(model, cfgs[size, rep])
                got[first, rep] = (size, path.t_len, digest(path))

        threads = [threading.Thread(target=run, args=(first,)) for first in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        wait_ahead(model)
        assert len(got) == 2 * len(reps)
        for (first, rep), (size, t_len, path_digest) in got.items():
            assert t_len == size[0] and path_digest == want[size, rep], (first, rep)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_its_own_blocks(self, two_cpus, monkeypatch):
        """A child forked while a block is being drawn ahead has no thread to
        finish it: its sequential calls return the same paths at once."""
        parent = os.getpid()
        gate = threading.Event()
        real = fiarma_lab.simulate._standard_block

        def held_in_the_parent(*key):
            if os.getpid() == parent and threading.current_thread() is not threading.main_thread():
                gate.wait(60)
            return real(*key)

        monkeypatch.setattr(fiarma_lab.simulate, "_standard_block", held_in_the_parent)
        model = mc_model()
        cfgs = [SimConfig(T=64, K_trunc=16, seed=8, replication=rep) for rep in range(6)]
        for cfg in cfgs[:2]:
            simulate_fiarma(model, cfg)
        assert not fiarma_lab.simulate._STATES[model].ahead[0][2].done()
        read_end, write_end = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
            child = os.fork()
        if child == 0:
            code = 1
            try:
                os.close(read_end)
                digests = [digest(simulate_fiarma(model, cfg)) for cfg in cfgs[2:]]
                os.write(write_end, " ".join(digests).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        gate.set()
        want = " ".join(digest(simulate_fiarma(mc_model(), cfg)) for cfg in cfgs[2:])
        try:
            ready = select.select([read_end], [], [], 30)[0]
            got = os.read(read_end, 4096).decode() if ready else None
        finally:
            os.close(read_end)
            if not ready:
                os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
        assert got is not None, "the forked child did not return within 30 s"
        assert got == want


class TestNonCausal:
    """The causal filter of an AR polynomial with a root inside the unit disk
    diverges, so simulation refuses it."""

    @pytest.mark.parametrize("a", [2.0, 1.05])
    def test_ar1_root_inside_disk_refused(self, a):
        g = scalar_grid()
        cfg = SimConfig(T=64, seed=1)
        with pytest.raises(NonCausalError, match=f"eigenvalue {a:.6g}"):
            simulate_fiarma(ar1_model(g, a), cfg)
        fractional = FiarmaModel(ar1_model(g, a), FracIntegrationSpec.scalar(g, 0.2))
        with pytest.raises(NonCausalError):
            simulate_fiarma(fractional, cfg)

    def test_ar2_companion_root_refused(self):
        """``1 - 2.5 z + z^2 = (1 - 2 z)(1 - z/2)``: no coefficient alone
        shows the root at 1/2, the companion matrix does."""
        g = scalar_grid()
        model = ArmaModel(
            OperatorPolynomial.scalar(g, 2.5, -1.0), OperatorPolynomial(g), identity(g)
        )
        with pytest.raises(NonCausalError, match="eigenvalue 2"):
            simulate_fiarma(model, SimConfig(T=64, seed=1))

    @pytest.mark.parametrize("a", [0.999, 0.9999])
    def test_ar_response_cut_by_the_row_cap_refused(self, a, counted):
        """``a**10_000`` is 4.5e-5 and 0.37 of the peak: the cut response
        would lose a visible share of the variance ``1 / (1 - a**2)``, so the
        model is refused before any noise is drawn."""
        draws = counted("_standard_block")
        g = scalar_grid()
        message = (
            f"^AR impulse response not resolved in 10000 rows: the largest pole modulus "
            f"{a:.6g} is too close to 1$"
        )
        with pytest.raises(ValueError, match=message):
            simulate_fiarma(ar1_model(g, a), SimConfig(T=64, seed=3))
        fractional = FiarmaModel(ar1_model(g, a), FracIntegrationSpec.scalar(g, 0.2))
        with pytest.raises(ValueError, match=message):
            simulate_fiarma(fractional, SimConfig(T=64, seed=3), force=True)
        assert draws == []

    @pytest.mark.parametrize("a", [0.996, 0.997])
    def test_ar_response_resolved_at_the_row_cap_simulates(self, a):
        """``a**10_000`` is 3.9e-18 and 8.9e-14 of the peak: the cap cuts the
        response where its tail is rounding, and the path is the recursion's."""
        model = ar1_model(scalar_grid(), a)
        cfg = SimConfig(T=64, seed=3)
        path = simulate_fiarma(model, cfg)
        plan = sim_plan(model)
        assert plan.rows == cfg.T + 10_000 - 1
        want = recursion_arma(model, cfg, "real-gaussian", plan.rows)
        assert rel_diff(path.values, want) <= 1e-12

    def test_causal_near_circle_simulates(self):
        a = 0.95
        cfg = SimConfig(T=20_000, seed=3, K_trunc=0)
        path = simulate_fiarma(ar1_model(scalar_grid(), a), cfg)
        var = empirical_autocov(path, 0).entries[0, 0].real
        assert var == pytest.approx(1.0 / (1.0 - a * a), rel=0.15)
