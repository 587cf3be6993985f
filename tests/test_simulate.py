import gc
import pickle
import weakref

import numpy as np
import pytest
import scipy.fft

import fiarma_lab.simulate
import fiarma_lab.transfer
from fiarma_lab import (
    ArmaModel,
    ExistenceRefusal,
    FiarmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
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
    gaussian_white_noise,
    identity,
    operator_norm,
    periodogram,
    simulate_arma,
    simulate_duker,
    simulate_fiarma,
    verify_longmemory_decomposition,
    zero_operator,
)

from conftest import make_grid, op, power_law_model, random_unitary


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
    return fiarma_lab.simulate._STATES[model].plan


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

    @pytest.mark.parametrize("key", ["seed", "replication"])
    @pytest.mark.parametrize("value", [2**64, -(2**63) - 1])
    def test_key_outside_64_bits_refused(self, key, value):
        """Such a value would wrap onto the noise stream of another key."""
        with pytest.raises(ValueError, match=f"{key}: must lie in"):
            SimConfig(**{key: value})

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"T": True}, "T"),
            ({"T": 0}, "T"),
            ({"burnin": -1.5}, "burnin"),
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
        a = gaussian_white_noise(identity(g), SimConfig(T=8, seed=-1, replication=-(2**63)))
        b = gaussian_white_noise(identity(g), SimConfig(T=8, seed=2**64 - 1, replication=2**63))
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
        # the recursion's ARMA rows on the same noise, with K_trunc rows of pre-history
        ref_cfg = SimConfig(T=256, seed=6, K_trunc=k_trunc, burnin=frac.meta["burnin"])
        base = recursion_arma(ar1_model(g), ref_cfg, "real-gaussian", lead=k_trunc)
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


class TestSimulateDuker:
    def test_seed_determinism(self):
        g = make_grid(2)
        n_op = op(0.7 * np.eye(2), g)
        cfg = SimConfig(T=512, seed=14, K_trunc=256)
        assert np.array_equal(
            simulate_duker(power_law_model(n_op, identity(g)), cfg).values,
            simulate_duker(power_law_model(n_op, identity(g)), cfg).values,
        )

    def test_harmonic_weights_manual_oracle(self):
        g = scalar_grid()
        n_op = op(np.eye(1), g)
        cfg = SimConfig(T=128, seed=15, K_trunc=32, burnin=0)
        path = simulate_duker(power_law_model(n_op, identity(g)), cfg, force=True)
        noise = gaussian_white_noise(identity(g), SimConfig(T=128, seed=15, K_trunc=32, burnin=0))
        # reconstruct y_T-1 from returned noise rows: weights 1/(k+1), k <= t
        t = 127
        manual = sum(noise.values[t - k, 0] / (k + 1) for k in range(0, 33))
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
        cfg = SimConfig(T=t_len, K_trunc=k_trunc, burnin=5, seed=21, replication=1)
        path = simulate_duker(power_law_model(op(rot @ np.diag(exps) @ rot.T, g), sigma), cfg)
        eps_cfg = SimConfig(T=t_len + k_trunc, K_trunc=0, burnin=5, seed=21, replication=1)
        eps = gaussian_white_noise(sigma, eps_cfg).values
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
            simulate_duker(model, SimConfig(T=32, seed=1))
        path = simulate_duker(model, SimConfig(T=32, seed=1), force=True)
        assert path.t_len == 32

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
        got = simulate_duker(PowerLawModel(zero_ar, FracIntegrationSpec.scalar(g, 0.7)), cfg)
        want = simulate_duker(power_law_model(op(0.7 * np.eye(2), g), identity(g)), cfg)
        assert got.meta["burnin"] == want.meta["burnin"] == 0
        assert np.array_equal(got.values, want.values)

    def test_exponent_decomposed_once(self, eig_calls):
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.7, 0.8]), g), identity(g))
        simulate_duker(model, SimConfig(T=32, seed=1, K_trunc=16))
        assert len(eig_calls) == 1

    def test_autocovariance_decay_slope(self):
        # scalar power-law weights (k+1)^{-0.7}: lag autocovariance decays
        # like h^{-0.4}; fit the log-log slope over h in [10, 500]
        g = scalar_grid()
        n_op = op(0.7 * np.eye(1), g)
        cfg = SimConfig(T=200_000, seed=16, K_trunc=4096)
        path = simulate_duker(power_law_model(n_op, identity(g)), cfg)
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
        n_op, sigma = self.frameless()
        with pytest.raises(NotNormalError):
            simulate_duker(power_law_model(n_op, sigma), SimConfig(T=16, seed=1, K_trunc=8))

    def test_verify_longmemory_decomposition(self):
        n_op, sigma = self.frameless()
        with pytest.raises(NotNormalError):
            verify_longmemory_decomposition(
                power_law_model(n_op, sigma), SimConfig(T=16, seed=1, K_trunc=8)
            )

    def test_refusal_keeps_the_reason(self):
        """The exponent passes the commutator test, and the refusal says which
        check of its eigenframe failed."""
        n_op, sigma = self.frameless()
        reason = "unitary diagonalization leaves reconstruction error 1.000e-07"
        with pytest.raises(NotNormalError, match=f"^operator not normal: {reason}$"):
            simulate_duker(power_law_model(n_op, sigma), SimConfig(T=16, seed=1, K_trunc=8))


def recursion_arma(model, cfg, kind, lead=0):
    """Reference ARMA path: the per-step MA-then-AR recursion from zero
    starts over ``burnin + K_trunc + q`` noise rows, on the same noise."""
    q = model.theta.degree
    pre = cfg.burnin + cfg.K_trunc + q
    block = SimConfig(
        T=pre + cfg.T,
        K_trunc=0,
        burnin=0,
        seed=cfg.seed,
        replication=cfg.replication,
        noise_kind=kind,
    )
    noise = gaussian_white_noise(model.sigma, block).values
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


def recursion_fiarma(model, cfg, kind):
    """Reference fractional path: the recursion's ARMA rows with ``K_trunc``
    lead rows, then the direct sum ``sum_k C_k x_{t-k}``."""
    k_trunc = cfg.K_trunc
    x = recursion_arma(model.base, cfg, kind, lead=k_trunc)
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
    """The FFT filter against the per-step recursion, with an explicit burn-in."""

    @pytest.mark.parametrize(
        "case, burnin, kind",
        [
            ("transient", 400, "auto"),
            ("near-unit-root", 3000, "auto"),
            ("complex", 60, "complex-gaussian"),
            ("ma2", 5, "auto"),
        ],
    )
    def test_arma_matches_recursion(self, rng, case, burnin, kind):
        model = {
            "transient": transient_ar2,
            "near-unit-root": lambda: ar1_model(scalar_grid(), 0.99),
            "complex": lambda: complex_arma11(rng),
            "ma2": lambda: ma2_model(rng),
        }[case]()
        cfg = SimConfig(T=512, K_trunc=24, burnin=burnin, seed=41, noise_kind=kind)
        path = simulate_arma(model, cfg)
        want = recursion_arma(model, cfg, path.meta["noise_kind"])
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
        for path in (simulate_arma(transient_ar2(), cfg), simulate_fiarma(fractional, cfg)):
            assert np.all(path.values.imag == 0.0)

    def test_complex_noise_kind_kept(self, rng):
        cfg = SimConfig(T=64, burnin=8, seed=2, noise_kind="complex-gaussian")
        path = simulate_arma(complex_arma11(rng), cfg)
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
        cfg = SimConfig(T=256, K_trunc=64, burnin=5, seed=8, noise_kind=kind)
        path = simulate_fiarma(model, cfg, force=True)
        assert len(stack_calls) == 1
        assert rel_diff(path.values, recursion_fiarma(model, cfg, kind)) <= 1e-12

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
            path = simulate_duker(power_law_model(op([[0.75, 0.1j], [-0.1j, 0.8]], g), sigma), cfg)
        else:
            base = ArmaModel(OperatorPolynomial.scalar(g, 0.5), OperatorPolynomial(g), sigma)
            d_op = op([[0.25, 0.1j], [-0.1j, 0.3]], g)
            path = simulate_fiarma(FiarmaModel(base, FracIntegrationSpec(d_op)), cfg, force=True)
        assert path.meta["noise_kind"] == kind

    def test_zero_truncation_filters_from_zero_start(self):
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.3))
        cfg = SimConfig(T=8, K_trunc=0, seed=6)
        path = simulate_fiarma(model, cfg)
        noise = gaussian_white_noise(identity(g), cfg).values[:, 0]
        want = noise + 0.3 * np.concatenate([[0.0], noise[:-1]])
        assert np.abs(path.values[:, 0] - want).max() <= 1e-12

    def test_mc_fiarma_matches_recursion(self):
        """A complex filter applied to real noise goes through the half-length
        transform and the Hermitian rebuild; complex noise takes the full one."""
        model = mc_model()
        for kind in ("real-gaussian", "complex-gaussian"):
            cfg = SimConfig(
                T=1024, K_trunc=256, burnin=100, seed=2000, replication=3, noise_kind=kind
            )
            path = simulate_fiarma(model, cfg)
            assert np.abs(sim_plan(model).filter_fft.imag).max() > 0
            assert rel_diff(path.values, recursion_fiarma(model, cfg, kind)) <= 1e-12


class TestAutoBurnin:
    def test_fast_decay_gets_short_burnin(self):
        path = simulate_arma(ar1_model(scalar_grid(), 0.15), SimConfig(T=64, seed=1))
        assert path.meta["burnin"] <= 40

    @pytest.mark.parametrize("a, burnin", [(0.9, 273), (0.99, 2760)])
    def test_slow_decay_unchanged(self, a, burnin):
        path = simulate_arma(ar1_model(scalar_grid(), a), SimConfig(T=64, seed=1))
        assert path.meta["burnin"] == burnin

    def test_mc_model_burnin_short(self):
        path = simulate_fiarma(mc_model(), SimConfig(T=64, K_trunc=16, seed=1))
        assert path.meta["burnin"] <= 40


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
        simulate_arma(mc_model().base, cfg)
        g = make_grid(2)
        simulate_duker(power_law_model(op(0.7 * np.eye(2), g), identity(g)), cfg)
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

    def test_warm_replication_makes_no_extra_pass(self, monkeypatch, counted):
        """A warm Monte Carlo replication (path, then its periodogram) runs
        three FFTs, draws one noise block and never re-decides the noise kind."""
        fft_calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            real = getattr(np.fft, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                fft_calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        model = mc_model()
        freqs = fourier_frequencies(256)
        periodogram(simulate_fiarma(model, SimConfig(T=256, K_trunc=64, seed=5)), freqs)
        fft_calls.clear()
        block_calls = counted("_standard_block")
        kind_calls = counted("_resolve_noise_kind")
        path = simulate_fiarma(model, SimConfig(T=256, K_trunc=64, seed=5, replication=1))
        periodogram(path, freqs)
        assert sorted(fft_calls) == ["fft", "ifft", "rfft"]
        assert len(block_calls) == 1
        assert kind_calls == []
        assert path.meta["noise_kind"] == "real-gaussian"

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
        simulate_duker(model, cfgs[0])
        plan = sim_plan(model)
        eig_calls = []
        for name in ("eig", "eigh"):
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                eig_calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        weight_calls = counted("power_law_weights")
        warm = [simulate_duker(model, cfg) for cfg in cfgs[1:]]
        assert eig_calls == [] and weight_calls == []
        assert sim_plan(model) is plan
        for cfg, path in zip(cfgs[1:], warm):
            cold = simulate_duker(power_law_model(n_op, sigma), cfg)
            assert np.array_equal(path.values, cold.values)
            assert path.meta == cold.meta

    def test_decomposition_check_shares_the_power_law_plan(self, counted):
        """The check draws its noise through the model's own plan, so a
        simulation at the same sizes reuses its weights."""
        weight_calls = counted("power_law_weights")
        g = make_grid(2)
        n_op = op([[0.7, 0.05], [0.05, 0.8]], g)
        sigma = op([[1.0, 0.2], [0.2, 0.5]], g)
        model = power_law_model(n_op, sigma)
        cfg = SimConfig(T=128, K_trunc=64, seed=5)
        verify_longmemory_decomposition(model, cfg)
        path = simulate_duker(model, cfg)
        assert len(weight_calls) == 1
        cold = simulate_duker(power_law_model(n_op, sigma), cfg)
        assert np.array_equal(path.values, cold.values) and path.meta == cold.meta

    def test_refusal_builds_no_plan(self, monkeypatch, counted):
        def no_plan(*args):
            raise AssertionError("filter plan built for a refused model")

        monkeypatch.setattr(fiarma_lab.simulate, "_filter_plan", no_plan)
        check_calls = counted("check_conditions")
        g = scalar_grid()
        model = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.6))
        for _ in range(2):
            with pytest.raises(ExistenceRefusal) as err:
                simulate_fiarma(model, SimConfig(T=64, seed=1))
            assert err.value.condition == "ii"
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
        assert model.D.decomposition is None
        for r in range(2):
            path = simulate_fiarma(model, SimConfig(T=64, K_trunc=16, seed=1, replication=r))
            assert path.meta["existence"] == "unchecked (memory operator not normal)"
        assert len(check_calls) == 1

    def test_power_law_verdict_decided_once(self, counted):
        """A failing exponent is checked on its first unforced call and
        refused with condition ``duker`` on every one, the decomposition
        check included; a forced run neither checks nor refuses."""
        check_calls = counted("check_duker_conditions")
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.3, 0.8]), g), identity(g))
        cfg = SimConfig(T=32, K_trunc=16, seed=1)
        assert simulate_duker(model, cfg, force=True).meta["existence"] == "forced"
        assert check_calls == []
        for run in (simulate_duker, verify_longmemory_decomposition, simulate_duker):
            with pytest.raises(ExistenceRefusal) as err:
                run(model, cfg)
            assert err.value.condition == "duker"
        assert len(check_calls) == 1

    def test_power_law_verdict_holds(self, counted):
        check_calls = counted("check_duker_conditions")
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.7, 0.8]), g), identity(g))
        for r in range(2):
            path = simulate_duker(model, SimConfig(T=32, K_trunc=16, seed=1, replication=r))
            assert path.meta["existence"] == "holds"
        assert len(check_calls) == 1

    def test_frameless_exponent_verdict_never_kept(self, counted):
        check_calls = counted("check_duker_conditions")
        g = make_grid(2)
        model = power_law_model(op([[0.3, 1e-7], [0.0, 0.3]], g), identity(g))
        for _ in range(2):
            with pytest.raises(NotNormalError):
                simulate_duker(model, SimConfig(T=16, K_trunc=8, seed=1))
        assert len(check_calls) == 2

    def test_forced_path_matches_recursion(self):
        g = scalar_grid()
        model = FiarmaModel(ar1_model(g, 0.5), FracIntegrationSpec.scalar(g, 0.6))
        cfg = SimConfig(T=256, K_trunc=64, burnin=80, seed=9)
        path = simulate_fiarma(model, cfg, force=True)
        assert path.meta["existence"] == "forced"
        assert rel_diff(path.values, recursion_fiarma(model, cfg, "real-gaussian")) <= 1e-12

    def test_arma_plan_sized_for_its_path(self):
        """The filter covers ``T + len(psi) - 1`` rows, not the ``K_trunc``
        rows of pre-history, and the path still matches the recursion on the
        same noise block."""
        model = ar1_model(scalar_grid(), 0.5)
        cfg = SimConfig(T=200, K_trunc=64, burnin=300, seed=12)
        path = simulate_arma(model, cfg)
        psi_len = len(fiarma_lab.simulate._ar_impulse(model.phi, 10_000))
        assert psi_len < 100
        m = sim_plan(model).filter_fft.shape[-1]
        assert m == fiarma_lab.simulate._next_fast_len(cfg.T + psi_len - 1)
        want = recursion_arma(model, cfg, "real-gaussian")
        assert path.values.shape == want.shape
        assert rel_diff(path.values, want) <= 1e-12


class TestNonCausal:
    """The causal filter of an AR polynomial with a root inside the unit disk
    diverges, so simulation refuses it."""

    @pytest.mark.parametrize("a", [2.0, 1.05])
    def test_ar1_root_inside_disk_refused(self, a):
        g = scalar_grid()
        cfg = SimConfig(T=64, seed=1)
        with pytest.raises(NonCausalError, match=f"eigenvalue {a:.6g}"):
            simulate_arma(ar1_model(g, a), cfg)
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
            simulate_arma(model, SimConfig(T=64, seed=1))

    def test_causal_near_circle_simulates(self):
        a = 0.95
        cfg = SimConfig(T=20_000, seed=3, K_trunc=0)
        path = simulate_arma(ar1_model(scalar_grid(), a), cfg)
        var = empirical_autocov(path, 0).entries[0, 0].real
        assert var == pytest.approx(1.0 / (1.0 - a * a), rel=0.15)
