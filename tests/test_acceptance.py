"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.special

import fiarma_lab as fl
from fiarma_lab import (
    ArmaModel,
    ExistenceRefusal,
    FiarmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    OperatorPolynomial,
    SimConfig,
)
from fiarma_lab.transfer import frac_transfer_batch

from conftest import ar1_model, make_grid, op, power_law_model, random_unitary, white_model


@contextmanager
def criterion(name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - start:.2f}s)")


def scalar_grid():
    return HilbertGrid(np.array([0.0]), np.array([1.0]))


BATTERY_D = (-0.4, 0.0, 0.3, 0.49, 0.5, 0.6, 0.9)


def battery_models():
    g = scalar_grid()
    return g, (white_model(g), ar1_model(g))


def test_c01_scalar_arfima_reduction():
    with criterion("01 scalar-arfima-reduction"):
        g = scalar_grid()
        k = np.arange(1001, dtype=float)
        for d in (-0.4, 0.3, 0.45):
            seq = fl.frac_ma_coeffs(FracIntegrationSpec.scalar(g, d), 1000)
            got = seq.data[:, 0, 0].real
            logs = scipy.special.gammaln(k[1:] + d) - scipy.special.gammaln(k[1:] + 1)
            want = np.concatenate([[1.0], np.exp(logs) / scipy.special.gamma(d)])
            rel = np.abs(got - want) / np.abs(want)
            assert rel.max() < 1e-10, f"d={d}: max rel err {rel.max():.3e}"


def test_c02_envelope_bounds_random_box():
    with criterion("02 envelope-bounds"):
        rng = np.random.default_rng(271828)
        n_samples = 10_000
        z_re = rng.uniform(-2, 2, n_samples)
        z_im = rng.uniform(-2, 2, n_samples)
        lams = rng.uniform(-np.pi, np.pi, n_samples)
        lams[lams == 0.0] = 1e-3
        for re, im, lam in zip(z_re, z_im, lams):
            z = complex(re, im)
            lo, hi = fl.envelope_bounds(z, lam)
            mid = abs((1 - np.exp(-1j * lam)) ** z) ** 2
            assert lo <= mid * (1 + 1e-12), (z, lam)
            assert mid <= hi * (1 + 1e-12), (z, lam)


def test_c03_ar_inversion():
    with criterion("03 ar-inversion"):
        rng = np.random.default_rng(5)
        g = make_grid(3)
        a1 = rng.normal(size=(3, 3)) * 0.2
        a2 = rng.normal(size=(3, 3)) * 0.1
        phi = OperatorPolynomial(g, (op(a1, g), op(a2, g)))
        seq = fl.ar_inverse_laurent(phi, 60)
        for k in range(1, 61):
            expected = a1 @ seq[k - 1] + a2 @ seq[k - 2]
            assert np.linalg.norm(seq[k] - expected, 2) < 1e-8

        g1 = scalar_grid()
        scalar = fl.ar_inverse_laurent(OperatorPolynomial.scalar(g1, 0.5), 50)
        for k in range(51):
            assert abs(scalar[k][0, 0] - 0.5**k) < 1e-9


def test_c04_filtering_rule_8x8():
    with criterion("04 filtering-rule"):
        rng = np.random.default_rng(8)
        g = make_grid(8)
        u = random_unitary(rng, 8)
        d_op = LinearOperator(u.conj().T @ (rng.uniform(-0.4, 0.45, 8)[:, None] * u), g)
        a1 = rng.normal(size=(8, 8))
        a1 *= 0.25 / np.linalg.norm(a1, 2)
        m = rng.normal(size=(8, 8))
        sigma = LinearOperator(m @ m.T / 8 + 0.2 * np.eye(8), g)
        base = ArmaModel(
            OperatorPolynomial(g, (op(a1, g),)),
            OperatorPolynomial.scalar(g, 0.3),
            sigma,
        )
        model = FiarmaModel(base, FracIntegrationSpec(d_op))
        freqs = fl.density_frequencies(4096)
        one_shot = fl.fiarma_spectral_density(model, freqs).values
        base_dens = fl.fiarma_spectral_density(base, freqs).values
        scale = max(np.linalg.norm(v, 2) for v in one_shot)
        for j, lam in enumerate(freqs):
            f_d = frac_transfer_batch(model.D, [lam])[0]
            recomposed = f_d @ base_dens[j] @ f_d.conj().T
            diff = np.linalg.norm(one_shot[j] - recomposed, 2)
            assert diff <= 1e-12 * scale, f"lam={lam}: {diff:.3e}"


def test_c05_bochner_round_trip():
    with criterion("05 bochner-round-trip"):
        g = scalar_grid()
        t_len = 100_000
        tol = 5.0 / np.sqrt(t_len)  # 5 ||Sigma|| / sqrt(T) with Sigma = 1
        for model in (white_model(g), ar1_model(g)):
            dens = fl.fiarma_spectral_density(model, fl.density_frequencies(4096))
            path = fl.simulate_fiarma(model, SimConfig(T=t_len, seed=21, K_trunc=0))
            seq = fl.autocov_sequence(dens, 2)
            for h in (0, 1, 2):
                want = seq.operator(h).entries[0, 0]
                got = fl.empirical_autocov(path, h).entries[0, 0]
                assert abs(want - got) < tol, f"h={h}: {abs(want - got):.4f}"


def test_c06_existence_consistency():
    with criterion("06 existence-consistency"):
        g, models = battery_models()
        for d in BATTERY_D:
            spec = FracIntegrationSpec.scalar(g, d)
            for model in models:
                report = fl.check_conditions(model, spec)
                integral = fl.existence_integral(model, spec, eta=1.0)
                assert (report.verdict == "holds") == (not integral.diverges), (
                    f"d={d}: verdict={report.verdict} diverges={integral.diverges}"
                )


def test_c07_eta_independence():
    with criterion("07 eta-independence"):
        g, models = battery_models()
        for d in BATTERY_D:
            spec = FracIntegrationSpec.scalar(g, d)
            for model in models:
                flags = {
                    fl.existence_integral(model, spec, eta=eta).diverges
                    for eta in (0.1, 1.0, 3.0)
                }
                assert len(flags) == 1, f"d={d}: flags disagree across eta"


def _duker_cases():
    g1 = scalar_grid()
    rng = np.random.default_rng(42)
    u = random_unitary(rng, 2)
    n2 = u.conj().T @ (np.array([0.6, 0.8])[:, None] * u)
    return (
        ("scalar-0.7", op(0.7 * np.eye(1), g1)),
        ("normal-2x2", op(n2, make_grid(2))),
    )


def test_c08_duker_decomposition():
    with criterion("08 duker-decomposition"):
        for label, n_op in _duker_cases():
            n_spec = FracIntegrationSpec(n_op)
            c_mat, deltas, rho = fl.duker_decomposition(n_spec, 10_000)
            norms = deltas.norms()
            ks = np.arange(100, 10_001)
            slope = np.polyfit(np.log(ks), np.log(norms[100:]), 1)[0]
            assert slope <= -(1 + rho) + 0.1, f"{label}: slope {slope:.3f}"

            # reconstruction against an independently coded binomial product
            powers = fl.power_law_weights(n_spec, 500)
            eye = np.eye(n_op.n, dtype=complex)
            binom = eye.copy()
            for k in range(501):
                if k:
                    binom = binom @ (eye - n_op.entries / k)
                rebuilt = c_mat.entries @ powers[k] + deltas[k]
                assert np.linalg.norm(binom - rebuilt, 2) < 1e-8, f"{label}: k={k}"


def test_c09_longmemory_equivalence():
    with criterion("09 longmemory-equivalence"):
        for label, n_op in _duker_cases():
            check = fl.verify_longmemory_decomposition(
                power_law_model(n_op, fl.identity(n_op.grid)),
                SimConfig(T=2000, seed=33, K_trunc=500),
            )
            assert check.residual < 1e-8, f"{label}: residual {check.residual:.3e}"

            _, deltas, _ = fl.duker_decomposition(FracIntegrationSpec(n_op), 10_000)
            sums = np.cumsum(deltas.norms())
            tail = sums[-1] - sums[5000]
            assert tail < 1e-3 * sums[-1], f"{label}: tail fraction {tail / sums[-1]:.2e}"


def _binned_rel_err(values: np.ndarray, target: np.ndarray, n_bins: int) -> float:
    m = values.size - values.size % n_bins
    got = values[:m].reshape(n_bins, -1).mean(axis=1)
    want = target[:m].reshape(n_bins, -1).mean(axis=1)
    return float(np.max(np.abs(got / want - 1.0)))


def test_c10_spectral_monte_carlo():
    with criterion("10 spectral-monte-carlo"):
        reps, t_len, n_bins = 200, 4096, 32
        freqs = fl.fourier_frequencies(t_len)
        band = freqs[(freqs >= 0.1) & (freqs <= np.pi)]

        # scalar long-memory white noise against the closed-form density
        g1 = scalar_grid()
        model = FiarmaModel(white_model(g1), FracIntegrationSpec.scalar(g1, 0.3))
        acc = np.zeros(band.size)
        for r in range(reps):
            path = fl.simulate_fiarma(model, SimConfig(T=t_len, seed=1000, replication=r))
            acc += fl.periodogram(path, band).values[:, 0, 0].real
        acc /= reps
        target = (2 * np.sin(np.abs(band) / 2.0)) ** -0.6 / (2 * np.pi)
        err = _binned_rel_err(acc, target, n_bins)
        assert err < 0.15, f"scalar: binned rel err {err:.3f}"

        # 4x4 operator model against its computed density, trace-relative
        rng = np.random.default_rng(7)
        g4 = make_grid(4)
        u = random_unitary(rng, 4)
        d_op = LinearOperator(
            u.conj().T @ (np.array([0.1, 0.35, 0.2, -0.1])[:, None] * u), g4
        )
        a1 = rng.normal(size=(4, 4))
        a1 *= 0.3 / np.linalg.norm(a1, 2)
        b1 = rng.normal(size=(4, 4))
        b1 *= 0.4 / np.linalg.norm(b1, 2)
        m = rng.normal(size=(4, 4))
        sigma = LinearOperator(m @ m.T / 4 + 0.3 * np.eye(4), g4)
        base = ArmaModel(
            OperatorPolynomial(g4, (op(a1, g4),)),
            OperatorPolynomial(g4, (op(b1, g4),)),
            sigma,
        )
        model4 = FiarmaModel(base, FracIntegrationSpec(d_op))
        acc4 = np.zeros(band.size)
        for r in range(reps):
            path = fl.simulate_fiarma(
                model4, SimConfig(T=t_len, seed=2000, replication=r, K_trunc=1024)
            )
            acc4 += fl.periodogram(path, band).trace()
        acc4 /= reps
        target4 = fl.fiarma_spectral_density(model4, band).trace()
        err4 = _binned_rel_err(acc4, target4, n_bins)
        assert err4 < 0.15, f"operator: binned trace rel err {err4:.3f}"


def test_c11_refusal_behavior():
    with criterion("11 refusal-behavior"):
        g = scalar_grid()
        blocked = FiarmaModel(white_model(g), FracIntegrationSpec.scalar(g, 0.6))
        with pytest.raises(ExistenceRefusal, match=r"existence condition \(ii\) fails") as err:
            fl.simulate_fiarma(blocked, SimConfig(T=32, seed=1))
        assert "(ii)" in str(err.value)

        differencing = ArmaModel(
            OperatorPolynomial(g), OperatorPolynomial.scalar(g, -1.0), fl.identity(g)
        )
        vacuous = FiarmaModel(differencing, FracIntegrationSpec.scalar(g, 0.75))
        path = fl.simulate_fiarma(vacuous, SimConfig(T=32, seed=1))
        assert path.t_len == 32
        assert path.meta["existence"] == "holds"
