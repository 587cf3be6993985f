import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiarma_lab.existence
from fiarma_lab import (
    ArmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    NotNormalError,
    OperatorPolynomial,
    check_conditions,
    check_duker_conditions,
    existence_integral,
    identity,
    normal_decompose,
    sigma_w,
)
from fiarma_lab.transfer import arma_transfer_batch

from conftest import make_grid, op, power_law_model, random_unitary


def scalar_grid():
    return HilbertGrid(np.array([0.0]), np.array([1.0]))


def white_model(grid, sigma=None):
    sigma = identity(grid) if sigma is None else sigma
    return ArmaModel(OperatorPolynomial(grid), OperatorPolynomial(grid), sigma)


def ar1_model(grid, a=0.5):
    return ArmaModel(
        OperatorPolynomial.scalar(grid, a), OperatorPolynomial(grid), identity(grid)
    )


def scalar_spec(grid, d):
    return FracIntegrationSpec.scalar(grid, d)


def constant_function_projector(grid):
    """Rank-one covariance onto the constant function of unit weighted norm."""
    coords = np.sqrt(grid.weights).astype(complex)
    return LinearOperator(np.outer(coords, coords.conj()), grid)


def readme_base(c: float) -> ArmaModel:
    """The README example's base on two points of weight 0.5, with theta = c Id."""
    g = HilbertGrid(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    return ArmaModel(
        OperatorPolynomial(g, (op(np.diag([0.3, 0.2]), g),)),
        OperatorPolynomial.scalar(g, c),
        identity(g),
    )


class TestSigmaW:
    def test_rank_one_gives_function_modulus(self, rng):
        g = make_grid(5, uniform=False)
        f = rng.normal(size=5) + 1j * rng.normal(size=5)
        f /= np.sqrt(np.sum(np.abs(f) ** 2 * g.weights))
        coords = f * np.sqrt(g.weights)
        sigma = LinearOperator(np.outer(coords, coords.conj()), g)
        dec = normal_decompose(identity(g))
        got = sigma_w(white_model(g, sigma), dec)
        assert np.allclose(got, np.abs(f), atol=1e-12)

    def test_differencing_ma_kills_it(self):
        g = make_grid(3)
        model = ArmaModel(
            OperatorPolynomial(g), OperatorPolynomial.scalar(g, -1.0), identity(g)
        )
        got = sigma_w(model, normal_decompose(identity(g)))
        assert np.allclose(got, 0.0, atol=1e-14)

    def test_null_noise(self):
        g = make_grid(2)
        model = white_model(g, LinearOperator(np.zeros((2, 2)), g))
        got = sigma_w(model, normal_decompose(identity(g)))
        assert np.all(got == 0.0)


class TestCheckConditions:
    def test_scalar_below_half_holds(self):
        g = scalar_grid()
        for model in (white_model(g), ar1_model(g)):
            report = check_conditions(model, scalar_spec(g, 0.3))
            assert report.verdict == "holds"
            assert report.cond_ii and report.cond_iii and report.cond_iv

    def test_scalar_above_half_fails_on_support(self):
        g = scalar_grid()
        report = check_conditions(white_model(g), scalar_spec(g, 0.6))
        assert not report.cond_ii
        assert report.verdict == "fails"
        assert report.failed_condition() == "ii"

    def test_exponent_near_the_double_range_fails(self):
        """D = diag(1e308, 0.1): the gap 1 - 2 Re d is -inf there, which
        condition (iii) skips without a warning, and condition (ii) fails."""
        g = make_grid(2)
        spec = FracIntegrationSpec(op(np.diag([1e308, 0.1]), g))
        report = check_conditions(white_model(g), spec)
        assert report.verdict == "fails" and np.isfinite(report.cond_iii_value)

    def test_vacuous_support_with_d_below_one_holds(self):
        g = scalar_grid()
        model = ArmaModel(
            OperatorPolynomial(g), OperatorPolynomial.scalar(g, -1.0), identity(g)
        )
        report = check_conditions(model, scalar_spec(g, 0.75))
        assert report.cond_ii  # vacuously: sigma_w is identically zero
        assert report.cond_iv
        assert report.verdict == "holds"

    def test_gap_case_is_undetermined(self):
        g = make_grid(2)
        # noise supported on the first point only; memory exponent 1.5 off-support
        sigma = LinearOperator(np.diag([1.0, 0.0]), g)
        model = ArmaModel(
            OperatorPolynomial.scalar(g, 0.5), OperatorPolynomial(g), sigma
        )
        spec = FracIntegrationSpec(LinearOperator(np.diag([0.3, 1.5]), g))
        report = check_conditions(model, spec)
        assert report.cond_ii and report.cond_iii
        assert not report.cond_iv and not report.cond_v
        assert report.verdict == "undetermined"

    def test_rejects_non_normal_memory(self):
        g = make_grid(2)
        spec = FracIntegrationSpec(op([[0.2, 1.0], [0.0, 0.2]], g))
        with pytest.raises(NotNormalError):
            check_conditions(white_model(g), spec)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.5), min_size=2, max_size=4),
        st.floats(0.0, 0.8),
    )
    def test_monotone_in_memory_exponent(self, d_vals, bump):
        n = len(d_vals)
        g = make_grid(n)
        model = white_model(g)
        lo = FracIntegrationSpec(LinearOperator(np.diag(d_vals), g))
        hi = FracIntegrationSpec(LinearOperator(np.diag(np.array(d_vals) + bump), g))
        v_lo = check_conditions(model, lo).verdict
        v_hi = check_conditions(model, hi).verdict
        assert not (v_lo == "fails" and v_hi == "holds")

    def test_condition_sum_beyond_the_double_range_is_an_overflow(self):
        """theta = 1e153 Id, D = diag(0.4999, 0.1): ``sigma_w`` is finite, and
        the exact condition (iii) sum is about 1e310, so it is an overflow and
        not a failed condition."""
        model = readme_base(1e153)
        assert np.isfinite(sigma_w(model, normal_decompose(identity(model.grid)))).all()
        spec = FracIntegrationSpec(op(np.diag([0.4999, 0.1]), model.grid))
        with pytest.raises(
            OverflowError, match=r"^existence condition \(iii\)'s weighted sum overflows"
        ):
            check_conditions(model, spec)
        report = check_conditions(readme_base(1e150), spec)
        assert report.verdict == "holds" and report.cond_iii
        # sigma_w^2 w = (c / phi_i(1))^2 with phi(1) = diag(0.7, 0.8)
        oracle = 1e300 * (1.0 / (0.49 * (1.0 - 0.9998)) + 1.0 / (0.64 * 0.8))
        assert report.cond_iii_value == pytest.approx(oracle, rel=1e-12)


class TestExistenceIntegral:
    def test_constant_case_value(self):
        g = make_grid(1)
        report = existence_integral(white_model(g), scalar_spec(g, 0.0), eta=1.0)
        assert not report.diverges
        assert report.value == pytest.approx(1.0 / np.pi, rel=1e-6)

    def test_shell_scaling_matches_exponent(self):
        g = scalar_grid()
        report = existence_integral(white_model(g), scalar_spec(g, 0.3), eta=1.0)
        ratios = report.shells[1:] / report.shells[:-1]
        assert ratios[-1] == pytest.approx(2.0 ** (2 * 0.3 - 1), rel=1e-3)
        assert not report.diverges

    def test_log_divergence_flagged(self):
        g = scalar_grid()
        report = existence_integral(white_model(g), scalar_spec(g, 0.5), eta=1.0)
        assert report.diverges

    def test_finite_value_matches_analytic_oracle(self):
        # white noise, exponent d: integral of |lam|^{-2d} d lam/(2 pi) over (-eta, eta)
        g = scalar_grid()
        d, eta = 0.3, 1.0
        report = existence_integral(white_model(g), scalar_spec(g, d), eta=eta, n_freq=256)
        oracle = 2 * eta ** (1 - 2 * d) / (1 - 2 * d) / (2 * np.pi)
        assert report.value == pytest.approx(oracle, rel=1e-4)

    def test_one_transfer_batch_per_shell(self, monkeypatch):
        """A batch holds one shell's nodes of both signs, so the integral's
        memory does not grow with the number of shells."""
        sizes = []

        def counting(model, freqs):
            sizes.append(np.size(freqs))
            return arma_transfer_batch(model, freqs)

        monkeypatch.setattr(fiarma_lab.existence, "arma_transfer_batch", counting)
        g = make_grid(2)
        existence_integral(ar1_model(g), scalar_spec(g, 0.3), eta=0.5, n_freq=16, n_refine=10)
        assert sizes and max(sizes) <= 2 * 16

    def test_overflowing_shells_diverge(self):
        """An exponent of 30 takes the shells past the double range: inf is
        their value, so the integral diverges, with no tail estimate."""
        g = make_grid(2)
        spec = FracIntegrationSpec(op(np.diag([30.0, 0.1]), g))
        report = existence_integral(ar1_model(g, 0.3), spec, eta=1.0)
        assert np.isinf(report.shells).any()
        assert report.diverges and report.value == np.inf and report.tail_estimate == 0.0

    def test_huge_in_range_half_factor_keeps_a_finite_value(self):
        """theta = 1e150 Id: the shells are near 1e300 and their unscaled sum
        would leave the double range.  Since ``1 + c z`` is ``c z`` to rounding
        at c = 1e140 and beyond, the integral is 1e20 times that at 1e140."""
        spec = FracIntegrationSpec(op(np.diag([0.3, 0.1]), readme_base(1.0).grid))
        big = existence_integral(readme_base(1e150), spec, eta=1.0)
        small = existence_integral(readme_base(1e140), spec, eta=1.0)
        assert not big.diverges and np.isfinite(big.value) and big.value > 1e300
        assert big.value == pytest.approx(1e20 * small.value, rel=1e-12)
        np.testing.assert_allclose(big.shells, 1e20 * small.shells, rtol=1e-12)

    def test_point_without_innovation_adds_nothing(self):
        """Where ``sigma_w`` is 0 the integrand is 0, however large the
        exponent there and even where its power overflows."""
        g = make_grid(2)
        model = white_model(g, op(np.diag([1.0, 0.0]), g))
        report = existence_integral(model, FracIntegrationSpec(op(np.diag([0.3, 30.0]), g)), 1.0)
        mild = existence_integral(model, FracIntegrationSpec(op(np.diag([0.3, 0.1]), g)), 1.0)
        assert not report.diverges
        np.testing.assert_allclose(report.shells, mild.shells, rtol=1e-14)
        assert report.value == pytest.approx(mild.value, rel=1e-14)

    def test_shells_below_normal_doubles_refused(self):
        g = scalar_grid()
        with pytest.raises(ValueError, match="^n_refine: must be at most 1022 for eta = 1.0,"):
            existence_integral(white_model(g), scalar_spec(g, 0.3), eta=1.0, n_refine=1023)
        report = existence_integral(
            white_model(g), scalar_spec(g, 0.3), eta=1.0, n_freq=4, n_refine=1022
        )
        assert np.all(np.isfinite(report.shells)) and not report.diverges
        assert report.edges[-1, 0] == np.finfo(float).tiny

    def test_shell_edges_halve(self):
        g = scalar_grid()
        report = existence_integral(white_model(g), scalar_spec(g, 0.3), eta=0.5, n_refine=6)
        assert report.edges.shape == (6, 2)
        np.testing.assert_array_equal(report.edges[:, 1], 0.5 * 2.0 ** -np.arange(6))
        np.testing.assert_array_equal(report.edges[:, 0], report.edges[:, 1] / 2)

    def test_eta_range_checked(self):
        g = scalar_grid()
        with pytest.raises(ValueError):
            existence_integral(white_model(g), scalar_spec(g, 0.3), eta=4.0)


class TestDukerConditions:
    def test_constant_above_half_passes(self):
        g = make_grid(3)
        report = check_duker_conditions(power_law_model(op(0.7 * np.eye(3), g), identity(g)))
        assert report.condition_exponent and report.passes
        assert not report.grid_sensitive

    def test_boundary_fails(self):
        g = make_grid(3)
        report = check_duker_conditions(power_law_model(op(0.5 * np.eye(3), g), identity(g)))
        assert not report.condition_exponent and not report.passes

    def test_condition_sum_beyond_the_double_range_is_an_overflow(self):
        """Sigma = 1e300 Id with an exponent 1e-9 above 1/2: the weighted sum
        over ``2 h - 1`` is about 1e309, an overflow and no verdict."""
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.5 + 1e-9, 0.9]), g), op(1e300 * np.eye(2), g))
        with pytest.raises(OverflowError, match="^the power-law condition's weighted sum"):
            check_duker_conditions(model)

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_harmonic_divergence_flagged_as_grid_sensitive(self, n):
        g = HilbertGrid.uniform(n)
        exponents = 0.5 + g.points  # h(v) = 0.5 + v on (0, 1]
        n_op = LinearOperator(np.diag(exponents), g)
        sigma = constant_function_projector(g)
        report = check_duker_conditions(power_law_model(n_op, sigma))
        # harmonic-sum oracle: sum w / (2 v) = H_n / 2
        oracle = np.sum(1.0 / (2 * np.arange(1, n + 1)))
        assert report.integral_value == pytest.approx(oracle, rel=1e-10)
        assert report.grid_sensitive
        assert report.passes  # finite on any fixed grid; the flag carries the warning

    def test_bridge_to_fractional_conditions(self, rng):
        # exponents of the power-law weights above 1/2 make the shifted
        # fractional model admissible: d = 1 - n maps across the boundary
        for trial in range(10):
            n = int(rng.integers(1, 5))
            g = make_grid(n)
            u = random_unitary(rng, n)
            h_vals = rng.uniform(0.55, 1.4, n) + 1j * rng.uniform(-0.2, 0.2, n)
            n_mat = u.conj().T @ (h_vals[:, None] * u)
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            sigma = LinearOperator(m @ m.conj().T / n, g)
            duker = check_duker_conditions(power_law_model(LinearOperator(n_mat, g), sigma))
            assert duker.passes
            spec = FracIntegrationSpec(
                LinearOperator(np.eye(n, dtype=complex) - n_mat, g)
            )
            report = check_conditions(white_model(g, sigma), spec)
            assert report.verdict == "holds"
