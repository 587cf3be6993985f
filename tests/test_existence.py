import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiarma_lab.existence
from fiarma_lab import (
    ArmaModel,
    ExistenceRefusal,
    FiarmaModel,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    NotNormalError,
    OperatorPolynomial,
    SimConfig,
    check_conditions,
    check_duker_conditions,
    existence_integral,
    identity,
    simulate_fiarma,
)
from fiarma_lab.transfer import NORMAL_TOL
from fiarma_lab.transfer import arma_transfer_batch

from conftest import ar1_model, make_grid, op, power_law_model, random_unitary, white_model


def scalar_grid():
    return HilbertGrid(np.array([0.0]), np.array([1.0]))


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


def masses_of(model: ArmaModel, d_vals) -> tuple[np.ndarray, np.ndarray]:
    """The reported exponents and masses of ``model`` under ``D = diag(d_vals)``."""
    report = check_conditions(model, FracIntegrationSpec(op(np.diag(d_vals), model.grid)))
    return report.exponents, report.masses


class TestMasses:
    def test_multiplication_operator_gives_pointwise_variance_times_weight(self, rng):
        """D = diag(d(v_i)) with distinct values: the mass at v_i is
        ``sigma_w(v_i)^2 w_i``, which for the rank-one covariance onto a
        function f of unit weighted norm is ``|f_i|^2 w_i``."""
        g = make_grid(5, uniform=False)
        f = rng.normal(size=5) + 1j * rng.normal(size=5)
        f /= np.sqrt(np.sum(np.abs(f) ** 2 * g.weights))
        coords = f * np.sqrt(g.weights)
        sigma = LinearOperator(np.outer(coords, coords.conj()), g)
        d_vals = np.array([0.3, -0.2, 0.45, 0.1, -0.4])
        exponents, masses = masses_of(white_model(g, sigma), d_vals)
        order = np.argsort(d_vals)
        np.testing.assert_array_equal(exponents, np.column_stack([d_vals[order], np.zeros(5)]))
        np.testing.assert_allclose(masses, (np.abs(f) ** 2 * g.weights)[order], atol=1e-14)

    def test_scalar_memory_is_one_cluster_with_the_whole_mass(self, rng):
        """D = d Id: one cluster, whose mass is ``||h(0)||_F^2``, here
        ``tr(Sigma) / (1 - a)^2`` for the AR(1) ``(Id - a z)`` with ``a = 0.5``."""
        g = make_grid(4, uniform=False)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        sigma = LinearOperator(m @ m.conj().T, g)
        model = ArmaModel(OperatorPolynomial.scalar(g, 0.5), OperatorPolynomial(g), sigma)
        exponents, masses = masses_of(model, [0.3] * 4)
        np.testing.assert_array_equal(exponents, [[0.3, 0.0]])
        assert masses[0] == pytest.approx(np.trace(sigma.entries).real / 0.25, rel=1e-13)

    def test_clusters_join_transitively(self):
        """Eigenvalues 0.8 ``NORMAL_TOL ||D||`` apart join one cluster, though
        the first and the third lie 1.6 of it apart; 2 of it parts them."""
        g = make_grid(3)
        step = 0.8 * NORMAL_TOL * 0.5
        exponents, masses = masses_of(white_model(g), [0.5 - 2 * step, 0.5 - step, 0.5])
        assert exponents[:, 0] == pytest.approx([0.5 - step], rel=1e-15)
        np.testing.assert_allclose(masses, [3.0], rtol=1e-15)
        exponents, masses = masses_of(white_model(g), [0.5 - 2.5 * step, 0.5 - step, 0.5])
        np.testing.assert_allclose(masses, [1.0, 2.0], rtol=1e-15)

    def test_differencing_ma_has_no_mass(self):
        g = make_grid(3)
        model = ArmaModel(
            OperatorPolynomial(g), OperatorPolynomial.scalar(g, -1.0), identity(g)
        )
        assert np.allclose(masses_of(model, [0.1, 0.2, 0.3])[1], 0.0, atol=1e-28)

    def test_null_noise(self):
        g = make_grid(2)
        model = white_model(g, LinearOperator(np.zeros((2, 2)), g))
        assert np.all(masses_of(model, [0.1, 0.2])[1] == 0.0)


class TestCheckConditions:
    def test_scalar_below_half_holds(self):
        g = scalar_grid()
        for model in (white_model(g), ar1_model(g)):
            report = check_conditions(model, scalar_spec(g, 0.3))
            assert report.verdict == "holds"
            assert report.cond_ii and report.cond_iv and np.isfinite(report.cond_iii_value)

    def test_scalar_above_half_fails_on_support(self):
        g = scalar_grid()
        report = check_conditions(white_model(g), scalar_spec(g, 0.6))
        assert not report.cond_ii
        assert report.verdict == "fails"
        # the simulator names the failed condition from cond_ii
        with pytest.raises(ExistenceRefusal) as err:
            simulate_fiarma(FiarmaModel(white_model(g), scalar_spec(g, 0.6)), SimConfig(T=8))
        assert err.value.condition == "ii"

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
        assert report.cond_ii  # vacuously: the innovation has no mass
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
        assert report.cond_ii and np.isfinite(report.cond_iii_value)
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

    def test_exponent_off_the_innovations_support_is_not_read(self):
        """N = diag(0.3, 0.8) with Sigma = diag(0, 1): the exponent 0.3 carries
        no innovation, its mass is exactly 0, and the weights are
        square-summable on the support."""
        g = make_grid(2)
        report = check_duker_conditions(
            power_law_model(op(np.diag([0.3, 0.8]), g), op(np.diag([0.0, 1.0]), g))
        )
        assert report.cond_ii and report.verdict == "holds"
        np.testing.assert_allclose(report.exponents, [[0.7, 0.0], [0.2, 0.0]], atol=1e-15)
        assert report.masses[0] == 0.0 and report.masses[1] > 0.0

    def test_condition_sum_beyond_the_double_range_is_an_overflow(self):
        """theta = 1e153 Id, D = diag(0.4999, 0.1): the masses are finite, and
        the exact condition (iii) sum is about 1e310, so it is an overflow and
        not a failed condition."""
        model = readme_base(1e153)
        assert np.isfinite(masses_of(model, [0.3, 0.1])[1]).all()
        spec = FracIntegrationSpec(op(np.diag([0.4999, 0.1]), model.grid))
        with pytest.raises(
            OverflowError, match=r"^existence condition \(iii\)'s weighted sum overflows"
        ):
            check_conditions(model, spec)
        report = check_conditions(readme_base(1e150), spec)
        assert report.verdict == "holds" and np.isfinite(report.cond_iii_value)
        # the masses are (c / phi_i(1))^2 with phi(1) = diag(0.7, 0.8)
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
        """Where the innovation has no mass the integrand is 0, however large the
        exponent there and even where its power overflows."""
        g = make_grid(2)
        model = white_model(g, op(np.diag([1.0, 0.0]), g))
        report = existence_integral(model, FracIntegrationSpec(op(np.diag([0.3, 30.0]), g)), 1.0)
        mild = existence_integral(model, FracIntegrationSpec(op(np.diag([0.3, 0.1]), g)), 1.0)
        assert not report.diverges
        np.testing.assert_allclose(report.shells, mild.shells, rtol=1e-14)
        assert report.value == pytest.approx(mild.value, rel=1e-14)

    def test_one_cluster_takes_its_mean_exponent(self, rng):
        """Eigenvalues 0.8 ``NORMAL_TOL ||D||`` apart form one cluster, which
        the integral scales by the cluster's mean exponent, as the conditions
        do: the value is that of D at the mean within 1e-13 relative."""
        g = make_grid(2)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sigma = LinearOperator(m @ m.conj().T, g)
        model = ArmaModel(OperatorPolynomial.scalar(g, 0.5), OperatorPolynomial(g), sigma)
        step = 0.8 * NORMAL_TOL * 0.3
        split = FracIntegrationSpec(op(np.diag([0.3, 0.3 + step]), g))
        assert len(split.exponents) == 1
        mean = scalar_spec(g, split.exponents[0])
        value = existence_integral(model, split, eta=1.0).value
        assert value == pytest.approx(existence_integral(model, mean, eta=1.0).value, rel=1e-13)

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
        assert report.cond_ii and report.verdict == "holds"
        np.testing.assert_allclose(report.exponents, [[0.3, 0.0]], atol=1e-15)

    def test_boundary_fails(self):
        g = make_grid(3)
        report = check_duker_conditions(power_law_model(op(0.5 * np.eye(3), g), identity(g)))
        assert not report.cond_ii and report.verdict == "fails"

    def test_exponent_off_the_innovations_support_is_not_read(self):
        """N = diag(0.3, 0.8) with Sigma = diag(0, 1): the exponent 0.3 carries
        no innovation, its mass is exactly 0, and the weights are
        square-summable on the support."""
        g = make_grid(2)
        report = check_duker_conditions(
            power_law_model(op(np.diag([0.3, 0.8]), g), op(np.diag([0.0, 1.0]), g))
        )
        assert report.cond_ii and report.verdict == "holds"
        np.testing.assert_allclose(report.exponents, [[0.7, 0.0], [0.2, 0.0]], atol=1e-15)
        assert report.masses[0] == 0.0 and report.masses[1] > 0.0

    def test_condition_sum_beyond_the_double_range_is_an_overflow(self):
        """Sigma = 1e300 Id with an exponent 1e-9 above 1/2: the weighted sum
        over ``2 h - 1`` is about 1e309, an overflow and no verdict."""
        g = make_grid(2)
        model = power_law_model(op(np.diag([0.5 + 1e-9, 0.9]), g), op(1e300 * np.eye(2), g))
        with pytest.raises(OverflowError, match=r"^existence condition \(iii\)'s weighted sum"):
            check_duker_conditions(model)

    @pytest.mark.parametrize("n", [32, 128, 512])
    def test_harmonic_divergence_flagged_as_grid_sensitive(self, n):
        """Exponents that approach 1/2 on the grid: the sum is finite on each
        grid, and its growth like ``log n`` shows its dependence on the grid."""
        g = HilbertGrid.uniform(n)
        exponents = 0.5 + g.points  # h(v) = 0.5 + v on (0, 1]
        n_op = LinearOperator(np.diag(exponents), g)
        sigma = constant_function_projector(g)
        report = check_duker_conditions(power_law_model(n_op, sigma))
        # harmonic-sum oracle: sum w / (2 v) = H_n / 2
        oracle = np.sum(1.0 / (2 * np.arange(1, n + 1)))
        assert report.cond_iii_value == pytest.approx(oracle, rel=1e-10)
        assert report.cond_ii  # finite on any fixed grid

    def test_bridge_to_fractional_conditions(self, rng):
        """The power-law report is the fractional report of ``Id - N``: its
        exponents ``d = 1 - n`` and masses, up to the clusters' order, its
        conditions, sum and verdict.  Exponents above 1/2 hold."""
        for trial in range(10):
            n = int(rng.integers(1, 5))
            g = make_grid(n)
            u = random_unitary(rng, n)
            h_vals = rng.uniform(0.55, 1.4, n) + 1j * rng.uniform(-0.2, 0.2, n)
            n_mat = u.conj().T @ (h_vals[:, None] * u)
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            sigma = LinearOperator(m @ m.conj().T / n, g)
            duker = check_duker_conditions(power_law_model(LinearOperator(n_mat, g), sigma))
            spec = FracIntegrationSpec(
                LinearOperator(np.eye(n, dtype=complex) - n_mat, g)
            )
            report = check_conditions(white_model(g, sigma), spec)
            assert duker.cond_ii and report.cond_ii
            assert duker.verdict == report.verdict == "holds"
            assert duker.cond_iii_value == pytest.approx(report.cond_iii_value, rel=1e-12)
            ours, theirs = (np.lexsort(r.exponents.T[::-1]) for r in (duker, report))
            np.testing.assert_allclose(
                duker.exponents[ours], report.exponents[theirs], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                duker.masses[ours], report.masses[theirs], rtol=0, atol=1e-12 * report.masses.max()
            )
