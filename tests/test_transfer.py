import math

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fiarma_lab import (
    CoefficientSequence,
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    NotNormalError,
    OperatorPolynomial,
    SingularTransferError,
    ArmaModel,
    ar_inverse_laurent,
    binomial_ma_coeffs,
    check_invertible_on_circle,
    duker_decomposition,
    envelope_bounds,
    frac_ma_coeffs,
    operator_norm,
    power_law_weights,
)

from fiarma_lab import transfer
from fiarma_lab.transfer import (
    NORMAL_TOL,
    _rgamma,
    ar_values_on_circle,
    arma_transfer_batch,
    frac_transfer_batch,
    ma_values_on_circle,
)

from conftest import make_grid, op, random_unitary, reconstruct


def scalar_frac_coeffs(d: float, order: int) -> np.ndarray:
    """Log-gamma oracle for the expansion coefficients of (1-z)^(-d)."""
    k = np.arange(order + 1, dtype=float)
    with np.errstate(divide="ignore"):
        logs = scipy.special.gammaln(k + d) - scipy.special.gammaln(k + 1)
    out = np.exp(logs) / scipy.special.gamma(d)
    out[0] = 1.0
    return out


class TestPolyEvaluation:
    """The symbols at ``z = e^{-i lam}``: ``z = 1, -1, i`` at ``lam = 0, pi, -pi/2``."""

    def test_degree_zero_is_identity(self):
        p = OperatorPolynomial(make_grid(2))
        freqs = [0.0, np.pi, -np.pi / 2]
        for vals in (ar_values_on_circle(p, freqs), ma_values_on_circle(p, freqs)):
            for val in vals:
                assert np.array_equal(val, np.eye(2))

    def test_trailing_zero_coefficients_are_dropped(self):
        """Zeros after the last nonzero coefficient do not count toward the
        degree; a zero before it does."""
        g = make_grid(2)
        assert OperatorPolynomial.scalar(g, 0.0).degree == 0
        assert OperatorPolynomial.scalar(g, 0.5, 0.0, 0.0).degree == 1
        inner = OperatorPolynomial.scalar(g, 0.0, 0.5, 0.0)
        assert inner.degree == 2 and not inner.coeffs[0].entries.any()

    def test_ar_sign(self):
        g = make_grid(2)
        p = OperatorPolynomial.scalar(g, 0.5)
        assert np.allclose(ar_values_on_circle(p, [0.0])[0], 0.5 * np.eye(2))

    def test_ar_direct_matrix(self):
        g = make_grid(2)
        a1 = np.array([[0.2, 0.1], [0.0, 0.3]], dtype=complex)
        p = OperatorPolynomial(g, (LinearOperator(a1, g),))
        out = ar_values_on_circle(p, [-np.pi / 2])[0]
        assert np.allclose(out, np.eye(2) - 1j * a1)

    def test_ma_differencing_vanishes_at_one(self):
        g = make_grid(3)
        theta = OperatorPolynomial.scalar(g, -1.0)
        assert operator_norm(ma_values_on_circle(theta, [0.0])[0]) == 0.0

    def test_ma_sign(self):
        g = make_grid(2)
        theta = OperatorPolynomial.scalar(g, 0.5)
        assert np.allclose(ma_values_on_circle(theta, [np.pi])[0], 0.5 * np.eye(2))


class TestCircleInvertibility:
    def test_stable_scalar_margin(self):
        phi = OperatorPolynomial.scalar(make_grid(1), 0.5)
        ok, margin = check_invertible_on_circle(phi)
        assert ok
        # oracle: |1 - 0.5 e^{-i lam}| is minimized at lam = 0, a scan point, so
        # the bound of the cells next to it lies within L h / 2 of the minimum
        h = 2.0 * np.pi / 4096
        assert 0.5 - 0.5 * h / 2.0 <= margin <= 0.5

    def test_unit_root_detected(self):
        phi = OperatorPolynomial.scalar(make_grid(1), 1.0)
        ok, margin = check_invertible_on_circle(phi)
        assert not ok
        assert margin < 1e-10

    def test_degree_zero(self):
        ok, margin = check_invertible_on_circle(OperatorPolynomial(make_grid(2)))
        assert ok and margin == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "a",
        [np.exp(1j * np.pi / 4096), np.exp(0.1234567j), 1.0 - 1e-9, -np.exp(2.5e-5j)],
    )
    def test_roots_on_the_circle_refused(self, a):
        g = make_grid(1)
        phi = OperatorPolynomial.scalar(g, a)
        ok, _ = check_invertible_on_circle(phi)
        assert not ok
        with pytest.raises(SingularTransferError):
            ArmaModel(phi, OperatorPolynomial(g), op(np.eye(1), g))

    def test_lag_weighted_lipschitz_bound(self):
        # 1 - c z^4 with |c| = 1 has roots midway between scan points, where
        # sigma(lam) = 2|sin(2 lam - arg c / 2)| has slope 4, the lag of its term
        c = np.exp(2j * 2.0 * np.pi / 4096)
        phi = OperatorPolynomial.scalar(make_grid(1), 0.0, 0.0, 0.0, c)
        assert not check_invertible_on_circle(phi)[0]

    def test_non_normal_unit_root_refused(self):
        # eigenvalue e^{0.3i} on the circle, hidden behind a large off-diagonal entry
        a1 = np.array([[np.exp(0.3j), 5.0], [0.0, 0.3]])
        phi = OperatorPolynomial(make_grid(2), (op(a1),))
        assert not check_invertible_on_circle(phi)[0]

    @pytest.mark.parametrize("a", [0.5, 0.99, 0.9995, 0.9999999])
    def test_near_unit_roots_on_the_scan_keep_their_margin(self, a):
        phi = OperatorPolynomial.scalar(make_grid(1), a)
        ok, margin = check_invertible_on_circle(phi)
        scan = ar_values_on_circle(phi, 2.0 * np.pi * np.arange(4096) / 4096)
        s_min = np.linalg.svd(scan, compute_uv=False).min()
        assert ok
        # the minimum 1 - a sits on the scan; its cells bound it from below
        # within L h / 2, and bisection only tightens that
        assert max(0.0, s_min - a * np.pi / 4096) <= margin <= s_min
        assert margin > 0.0

    def test_near_unit_root_between_scan_points_accepted(self):
        a = (1.0 - 1e-6) * np.exp(0.1234567j)
        ok, margin = check_invertible_on_circle(OperatorPolynomial.scalar(make_grid(1), a))
        assert ok
        # the margin is a certified lower bound: at most the true minimum 1 - |a|,
        # which the scan points on either side overstate by about 1e-5
        assert 1e-8 < margin <= 1e-6

    def test_margin_bounds_cells_certified_before_the_last_level(self):
        """``(1 - a z)(1 - b z)`` with a root near the circle: its cells are
        bisected, while cells elsewhere are certified by the first scan.  The
        margin is at most each of those first-scan bounds and at most the true
        minimum over a dense scan."""
        a, b = 0.9 * np.exp(-2j), 0.998 * np.exp(-1.95j)
        phi = OperatorPolynomial.scalar(make_grid(1), a + b, -a * b)
        ok, margin = check_invertible_on_circle(phi)
        assert ok
        h = 2.0 * np.pi / 4096
        s = np.linalg.svd(ar_values_on_circle(phi, h * np.arange(4096)), compute_uv=False)
        lip = abs(a + b) + 2.0 * abs(a * b)
        bound = (s[:, -1] + np.roll(s[:, -1], -1) - lip * h) / 2.0
        certified = bound > 1e-8 * s.max()
        assert 0 < (~certified).sum() < 100
        assert 0.0 < margin <= bound[certified].min()
        dense = np.linspace(0.0, 2.0 * np.pi, 2**18, endpoint=False)
        true_min = np.abs(1.0 - (a + b) * np.exp(-1j * dense) + a * b * np.exp(-2j * dense)).min()
        assert margin <= true_min

    def test_flat_small_margin_stays_within_the_evaluation_budget(self, monkeypatch):
        # 1 - 1.5 S z with S the nilpotent shift: determinant 1, invertible on the
        # whole circle, but sigma_min ~ 2e-6 everywhere, so no cell is certified
        # until L h falls below it; the bisection must stop at its budget
        n, scan = 32, transfer._CIRCLE_SCAN
        g = make_grid(n)
        phi = OperatorPolynomial(g, (op(1.5 * np.eye(n, k=1), g),))
        batches = []

        def counting(poly, freqs):
            batches.append(np.size(freqs))
            return ar_values_on_circle(poly, freqs)

        monkeypatch.setattr(transfer, "ar_values_on_circle", counting)
        ok, margin = check_invertible_on_circle(phi)
        assert ok
        assert max(batches) <= scan
        assert sum(batches) <= (1 + transfer._CIRCLE_BUDGET) * scan
        # no cell is certified before the budget runs out, so no positive lower
        # bound is proven, although the evaluated minimum accepts the symbol
        assert margin == 0.0

    @staticmethod
    def _symbol(n: int, p: int, seed: int, unit_root: bool) -> OperatorPolynomial:
        """``prod_j (Id - A_j z)`` for p random factors with operator norms in
        (0.2, 1.2).  With ``unit_root``, the first factor is normal with the
        eigenvalue ``exp(-i lam_0)`` for a point ``lam_0`` of the 2^16-point
        oracle scan, so the symbol is singular exactly there."""
        rng = np.random.default_rng(seed)
        g = make_grid(n)
        factors = []
        for _ in range(p):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            factors.append(a * (rng.uniform(0.2, 1.2) / np.linalg.norm(a, 2)))
        if unit_root:
            u = random_unitary(rng, n)
            eig = rng.uniform(0.1, 0.9, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            eig[0] = np.exp(-2j * np.pi * rng.integers(2**16) / 2**16)
            factors[0] = u.conj().T @ (eig[:, None] * u)
        coeffs = [factors[0]]  # coefficients of the AR sign convention Id - A_1 z - A_2 z^2
        if p == 2:
            coeffs = [factors[0] + factors[1], -factors[0] @ factors[1]]
        return OperatorPolynomial(g, tuple(op(c, g) for c in coeffs))

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 5]),
        p=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        unit_root=st.booleans(),
    )
    def test_agrees_with_a_dense_scan_oracle(self, n, p, seed, unit_root):
        """Same verdict as a 2^16-point scan; the margin lies below that scan's
        minimum and within ``L pi / 4096`` of the 4096-point scan's cell bound."""
        phi = self._symbol(n, p, seed, unit_root)
        ok, margin = check_invertible_on_circle(phi)
        lip = sum(k * operator_norm(c) for k, c in enumerate(phi.coeffs, start=1))
        oracle = np.concatenate(
            [
                np.linalg.svd(ar_values_on_circle(phi, part), compute_uv=False)
                for part in np.split(2.0 * np.pi * np.arange(2**16) / 2**16, 16)
            ]
        )
        assert ok == (oracle[:, -1].min() > 1e-8 * oracle.max())
        assert ok == (not unit_root)
        assert margin <= oracle[:, -1].min()
        h = 2.0 * np.pi / 4096
        s = np.linalg.svd(ar_values_on_circle(phi, h * np.arange(4096)), compute_uv=False)[:, -1]
        dense = max(0.0, float(((s + np.roll(s, -1) - lip * h) / 2.0).min()))
        assert margin >= dense - lip * np.pi / 4096
        # the model decides by its poles, or by the certificate when they prove nothing
        g = phi.grid
        try:
            model = ArmaModel(phi, OperatorPolynomial(g), op(np.eye(g.n), g))
        except SingularTransferError:
            model = None
        assert (model is not None) == ok
        if model is not None:
            assert model.margin <= oracle[:, -1].min()

    @pytest.mark.parametrize("coeffs", [(), (0.0,), (0.0, 0.0)])
    def test_identity_symbol_needs_no_svd(self, monkeypatch, coeffs):
        phi = OperatorPolynomial.scalar(make_grid(3), *coeffs)

        def refuse(*args, **kwargs):
            raise AssertionError("the identity symbol was evaluated")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(transfer, "ar_values_on_circle", refuse)
        assert check_invertible_on_circle(phi) == (True, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 4, 32])
    def test_arma11_model_needs_few_symbol_evaluations(self, monkeypatch, n):
        """An ARMA(1,1) base with an AR coefficient of norm 0.5 is certified
        from at most 512 symbol values, where a dense scan takes 4096."""
        rng = np.random.default_rng(n)
        g = make_grid(n)
        a1, b1 = (rng.normal(size=(n, n)) for _ in range(2))
        a1 *= 0.5 / np.linalg.norm(a1, 2)
        b1 *= 0.5 / np.linalg.norm(b1, 2)
        evaluated = []

        def counting(poly, freqs):
            evaluated.append(np.size(freqs))
            return ar_values_on_circle(poly, freqs)

        monkeypatch.setattr(transfer, "ar_values_on_circle", counting)
        model = ArmaModel(
            OperatorPolynomial(g, (op(a1, g),)), OperatorPolynomial(g, (op(b1, g),)), op(np.eye(n), g)
        )
        assert sum(evaluated) <= 512
        assert model.margin > 0.0


class TestPoles:
    """The poles of an AR symbol, from the eigendecomposition of its block
    companion, against the Lipschitz certificate they stand in for."""

    @staticmethod
    def _counted_fallback(monkeypatch) -> list:
        calls = []
        real = transfer.check_invertible_on_circle

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(transfer, "check_invertible_on_circle", counting)
        return calls

    def test_scalar_ar2_is_proven_by_its_poles(self, monkeypatch):
        """``(1 - 0.5 z)(1 + 0.25 z)``: poles 0.5 and -0.25, whose distance to
        the circle, over the companion's small kappa, bounds the symbol's
        minimum 0.625 (at w = 0) from below without the certificate."""
        fallback = self._counted_fallback(monkeypatch)
        g = make_grid(1)
        phi = OperatorPolynomial.scalar(g, 0.25, 0.125)
        ok, margin, poles = transfer.circle_verdict(phi)
        assert ok and not fallback
        assert sorted(poles.values.real) == pytest.approx([-0.25, 0.5])
        assert poles.scale == pytest.approx(1.375)
        dense = np.linspace(0.0, 2.0 * np.pi, 2**16, endpoint=False)
        true_min = np.abs(1.0 - 0.25 * np.exp(-1j * dense) - 0.125 * np.exp(-2j * dense)).min()
        assert true_min == pytest.approx(0.625)
        assert 0.1 * true_min <= margin <= true_min

    def test_identity_symbol_has_no_poles(self):
        poles = transfer.ar_poles(OperatorPolynomial.scalar(make_grid(2), 0.0, 0.0))
        assert poles.values.size == 0 and poles.bound == 1.0
        assert poles.nearest(np.pi) == (math.inf, 0.0)

    def test_jordan_type_ar2_takes_the_certificate(self, monkeypatch):
        """An n=3 AR(2) with a Jordan-type lag-1 coefficient has an eigenvector
        matrix too ill-conditioned to prove anything: the Lipschitz
        certificate decides it, with its own margin."""
        fallback = self._counted_fallback(monkeypatch)
        g = make_grid(3)
        a1 = np.array([[0.5, 4.0, 0.0], [0.0, 0.5, 4.0], [0.0, 0.0, 0.5]])
        phi = OperatorPolynomial(g, (op(a1, g), op(0.1 * np.eye(3), g)))
        model = ArmaModel(phi, OperatorPolynomial(g), op(np.eye(3), g))
        assert len(fallback) == 1
        assert model.poles.bound == 0.0
        assert model.margin == pytest.approx(5.198966019054501e-4, rel=1e-6)

    def test_nilpotent_shift_takes_the_certificate(self, nilpotent_shift_model):
        """The defective companion of ``Id - 1.5 S z`` proves no bound, so the
        certificate decides: it accepts, with no proven margin."""
        assert nilpotent_shift_model.poles.bound == 0.0
        assert nilpotent_shift_model.margin == 0.0

    def test_ar_inverse_laurent_takes_the_model_verdict(self, monkeypatch):
        """A stable symbol is proven by its poles; a unit root is refused by the
        certificate, as :class:`ArmaModel` refuses it."""
        fallback = self._counted_fallback(monkeypatch)
        g = make_grid(1)
        ar_inverse_laurent(OperatorPolynomial.scalar(g, 0.5), 8)
        assert not fallback
        with pytest.raises(SingularTransferError):
            ar_inverse_laurent(OperatorPolynomial.scalar(g, 1.0), 8)
        assert len(fallback) == 1


class TestArmaTransfer:
    @staticmethod
    def _transfer(phi, theta, lam):
        """The half-factor of the model with ``Sigma = Id`` at one frequency."""
        sigma = op(np.eye(phi.grid.n), phi.grid)
        return arma_transfer_batch(ArmaModel(phi, theta, sigma), [lam])[0]

    def test_identity_model(self):
        g = make_grid(2)
        eye_poly = OperatorPolynomial(g)
        out = self._transfer(eye_poly, eye_poly, 0.7)
        assert np.allclose(out, np.eye(2))

    def test_scalar_ar1_at_zero(self):
        g = make_grid(1)
        out = self._transfer(OperatorPolynomial.scalar(g, 0.5), OperatorPolynomial(g), 0.0)
        assert out[0, 0] == pytest.approx(2.0)

    def test_scalar_ar1_at_pi(self):
        g = make_grid(1)
        out = self._transfer(OperatorPolynomial.scalar(g, 0.9), OperatorPolynomial(g), np.pi)
        assert out[0, 0] == pytest.approx(1.0 / (1.0 - 0.9 * np.exp(-1j * np.pi)))
        assert out[0, 0].real == pytest.approx(1.0 / 1.9)

    def test_batch_is_the_half_factor_of_the_model(self, rng):
        g = make_grid(2)
        a1, b1 = 0.3 * rng.normal(size=(2, 2)), 0.5 * rng.normal(size=(2, 2))
        model = ArmaModel(
            OperatorPolynomial(g, (op(a1, g),)),
            OperatorPolynomial(g, (op(b1, g),)),
            op([[2.0, 0.5], [0.5, 1.0]], g),
        )
        freqs = np.array([-2.5, 0.0, 0.4, np.pi])
        got = arma_transfer_batch(model, freqs)
        for lam, half in zip(freqs, got):
            z = np.exp(-1j * lam)
            want = np.linalg.solve(np.eye(2) - a1 * z, np.eye(2) + b1 * z) @ model.root.entries
            assert np.allclose(half, want, rtol=1e-13, atol=0.0)

    def test_batch_overflow_is_reported_as_an_overflow(self):
        """theta = Sigma = 1e300 Id: phi is certified, and the half-factor
        1e450 is beyond the double range, at the first frequency already."""
        g = make_grid(2)
        huge = op(1e300 * np.eye(2), g)
        model = ArmaModel(
            OperatorPolynomial(g, (op(np.diag([0.3, 0.2]), g),)),
            OperatorPolynomial(g, (huge,)),
            huge,
        )
        with pytest.raises(OverflowError, match="ARMA transfer overflows at frequency -3$"):
            arma_transfer_batch(model, [-3.0, 0.0, 1.0])


class TestFracTransfer:
    def test_zero_frequency_is_zero_operator(self):
        spec = FracIntegrationSpec.scalar(make_grid(2), 0.4)
        for lam in (0.0, 2 * np.pi, -2 * np.pi):
            assert operator_norm(frac_transfer_batch(spec, [lam])[0]) == 0.0

    def test_zero_mask_matches_math_remainder(self):
        two_pi = 2.0 * np.pi
        edge = [0.0, -0.0, np.pi, -np.pi, two_pi, -two_pi, 3 * two_pi, -7 * two_pi,
                np.nextafter(two_pi, 0.0), np.nextafter(two_pi, 10.0), 5e-324, 1e300]
        rng = np.random.default_rng(11)
        freqs = np.concatenate([edge, rng.uniform(-50.0, 50.0, 1000),
                                two_pi * rng.integers(-1000, 1000, 200)])
        spec = FracIntegrationSpec.scalar(make_grid(1), 0.3)
        got = frac_transfer_batch(spec, freqs)[:, 0, 0] != 0.0
        expected = np.array([math.remainder(l, two_pi) != 0.0 for l in freqs])
        assert np.array_equal(got, expected)
        assert list(got[:6]) == [False, False, True, True, False, False]

    @pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan])
    def test_non_finite_frequency_rejected(self, lam):
        spec = FracIntegrationSpec.scalar(make_grid(1), 0.3)
        with pytest.raises(ValueError, match="finite"):
            frac_transfer_batch(spec, [0.5, lam])

    def test_zero_exponent(self):
        spec = FracIntegrationSpec.scalar(make_grid(2), 0.0)
        assert np.allclose(frac_transfer_batch(spec, [1.0])[0], np.eye(2), atol=1e-14)

    def test_scalar_at_pi(self):
        spec = FracIntegrationSpec.scalar(make_grid(1), 0.5)
        out = frac_transfer_batch(spec, [np.pi])[0]
        assert out[0, 0] == pytest.approx(2.0**-0.5)

    def test_near_normal_exponent_stays_in_its_frame(self, rng, monkeypatch):
        # normal up to one 1e-12 entry in its frame: the existence check
        # diagonalizes this D, so the transfer must use the same frame
        u = random_unitary(rng, 4)
        tri = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        tri[0, 3] = 1e-12
        spec = FracIntegrationSpec(op(u.conj().T @ tri @ u))
        assert spec.frame_error is None

        def no_expm(*args, **kwargs):
            raise AssertionError("dense expm used for a normal memory operator")

        monkeypatch.setattr(scipy.linalg, "expm", no_expm)
        freqs = np.array([-2.5, -0.3, 0.7, np.pi])
        for lam, val in zip(freqs, frac_transfer_batch(spec, freqs)):
            expect = spec.apply_scalar((1.0 - np.exp(-1j * lam)) ** -spec.d)
            assert np.allclose(val, expect, rtol=0.0, atol=1e-13)


class TestExpOfTheMemoryOperator:
    def test_frameless_stack_matches_one_expm_per_scalar(self, rng):
        d_op = np.triu(rng.normal(size=(5, 5))) * 0.1 + np.diag(rng.uniform(0.0, 0.4, 5))
        spec = FracIntegrationSpec(op(d_op))
        assert spec.frame_error is not None
        ts = rng.normal(size=7) + 1j * rng.normal(size=7)
        want = np.stack([scipy.linalg.expm(t * spec.D.entries) for t in ts])
        assert np.array_equal(spec.exp(ts), want)

    def test_beyond_the_double_range_is_left_to_the_caller(self):
        """D = diag(1e308, 0.1): exp(t D) leaves the double range without a
        warning, and the density's finite check refuses it."""
        spec = FracIntegrationSpec(op(np.diag([1e308, 0.1])))
        assert not np.isfinite(spec.exp([0.5 + 0.2j])).all()
        assert np.isfinite(spec.exp([-0.0])).all()


class TestOneFrameRule:
    """A memory operator has a unitary frame exactly when that frame
    reproduces it within ``NORMAL_TOL ||D||``; no commutator test decides."""

    def test_near_normal_operator_gets_its_frame(self):
        # its commutator is 1.6e-10 of ||D||^2, above the tolerance, yet its
        # frame reproduces it within 8e-11 relative
        d_op = op(0.4 * np.array([[1.0, 8e-11], [0.0, -1.0]]))
        m = d_op.entries
        comm = m @ m.conj().T - m.conj().T @ m
        assert operator_norm(comm) > NORMAL_TOL * operator_norm(m) ** 2
        err = operator_norm(reconstruct(FracIntegrationSpec(d_op)) - d_op.entries)
        assert err <= NORMAL_TOL * operator_norm(d_op)

    def test_frame_error_names_the_reconstruction_error(self):
        spec = FracIntegrationSpec(op([[0.2, 0.1], [0.0, 0.1]]))
        assert spec.frame_error is not None
        assert spec.frame_error.startswith(
            "operator not normal: unitary diagonalization leaves reconstruction error"
        )


class TestFracCoeffs:
    def test_coefficients_beyond_the_double_range_raise(self):
        """D = diag(1e308, 0.1): one OverflowError, from the frame's scalars
        and from the dense recursion alike, instead of NaN coefficients."""
        d_op = op(np.diag([1e308, 0.1]))
        message = r"the MA coefficients of \(1 - z\)\^\{-D\} overflow the double range"
        with pytest.raises(OverflowError, match=message):
            frac_ma_coeffs(FracIntegrationSpec(d_op), 64)
        with pytest.raises(OverflowError, match=message):
            binomial_ma_coeffs(d_op, 64)
        with pytest.raises(OverflowError, match="binomial coefficients"):
            duker_decomposition(FracIntegrationSpec(d_op), 8)

    def test_zero_exponent(self):
        seq = frac_ma_coeffs(FracIntegrationSpec.scalar(make_grid(2), 0.0), 4)
        assert np.allclose(seq[0], np.eye(2))
        for k in range(1, 5):
            assert operator_norm(seq[k]) == 0.0

    def test_geometric_series(self):
        seq = frac_ma_coeffs(FracIntegrationSpec.scalar(make_grid(2), 1.0), 6)
        for k in range(7):
            assert np.allclose(seq[k], np.eye(2), atol=1e-14)

    def test_small_orders(self):
        seq = frac_ma_coeffs(FracIntegrationSpec.scalar(make_grid(1), 0.3), 2)
        assert seq[1][0, 0].real == pytest.approx(0.3)
        assert seq[2][0, 0].real == pytest.approx(0.195)

    @pytest.mark.parametrize("d", [-0.4, 0.3, 0.45])
    def test_scalar_reduction_gamma_oracle(self, d):
        order = 1000
        seq = frac_ma_coeffs(FracIntegrationSpec.scalar(make_grid(1), d), order)
        got = np.array([seq[k][0, 0].real for k in range(order + 1)])
        want = scalar_frac_coeffs(d, order)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10

    def test_normal_conjugation(self, rng):
        n = 3
        u = random_unitary(rng, n)
        d = np.array([0.1, -0.3 + 0.2j, 0.45])
        mat = u.conj().T @ (d[:, None] * u)
        seq = frac_ma_coeffs(FracIntegrationSpec(op(mat)), 40)
        for k in (1, 7, 40):
            scalars = scalar_frac_coeffs_complex(d, k)
            expected = u.conj().T @ (scalars[:, None] * u)
            assert operator_norm(seq[k] - expected) < 1e-10

    def test_partial_sums_approach_transfer(self, rng):
        g = make_grid(3)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m *= 0.9 / operator_norm(m)
        d_op = LinearOperator(m, g)
        z = 0.5
        target = FracIntegrationSpec(d_op).exp([np.log(1 - z)])[0]
        seq = frac_ma_coeffs(FracIntegrationSpec(LinearOperator(-m, g)), 200)
        partial = sum(seq[k] * z**k for k in range(201))
        assert operator_norm(partial - target) < 1e-8

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_eigenframe_matches_dense_recursion(self, rng, n):
        """The per-eigenvalue ``cumprod`` rotated back through D's frame agrees
        with the dense recursion on D to 1e-12 of each coefficient's norm."""
        u = random_unitary(rng, n)
        d = rng.uniform(-0.2, 0.45, n) + 1j * rng.uniform(-0.1, 0.1, n)
        spec = FracIntegrationSpec(op(u.conj().T @ (d[:, None] * u)))
        assert spec.frame_error is None
        got = frac_ma_coeffs(spec, 2048).data
        want = binomial_ma_coeffs(spec.D, 2048).data
        err = np.linalg.norm(got - want, 2, axis=(1, 2)) / np.linalg.norm(want, 2, axis=(1, 2))
        assert err.max() < 1e-12

    @pytest.mark.parametrize("d", [-0.4, 0.3, 0.45, 0.499])
    def test_scalar_exponent_matches_exact_rational_coefficients(self, d):
        """``Gamma(k + d) / (Gamma(d) k!) = prod_{j<=k} (j - 1 + d) / j`` in exact
        rational arithmetic on the float ``d``, correctly rounded at the end."""
        order = 2048
        seq = frac_ma_coeffs(FracIntegrationSpec.scalar(make_grid(1), d), order)
        num_d, den_d = d.as_integer_ratio()
        num, den = 1, 1
        for k in range(1, order + 1):
            num *= (k - 1) * den_d + num_d
            den *= k * den_d
            if k in (1, 2, 10, 100, 1000, 2048):
                assert seq[k][0, 0] == pytest.approx(num / den, rel=1e-12, abs=0.0)
                assert seq[k][0, 0].imag == 0.0

    @pytest.mark.parametrize("d", [-0.4, 0.3, 0.45, 0.499])
    def test_dense_recursion_matches_hosking_closed_form(self, d):
        """The dense recursion on ``D = d Id`` gives Hosking's
        ``Gamma(k + d) / (Gamma(d) k!) Id`` at every lag up to 2048; the
        log-gamma oracle itself carries rounding of about 3e-12 there."""
        order = 2048
        got = binomial_ma_coeffs(op(d * np.eye(3)), order).data
        want = scalar_frac_coeffs(d, order)[:, None]
        diag = got[:, [0, 1, 2], [0, 1, 2]]
        assert np.max(np.abs(diag - want) / np.abs(want)) < 1e-10
        assert not got[:, ~np.eye(3, dtype=bool)].any()

    def test_non_normal_exponent_keeps_the_dense_recursion(self, rng):
        """A D without an eigenframe gives exactly the values of the loop
        ``C_k = C_{k-1} ((D + (k-1) Id) / k)``."""
        m = np.triu(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m *= 0.4 / operator_norm(m)
        spec = FracIntegrationSpec(op(m))
        assert spec.frame_error is not None
        eye = np.eye(4, dtype=complex)
        want = [eye]
        for k in range(1, 301):
            want.append(want[-1] @ ((m + (k - 1) * eye) / k))
        assert np.array_equal(frac_ma_coeffs(spec, 300).data, np.array(want))

    def test_real_exponent_gives_real_coefficients(self, rng):
        """A real normal D with the complex eigenvalues 0.2 +- 0.1i has a complex
        frame, yet the coefficients of ``(1 - z)^{-D}`` are real."""
        u = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        block = np.array([[0.2, -0.1, 0.0], [0.1, 0.2, 0.0], [0.0, 0.0, 0.3]])
        spec = FracIntegrationSpec(op(u.T @ block @ u))
        assert spec.frame_error is None
        seq = frac_ma_coeffs(spec, 64).data
        assert not seq.imag.any()
        assert np.allclose(seq, binomial_ma_coeffs(spec.D, 64).data, rtol=0.0, atol=1e-14)

def scalar_frac_coeffs_complex(d: np.ndarray, k: int) -> np.ndarray:
    """Coefficient k of (1-z)^(-d) per complex exponent, by direct recursion."""
    out = np.ones_like(d, dtype=complex)
    for j in range(1, k + 1):
        out *= (d + j - 1) / j
    return out


class TestArInverseLaurent:
    def test_causal_geometric(self):
        g = make_grid(1)
        phi = OperatorPolynomial.scalar(g, 0.5)
        seq = ar_inverse_laurent(phi, 50)
        for k in range(51):
            assert abs(seq[k][0, 0] - 0.5**k) < 1e-9
        for k in range(1, 51):
            assert abs(seq[-k][0, 0]) < 1e-9
        assert seq.tail_mass < 1e-8

    def test_degree_zero(self):
        seq = ar_inverse_laurent(OperatorPolynomial(make_grid(2)), 8)
        assert np.allclose(seq[0], np.eye(2), atol=1e-12)
        for k in range(1, 9):
            assert operator_norm(seq[k]) < 1e-12
            assert operator_norm(seq[-k]) < 1e-12

    def test_anticausal_expansion_at_infinity(self):
        # 1/(1 - 2z) = -sum_{m>=1} 2^{-m} z^{-m}: support on k <= 0, P_0 = 0
        g = make_grid(1)
        phi = OperatorPolynomial.scalar(g, 2.0)
        seq = ar_inverse_laurent(phi, 30)
        assert abs(seq[0][0, 0]) < 1e-9
        for m in range(1, 20):
            assert abs(seq[-m][0, 0] + 2.0**-m) < 1e-9
            assert abs(seq[m][0, 0]) < 1e-9

    def test_recursion_property(self, rng):
        g = make_grid(3)
        a1 = rng.normal(size=(3, 3)) * 0.15
        a2 = rng.normal(size=(3, 3)) * 0.1
        phi = OperatorPolynomial(g, (op(a1, g), op(a2, g)))
        seq = ar_inverse_laurent(phi, 40)
        for k in range(1, 41):
            expected = a1 @ seq[k - 1] + a2 @ seq[k - 2]
            assert operator_norm(seq[k] - expected) < 1e-8

    def test_rejects_bad_sizes(self):
        """At most a quarter of the 4096 inversion points are kept, and no
        order is negative."""
        phi = OperatorPolynomial.scalar(make_grid(1), 0.5)
        assert len(ar_inverse_laurent(phi, 1024)) == 2049
        with pytest.raises(ValueError, match=r"order must lie in \[0, 1024\]"):
            ar_inverse_laurent(phi, 1025)
        with pytest.raises(ValueError, match=r"order must lie in \[0, 1024\]"):
            ar_inverse_laurent(phi, -1)

    def test_rejects_unit_root(self):
        phi = OperatorPolynomial.scalar(make_grid(1), 1.0)
        with pytest.raises(SingularTransferError):
            ar_inverse_laurent(phi, 4)


class TestDukerDecomposition:
    def test_identity_exponent_degenerates(self):
        g = make_grid(2)
        c_mat, deltas, rho = duker_decomposition(FracIntegrationSpec(op(np.eye(2), g)), 20)
        assert rho == pytest.approx(1.0)
        assert operator_norm(c_mat.entries) < 1e-12
        assert np.allclose(deltas[0], np.eye(2), atol=1e-8)
        for k in range(1, 21):
            assert operator_norm(deltas[k]) < 1e-8

    def test_scalar_constant_matches_gamma_oracle(self):
        for n_val in (0.3, 0.7, 1.4, 0.6 + 0.2j, 0.95, 0.99, 0.999, 1.0, 2.0, 2.5 + 0.3j):
            g = make_grid(1)
            c_mat, _, _ = duker_decomposition(FracIntegrationSpec(op(np.array([[n_val]]), g)), 2)
            # rgamma, not 1/gamma: scipy's gamma is nan at the pole 1 - n = -1
            oracle = scipy.special.rgamma(1.0 - n_val)
            assert abs(c_mat.entries[0, 0] - oracle) < 1e-12 * max(1.0, abs(oracle))

    def test_remainder_decay_bounded(self):
        g = make_grid(1)
        _, deltas, rho = duker_decomposition(FracIntegrationSpec(op(0.7 * np.eye(1), g)), 10_000)
        assert rho == pytest.approx(0.7)
        norms = deltas.norms()
        ks = np.arange(100, 10_001)
        scaled = norms[100:] * ks**1.7
        assert np.max(scaled) < 10 * scaled[0]

    def test_remainder_negligible_against_binomials(self):
        n_val = 0.4
        g = make_grid(1)
        c_mat, deltas, _ = duker_decomposition(FracIntegrationSpec(op(n_val * np.eye(1), g)), 5000)
        # the binomial coefficients behave like k^{-n}/gamma(1-n); remainder is o(that)
        b_k = np.exp(
            scipy.special.gammaln(np.arange(1, 5001) + 1 - n_val)
            - scipy.special.gammaln(1 - n_val)
            - scipy.special.gammaln(np.arange(1, 5001) + 1.0)
        )
        ratio = deltas.norms()[1:] / b_k
        assert ratio[-1] < 1e-3
        assert ratio[-1] < ratio[100] < ratio[10]

    def test_reconstruction_binomial_oracle(self):
        n_val = 0.65
        g = make_grid(1)
        c_mat, deltas, _ = duker_decomposition(FracIntegrationSpec(op(n_val * np.eye(1), g)), 500)
        ks = np.arange(1, 501, dtype=float)
        oracle = np.exp(
            scipy.special.gammaln(ks + 1 - n_val)
            - scipy.special.gammaln(1 - n_val)
            - scipy.special.gammaln(ks + 1.0)
        )
        recon = np.array(
            [c_mat.entries[0, 0] * (k + 1.0) ** -n_val + deltas[int(k)][0, 0] for k in ks]
        )
        assert np.max(np.abs(recon.real - oracle)) < 1e-8

    def test_partial_sums_cauchy(self):
        g = make_grid(2)
        u = random_unitary(np.random.default_rng(3), 2)
        mat = u.conj().T @ (np.array([0.6, 0.8])[:, None] * u)
        _, deltas, rho = duker_decomposition(FracIntegrationSpec(op(mat, g)), 4000)
        sums = np.cumsum(deltas.norms())
        tail_1 = sums[-1] - sums[1999]
        tail_2 = sums[1999] - sums[999]
        # geometric-ish decay of dyadic tail blocks, consistent with k^{-1-rho}
        assert tail_1 < tail_2 < 0.05 * sums[-1]

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormalError):
            duker_decomposition(FracIntegrationSpec(op([[0.5, 1.0], [0.0, 0.5]])), 4)

    def test_remainders_match_log_gamma_oracle_in_frame(self):
        g = make_grid(2)
        u = random_unitary(np.random.default_rng(11), 2)
        n_vals = np.array([0.95, 0.99])
        order = 2000
        n_spec = FracIntegrationSpec(op(u.conj().T @ (n_vals[:, None] * u), g))
        c_mat, deltas, rho = duker_decomposition(n_spec, order)
        assert rho == pytest.approx(0.95)
        ks = np.arange(order + 1, dtype=float)[:, None]
        lg_one_minus_n = scipy.special.gammaln(1.0 - n_vals)
        b_k = np.exp(scipy.special.gammaln(ks + 1.0 - n_vals) - lg_one_minus_n
                     - scipy.special.gammaln(ks + 1.0))
        powerlaw = np.exp(-lg_one_minus_n) * (ks + 1.0) ** -n_vals
        oracle = np.einsum("ij,ki,il->kjl", u.conj(), b_k - powerlaw, u)
        assert np.allclose(c_mat.entries, u.conj().T @ (np.exp(-lg_one_minus_n)[:, None] * u),
                           rtol=0, atol=1e-14)
        # the oracle's b_k inherit the rounding of gammaln(k+1), up to 1.3e4 here, and
        # the remainders cancel down to ~b_k/k against it: allow 8 ulps of
        # gammaln(k+1) relative to b_k, over rounding at the scale of Delta_0 = 1 - C
        err = np.max(np.abs(deltas.data - oracle), axis=(1, 2))
        ulps = np.finfo(float).eps * scipy.special.gammaln(ks[:, 0] + 1.0)
        assert np.all(err <= 8.0 * ulps * b_k.max(axis=1) + 1e-15)


class TestReciprocalGamma:
    def test_real_axis_matches_scipy(self):
        for z in np.arange(-12.0, 12.0 + 1e-9, 0.25):
            want = scipy.special.rgamma(z)
            got = _rgamma(z)
            if z <= 0 and z == round(z):
                assert got == 0.0  # exactly, at every pole of Gamma
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_complex_plane_matches_scipy(self, rng):
        zs = rng.uniform(-12, 12, 400) + 1j * rng.uniform(-6, 6, 400)
        zs = np.concatenate([zs, [5 + 2j, 1.5 + 4j, -0.5 + 6j, 0.25 - 6j, 6j]])
        for z in zs:
            want = scipy.special.rgamma(z)
            assert abs(_rgamma(z) - want) <= 1e-13 * max(1.0, abs(want))


    @pytest.mark.parametrize("pole", [-199.0, -2.0**53, -1e7 + 1.0, 1.0 - 1e308])
    def test_far_poles_are_exact_zeros(self, pole):
        """The reflection formula keeps z fixed: no shift by one that stalls
        once z + 1 == z, or overflows before the pole's 0."""
        assert _rgamma(pole) == 0.0

    def test_left_half_plane_far_from_zero(self):
        for z in (-160.5, -100.25 + 3j, -30.7 - 20j):
            want = scipy.special.rgamma(z)
            assert abs(_rgamma(z) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("z", [-199.5, 0.5 + 500j, -0.5 - 500j])
    def test_beyond_the_double_range_is_named(self, z):
        with pytest.raises(OverflowError, match=r"1/Gamma\(.*\) is beyond the double range"):
            _rgamma(z)


class TestPowerLawWeights:
    def test_harmonic_scalar(self):
        g = make_grid(1)
        seq = power_law_weights(FracIntegrationSpec(op(np.eye(1), g)), 16)
        for k in range(17):
            assert seq[k][0, 0].real == pytest.approx(1.0 / (k + 1))

    def test_negative_order_refused(self):
        spec = FracIntegrationSpec.scalar(make_grid(1), 0.7)
        for expansion in (power_law_weights, frac_ma_coeffs, duker_decomposition):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                expansion(spec, -3)


class TestEnvelopeBounds:
    def test_zero_exponent(self):
        lo, hi = envelope_bounds(0.0, 1.3)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)
        assert abs((1 - np.exp(-1.3j)) ** 0) ** 2 == pytest.approx(1.0)

    def test_equality_case(self):
        lo, hi = envelope_bounds(1.0, np.pi)
        mid = abs((1 - np.exp(-1j * np.pi)) ** 1.0) ** 2
        assert lo == pytest.approx(4.0)
        assert mid == pytest.approx(4.0)
        assert lo <= mid <= hi

    def test_complex_sample(self):
        z = 0.5 + 0.5j
        lam = 0.1
        lo, hi = envelope_bounds(z, lam)
        mid = abs((1 - np.exp(-1j * lam)) ** z) ** 2
        assert lo <= mid <= hi

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            envelope_bounds(1.0, 0.0)

    def test_random_box(self, rng):
        zs = rng.uniform(-2, 2, size=(2000, 2))
        lams = rng.uniform(-np.pi, np.pi, size=2000)
        lams[lams == 0.0] = 0.1
        for (re, im), lam in zip(zs, lams):
            z = complex(re, im)
            lo, hi = envelope_bounds(z, lam)
            mid = abs((1 - np.exp(-1j * lam)) ** z) ** 2
            assert lo <= mid * (1 + 1e-12) and mid <= hi * (1 + 1e-12)


class TestCoefficientSequence:
    def test_index_bounds(self):
        seq = frac_ma_coeffs(FracIntegrationSpec.scalar(make_grid(1), 0.3), 3)
        with pytest.raises(IndexError):
            seq[4]
        with pytest.raises(IndexError):
            seq[-1]
        assert seq.k_max == 3
        assert len(seq) == 4
        assert isinstance(seq.operator(2), LinearOperator)
