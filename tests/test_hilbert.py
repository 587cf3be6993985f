import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fiarma_lab import (
    FracIntegrationSpec,
    HilbertGrid,
    LinearOperator,
    NotNormalError,
    NotPSDError,
    from_kernel,
    identity,
    kernel_of,
    operator_norm,
    sqrt_psd,
)
from fiarma_lab.transfer import NORMAL_TOL

from conftest import make_grid, op, random_unitary, reconstruct


finite_floats = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def small_operators(draw):
    n = draw(st.integers(1, 4))
    re = draw(st.lists(st.lists(finite_floats, min_size=n, max_size=n), min_size=n, max_size=n))
    im = draw(st.lists(st.lists(finite_floats, min_size=n, max_size=n), min_size=n, max_size=n))
    return op(np.array(re) + 1j * np.array(im))


class TestGrid:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            HilbertGrid(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HilbertGrid(np.array([]), np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="^points: all grid points must be finite$"):
            HilbertGrid(np.array([0.0, bad]), np.array([0.5, 0.5]))

    def test_rejects_infinite_weights(self):
        with pytest.raises(ValueError, match="^weights: all grid weights must be finite$"):
            HilbertGrid(np.array([0.0, 1.0]), np.array([0.5, np.inf]))

    def test_errors_name_every_broken_field(self):
        errors = HilbertGrid.errors(np.array([np.nan]), np.array([-1.0]), prefix="grid.")
        assert list(errors) == [
            "grid.points: all grid points must be finite",
            "grid.weights: all grid weights must be strictly positive",
        ]

    def test_operator_shape_checked(self):
        with pytest.raises(ValueError):
            LinearOperator(np.zeros((2, 3)), make_grid(2))
        with pytest.raises(ValueError):
            LinearOperator(np.array([[np.nan]]), make_grid(1))

    def test_operator_errors_in_rule_order(self):
        """Square, then of the grid's size, then finite: each rule is checked
        only when those before it hold."""
        cases = [np.full((2, 3), np.nan), np.full((3, 3), np.nan), np.full((2, 2), np.nan)]
        assert [list(LinearOperator.errors(m, 2, prefix="A: ")) for m in cases] == [
            ["A: matrix must be square"],
            ["A: dimension 3 does not match grid size 2"],
            ["A: entries must be finite"],
        ]


class TestNormality:
    """The frame that :class:`FracIntegrationSpec` finds when it is built."""

    def test_hermitian_is_normal(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        spec = FracIntegrationSpec(op(m + m.conj().T))
        assert spec.frame_error is None and spec.d.size == 4

    def test_unitary_is_normal(self, rng):
        spec = FracIntegrationSpec(op(random_unitary(rng, 3)))
        assert spec.frame_error is None and spec.d.size == 3

    def test_decompose_diagonal(self):
        spec = FracIntegrationSpec(op(np.diag([0.2, 0.4])))
        assert sorted(spec.d.real) == pytest.approx([0.2, 0.4])
        err = operator_norm(reconstruct(spec) - np.diag([0.2, 0.4]))
        assert err <= 1e-12

    def test_decompose_swap_matches_eig_oracle(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        spec = FracIntegrationSpec(op(m))
        oracle = np.sort(np.linalg.eigvals(m).real)
        assert np.sort(spec.d.real) == pytest.approx(list(oracle))
        assert operator_norm(spec.U @ spec.U.conj().T - np.eye(2)) < 1e-12

    def test_decompose_rejects_non_normal(self):
        spec = FracIntegrationSpec(op([[0, 1], [0, 0]]))
        assert "not normal" in spec.frame_error
        with pytest.raises(NotNormalError, match="not normal"):
            spec.U

    def test_reconstruction_on_random_normals(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            u = random_unitary(rng, n)
            d = rng.normal(size=n) + 1j * rng.normal(size=n)
            m = u.conj().T @ (d[:, None] * u)
            spec = FracIntegrationSpec(op(m))
            err = operator_norm(reconstruct(spec) - m)
            assert err <= 1e-10 * operator_norm(m)


def _frame_cases(rng):
    """Seeded normal operators ``(kind, matrix)`` in Haar frames, n <= 32."""
    for n in (1, 2, 3, 5, 8, 13, 21, 32):
        for _ in range(6):
            u = random_unitary(rng, n)
            real = rng.normal(size=n)
            cplx = real + 1j * rng.normal(size=n)
            repeated = rng.choice(np.array([0.2, -0.5 + 0.3j, 0.7]), size=n)
            for kind, d in (("hermitian", real), ("complex", cplx), ("repeated", repeated)):
                yield kind, u.conj().T @ (d[:, None] * u)
            perm = np.eye(n)[rng.permutation(n)]
            yield "permuted", perm.T @ np.diag(cplx) @ perm
        yield "zero", np.zeros((n, n), dtype=complex)


class TestEigenframeOracle:
    """The frame of :class:`FracIntegrationSpec` against a complex Schur
    factorization (scipy)."""

    def test_reconstructs_in_schur_order(self, rng):
        kinds = set()
        for kind, m in _frame_cases(rng):
            kinds.add(kind)
            spec = FracIntegrationSpec(op(m))
            n = m.shape[0]
            scale = max(operator_norm(m), 1.0)
            assert operator_norm(reconstruct(spec) - m) <= 1e-12 * scale, kind
            assert operator_norm(spec.U @ spec.U.conj().T - np.eye(n)) <= 1e-12, kind
            schur_d = np.diag(scipy.linalg.schur(m, output="complex")[0])
            assert np.max(np.abs(spec.d - schur_d)) <= 1e-12 * scale, kind
        assert kinds == {"hermitian", "complex", "repeated", "permuted", "zero"}

    def test_commuting_but_frameless_rejected(self):
        # passes the commutator test (quadratic in the 1e-7 entry) but no
        # unitary frame reproduces it
        a = op([[0.3, 1e-7], [0.0, 0.3]])
        m = a.entries
        comm = m @ m.conj().T - m.conj().T @ m
        assert operator_norm(comm) <= NORMAL_TOL * operator_norm(m) ** 2
        with pytest.raises(NotNormalError, match="reconstruction error"):
            FracIntegrationSpec(a).U


def power_one_minus_z(d_op: LinearOperator, z: complex) -> np.ndarray:
    """Principal power ``(1 - z)^D = exp(log(1 - z) D)``."""
    return FracIntegrationSpec(d_op).exp([np.log(1 - z)])[0]


class TestPowerOneMinusZ:
    def test_zero_exponent(self):
        g = make_grid(3)
        out = power_one_minus_z(LinearOperator(np.zeros((3, 3)), g), 0.3 + 0.2j)
        assert np.allclose(out, np.eye(3), atol=1e-14)

    def test_scalar_matches_principal_power(self):
        out = power_one_minus_z(op(0.5 * np.eye(2)), 0.5)
        assert np.allclose(out, (1 - 0.5) ** 0.5 * np.eye(2), atol=1e-14)

    def test_jordan_block_closed_form(self):
        d = 0.3
        jordan = op([[d, 1.0], [0.0, d]])
        out = power_one_minus_z(jordan, 0.5)
        closed = 0.5**d * np.array([[1.0, np.log(0.5)], [0.0, 1.0]])
        assert np.allclose(out, closed, atol=1e-12)
        # independent series oracle sum (log(1-z) D)^k / k!
        w = np.log(0.5)
        term = np.eye(2, dtype=complex)
        series = np.eye(2, dtype=complex)
        for k in range(1, 60):
            term = term @ (w * jordan.entries) / k
            series += term
        assert np.allclose(out, series, atol=1e-12)

    def test_group_law_scalar(self):
        g = make_grid(2)
        z = 0.3 - 0.4j
        for d1, d2 in [(0.3, -0.2), (0.5, 0.25), (-0.4, 1.1)]:
            lhs = power_one_minus_z(op((d1 + d2) * np.eye(2), g), z)
            rhs = power_one_minus_z(op(d1 * np.eye(2), g), z) @ \
                power_one_minus_z(op(d2 * np.eye(2), g), z)
            assert operator_norm(lhs - rhs) < 1e-10

    def test_normal_route_matches_scalar_route(self, rng):
        n = 4
        u = random_unitary(rng, n)
        d = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.3, 0.3, n)
        mat = u.conj().T @ (d[:, None] * u)
        z = np.exp(-1j * 0.7)
        out = power_one_minus_z(op(mat), z)
        expected = u.conj().T @ (((1 - z) ** d)[:, None] * u)
        assert operator_norm(out - expected) < 1e-10


class TestSqrtPsd:
    def test_identity(self):
        g = make_grid(2)
        assert np.allclose(sqrt_psd(identity(g)).entries, np.eye(2))

    def test_diagonal(self):
        out = sqrt_psd(op(np.diag([4.0, 9.0])))
        assert np.allclose(out.entries, np.diag([2.0, 3.0]), atol=1e-12)

    def test_rank_one_projector_fixed(self, rng):
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        f /= np.linalg.norm(f)
        proj = np.outer(f, f.conj())
        out = sqrt_psd(op(proj))
        assert np.allclose(out.entries, proj, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError, match="positive semidefinite"):
            sqrt_psd(op(np.diag([1.0, -0.1])))

    def test_clamps_rounding_noise(self):
        out = sqrt_psd(op(np.diag([1.0, -1e-14])))
        assert out.entries[1, 1] == 0.0

    def test_square_recovers(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = m @ m.conj().T
        root = sqrt_psd(op(a))
        assert operator_norm(root.entries @ root.entries - a) < 1e-10 * operator_norm(a)

    def test_near_the_double_range(self):
        """1.7e308 Id: its Hermitian part is in range, though the sum of the
        operator and its adjoint is not."""
        out = sqrt_psd(op(1.7e308 * np.eye(2)))
        assert np.array_equal(out.entries, np.sqrt(1.7e308) * np.eye(2))

    def test_non_hermitian_near_the_double_range(self):
        """A - A^H is beyond the double range: the defect reads inf, with no
        warning on the way."""
        with pytest.raises(NotPSDError, match=r"not Hermitian \(\|\|A - A\^H\|\| = inf\)"):
            sqrt_psd(op(np.array([[1e308, -1e308], [1e308, 1e308]])))


class TestKernels:
    def test_uniform_identity_kernel_is_scaled_dirac(self):
        n = 4
        g = HilbertGrid.uniform(n)
        k = kernel_of(identity(g))
        assert np.allclose(k, n * np.eye(n), atol=1e-12)

    def test_rank_one_kernel_is_outer_product(self, rng):
        g = make_grid(5, uniform=False)
        f = rng.normal(size=5) + 1j * rng.normal(size=5)
        f /= np.sqrt(np.sum(np.abs(f) ** 2 * g.weights))  # unit weighted norm
        coords = f * np.sqrt(g.weights)
        a = LinearOperator(np.outer(coords, coords.conj()), g)
        k = kernel_of(a)
        assert np.allclose(k, np.outer(f, f.conj()), atol=1e-12)

    def test_weighted_square_sum_matches_schatten2(self, rng):
        g = make_grid(6, uniform=False)
        a = LinearOperator(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)), g)
        k = kernel_of(a)
        quad = np.sum(np.abs(k) ** 2 * np.outer(g.weights, g.weights))
        assert quad == pytest.approx(np.linalg.norm(a.entries, "fro") ** 2, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(small_operators())
    def test_round_trip(self, a):
        back = from_kernel(kernel_of(a), a.grid)
        assert np.allclose(back.entries, a.entries, rtol=0, atol=1e-13 * max(1.0, operator_norm(a.entries)))
