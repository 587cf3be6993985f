"""Finite model of a weighted L2 space and the operators acting on it.

A grid of points ``v_1..v_n`` with strictly positive quadrature weights
``w_1..w_n`` stands in for the underlying measure space.  Operators are
stored as dense complex matrices in the orthonormal basis
``e_i = indicator(v_i) / sqrt(w_i)``, so the Euclidean inner product of
coordinate vectors equals the weighted inner product of functions and all
Schatten norms reduce to plain matrix singular-value norms.  Conversions
between matrix entries and integral-operator kernel values are handled by
:func:`kernel_of` / :func:`from_kernel`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


class NotNormalError(ValueError):
    """Raised when an operation requires a normal operator and the input is not."""


class NotPSDError(ValueError):
    """Raised when an operation requires a positive semidefinite operator;
    ``min_eig`` is the eigenvalue refused, ``None`` for a non-Hermitian one."""

    def __init__(self, message: str, min_eig: float | None = None):
        super().__init__(message)
        self.min_eig = min_eig


@dataclass(eq=False)
class HilbertGrid:
    """Weighted point set: ``points`` carry quadrature weights ``weights``."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float).ravel()
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.points.size < 1:
            raise ValueError("grid needs at least one point")
        if self.points.shape != self.weights.shape:
            raise ValueError("points and weights must have the same length")
        if message := next(self.errors(self.points, self.weights), None):
            raise ValueError(message)

    @staticmethod
    def errors(points: np.ndarray, weights: np.ndarray, prefix: str = "") -> Iterator[str]:
        """The message of every rule that the float arrays ``points`` and
        ``weights`` of one length break, each naming its field after ``prefix``."""
        if not np.all(np.isfinite(points)):
            yield f"{prefix}points: all grid points must be finite"
        if not np.all(weights > 0):
            yield f"{prefix}weights: all grid weights must be strictly positive"
        elif not np.all(np.isfinite(weights)):
            yield f"{prefix}weights: all grid weights must be finite"

    @property
    def n(self) -> int:
        return self.points.size

    @classmethod
    def uniform(cls, n: int) -> "HilbertGrid":
        """Regular grid on (0, 1] with equal weights 1/n."""
        return cls(np.arange(1, n + 1) / n, np.full(n, 1.0 / n))


@dataclass(eq=False)
class LinearOperator:
    """Dense operator in the orthonormal weighted-coordinate basis."""

    entries: np.ndarray
    grid: HilbertGrid

    def __post_init__(self) -> None:
        self.entries = np.ascontiguousarray(self.entries, dtype=complex)
        n = self.grid.n
        if self.entries.shape != (n, n):
            raise ValueError(
                f"operator shape {self.entries.shape} does not match grid size {n}"
            )
        if not np.all(np.isfinite(self.entries.view(float))):
            raise ValueError("operator entries must be finite")

    @property
    def n(self) -> int:
        return self.grid.n

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        return LinearOperator(self.entries @ other.entries, self.grid)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        return LinearOperator(self.entries + other.entries, self.grid)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return LinearOperator(self.entries - other.entries, self.grid)

    def __rmul__(self, scalar: complex) -> "LinearOperator":
        return LinearOperator(scalar * self.entries, self.grid)


@dataclass(eq=False)
class NormalDecomposition:
    """Unitary frame U and complex singular-value function d with U N U^H = diag(d)."""

    U: np.ndarray
    d: np.ndarray
    grid: HilbertGrid

    def reconstruct(self) -> LinearOperator:
        """Return U^H diag(d) U as an operator."""
        return LinearOperator(self.U.conj().T @ (self.d[:, None] * self.U), self.grid)

    def apply_scalar(self, values: np.ndarray) -> np.ndarray:
        """``U^H diag(v) U`` for each row ``v`` of ``values``, shape (..., n) -> (..., n, n),
        as ``sum_i v_i P_i`` over the spectral projectors ``P_i = U[i]^H U[i]``."""
        values = np.asarray(values, dtype=complex)
        n = self.d.size
        projectors = (self.U.conj()[:, :, None] * self.U[:, None, :]).reshape(n, n * n)
        return (values @ projectors).reshape(*values.shape[:-1], n, n)


def identity(grid: HilbertGrid) -> LinearOperator:
    return LinearOperator(np.eye(grid.n, dtype=complex), grid)


def zero_operator(grid: HilbertGrid) -> LinearOperator:
    return LinearOperator(np.zeros((grid.n, grid.n), dtype=complex), grid)


def adjoint(a: LinearOperator) -> LinearOperator:
    """Conjugate transpose; an involution."""
    return LinearOperator(a.entries.conj().T, a.grid)


def operator_norm(a: np.ndarray | LinearOperator) -> float:
    """Largest singular value (Schatten-infinity norm)."""
    m = a.entries if isinstance(a, LinearOperator) else np.asarray(a)
    if not m.size:
        return 0.0
    return float(np.linalg.norm(m, 2))


def schatten_norm(a: LinearOperator, p: float) -> float:
    """Singular-value norm ``(sum sigma_i^p)^(1/p)``; ``p=inf`` gives max sigma.

    ``p`` must satisfy ``p >= 1`` (the smaller-p classes are the smaller
    spaces: for p <= p' the p-norm dominates the p'-norm).
    """
    if not p >= 1:
        raise ValueError(f"Schatten order must satisfy p >= 1, got {p}")
    sigma = np.linalg.svd(a.entries, compute_uv=False)
    top = float(sigma[0]) if sigma.size else 0.0
    if top == 0.0:
        return 0.0
    if np.isinf(p):
        return top
    # factor out the top singular value so large p cannot overflow
    return top * float(np.sum((sigma / top) ** p)) ** (1.0 / p)


# Relative tolerance of the library's one frame rule: an operator has a
# unitary frame when that frame reproduces it within ``NORMAL_TOL ||A||``.
NORMAL_TOL = 1e-10


def normal_decompose(n_op: LinearOperator) -> NormalDecomposition:
    """Diagonalize a normal operator by a unitary: ``U N U^H = diag(d)``.

    The eigenvalues ``d`` come from ``numpy.linalg.eig`` and the frame from
    a QR factorization of its eigenvectors: the eigenspaces of a normal
    operator are orthogonal, so the orthonormalized eigenvectors are its
    Schur vectors and ``d`` is in Schur order.  The library's one frame
    rule: the operator has this frame when ``U^H diag(d) U`` reproduces it
    within ``NORMAL_TOL * ||N||``, and is otherwise rejected as not normal,
    naming the reconstruction error.  No commutator test runs; none would be
    sufficient, since where eigenvalues repeat the commutator is quadratic
    in the departure from normality.
    """
    d, vecs = np.linalg.eig(n_op.entries)
    u = np.linalg.qr(vecs)[0].conj().T
    dec = NormalDecomposition(u, d, n_op.grid)
    scale = operator_norm(n_op)
    err = operator_norm(dec.reconstruct().entries - n_op.entries)
    if scale > 0 and err > NORMAL_TOL * scale:
        raise NotNormalError(
            f"operator not normal: unitary diagonalization leaves "
            f"reconstruction error {err:.3e}"
        )
    return dec


def psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The library's one Hermitian PSD test, on a matrix or a stack ``(..., n, n)``:
    with ``tol`` the largest ``||(M + M^H) / 2||`` times ``1e-10``, every
    ``||M - M^H||`` must stay within ``tol`` and no eigenvalue of the
    Hermitian part may fall below ``-tol``.  Returns those eigenvalues and
    eigenvectors."""
    # halved first: m + mh and m - mh may leave the double range where their halves do not
    half, half_h = 0.5 * m, 0.5 * m.conj().swapaxes(-1, -2)
    vals, vecs = np.linalg.eigh(half + half_h)
    tol = 1e-10 * float(np.max(np.abs(vals), initial=0.0))
    defect = 2.0 * float(np.max(np.linalg.norm(half - half_h, 2, axis=(-2, -1)), initial=0.0))
    if defect > tol:
        raise NotPSDError(f"not Hermitian (||A - A^H|| = {defect:.3e})")
    low = float(np.min(vals, initial=np.inf))
    if low < -tol:
        raise NotPSDError(f"not positive semidefinite (min eig {low:.6g})", low)
    return vals, vecs


def sqrt_psd(a: LinearOperator) -> LinearOperator:
    """Hermitian PSD square root ``B`` with ``B @ B = A`` of an ``A`` that
    passes :func:`psd_eigh`; eigenvalues within its tolerance below zero are
    clamped to zero."""
    vals, vecs = psd_eigh(a.entries)
    root = vecs @ (np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.conj().T)
    return LinearOperator(root, a.grid)


def kernel_of(a: LinearOperator) -> np.ndarray:
    """Kernel values ``k(v_i, v_j)`` of the integral operator equal to ``A``.

    The kernel satisfies ``(A f)(v_i) = sum_j k(v_i, v_j) f(v_j) w_j`` for
    function values ``f``, which in the orthonormal basis amounts to
    ``k_ij = A_ij / sqrt(w_i w_j)``.  The weighted double sum of ``|k|^2``
    recovers the squared Schatten-2 norm of ``A``.
    """
    rw = np.sqrt(a.grid.weights)
    return a.entries / np.outer(rw, rw)


def from_kernel(kernel: np.ndarray, grid: HilbertGrid) -> LinearOperator:
    """Operator whose integral kernel takes the given values on the grid."""
    kernel = np.asarray(kernel, dtype=complex)
    rw = np.sqrt(grid.weights)
    return LinearOperator(kernel * np.outer(rw, rw), grid)
