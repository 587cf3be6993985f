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

from typing import Iterator

import numpy as np


class NotPSDError(ValueError):
    """Raised when an operation requires a positive semidefinite operator."""


class HilbertGrid:
    """Weighted point set: ``points`` carry quadrature weights ``weights``."""

    def __init__(self, points: np.ndarray, weights: np.ndarray) -> None:
        self.points = np.asarray(points, dtype=float).ravel()
        self.weights = np.asarray(weights, dtype=float).ravel()
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


class LinearOperator:
    """Dense operator in the orthonormal weighted-coordinate basis."""

    def __init__(self, entries: np.ndarray, grid: HilbertGrid) -> None:
        self.entries = np.ascontiguousarray(entries, dtype=complex)
        self.grid = grid
        if message := next(self.errors(self.entries, grid.n), None):
            raise ValueError(message)

    @staticmethod
    def errors(entries: np.ndarray, n: int, prefix: str = "") -> Iterator[str]:
        """The message of the rule that the complex array ``entries`` breaks
        as an operator on a grid of ``n`` points, after ``prefix``: it must be
        square, then of dimension ``n``, then finite, each rule checked only
        when those before it hold."""
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            yield f"{prefix}matrix must be square"
        elif entries.shape[0] != n:
            yield f"{prefix}dimension {entries.shape[0]} does not match grid size {n}"
        elif not np.all(np.isfinite(entries.view(float))):
            yield f"{prefix}entries must be finite"

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


def identity(grid: HilbertGrid) -> LinearOperator:
    return LinearOperator(np.eye(grid.n, dtype=complex), grid)


def operator_norm(a: np.ndarray | LinearOperator) -> float:
    """Largest singular value (Schatten-infinity norm)."""
    m = a.entries if isinstance(a, LinearOperator) else np.asarray(a)
    if not m.size:
        return 0.0
    return float(np.linalg.norm(m, 2))


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
        raise NotPSDError(f"not positive semidefinite (min eig {low:.6g})")
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
