"""Operator polynomials and transfer functions for fractional filtering.

Covers evaluation and circle-invertibility of AR/MA operator polynomials,
the fractional integration transfer function ``(1 - e^{-i lambda})^{-D}``
with its moving-average coefficient expansion, discrete Fourier inversion
of AR polynomials into two-sided coefficient sequences, and the constructive
split of ``(1 - z)^{N - Id}`` into a power-law moving average ``(k+1)^{-N}``
plus a summable remainder.
"""
from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

import numpy as np

from .hilbert import HilbertGrid, LinearOperator, operator_norm

if TYPE_CHECKING:  # pragma: no cover
    from .spectral import ArmaModel


class SingularTransferError(ValueError):
    """AR polynomial is (numerically) singular at some frequency."""


class NotNormalError(ValueError):
    """Raised when an operation requires a normal operator and the input is not."""


class OperatorPolynomial:
    """Polynomial with operator coefficients and constant term fixed to Id.

    Only the coefficients of ``z^1 .. z^m`` are stored; whether they enter
    with a minus sign (AR convention) or a plus sign (MA convention) is
    decided by the evaluation function.  Trailing zero coefficients are
    dropped, so ``degree`` is the true degree, 0 for the identity symbol.
    """

    def __init__(self, grid: HilbertGrid, coeffs: tuple[LinearOperator, ...] = ()) -> None:
        self.grid = grid
        self.coeffs = tuple(coeffs)
        for c in self.coeffs:
            if c.grid is not grid and c.grid.n != grid.n:
                raise ValueError("polynomial coefficients must share one grid")
        while self.coeffs and not self.coeffs[-1].entries.any():
            self.coeffs = self.coeffs[:-1]

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def stacked(self) -> np.ndarray:
        """Coefficients as an (m, n, n) array (empty for degree 0)."""
        n = self.grid.n
        return np.array([c.entries for c in self.coeffs], dtype=complex).reshape(-1, n, n)

    @classmethod
    def scalar(cls, grid: HilbertGrid, *values: complex) -> "OperatorPolynomial":
        """Polynomial whose k-th coefficient is ``values[k-1] * Id``."""
        eye = np.eye(grid.n, dtype=complex)
        return cls(grid, tuple(LinearOperator(v * eye, grid) for v in values))


# Relative tolerance of the library's one frame rule: an operator has a
# unitary frame when that frame reproduces it within ``NORMAL_TOL ||A||``.
NORMAL_TOL = 1e-10


class FracIntegrationSpec:
    """Bounded memory operator D, the one owner of its spectral facts, each
    found once, when the spec is built.

    The eigenvalues ``d`` come from ``numpy.linalg.eig`` and the frame ``U``
    from a QR factorization of its eigenvectors: the eigenspaces of a normal
    operator are orthogonal, so the orthonormalized eigenvectors are its
    Schur vectors and ``d`` is in Schur order.  The library's one frame
    rule: D has the frame ``U D U^H = diag(d)`` when ``U^H diag(d) U``
    reproduces it within ``NORMAL_TOL ||D||``.  Otherwise ``frame_error``
    names the reconstruction error, and reading ``U`` raises
    :class:`NotNormalError` with it.  No commutator test runs; none would be
    sufficient, since where eigenvalues repeat the commutator is quadratic
    in the departure from normality.

    Two eigenvalues share a cluster when they lie within ``NORMAL_TOL ||D||``
    of each other, transitively (the frame rule's resolution).
    ``exponents`` holds the mean of each cluster, ordered by (Re d, Im d),
    and ``clusters`` the index into it of each eigenvalue.  :meth:`exp`
    evaluates every ``exp(t D)`` of the library.  The exponent ``N`` of a
    power-law moving average is held the same way.
    """

    def __init__(self, D: LinearOperator) -> None:
        self.D = D
        d, vecs = np.linalg.eig(D.entries)
        u = np.linalg.qr(vecs)[0].conj().T
        scale = operator_norm(D)
        err = operator_norm(u.conj().T @ (d[:, None] * u) - D.entries)
        self.d = d
        self.frame_error: str | None = None
        if scale > 0 and err > NORMAL_TOL * scale:
            self.frame_error = (
                f"operator not normal: unitary diagonalization leaves "
                f"reconstruction error {err:.3e}"
            )
        self._frame = u
        with np.errstate(over="ignore", invalid="ignore"):  # eigenvalues near the double range
            near = np.abs(d[:, None] - d[None, :]) <= NORMAL_TOL * np.abs(d).max()
        labels = np.arange(d.size)  # each takes its neighbours' least until a cluster's is uniform
        while ((step := np.where(near, labels, d.size).min(axis=1)) != labels).any():
            labels = step
        clusters = np.unique(labels, return_inverse=True)[1]
        per = np.bincount(clusters)[clusters]
        means = np.bincount(clusters, d.real / per) + 1j * np.bincount(clusters, d.imag / per)
        order = np.lexsort((means.imag, means.real))
        self.exponents = means[order]
        self.clusters = np.argsort(order)[clusters]

    @property
    def U(self) -> np.ndarray:
        """The unitary frame; a D without one raises :class:`NotNormalError`."""
        if self.frame_error is not None:
            raise NotNormalError(self.frame_error)
        return self._frame

    def apply_scalar(self, values: np.ndarray) -> np.ndarray:
        """``U^H diag(v) U`` for each row ``v`` of ``values``, shape (..., n) -> (..., n, n),
        as ``sum_i v_i P_i`` over the spectral projectors ``P_i = U[i]^H U[i]``."""
        u = self.U
        values = np.asarray(values, dtype=complex)
        n = self.d.size
        projectors = (u.conj()[:, :, None] * u[:, None, :]).reshape(n, n * n)
        return (values @ projectors).reshape(*values.shape[:-1], n, n)

    def exp(self, ts: np.ndarray) -> np.ndarray:
        """Stacked ``exp(t D)`` over the scalars ``ts``, shape ``(len(ts), n, n)``.

        In D's frame this is ``U^H diag(exp(t d)) U`` through
        :meth:`apply_scalar`; without a frame, one scaling-and-squaring
        ``expm`` of the stack of every ``t D``, the library's only use of
        scipy.  A value beyond the double range is left as it comes out, not
        finite, for the caller's finite check to refuse.
        """
        ts = np.asarray(ts, dtype=complex).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            if self.frame_error is None:
                return self.apply_scalar(np.exp(np.outer(ts, self.d)))
            import scipy.linalg  # deferred: an operator with a frame never needs it

            return scipy.linalg.expm(ts[:, None, None] * self.D.entries)

    @property
    def grid(self) -> HilbertGrid:
        return self.D.grid

    @classmethod
    def scalar(cls, grid: HilbertGrid, d: complex) -> "FracIntegrationSpec":
        return cls(LinearOperator(d * np.eye(grid.n, dtype=complex), grid))


class CoefficientSequence:
    """Operator coefficients ``C_{k_min} .. C_{k_min + len - 1}`` of a filter,
    or the autocovariances ``Gamma(-H) .. Gamma(H)`` with ``k_min = -H``.

    ``tail_mass`` carries the estimated mass of the discarded/aliased tail
    where applicable.
    """

    def __init__(
        self, data: np.ndarray, grid: HilbertGrid, k_min: int = 0, tail_mass: float | None = None
    ) -> None:
        self.data = np.ascontiguousarray(data, dtype=complex)
        if self.data.ndim != 3 or self.data.shape[1:] != (grid.n, grid.n):
            raise ValueError("coefficient data must have shape (m, n, n)")
        self.grid = grid
        self.k_min = k_min
        self.tail_mass = tail_mass

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def k_max(self) -> int:
        return self.k_min + len(self) - 1

    def __getitem__(self, k: int) -> np.ndarray:
        """Coefficient matrix at absolute index k."""
        if not self.k_min <= k <= self.k_max:
            raise IndexError(f"coefficient index {k} outside [{self.k_min}, {self.k_max}]")
        return self.data[k - self.k_min]

    def operator(self, k: int) -> LinearOperator:
        return LinearOperator(self[k], self.grid)

    def norms(self) -> np.ndarray:
        """Operator (spectral) norms of every coefficient, in index order."""
        sigma = np.linalg.svd(self.data, compute_uv=False)
        return sigma[:, 0] if sigma.size else np.zeros(len(self))


def _eval_batch(poly: OperatorPolynomial, zs: np.ndarray, sign: float) -> np.ndarray:
    """Evaluate Id +/- sum A_k z^k at many points; returns (len(zs), n, n)."""
    n = poly.grid.n
    zs = np.asarray(zs, dtype=complex).ravel()
    out = np.broadcast_to(np.eye(n, dtype=complex), (zs.size, n, n)).copy()
    if poly.degree:
        powers = zs[:, None] ** np.arange(1, poly.degree + 1)  # (F, m)
        out += sign * np.einsum("fm,mij->fij", powers, poly.stacked())
    return out


def ar_values_on_circle(phi: OperatorPolynomial, freqs: np.ndarray) -> np.ndarray:
    """``phi(e^{-i lambda})`` stacked over the given frequencies."""
    return _eval_batch(phi, np.exp(-1j * np.asarray(freqs, dtype=float)), sign=-1.0)


def ma_values_on_circle(theta: OperatorPolynomial, freqs: np.ndarray) -> np.ndarray:
    """``theta(e^{-i lambda})`` stacked over the given frequencies."""
    return _eval_batch(theta, np.exp(-1j * np.asarray(freqs, dtype=float)), sign=+1.0)


# Points of the dense scan whose cell bound the circle certificate's margin matches.
_CIRCLE_SCAN = 4096
# Points of the certificate's first scan; its cells are bisected towards the
# ``_CIRCLE_SCAN``-point spacing where they need it.
_CIRCLE_COARSE = 64
# Bisection levels below the ``_CIRCLE_SCAN``-point spacing: a failing cell
# is halved down to 2^-32 of that spacing.
_CIRCLE_DEPTH = 32
# Symbol evaluations the bisection may spend, in multiples of the scan size.
_CIRCLE_BUDGET = 4


def _smallest_sv_on_circle(phi: OperatorPolynomial, freqs: np.ndarray) -> np.ndarray:
    """Smallest singular value of the AR symbol at each frequency,
    ``_CIRCLE_SCAN`` at a time."""
    step = _CIRCLE_SCAN
    return np.concatenate(
        [
            np.linalg.svd(ar_values_on_circle(phi, freqs[i : i + step]), compute_uv=False)[:, -1]
            for i in range(0, freqs.size, step)
        ]
    )


def check_invertible_on_circle(phi: OperatorPolynomial) -> tuple[bool, float]:
    """Prove that the AR symbol has no singular point on the unit circle.

    Returns ``(invertible, margin)``.  The smallest singular value of the
    symbol is ``L``-Lipschitz in the frequency, ``L = sum_k k ||A_k||``, so
    on a cell of width ``h`` between scan points with smallest singular
    values ``s_0`` and ``s_1`` it stays above ``(s_0 + s_1 - L h) / 2``.
    A cell is certified when that bound exceeds ``1e-8`` times the largest
    singular value of the first scan, which has ``_CIRCLE_COARSE`` points.
    Two kinds of cell are bisected: those not certified, and those whose
    bound lies more than ``L pi / _CIRCLE_SCAN`` below the smallest singular
    value evaluated so far.  The symbol is declared invertible when every
    cell is certified.  ``margin`` is the smallest cell bound, a lower bound
    of the smallest singular value over the whole circle (0 where no
    positive bound was proven).  It is at least the evaluated minimum less
    ``L pi / _CIRCLE_SCAN``, so it is as tight as the bound of a dense
    ``_CIRCLE_SCAN``-point scan.  A symbol of degree 0 is the identity:
    ``(True, 1.0)`` at once.

    The bisection stops once the cells are ``2^-_CIRCLE_DEPTH`` of the
    ``_CIRCLE_SCAN``-point spacing, or before a level that would take the
    symbol evaluations past ``_CIRCLE_BUDGET`` times ``_CIRCLE_SCAN``; it
    evaluates at most ``_CIRCLE_SCAN`` points at once.  No cell of the
    ``_CIRCLE_SCAN``-point spacing is loose, so tightening the margin costs
    at most about ``_CIRCLE_SCAN`` evaluations of that budget.  A symbol whose
    smallest singular value is small but flat over much of the circle can
    leave cells unproven when it stops; those are judged by the smallest
    singular value evaluated, as a dense scan would judge them.
    """
    if not phi.degree:
        return True, 1.0
    h = 2.0 * np.pi / _CIRCLE_COARSE
    left = h * np.arange(_CIRCLE_COARSE)
    sigma = np.linalg.svd(ar_values_on_circle(phi, left), compute_uv=False)
    floor = 1e-8 * float(sigma.max())
    lip = sum(k * operator_norm(c) for k, c in enumerate(phi.coeffs, start=1))
    slack = lip * np.pi / _CIRCLE_SCAN  # half the Lipschitz swing of a scan cell
    s_left = sigma[:, -1]
    s_right = np.roll(s_left, -1)
    min_sv = float(s_left.min())
    certified = np.inf  # smallest bound of the cells certified and kept so far
    budget = _CIRCLE_BUDGET * _CIRCLE_SCAN
    for _ in range(_CIRCLE_DEPTH + math.ceil(math.log2(_CIRCLE_SCAN / _CIRCLE_COARSE))):
        bound = (s_left + s_right - lip * h) / 2.0
        bad = bound <= floor
        split = bad | (bound < min_sv - slack)
        n_split = int(split.sum())
        if min_sv <= floor or not n_split or n_split > budget:
            break
        certified = min(certified, float(bound[~split].min(initial=np.inf)))
        budget -= n_split
        h /= 2.0
        left, s_left, s_right = left[split], s_left[split], s_right[split]
        s_mid = _smallest_sv_on_circle(phi, left + h)
        min_sv = min(min_sv, float(s_mid.min()))
        left = np.concatenate([left, left + h])
        s_left, s_right = np.concatenate([s_left, s_mid]), np.concatenate([s_mid, s_right])
    open_cells = float(((s_left + s_right - lip * h) / 2.0).min(initial=np.inf))
    return min_sv > floor, max(0.0, min(certified, open_cells))


class ArPoles:
    """Poles ``lam_i`` of an AR symbol, singular where ``lam_i e^{-i w} = 1``;
    ``scale`` is ``1 + sum_k ||A_k||`` and ``bound`` a proven lower bound of
    its smallest singular value on the circle, or 0.0."""

    def __init__(self, values: np.ndarray, scale: float, bound: float) -> None:
        self.values = values
        self.scale = scale
        self.bound = bound

    def nearest(self, eta: float) -> tuple[float, float]:
        """Smallest ``|1 - lam_i e^{-i w}|`` over ``|w| <= eta``, reached at the
        arc's point ``w`` closest to some ``arg lam_i``, and that ``w``."""
        w = np.clip(np.angle(self.values), -eta, eta)
        dist = np.abs(1.0 - self.values * np.exp(-1j * w))
        return min(zip(dist.tolist(), w.tolist()), default=(math.inf, 0.0))


def ar_poles(phi: OperatorPolynomial) -> ArPoles:
    """Eigenvalues of the block companion ``C = [[A_1 ... A_p], [Id 0]]``,
    ``C = V diag(lam) V^{-1}`` (Lütkepohl 2005, section 2.1).  ``phi(z)^{-1}``
    is the leading block of ``(Id - z C)^{-1}``, so on the circle
    ``||phi^{-1}|| <= ||V[:n]|| ||V^{-1}[:, :n]|| / (min_i ||lam_i| - 1| - r)``,
    ``r`` the Bauer–Fike allowance ``||V^{-1} (C V - V diag(lam))||``."""
    scale = 1.0 + sum(operator_norm(c) for c in phi.coeffs)
    if not phi.degree:  # the identity symbol
        return ArPoles(np.zeros(0, dtype=complex), scale, 1.0)
    n = phi.grid.n
    companion = np.eye(n * phi.degree, k=-n, dtype=complex)
    companion[:n] = np.concatenate([c.entries for c in phi.coeffs], axis=1)
    lam, vec = np.linalg.eig(companion)
    try:
        inv = np.linalg.inv(vec)
    except np.linalg.LinAlgError:  # a defective companion proves nothing
        return ArPoles(lam, scale, 0.0)
    allowance = np.linalg.norm(inv) * np.linalg.norm(companion @ vec - vec * lam)
    kappa = operator_norm(vec[:n]) * operator_norm(inv[:, :n])
    bound = (float(np.abs(np.abs(lam) - 1.0).min()) - allowance) / kappa
    return ArPoles(lam, scale, max(0.0, bound))


def circle_verdict(phi: OperatorPolynomial) -> tuple[bool, float, ArPoles]:
    """``(invertible, margin, poles)``: the poles' ``bound`` decides when it clears
    ``1e-8 scale``, above the floor of :func:`check_invertible_on_circle`,
    which decides every other symbol."""
    poles = ar_poles(phi)
    if poles.bound > 1e-8 * poles.scale:
        return True, poles.bound, poles
    return (*check_invertible_on_circle(phi), poles)


def arma_transfer_batch(model: ArmaModel, freqs: np.ndarray) -> np.ndarray:
    """The half-factor ``phi(e^{-i lam})^{-1} theta(e^{-i lam}) Sigma^{1/2}`` of
    a built model, stacked over ``freqs``, solving rather than inverting.

    The model's circle certificate proved ``phi`` invertible once, so this
    only solves: a value that is not finite is an overflow, and raises
    :class:`OverflowError` naming the first frequency that has one.
    """
    freqs = np.asarray(freqs, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = ma_values_on_circle(model.theta, freqs) @ model.root.entries
        vals = np.linalg.solve(ar_values_on_circle(model.phi, freqs), rhs)
    finite = np.isfinite(vals).all(axis=(1, 2))
    if not finite.all():
        raise OverflowError(f"ARMA transfer overflows at frequency {freqs[~finite][0]:.6g}")
    return vals


def frac_transfer_batch(spec: FracIntegrationSpec, freqs: np.ndarray) -> np.ndarray:
    """Stacked fractional integration transfer values ``(1 - e^{-i lam})^{-D}
    = exp(-log(1 - e^{-i lam}) D)``, zero at frequency 0 (mod 2 pi)."""
    freqs = np.asarray(freqs, dtype=float).ravel()
    if not np.isfinite(freqs).all():
        raise ValueError("frequencies must be finite")
    n = spec.grid.n
    out = np.zeros((freqs.size, n, n), dtype=complex)
    nonzero = np.fmod(freqs, 2.0 * np.pi) != 0.0  # exact: 0 only at multiples of 2 pi
    ts = -np.log(1.0 - np.exp(-1j * freqs[nonzero]))  # principal branch
    out[nonzero] = spec.exp(ts)
    return out


def _binomial_scalars(shift: np.ndarray, order: int, name: str) -> np.ndarray:
    """``b_k = prod_{j=1..k} (j + shift) / j`` for k = 0..order, shape (order+1, len(shift)).

    These are the coefficients of ``(1 - z)^{-(shift + 1)}`` per entry of
    ``shift``, from one ``cumprod``: ``shift = d - 1`` gives
    ``Gamma(k + d) / (Gamma(d) k!)``, and ``shift = -n`` those of
    ``(1 - z)^{n - 1}``.  A coefficient beyond the double range raises
    :class:`OverflowError` naming the coefficients, ``name``.
    """
    ks = np.arange(order + 1, dtype=float)[:, None]
    steps = np.ones((order + 1, np.size(shift)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        steps[1:] = (ks[1:] + shift) / ks[1:]
        out = np.cumprod(steps, axis=0)
    if not np.isfinite(out).all():
        raise OverflowError(f"{name} overflow the double range")
    return out


def frac_ma_coeffs(spec: FracIntegrationSpec, order: int) -> CoefficientSequence:
    """Moving-average coefficients of ``(1 - z)^{-D}`` for the memory operator of ``spec``.

    With D's eigenframe each coefficient is a scalar function of the
    eigenvalues, ``Gamma(k + d) / (Gamma(d) k!)``, rotated back through
    :meth:`FracIntegrationSpec.apply_scalar`; a real D keeps real
    coefficients.  A D without a frame takes the dense recursion of
    :func:`binomial_ma_coeffs`.
    """
    if spec.frame_error is not None:
        return binomial_ma_coeffs(spec.D, order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    scalars = _binomial_scalars(spec.d - 1.0, order, "the MA coefficients of (1 - z)^{-D}")
    data = spec.apply_scalar(scalars)
    if not spec.D.entries.imag.any():
        data.imag = 0.0
    return CoefficientSequence(data, spec.grid)


def binomial_ma_coeffs(d_op: LinearOperator, order: int) -> CoefficientSequence:
    """Moving-average coefficients of ``(1 - z)^{-D}`` up to the given order.

    The recursion ``C_0 = Id``, ``C_k = C_{k-1} (D + (k-1) Id) / k`` produces
    the binomial-type expansion; for a scalar exponent ``D = d Id`` the k-th
    coefficient is ``gamma(k + d) / (gamma(d) k!) Id``.  It needs no
    eigenframe: :func:`frac_ma_coeffs` runs it for a D that has none.  A
    coefficient beyond the double range raises :class:`OverflowError`.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = d_op.n
    # the factors step[k-1] = (D + (k-1) Id) / k of every lag, built in place
    lags = np.arange(1, order + 1)
    step = np.empty((order, n, n), dtype=complex)
    step[:] = d_op.entries
    step.reshape(order, n * n)[:, :: n + 1] += lags[:, None] - 1
    step /= lags[:, None, None]
    out = np.empty((order + 1, n, n), dtype=complex)
    out[0] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, order + 1):
            np.matmul(out[k - 1], step[k - 1], out=out[k])
    if not np.isfinite(out).all():
        raise OverflowError("the MA coefficients of (1 - z)^{-D} overflow the double range")
    return CoefficientSequence(out, d_op.grid)


# Points of the discrete Fourier inversion of an AR symbol: at least four
# per kept coefficient, so orders up to a quarter of it are admitted.
_LAURENT_POINTS = 4096


def ar_inverse_laurent(phi: OperatorPolynomial, order: int) -> CoefficientSequence:
    """Two-sided coefficients ``P_{-order} .. P_{order}`` of ``phi^{-1}`` on the circle.

    Obtained by discrete Fourier inversion of ``lambda -> phi(e^{-i lambda})^{-1}``
    on ``_LAURENT_POINTS`` points, so ``order`` is at most a quarter of that.
    The coefficients decay exponentially when the polynomial is invertible
    on the circle, so aliasing is controlled; the mass of the discarded
    middle band is reported as ``tail_mass``.
    """
    if not 0 <= order <= _LAURENT_POINTS // 4:
        raise ValueError(f"order must lie in [0, {_LAURENT_POINTS // 4}]")
    if not circle_verdict(phi)[0]:
        raise SingularTransferError("AR polynomial not invertible on the circle")
    freqs = 2.0 * np.pi * np.arange(_LAURENT_POINTS) / _LAURENT_POINTS
    vals = np.linalg.inv(ar_values_on_circle(phi, freqs))
    # P_k = (1/M) sum_j vals_j e^{+i lambda_j k}: an inverse DFT along axis 0.
    coeff = np.fft.ifft(vals, axis=0)
    idx = np.concatenate([np.arange(-order, 0) % _LAURENT_POINTS, np.arange(order + 1)])
    data = coeff[idx]
    mid = np.delete(coeff, idx, axis=0)
    tail = float(np.sum(np.linalg.norm(mid, axis=(1, 2)))) if mid.size else 0.0
    return CoefficientSequence(data, phi.grid, k_min=-order, tail_mass=tail)


# B_2, B_4, ..., B_16 over (2i)(2i-1): the weights of Stirling's series
# log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2 + sum_i w_i z^{1-2i}.
_STIRLING_WEIGHTS = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400,
)


def _rgamma_right(z: complex) -> complex:
    """``1/Gamma(z)`` for ``Re z >= 1/2``: ``z`` is shifted up by
    ``Gamma(z+1) = z Gamma(z)`` until ``Re z >= 16``, at most 16 steps, where
    Stirling's series with eight Bernoulli terms is exact to rounding."""
    shift = complex(1.0)
    while z.real < 16.0:
        shift *= z
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    series = complex(0.0)
    for weight in reversed(_STIRLING_WEIGHTS):
        series = series * inv2 + weight
    log_gamma = (z - 0.5) * cmath.log(z) - z + math.log(2.0 * math.pi) / 2 + series * inv
    return shift * cmath.exp(-log_gamma)


def _rgamma(z: complex) -> complex:
    """Reciprocal gamma function ``1/Gamma(z)`` of a complex argument.

    Left of ``Re z = 1/2`` the reflection formula
    ``1/Gamma(z) = sin(pi z) Gamma(1 - z) / pi`` takes it to the right half
    (:func:`_rgamma_right`).  ``sin(pi z)`` is taken of ``z`` less its
    nearest integer ``k`` and signed by ``(-1)^k``, so it is exactly 0 at the
    poles ``z = 0, -1, -2, ...``, where ``1/Gamma`` is exactly 0.  A value
    beyond the double range raises :class:`OverflowError` naming it.
    """
    z = complex(z)
    k = round(z.real)
    if z == k and k <= 0:
        return 0j
    try:
        if z.real >= 0.5:
            value = _rgamma_right(z)
        else:
            sin = cmath.sin(math.pi * (z - k)) * (-1.0) ** (k % 2)
            value = sin / (math.pi * _rgamma_right(1.0 - z))
    except (OverflowError, ZeroDivisionError):  # cmath's range error, or Gamma(1 - z) = inf
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise OverflowError(f"1/Gamma({z:.6g}) is beyond the double range")
    return value


def duker_decomposition(
    spec: FracIntegrationSpec, order: int
) -> tuple[LinearOperator, CoefficientSequence, float]:
    """Split ``(1-z)^{N-Id}`` into ``C (k+1)^{-N}`` power-law weights plus a remainder.

    Returns ``(C, deltas, rho)`` where ``rho`` is the smallest real part of
    the singular-value function of the normal operator ``N``.  The binomial
    coefficients ``b_k`` of ``(1-z)^{N-Id}`` satisfy, by construction,
    ``b_k = C (k+1)^{-N} + Delta_k`` exactly; the testable content is the
    remainder decay ``||Delta_k|| = O(k^{-1-rho})``.

    Every term is a scalar sequence over the eigenvalues ``n`` of ``N``,
    rotated back by the eigenframe: the matching constant in closed form,
    ``C(n) = 1/Gamma(1-n)``; the binomial coefficients from
    ``b_0 = 1``, ``b_k = b_{k-1} (k-n)/k``; and
    ``Delta_k(n) = b_k(n) - C(n) (k+1)^{-n}``.  ``spec`` holds ``N`` with
    its eigenframe; an ``N`` without one raises :class:`NotNormalError`.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if spec.frame_error is not None:  # before any scalar of N's eigenvalues can overflow
        raise NotNormalError(spec.frame_error)
    d = spec.d
    rho = float(np.min(d.real))
    c_vals = np.array([_rgamma(1.0 - nv) for nv in d], dtype=complex)
    ks = np.arange(order + 1, dtype=float)[:, None]
    binom = _binomial_scalars(-d, order, "the binomial coefficients of (1 - z)^{N - Id}")
    powerlaw = np.exp(-np.log(ks + 1.0) * d)  # (k+1)^{-n}
    deltas = spec.apply_scalar(binom - c_vals * powerlaw)
    return (
        LinearOperator(spec.apply_scalar(c_vals), spec.grid),
        CoefficientSequence(deltas, spec.grid),
        rho,
    )


def power_law_weights(spec: FracIntegrationSpec, order: int) -> CoefficientSequence:
    """Weights ``(k+1)^{-N} = exp(-log(k+1) N)`` for k = 0..order, with ``N``
    and its eigenframe held by ``spec``; an ``N`` without a frame takes the
    dense matrix exponential."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    ts = -np.log(np.arange(1, order + 2, dtype=float))
    return CoefficientSequence(spec.exp(ts), spec.grid)


def envelope_bounds(z: complex, lam: float) -> tuple[float, float]:
    """Two-sided envelope for ``|(1 - e^{-i lam})^z|^2`` on ``[-pi, pi] \\ {0}``.

    lower = (2/pi)^(2 max(Re z, 0)) |lam|^(2 Re z) exp(-pi |Im z|)
    upper = (pi/2)^(2 max(-Re z, 0)) |lam|^(2 Re z) exp(+pi |Im z|)
    """
    if lam == 0.0:
        raise ValueError("frequency 0 is outside the envelope's domain")
    if not -math.pi <= lam <= math.pi:
        raise ValueError("frequency must lie in [-pi, pi]")
    z = complex(z)
    # the chord length obeys 2|lam|/pi <= |1 - e^{-i lam}| <= |lam|; which side
    # bounds from below flips with the sign of Re(z)
    two_re = 2.0 * z.real
    inner = (2.0 * abs(lam) / math.pi) ** two_re
    outer = abs(lam) ** two_re
    lower, upper = (inner, outer) if z.real >= 0.0 else (outer, inner)
    arg_swing = math.exp(math.pi * abs(z.imag))
    return lower / arg_swing, upper * arg_swing
