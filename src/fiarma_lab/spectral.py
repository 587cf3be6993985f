"""Operator spectral densities, autocovariances, and their sample analogues.

Densities are stored with respect to Lebesgue measure on ``(-pi, pi]`` with
the ``1/(2 pi)`` factor folded into the white-noise density ``Sigma/(2 pi)``,
so that ``Gamma(h) = integral of e^{i lam h} g(lam) d lam`` holds and the
lag-0 autocovariance of a white noise is exactly its covariance operator.

The models are plain values, their operators and what their constructors
certify; the simulator keeps its plans and verdicts itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .hilbert import (
    HilbertGrid,
    LinearOperator,
    NormalDecomposition,
    psd_eigh,
    sqrt_psd,
)
from .transfer import (
    ArPoles,
    FracIntegrationSpec,
    OperatorPolynomial,
    SingularTransferError,
    arma_transfer_batch,
    circle_verdict,
    frac_transfer_batch,
)

if TYPE_CHECKING:  # pragma: no cover
    from .simulate import SampledPath


@dataclass(eq=False)
class ArmaModel:
    """AR/MA operator polynomials plus the noise covariance operator.

    The constructor certifies the model once and keeps what it finds:
    ``root`` is the PSD square root of ``sigma``, ``poles`` the AR symbol's
    poles, which answer every later question about it, and ``margin`` a
    lower bound on its smallest singular value on the circle
    (:func:`circle_verdict`), 0.0 when none was proven.
    """

    phi: OperatorPolynomial
    theta: OperatorPolynomial
    sigma: LinearOperator
    root: LinearOperator = field(init=False, repr=False)
    margin: float = field(init=False)
    poles: ArPoles = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.phi.grid.n != self.sigma.grid.n or self.theta.grid.n != self.sigma.grid.n:
            raise ValueError("model components must share one grid")
        # PSD check doubles as the Hermitian check
        self.root = sqrt_psd(self.sigma)
        ok, self.margin, self.poles = circle_verdict(self.phi)
        if not ok:
            raise SingularTransferError(
                f"AR polynomial not invertible on the circle (margin {self.margin:.3e})",
                margin=self.margin,
            )

    @property
    def grid(self) -> HilbertGrid:
        return self.sigma.grid

    @property
    def base(self) -> "ArmaModel":
        """The model itself: every model family has an ARMA base."""
        return self

    def is_white_noise(self) -> bool:
        """True when both polynomials are the identity, of degree 0."""
        return not (self.phi.degree or self.theta.degree)


@dataclass(eq=False)
class FiarmaModel:
    """ARMA base model filtered by a fractional integration transfer."""

    base: ArmaModel
    D: FracIntegrationSpec

    def __post_init__(self) -> None:
        if self.D.grid.n != self.base.grid.n:
            raise ValueError("memory operator must live on the model grid")

    @property
    def grid(self) -> HilbertGrid:
        return self.base.grid


@dataclass(eq=False)
class PowerLawModel:
    """Power-law moving average ``sum_k (k+1)^{-N} eps_{t-k}`` of white noise.

    ``base`` is the white noise, with ``Sigma`` and its root; ``N`` holds the
    exponent with its eigenframe, found once.
    """

    base: ArmaModel
    N: FracIntegrationSpec

    def __post_init__(self) -> None:
        if self.N.grid.n != self.base.grid.n:
            raise ValueError("power-law exponent must live on the model grid")
        if self.base.phi.degree or self.base.theta.degree:
            raise ValueError("the power-law moving average has no AR or MA part")

    @property
    def grid(self) -> HilbertGrid:
        return self.base.grid


@dataclass(eq=False)
class SpectralDensityGrid:
    """Operator density values on a frequency grid, w.r.t. Lebesgue measure."""

    freqs: np.ndarray
    values: np.ndarray
    grid: HilbertGrid

    def __post_init__(self) -> None:
        self.freqs = np.asarray(self.freqs, dtype=float).ravel()
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        n = self.grid.n
        if self.values.shape != (self.freqs.size, n, n):
            raise ValueError("density values must have shape (len(freqs), n, n)")

    def operator(self, j: int) -> LinearOperator:
        return LinearOperator(self.values[j], self.grid)

    def trace(self) -> np.ndarray:
        return np.einsum("fii->f", self.values).real

    def validate(self) -> None:
        """Check every value is Hermitian PSD within 1e-10 relative to the
        largest (:func:`psd_eigh`); :class:`NotPSDError` names the defect otherwise."""
        psd_eigh(self.values)


@dataclass(eq=False)
class AutocovarianceSequence:
    """Lag-indexed autocovariance operators for h = -H..H."""

    data: np.ndarray
    grid: HilbertGrid
    max_lag: int

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=complex)
        n = self.grid.n
        if self.data.shape != (2 * self.max_lag + 1, n, n):
            raise ValueError("autocovariance data must have shape (2H+1, n, n)")

    def operator(self, h: int) -> LinearOperator:
        if abs(h) > self.max_lag:
            raise IndexError(f"lag {h} outside [-{self.max_lag}, {self.max_lag}]")
        return LinearOperator(self.data[h + self.max_lag], self.grid)


def density_frequencies(n_freq: int) -> np.ndarray:
    """Half-cell-offset grid of ``n_freq`` equispaced frequencies in ``(-pi, pi]``.

    The offset keeps 0 (where fractional transfers are singular) off the
    grid for every size, and the equal-weight quadrature stays exact for
    constants.  Odd sizes include the regular point pi instead.
    """
    if n_freq < 1:
        raise ValueError("need at least one frequency")
    lam = 2.0 * np.pi * (np.arange(n_freq) + 0.5) / n_freq
    return np.sort(np.where(lam > np.pi, lam - 2.0 * np.pi, lam))


def _density_from_half(
    freqs: np.ndarray, half: np.ndarray, grid: HilbertGrid, frac: np.ndarray | None = None
) -> SpectralDensityGrid:
    """Frequency-wise ``h h^H / (2 pi)`` with ``h = frac @ half`` (``half``
    when ``frac`` is None), made exactly Hermitian: the batched product
    leaves rounding-level asymmetry, which the lag-0 autocovariance would
    inherit.  A finite half-factor can still square past the double range;
    a value that is not finite raises :class:`OverflowError` naming the
    first frequency that has one."""
    with np.errstate(over="ignore", invalid="ignore"):
        if frac is not None:
            half = frac @ half
        vals = half @ half.conj().transpose(0, 2, 1)
        vals += vals.conj().transpose(0, 2, 1)
        vals *= 0.25 / np.pi
    finite = np.isfinite(vals).all(axis=(1, 2))
    if not finite.all():
        raise OverflowError(f"spectral density overflows at frequency {freqs[~finite][0]:.6g}")
    return SpectralDensityGrid(freqs, vals, grid)


def arma_spectral_density(model: ArmaModel, freqs: np.ndarray) -> SpectralDensityGrid:
    """Density ``T(lam) Sigma T(lam)^H / (2 pi)`` with T the ARMA transfer."""
    freqs = np.asarray(freqs, dtype=float).ravel()
    return _density_from_half(freqs, arma_transfer_batch(model, freqs), model.grid)


def fiarma_spectral_density(model: FiarmaModel, freqs: np.ndarray) -> SpectralDensityGrid:
    """Density of the fractionally integrated model: the ARMA half-factor is
    premultiplied by the fractional transfer frequency-wise (zero at 0)."""
    freqs = np.asarray(freqs, dtype=float).ravel()
    half = arma_transfer_batch(model.base, freqs)
    return _density_from_half(freqs, half, model.grid, frac_transfer_batch(model.D, freqs))


def _quadrature_weights(freqs: np.ndarray) -> np.ndarray:
    """Equal weights for equispaced grids, trapezoid otherwise; frequencies
    that do not increase are refused, naming the first one out of order."""
    if freqs.size == 1:
        return np.array([2.0 * np.pi])
    steps = np.diff(freqs)
    if not np.all(steps > 0.0):
        k = int(np.argmin(steps > 0.0)) + 1
        raise ValueError(f"frequencies must increase: {freqs[k]:.6g} follows {freqs[k - 1]:.6g}")
    if np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        return np.full(freqs.size, steps[0])
    w = np.empty(freqs.size)
    w[0] = steps[0] / 2.0
    w[-1] = steps[-1] / 2.0
    w[1:-1] = (steps[:-1] + steps[1:]) / 2.0
    return w


def autocov_sequence(g: SpectralDensityGrid, max_lag: int) -> AutocovarianceSequence:
    """Autocovariances ``Gamma(h) = integral e^{i lam h} g(lam) d lam`` for
    h = -H..H, by the quadrature of :func:`_quadrature_weights`.

    Lags 0..H are one ``(H+1, F) @ (F, n^2)`` product.  Lag 0 is made exactly
    Hermitian and each negative lag is the adjoint of its positive lag, so
    ``Gamma(-h) = Gamma(h)^H`` holds by construction.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    n = g.grid.n
    phases = np.exp(1j * np.outer(np.arange(max_lag + 1), g.freqs)) * _quadrature_weights(g.freqs)
    pos = (phases @ g.values.reshape(-1, n * n)).reshape(-1, n, n)
    pos[0] += pos[0].conj().T
    pos[0] *= 0.5
    data = np.concatenate([pos[:0:-1].conj().transpose(0, 2, 1), pos])
    return AutocovarianceSequence(data, g.grid, max_lag)


def empirical_autocov(path: "SampledPath", h: int) -> LinearOperator:
    """Sample autocovariance ``(1/T) sum x_{t+h} x_t^H`` of a centered path."""
    y = path.values
    t_len = y.shape[0]
    if abs(h) >= t_len:
        raise ValueError(f"lag {h} needs a path longer than {abs(h)}")
    y = y - y.mean(axis=0)
    if h < 0:
        pos = empirical_autocov(path, -h)
        return LinearOperator(pos.entries.conj().T, path.grid)
    gamma = y[h:].T @ y[: t_len - h].conj() / t_len
    return LinearOperator(gamma, path.grid)


def fourier_frequencies(t_len: int) -> np.ndarray:
    """The nonzero Fourier frequencies ``2 pi j / T`` mapped into ``(-pi, pi]``, sorted."""
    lam = 2.0 * np.pi * np.arange(1, t_len) / t_len
    return np.sort(np.where(lam > np.pi + 1e-12, lam - 2.0 * np.pi, lam))


_OUTER_ROW_PRODUCTS = 1 << 12


def _outer_by_frequency(d: np.ndarray) -> np.ndarray:
    """Values ``d_f d_f^H`` for the columns ``d_f`` of the ``(n, F)`` array
    ``d``, returned C-contiguous as ``(F, n, n)`` and exactly Hermitian.

    Each multiply runs its inner loop over the frequency, and the lower
    triangle is the conjugate of the upper one and the diagonal is made
    real: the fused multiply-add in numpy's complex product leaves
    ``d_a conj(d_b)`` and ``conj(d_b conj(d_a))`` unequal in the last bit,
    and ``d_a conj(d_a)`` with an imaginary part.

    The values are made in blocks ``(n, n, F')`` with contiguous rows, one
    upper-triangle row of entries per multiply, and each block is copied
    transposed into place in one pass.  Writing the entries straight
    through the transposed view of the values would touch a new cache line
    with every element.  A block holds ``4096 // n`` frequencies, so a row
    multiply covers about 2048 products on average at every ``n`` and its
    per-call cost stays small, while the block (64 KB times ``n``) stays in
    cache for the copy.  At n=4, T=4096 that is 256 KB: a block as large as
    the 1 MB of values made the allocator hand the freed memory back to the
    system and fault it in again on every Monte Carlo replication (about
    720 page faults each).
    """
    n, n_freq = d.shape
    dc = d.conj()
    vals = np.empty((n_freq, n, n), dtype=complex)
    step = max(1, _OUTER_ROW_PRODUCTS // n)
    block = np.empty((n, n, min(step, n_freq)), dtype=complex)
    diagonal = block.reshape(n * n, -1)[:: n + 1]
    for f0 in range(0, n_freq, step):
        width = min(step, n_freq - f0)
        rows = block[:, :, :width]
        da, dca = d[:, f0 : f0 + width], dc[:, f0 : f0 + width]
        for a in range(n):
            np.multiply(da[a], dca[a:], out=rows[a, a:])
        for a in range(n - 1):
            np.conjugate(rows[a, a + 1 :], out=rows[a + 1 :, a])
        diagonal[:, :width].imag = 0.0
        vals[f0 : f0 + width] = rows.transpose(2, 0, 1)
    return vals


def periodogram(path: "SampledPath", freqs: np.ndarray) -> SpectralDensityGrid:
    """Rank-one periodogram values ``d(lam) d(lam)^H / (2 pi T)``.

    Only Fourier frequencies ``2 pi j / T`` are admitted.  ``d`` is the
    discrete transform of the mean-centered path, so the scaling is
    consistent with the density normalization used by this package.
    Centering changes the transform only at ``j = 0``, where it makes it
    exactly 0 (Brockwell & Davis 1991, section 10.1), so the transform is
    taken of the path as it is and that row is set to 0.  The transform's
    rounding error grows with the norm of what it transforms; a path whose
    mean carries more than half of its energy is centered before the
    transform, which keeps that norm within sqrt(2) of the centered path's.
    The energies are plain sums, not BLAS dot products, whose thread pool
    would wake on every call.  By Parseval no value exceeds the path's
    energy over ``2 pi``, so a path whose energy is beyond the double range
    raises :class:`OverflowError` and any other has finite values.  The
    values are C-contiguous and exactly Hermitian.
    """
    freqs = np.asarray(freqs, dtype=float).ravel()
    y = path.values
    t_len = y.shape[0]
    off = freqs * (t_len / (2.0 * np.pi))
    j = np.rint(off)
    off -= j
    np.abs(off, out=off)
    if off.size and off.max() > 1e-8:
        lam_bad = freqs[np.argmax(off)]
        raise ValueError(f"{lam_bad:.6g} is not a Fourier frequency for T={t_len}")
    flat = y.view(float)
    energy = float(np.einsum("ij,ij->", flat, flat))
    if not np.isfinite(energy):
        raise OverflowError("periodogram overflows: the path's energy is beyond the double range")
    # entry (a, j) holds sum_t y_{t,a} e^{-2 pi i j t / T}
    dft = np.fft.fft(y.T, out=np.empty(y.shape[::-1], dtype=complex))
    # row j = 0 holds T times the mean: T |mean|^2 is the energy of the mean,
    # at most the path's, though its square T^2 |mean|^2 may be out of range
    mean = dft[:, 0]
    with np.errstate(over="ignore"):
        mean_energy = float(np.sum(mean.real**2 + mean.imag**2)) / t_len
    if mean_energy > 0.5 * energy:
        np.fft.fft((y - y.mean(axis=0)).T, out=dft)
    dft[:, 0] = 0.0
    # scaled once, before the gather and the outer product
    dft *= 1.0 / np.sqrt(2.0 * np.pi * t_len)
    d = np.take(dft, j.astype(np.intp), axis=1, mode="wrap")  # j modulo T
    return SpectralDensityGrid(freqs, _outer_by_frequency(d), path.grid)


def local_factorization(
    model: ArmaModel,
    dec: NormalDecomposition | None,
    eta: float,
    freqs: np.ndarray,
) -> tuple[LinearOperator, np.ndarray]:
    """Split the half-factor ``h(lam)`` as ``h0 + lam k(lam)`` near frequency 0.

    ``h(lam)`` is the transfer applied to the noise square root, conjugated
    into the diagonalizing frame when a decomposition is supplied.  The
    window is refused when a pole has ``|1 - lam_i e^{-i w}| <= 1e-6 scale``
    on it; ``k`` at an exact zero frequency is filled with a symmetric
    difference estimate.  Returns ``(h0, k_values)`` with ``k_values``
    stacked over ``freqs``.
    """
    freqs = np.asarray(freqs, dtype=float).ravel()
    if not 0.0 < eta <= np.pi:
        raise ValueError("eta must lie in (0, pi]")
    if np.any(np.abs(freqs) >= eta):
        raise ValueError("all frequencies must lie inside (-eta, eta)")
    dist, lam_bad = model.poles.nearest(eta)
    # the local expansion loses accuracy well before the symbol is singular
    if dist <= 1e-6 * model.poles.scale:
        raise SingularTransferError(
            f"eta too large: AR symbol near-singular at frequency {lam_bad:.6g}",
            lam=lam_bad,
        )

    def half(points: np.ndarray) -> np.ndarray:
        vals = arma_transfer_batch(model, points)
        if dec is not None:
            vals = np.einsum("ij,fjk,kl->fil", dec.U, vals, dec.U.conj().T)
        return vals

    h0 = half(np.array([0.0]))[0]
    h_vals = half(freqs)
    k_vals = np.empty_like(h_vals)
    nz = freqs != 0.0
    k_vals[nz] = (h_vals[nz] - h0) / freqs[nz, None, None]
    if np.any(~nz):
        eps = eta * 1e-6
        sym = half(np.array([eps, -eps]))
        k_vals[~nz] = (sym[0] - sym[1]) / (2.0 * eps)
    return LinearOperator(h0, model.grid), k_vals

