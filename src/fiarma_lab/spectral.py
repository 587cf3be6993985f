"""Operator spectral densities, autocovariances, and their sample analogues.

Densities are stored with respect to Lebesgue measure on ``(-pi, pi]`` with
the ``1/(2 pi)`` factor folded into the white-noise density ``Sigma/(2 pi)``,
so that ``Gamma(h) = integral of e^{i lam h} g(lam) d lam`` holds and the
lag-0 autocovariance of a white noise is exactly its covariance operator.

The models are plain values, their operators and what their constructors
certify; the simulator keeps its plans and verdicts itself.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .hilbert import HilbertGrid, LinearOperator, psd_eigh, sqrt_psd
from .transfer import (
    CoefficientSequence,
    FracIntegrationSpec,
    OperatorPolynomial,
    SingularTransferError,
    arma_transfer_batch,
    circle_verdict,
    frac_transfer_batch,
)

if TYPE_CHECKING:  # pragma: no cover
    from .simulate import SampledPath


class ArmaModel:
    """AR/MA operator polynomials plus the noise covariance operator.

    The constructor certifies the model once and keeps what it finds:
    ``root`` is the PSD square root of ``sigma``, ``poles`` the AR symbol's
    poles, which answer every later question about it, and ``margin`` a
    lower bound on its smallest singular value on the circle
    (:func:`circle_verdict`), 0.0 when none was proven.
    """

    def __init__(
        self, phi: OperatorPolynomial, theta: OperatorPolynomial, sigma: LinearOperator
    ) -> None:
        if phi.grid.n != sigma.grid.n or theta.grid.n != sigma.grid.n:
            raise ValueError("model components must share one grid")
        self.phi = phi
        self.theta = theta
        self.sigma = sigma
        # PSD check doubles as the Hermitian check
        self.root = sqrt_psd(sigma)
        ok, self.margin, self.poles = circle_verdict(phi)
        if not ok:
            raise SingularTransferError(
                f"AR polynomial not invertible on the circle (margin {self.margin:.3e})"
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


class FiarmaModel:
    """ARMA base model filtered by a fractional integration transfer."""

    def __init__(self, base: ArmaModel, D: FracIntegrationSpec) -> None:
        if not isinstance(D, FracIntegrationSpec):
            raise TypeError(f"D must be a FracIntegrationSpec, not {type(D).__name__}")
        if D.grid.n != base.grid.n:
            raise ValueError("memory operator must live on the model grid")
        self.base = base
        self.D = D

    @property
    def grid(self) -> HilbertGrid:
        return self.base.grid


class PowerLawModel:
    """Power-law moving average ``sum_k (k+1)^{-N} eps_{t-k}`` of white noise.

    ``base`` is the white noise, with ``Sigma`` and its root; ``N`` holds the
    exponent with its eigenframe, found once.
    """

    def __init__(self, base: ArmaModel, N: FracIntegrationSpec) -> None:
        if not isinstance(N, FracIntegrationSpec):
            raise TypeError(f"N must be a FracIntegrationSpec, not {type(N).__name__}")
        if N.grid.n != base.grid.n:
            raise ValueError("power-law exponent must live on the model grid")
        if base.phi.degree or base.theta.degree:
            raise ValueError("the power-law moving average has no AR or MA part")
        self.base = base
        self.N = N

    @property
    def grid(self) -> HilbertGrid:
        return self.base.grid


def _row_energies(half: np.ndarray) -> np.ndarray:
    """``(F, n)`` squared norms of the rows of each ``(n, r)`` half-factor;
    they bound ``h h^H`` entry-wise, ``|(h h^H)_ab| <= max(e_a, e_b)``.

    A rank-one factor's are its squared moduli, the same bits as the
    gufunc's one-term sum at well under half its cost."""
    if half.shape[2] == 1:
        h = half[:, :, 0]
        energies = np.square(h.real)
        energies += np.square(h.imag)
        return energies
    return np.vecdot(half, half).real


_SQUARE_BLOCK = 16384  # entries of the square per block of _square's passes: 256 KB


def _square(half: np.ndarray) -> np.ndarray:
    """Frequency-wise ``h h^H / (2 pi)``, made exactly Hermitian: the batched
    product leaves rounding-level asymmetry, which the lag-0 autocovariance
    would inherit.  Each block of frequencies is multiplied into the values
    and has its adjoint added through one buffer, so neither the factor's
    conjugate nor an overlapping view's copy is ever formed whole."""
    f_len, n, _ = half.shape
    vals = np.empty((f_len, n, n), dtype=complex)
    step = max(1, _SQUARE_BLOCK // n**2)
    buf = np.empty_like(vals[:step])
    for start in range(0, f_len, step):
        h = half[start : start + step]
        blk = np.matmul(h, h.conj().transpose(0, 2, 1), out=vals[start : start + step])
        blk += np.conjugate(blk.transpose(0, 2, 1), out=buf[: len(blk)])
    vals *= 0.25 / np.pi
    return vals


class SpectralDensityGrid:
    """Operator density on a frequency grid, w.r.t. Lebesgue measure, kept as
    its half-factor: ``half[f]`` is an ``(n, r)`` array with
    ``g(lam_f) = half[f] half[f]^H / (2 pi)``.

    ``values`` forms the ``(F, n, n)`` square on every read, exactly
    Hermitian and C-contiguous; ``operator(j)`` forms frequency j alone, equal
    to ``values[j]``.  The factor's ``(F, n)`` row energies are found once, at
    construction, and kept.  Twice a row energy bounds every entry of the
    unscaled symmetrised square, so a factor with one beyond the double range
    raises :class:`OverflowError`, naming the first frequency that has one,
    and any other squares to finite values.
    """

    def __init__(self, freqs: np.ndarray, half: np.ndarray, grid: HilbertGrid) -> None:
        self.freqs = np.asarray(freqs, dtype=float).ravel()
        self.half = np.ascontiguousarray(half, dtype=complex)
        self.grid = grid
        if self.half.ndim != 3 or self.half.shape[:2] != (self.freqs.size, grid.n):
            raise ValueError("density half-factor must have shape (len(freqs), n, r)")
        with np.errstate(over="ignore", invalid="ignore"):
            self._energies = _row_energies(self.half)
            # doubling is exact and monotone, so twice the largest energy is
            # finite exactly when every doubled one is; the largest is NaN if any is
            if not np.isfinite(2.0 * self._energies.max(initial=0.0)):
                lam = self.freqs[~np.isfinite(2.0 * self._energies).all(axis=1)][0]
                raise OverflowError(f"spectral density overflows at frequency {lam:.6g}")

    @property
    def values(self) -> np.ndarray:
        return _square(self.half)

    def operator(self, j: int) -> LinearOperator:
        return LinearOperator(_square(self.half[j][None])[0], self.grid)

    def trace(self) -> np.ndarray:
        """``(F,)`` traces ``tr g(lam_f)``: the kept row energies' sums over
        ``2 pi``, without forming the square or the energies again."""
        return self._energies.sum(axis=1) * (0.5 / np.pi)

    def validate(self) -> None:
        """Check every value is Hermitian PSD within 1e-10 relative to the
        largest (:func:`psd_eigh`); :class:`NotPSDError` names the defect otherwise."""
        psd_eigh(self.values)


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


def fiarma_spectral_density(
    model: ArmaModel | FiarmaModel, freqs: np.ndarray
) -> SpectralDensityGrid:
    """Density ``T(lam) Sigma T(lam)^H / (2 pi)`` of a FIARMA(p, D, q) model:
    the ARMA half-factor, premultiplied frequency-wise by the fractional
    transfer (zero at 0) unless the model is an :class:`ArmaModel`, the
    ``D = 0`` member.  Any other model class raises :class:`TypeError`."""
    if not isinstance(model, (ArmaModel, FiarmaModel)):
        raise TypeError(
            f"fiarma_spectral_density takes an ArmaModel or a FiarmaModel, not "
            f"{type(model).__name__}; a power-law model has only simulated paths"
        )
    freqs = np.asarray(freqs, dtype=float).ravel()
    half = arma_transfer_batch(model.base, freqs)
    if isinstance(model, FiarmaModel):
        with np.errstate(over="ignore", invalid="ignore"):
            half = frac_transfer_batch(model.D, freqs) @ half
    return SpectralDensityGrid(freqs, half, model.grid)


def _quadrature_weights(freqs: np.ndarray) -> np.ndarray:
    """Periodic trapezoid weights: each frequency carries half of the gap to
    either neighbour, the last gap wrapping through 2 pi to the first
    frequency one period on.  Frequencies that do not increase within one
    period are refused, naming the first one out of order."""
    if freqs.size == 0:
        raise ValueError("need at least one frequency")
    cycle = np.append(freqs, freqs[0] + 2.0 * np.pi)
    steps = np.diff(cycle)
    if not np.all(steps > 0.0):
        k = int(np.argmin(steps > 0.0)) + 1
        raise ValueError(f"frequencies must increase: {cycle[k]:.6g} follows {cycle[k - 1]:.6g}")
    return 0.5 * (steps + np.roll(steps, 1))


def autocov_sequence(g: SpectralDensityGrid, max_lag: int) -> CoefficientSequence:
    """Autocovariances ``Gamma(h) = integral e^{i lam h} g(lam) d lam`` for
    h = -H..H, by the quadrature of :func:`_quadrature_weights`, as the
    operator sequence with ``k_min = -H``.

    Lags 0..H are one ``(H+1, F) @ (F, n^2)`` product.  Lag 0 is made exactly
    Hermitian and each negative lag is the adjoint of its positive lag, so
    ``Gamma(-h) = Gamma(h)^H`` holds by construction.  ``F`` frequencies
    resolve the lags below ``F / 2``: on the half-cell grid the quadrature
    of lag ``h`` also reads ``-Gamma(h - F)``, a lag no farther from 0 once
    ``2 h >= F``, so such an ``H`` is refused.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be nonnegative")
    weights = _quadrature_weights(g.freqs)
    if 2 * max_lag >= len(g.freqs):
        raise ValueError(f"max_lag {max_lag} needs more than {2 * max_lag} frequencies")
    n = g.grid.n
    phases = np.exp(1j * np.outer(np.arange(max_lag + 1), g.freqs)) * weights
    pos = (phases @ g.values.reshape(-1, n * n)).reshape(-1, n, n)
    pos[0] += pos[0].conj().T
    pos[0] *= 0.5
    data = np.concatenate([pos[:0:-1].conj().transpose(0, 2, 1), pos])
    return CoefficientSequence(data, g.grid, k_min=-max_lag)


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


def periodogram(path: "SampledPath", freqs: np.ndarray) -> SpectralDensityGrid:
    """Rank-one periodogram ``d(lam) d(lam)^H / (2 pi T)``, kept as its
    half-factor ``d(lam) / sqrt(T)``, one ``(n, 1)`` column per frequency.

    Only finite Fourier frequencies ``2 pi j / T`` are admitted, ``j`` taken
    modulo T.  ``d`` is the discrete transform of the mean-centered path, so
    the scaling is consistent with the density normalization used by this
    package.  Centering changes the transform only at ``j = 0``, where it
    makes it exactly 0 (Brockwell & Davis 1991, section 10.1), so the
    transform is taken of the path as it is and that row is set to 0.  The
    transform's rounding error grows with the norm of what it transforms; a
    path whose mean carries more than half of its energy is centered before
    the transform, which keeps that norm within sqrt(2) of the centered
    path's.  The path's energies are plain sums, not BLAS dot products,
    whose thread pool would wake on every call.  By Parseval no row energy
    of the factor exceeds the path's energy, so a path whose energy is
    beyond the double range raises :class:`OverflowError` here, and the grid
    refuses only a factor whose energy at one frequency is beyond half of
    it.
    """
    freqs = np.asarray(freqs, dtype=float).ravel()
    y = path.values
    t_len = y.shape[0]
    x = freqs * (t_len / (2.0 * np.pi))
    j = np.rint(x)
    # an infinite frequency gives inf - inf: the NaN it leaves is refused below
    with np.errstate(invalid="ignore"):
        off = np.abs(np.subtract(x, j, out=x), out=x)
    if off.size and not off.max() <= 1e-8:
        lam_bad = freqs[np.argmax(off)]  # the first NaN, if there is one
        raise ValueError(f"{lam_bad:.6g} is not a Fourier frequency for T={t_len}")
    flat = y.view(float)
    energy = float(np.einsum("ij,ij->", flat, flat))
    if not np.isfinite(energy):
        raise OverflowError("periodogram overflows: the path's energy is beyond the double range")
    # row j holds sum_t y_t e^{-2 pi i j t / T}
    dft = np.fft.fft(y, axis=0, out=np.empty(y.shape, dtype=complex))
    # row 0 holds T times the mean: T |mean|^2 is the energy of the mean,
    # at most the path's, though its square T^2 |mean|^2 may be out of range
    mean = dft[0]
    with np.errstate(over="ignore"):
        mean_energy = float(np.sum(mean.real**2 + mean.imag**2)) / t_len
    if mean_energy > 0.5 * energy:
        np.fft.fft(y - y.mean(axis=0), axis=0, out=dft)
    dft[0] = 0.0
    # j reduced modulo T in floating point, exactly at any size, before the
    # cast, and only when some |j| reaches T: a frequency in (-pi, pi] has
    # none; take counts a negative remainder from the end
    if np.abs(j).max(initial=0.0) >= t_len:
        np.fmod(j, t_len, out=j)
    half = np.take(dft, j.astype(np.intp), axis=0)
    half *= 1.0 / np.sqrt(t_len)
    return SpectralDensityGrid(freqs, half[:, :, None], path.grid)


def local_factorization(
    model: ArmaModel, eta: float, freqs: np.ndarray
) -> tuple[LinearOperator, np.ndarray]:
    """Split the half-factor ``h(lam)`` as ``h0 + lam k(lam)`` near frequency 0.

    ``h(lam)`` is the transfer applied to the noise square root.  The
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
            f"eta too large: AR symbol near-singular at frequency {lam_bad:.6g}"
        )

    h0 = arma_transfer_batch(model, [0.0])[0]
    h_vals = arma_transfer_batch(model, freqs)
    k_vals = np.empty_like(h_vals)
    nz = freqs != 0.0
    k_vals[nz] = (h_vals[nz] - h0) / freqs[nz, None, None]
    if np.any(~nz):
        eps = eta * 1e-6
        sym = arma_transfer_batch(model, [eps, -eps])
        k_vals[~nz] = (sym[0] - sym[1]) / (2.0 * eps)
    return LinearOperator(h0, model.grid), k_vals

