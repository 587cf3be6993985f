"""Decide whether the fractional filter applies to a given ARMA process.

The decision runs through the pointwise standard deviation ``sigma_w`` of the
transformed innovation, a set of grid conditions on the real part of the
memory exponents, and a dyadically refined quadrature of the near-zero
frequency integral whose finiteness characterizes existence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import NormalDecomposition
from .spectral import ArmaModel, PowerLawModel
from .transfer import FracIntegrationSpec, arma_transfer_batch

# default nodes per shell and number of shells of the existence integral and the run config
SHELL_POINTS, N_REFINE = 64, 40


class ExistenceRefusal(RuntimeError):
    """Simulation refused because the existence check reports failure."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


@dataclass(eq=False)
class ExistenceReport:
    """Outcome of the necessary/sufficient existence conditions on a grid.

    ``verdict`` is ``"fails"`` when a necessary condition is violated,
    ``"holds"`` when the sufficient set is satisfied, and ``"undetermined"``
    when the necessary conditions pass but neither sufficiency side
    condition does, so the criterion is silent either way.  On a grid the
    weighted sum of condition (iii) is finite whenever it is in the double
    range, so ``cond_iii`` holds and only condition (ii) can fail.
    """

    sigma_w: np.ndarray
    support_tol: float
    cond_ii: bool
    cond_iii: bool
    cond_iii_value: float
    cond_iv: bool
    cond_v: bool
    verdict: str

    def failed_condition(self) -> str | None:
        return "ii" if self.verdict == "fails" else None


@dataclass(eq=False)
class IntegralReport:
    """Dyadic-shell quadrature of the existence integral near frequency 0."""

    value: float
    diverges: bool
    shells: np.ndarray
    eta: float
    n_freq: int
    n_refine: int
    tail_estimate: float

    @property
    def edges(self) -> np.ndarray:
        """The ``(n_refine, 2)`` edges ``(eta 2^{-l-1}, eta 2^{-l}]`` of each shell."""
        hi = self.eta * 2.0 ** -np.arange(self.n_refine)
        return np.column_stack([hi / 2.0, hi])


@dataclass(eq=False)
class DukerReport:
    """Conditions for the power-law moving average ``sum (k+1)^{-N} eps_{t-k}``."""

    exponents_real: np.ndarray
    sigma_w: np.ndarray
    condition_exponent: bool
    integral_value: float
    grid_sensitive: bool
    passes: bool


def shell_depth_error(eta: float, n_refine: int) -> str | None:
    """The message for shells whose innermost edge ``eta 2^{-n_refine}`` is
    below the smallest normal double, where their widths underflow, or None."""
    limit = math.frexp(eta)[1] + 1021  # eta 2^{-limit} >= 2^{-1022} > eta 2^{-limit-1}
    if n_refine <= limit:
        return None
    return (
        f"n_refine: must be at most {limit} for eta = {eta}, so that the innermost "
        "shell edge eta 2**-n_refine stays a normal double"
    )


def _row_sq(halves: np.ndarray, per: np.ndarray | float = 1.0) -> np.ndarray:
    """Squared row norms of the half-factors ``halves[k]``, summed over ``k``
    and divided by ``per``.  A sum beyond the double range raises
    :class:`OverflowError`: it is no verdict on the model."""
    with np.errstate(over="ignore"):
        sq = np.sum(np.abs(halves) ** 2, axis=-1).sum(axis=0) / per
    if not np.isfinite(sq).all():
        raise OverflowError("the half-factor's square overflows the double range")
    return sq


def _condition_sum(sw: np.ndarray, gap: np.ndarray, weights: np.ndarray, name: str) -> float:
    """The weighted sum ``sum sigma_w^2 / gap * w`` of a grid condition over the
    points where ``gap > 0``.  Its exact value is finite on a grid, so a sum
    beyond the double range raises :class:`OverflowError` naming the
    condition: it is no verdict."""
    keep = gap > 0.0
    with np.errstate(over="ignore"):
        value = float(np.sum(sw[keep] ** 2 / gap[keep] * weights[keep]))
    if not np.isfinite(value):
        raise OverflowError(f"{name}'s weighted sum overflows the double range")
    return value


def sigma_w(model: ArmaModel, dec: NormalDecomposition) -> np.ndarray:
    """Pointwise standard deviation of the transformed innovation.

    Computed from the integral kernel of ``U phi(1)^{-1} theta(1) Sigma^{1/2}``:
    the squared value at a grid point is the weighted row sum of squared
    kernel values, which in coordinates is the squared row norm divided by
    the point's weight.
    """
    if dec.grid.n != model.grid.n:
        raise ValueError("model and decomposition must share one grid")
    half = dec.U @ arma_transfer_batch(model, [0.0])
    return np.sqrt(_row_sq(half, model.grid.weights))


def check_conditions(model: ArmaModel, spec: FracIntegrationSpec) -> ExistenceReport:
    """Evaluate the existence conditions of the fractional filter on the grid.

    Almost-everywhere quantifiers become checks at every grid point, with the
    support of ``sigma_w`` thresholded at ``1e-12 * max sigma_w`` to guard
    rounding.
    """
    dec = spec.ensure_decomposition()
    sw = sigma_w(model, dec)
    tol = 1e-12 * float(sw.max(initial=0.0))
    d_re = dec.d.real
    support = sw > tol

    cond_ii = bool(np.all(d_re[support] < 0.5)) if support.any() else True
    with np.errstate(over="ignore"):  # a gap of -inf is no gap: the sum skips it
        gap = 1.0 - 2.0 * d_re
    cond_iii_value = _condition_sum(sw, gap, model.grid.weights, "existence condition (iii)")
    cond_iv = bool(np.all(d_re < 1.0))
    cond_v = model.is_white_noise()

    if not cond_ii:
        verdict = "fails"
    elif cond_iv or cond_v:
        verdict = "holds"
    else:
        verdict = "undetermined"
    return ExistenceReport(
        sigma_w=sw,
        support_tol=tol,
        cond_ii=cond_ii,
        cond_iii=True,
        cond_iii_value=cond_iii_value,
        cond_iv=cond_iv,
        cond_v=cond_v,
        verdict=verdict,
    )


def existence_integral(
    model: ArmaModel,
    spec: FracIntegrationSpec,
    eta: float,
    n_freq: int = SHELL_POINTS,
    n_refine: int = N_REFINE,
) -> IntegralReport:
    """Quadrature of ``|lam|^{-2 Re d(v)} |k_h(v, v'; lam)|^2`` near frequency 0.

    The window ``(-eta, eta)`` is cut into dyadic shells
    ``(eta 2^{-l-1}, eta 2^{-l}]``; each shell carries ``n_freq`` midpoint
    nodes per sign of the frequency.  The half-factor is
    ``h(lam) = U T(lam) Sigma^{1/2} U^H`` with ``T`` the ARMA transfer, and
    the integral is taken against ``d lam / (2 pi)``.

    Squared row norms beyond the double range raise :class:`OverflowError`;
    divergence is declared when the sum is not finite, or when the last three
    shell-contribution ratios sit at or above ``1 - 1e-3`` (the ratios approach
    ``2^{2 max Re d - 1}``).  For convergent ratios the geometric tail beyond
    the deepest shell is extrapolated and added to the returned value.
    """
    if not 0.0 < eta < np.pi:
        raise ValueError("eta must lie in (0, pi)")
    if n_freq < 1 or n_refine < 4:
        raise ValueError("need n_freq >= 1 and n_refine >= 4")
    if message := shell_depth_error(eta, n_refine):
        raise ValueError(message)
    dec = spec.ensure_decomposition()
    d_re = dec.d.real

    # the shells are filled in place; a value that stays non-finite diverges
    report = IntegralReport(0.0, True, np.empty(n_refine), float(eta), n_freq, n_refine, 0.0)
    lo, hi = report.edges.T
    steps = (hi - lo) / n_freq
    shells = report.shells
    for level in range(n_refine):
        # one transfer batch per shell, holding its nodes of both signs
        pts = lo[level] + (np.arange(n_freq) + 0.5) * steps[level]
        vals = arma_transfer_batch(model, np.concatenate([pts, -pts]))
        # row norms of U T Sigma^{1/2} U^H, both signs summed; the unitary
        # right factor leaves them unchanged
        row_sq = _row_sq((dec.U @ vals).reshape(2, n_freq, *vals.shape[1:]))
        with np.errstate(over="ignore"):  # a shell beyond the double range is inf, as it is
            # scaled by the cell width before the sum, so a shell in range sums in range
            scal = pts[:, None] ** (-2.0 * d_re[None, :]) * (steps[level] / (2.0 * np.pi))
            # a point without innovation adds 0, however large its exponent
            terms = np.multiply(scal, row_sq, out=np.zeros_like(row_sq), where=row_sq > 0)
            shells[level] = float(np.sum(terms))
    with np.errstate(over="ignore"):
        report.value = float(shells.sum())
    if np.isfinite(report.value):
        ratios = np.divide(
            shells[1:], shells[:-1], out=np.zeros(n_refine - 1), where=shells[:-1] > 0
        )
        last = ratios[-3:]
        report.diverges = bool(np.all(last >= 1.0 - 1e-3))
        r = float(last[-1])
        if not report.diverges and 0.0 < r < 1.0:
            report.tail_estimate = float(shells[-1]) * r / (1.0 - r)
            report.value += report.tail_estimate
    return report


def check_duker_conditions(model: PowerLawModel) -> DukerReport:
    """Conditions for convergence of the power-law moving average.

    Requires the real part of every exponent to exceed one half and reports
    the weighted sum ``sum sigma_w^2 / (2 h - 1)``, with ``sigma_w`` of the
    white-noise base in the exponent's eigenframe.  Grid points whose
    exponent sits within 0.05 of the 1/2 boundary make that sum
    resolution-dependent, which is flagged rather than guessed.  An
    exponent without a frame raises :class:`NotNormalError`.
    """
    dec = model.N.ensure_decomposition()
    h = dec.d.real
    sw = sigma_w(model.base, dec)

    above = h > 0.5
    cond = bool(np.all(above))
    with np.errstate(over="ignore"):  # an infinite gap adds 0 to the sum
        gap = 2.0 * h - 1.0
    value = _condition_sum(sw, gap, model.grid.weights, "the power-law condition")
    sensitive = bool(np.any(above & (h - 0.5 < 0.05)))
    return DukerReport(
        exponents_real=h,
        sigma_w=sw,
        condition_exponent=cond,
        integral_value=value,
        grid_sensitive=sensitive,
        passes=cond,
    )
