"""Decide whether the fractional filter applies to a given ARMA process.

The decision runs through the memory operator's spectral measure: the
transformed innovation's mass on each of its eigenvalue clusters, a set of
conditions on the real parts of the clusters' exponents, and a dyadically
refined quadrature of the near-zero frequency integral whose finiteness
characterizes existence; the power-law conditions are those at ``d = 1 - n``.
"""
from __future__ import annotations

import math

import numpy as np

from .spectral import ArmaModel, PowerLawModel
from .transfer import FracIntegrationSpec, arma_transfer_batch

# default nodes per shell and number of shells of the existence integral and the run config
SHELL_POINTS, N_REFINE = 64, 40


class ExistenceRefusal(RuntimeError):
    """Simulation refused because the existence check reports failure."""


class ExistenceReport:
    """Outcome of the necessary/sufficient existence conditions on the memory
    exponent's eigenvalue clusters, given as ``[re, im]`` pairs ``d`` in
    ``exponents`` (``d = 1 - n`` for a power-law exponent), and the
    innovation's ``masses`` on them (:func:`_masses`).  ``verdict`` is
    ``"fails"`` when a necessary condition is violated, ``"holds"`` when the
    sufficient set is satisfied, and ``"undetermined"`` when neither
    sufficiency side condition is.  The sum ``cond_iii_value`` of condition
    (iii) is finite whenever it is in the double range, so only condition
    (ii) can fail."""

    def __init__(self, exponents: np.ndarray, masses: np.ndarray, support_tol: float,
                 cond_ii: bool, cond_iii_value: float, cond_iv: bool, cond_v: bool,
                 verdict: str) -> None:
        self.exponents = exponents
        self.masses = masses
        self.support_tol = support_tol
        self.cond_ii = cond_ii
        self.cond_iii_value = cond_iii_value
        self.cond_iv = cond_iv
        self.cond_v = cond_v
        self.verdict = verdict


class IntegralReport:
    """Dyadic-shell quadrature of the existence integral near frequency 0."""

    def __init__(self, value: float, diverges: bool, shells: np.ndarray, eta: float, n_freq: int,
                 n_refine: int, tail_estimate: float) -> None:
        self.value = value
        self.diverges = diverges
        self.shells = shells
        self.eta = eta
        self.n_freq = n_freq
        self.n_refine = n_refine
        self.tail_estimate = tail_estimate

    @property
    def edges(self) -> np.ndarray:
        """The ``(n_refine, 2)`` edges ``(eta 2^{-l-1}, eta 2^{-l}]`` of each shell."""
        hi = self.eta * 2.0 ** -np.arange(self.n_refine)
        return np.column_stack([hi / 2.0, hi])


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


def _row_sq(halves: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    """Squared row norms of the half-factors ``halves[k]`` along their last
    two axes, summed over ``k`` and, given each row's cluster index, over
    the rows of each cluster.  A sum beyond the double range raises
    :class:`OverflowError`: it is no verdict on the model."""
    with np.errstate(over="ignore"):
        sq = np.sum(np.abs(halves) ** 2, axis=-1).sum(axis=0)
        grouped = np.zeros((*sq.shape[:-1], clusters.max() + 1))
        np.add.at(grouped.T, clusters, sq.T)
    if not np.isfinite(grouped).all():
        raise OverflowError("the half-factor's square overflows the double range")
    return grouped


def _condition_sum(masses: np.ndarray, re: np.ndarray) -> float:
    """The sum ``sum m_c / (1 - 2 Re d_c)`` of condition (iii) over the
    clusters where that gap is positive.  Its exact value is finite, so a sum
    beyond the double range raises :class:`OverflowError`: it is no verdict."""
    with np.errstate(over="ignore"):  # an infinite gap adds 0, and one of -inf is skipped
        gap = 1.0 - 2.0 * re
        keep = gap > 0.0
        value = float(np.sum(masses[keep] / gap[keep]))
    if not np.isfinite(value):
        raise OverflowError("existence condition (iii)'s weighted sum overflows the double range")
    return value


def _masses(base: ArmaModel, spec: FracIntegrationSpec) -> np.ndarray:
    """The innovation's mass ``m_c = ||P_c h(0)||_F^2`` on the spectral
    subspace of each eigenvalue cluster of the operator of ``spec``, in the
    order of its ``exponents``, with ``h(0) = phi(1)^{-1} theta(1) Sigma^{1/2}``.
    Clusters make the masses basis-free even where an eigenvalue repeats.
    For a multiplication operator on the grid, a point's mass is its
    pointwise innovation variance times its weight."""
    return _row_sq(spec.U @ arma_transfer_batch(base, [0.0]), spec.clusters)


def _report(base: ArmaModel, spec: FracIntegrationSpec, exponents: np.ndarray) -> ExistenceReport:
    """The existence conditions read at ``exponents``, one per eigenvalue
    cluster of the operator of ``spec``, with the innovation's masses on
    those clusters (:func:`_masses`).  Almost-everywhere quantifiers become
    checks on every cluster, the support thresholded at ``1e-24 max m_c`` to
    guard rounding."""
    masses = _masses(base, spec)
    tol = 1e-24 * float(masses.max())
    d_re = exponents.real
    cond_ii = bool(np.all(d_re[masses > tol] < 0.5))
    cond_iii_value = _condition_sum(masses, d_re)
    cond_iv, cond_v = bool(np.all(d_re < 1.0)), base.is_white_noise()
    verdict = "fails" if not cond_ii else "holds" if cond_iv or cond_v else "undetermined"
    pairs = np.column_stack([d_re, exponents.imag])
    return ExistenceReport(pairs, masses, tol, cond_ii, cond_iii_value, cond_iv, cond_v, verdict)


def check_conditions(model: ArmaModel, spec: FracIntegrationSpec) -> ExistenceReport:
    """Evaluate the existence conditions of the fractional filter on D's
    eigenvalue clusters (:func:`_report`).  A D without a frame raises
    :class:`NotNormalError`."""
    return _report(model, spec, spec.exponents)


def existence_integral(
    model: ArmaModel,
    spec: FracIntegrationSpec,
    eta: float,
    n_freq: int = SHELL_POINTS,
    n_refine: int = N_REFINE,
) -> IntegralReport:
    """Quadrature of ``sum_c |lam|^{-2 Re d_c} ||P_c h(lam)||_F^2`` near
    frequency 0, over the eigenvalue clusters ``c`` of D with their mean
    exponents ``d_c`` and spectral projectors ``P_c``.

    The window ``(-eta, eta)`` is cut into dyadic shells
    ``(eta 2^{-l-1}, eta 2^{-l}]``; each shell carries ``n_freq`` midpoint
    nodes per sign of the frequency.  The half-factor is
    ``h(lam) = U T(lam) Sigma^{1/2} U^H`` with ``T`` the ARMA transfer, its
    rows grouped by the clusters of D's spec, and the integral is taken
    against ``d lam / (2 pi)``.

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
    u, d_re = spec.U, spec.exponents.real

    # the shells are filled in place; a value that stays non-finite diverges
    report = IntegralReport(0.0, True, np.empty(n_refine), float(eta), n_freq, n_refine, 0.0)
    lo, hi = report.edges.T
    steps = (hi - lo) / n_freq
    shells = report.shells
    for level in range(n_refine):
        # one transfer batch per shell, holding its nodes of both signs
        pts = lo[level] + (np.arange(n_freq) + 0.5) * steps[level]
        vals = arma_transfer_batch(model, np.concatenate([pts, -pts]))
        # row norms of U T Sigma^{1/2} U^H per cluster, both signs summed; the
        # unitary right factor leaves them unchanged
        row_sq = _row_sq((u @ vals).reshape(2, n_freq, *vals.shape[1:]), spec.clusters)
        with np.errstate(over="ignore"):  # a shell beyond the double range is inf, as it is
            # scaled by the cell width before the sum, so a shell in range sums in range
            scal = pts[:, None] ** (-2.0 * d_re[None, :]) * (steps[level] / (2.0 * np.pi))
            # a cluster without innovation adds 0, however large its exponent
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


def check_duker_conditions(model: PowerLawModel) -> ExistenceReport:
    """The existence conditions of the power-law moving average: the
    fractional filter's, read at ``d = 1 - n`` on N's own clusters
    (:func:`_report`), so that (ii) asks square-summable weights on the
    innovation's support.  An N without a frame raises :class:`NotNormalError`."""
    return _report(model.base, model.N, 1.0 - model.N.exponents)
