"""Seeded time-domain generation of white-noise, ARMA, fractional and
power-law moving-average paths, plus the pathwise check of the long-memory
decomposition.

Noise comes from a counter-based generator keyed by ``(seed, replication)``,
drawn in a single block per path covering the burn-in and truncation
pre-history, so identical configurations reproduce bit-identical paths and
replications are independent streams that can run in parallel.

An ARMA or fractional ARMA path is one FFT convolution of that block with a
per-model filter: the exact impulse response of ``phi^{-1} theta``, folded
into the truncated MA coefficients of ``(1 - z)^{-D}`` for a fractional
model.  The model object keeps the filter's FFT for the last
``(T, K_trunc, burnin)`` it simulated, so replications of one model only
draw noise and convolve.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .existence import ExistenceRefusal, check_conditions, check_duker_conditions
from .hilbert import HilbertGrid, LinearOperator, NotNormalError, normal_decompose, sqrt_psd
from .spectral import ArmaModel, FiarmaModel
from .transfer import (
    OperatorPolynomial,
    binomial_ma_coeffs,
    duker_decomposition,
    frac_ma_coeffs,
    power_law_weights,
)

NOISE_KINDS = ("auto", "real-gaussian", "complex-gaussian")

# An impulse-response row below this fraction of the response's peak is
# double-precision rounding of the peak.
_ROUNDING_FLOOR = 2.0**-60
# The auto burn-in lets the AR impulse response fall to this fraction of its
# peak, within at most _BURNIN_CAP rows.
_BURNIN_DECAY = 1e-12
_BURNIN_CAP = 10_000


@dataclass
class SimConfig:
    """Run length, pre-history sizes, seed and noise family for one path."""

    T: int = 1024
    burnin: int | None = None  # None: sized from the AR forgetting rate
    K_trunc: int = 2048
    seed: int = 0
    noise_kind: str = "auto"  # auto | real-gaussian | complex-gaussian
    replication: int = 0

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError("T must be at least 1")
        if self.burnin is not None and self.burnin < 0:
            raise ValueError("burnin must be nonnegative")
        if self.K_trunc < 0:
            raise ValueError("K_trunc must be nonnegative")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise_kind {self.noise_kind!r}")


@dataclass(eq=False)
class SampledPath:
    """Realized path: rows are time, columns weighted grid coordinates."""

    values: np.ndarray
    grid: HilbertGrid
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.n:
            raise ValueError("path values must have shape (T, n)")
        if self.values.shape[0] < 1:
            raise ValueError("path must contain at least one row")
        if not np.all(np.isfinite(self.values.view(float))):
            raise ValueError("path values must be finite")

    @property
    def t_len(self) -> int:
        return self.values.shape[0]


def _resolve_noise_kind(kind: str, *mats: np.ndarray) -> str:
    if kind != "auto":
        return kind
    real = all(np.all(m.imag == 0.0) for m in mats if m.size)
    return "real-gaussian" if real else "complex-gaussian"


def _standard_block(seed: int, replication: int, rows: int, n: int, kind: str) -> np.ndarray:
    """Standard Gaussian block from a Philox stream keyed by (seed, replication)."""
    key = np.array([seed & (2**64 - 1), replication & (2**64 - 1)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    if kind == "complex-gaussian":
        a = rng.standard_normal((rows, n))
        b = rng.standard_normal((rows, n))
        return (a + 1j * b) / np.sqrt(2.0)
    return rng.standard_normal((rows, n)).astype(complex)


def _ar_impulse(phi: OperatorPolynomial, limit: int) -> np.ndarray:
    """Causal coefficients ``P_0 = Id``, ``P_k = sum_j A_j P_{k-j}`` of ``phi^{-1}``.

    The exact recursion stops once its last ``p`` rows fall below
    ``_ROUNDING_FLOOR`` of the peak, since every later row is a linear image
    of them, and it never runs past ``limit`` rows.
    """
    a = phi.stacked()
    p = len(a)
    rows = [np.eye(phi.grid.n, dtype=complex)]
    sizes = [1.0]
    peak = 1.0
    while p and len(rows) < limit:
        k = len(rows)
        acc = a[0] @ rows[k - 1]
        for j in range(2, min(p, k) + 1):
            acc = acc + a[j - 1] @ rows[k - j]
        rows.append(acc)
        sizes.append(float(np.abs(acc).max()))
        peak = max(peak, sizes[-1])
        if k >= p and max(sizes[-p:]) <= _ROUNDING_FLOOR * peak:
            break
    return np.stack(rows)


def _auto_burnin(ar: np.ndarray, p: int) -> int:
    """``10 p`` plus the rows until the AR impulse response ``ar`` falls to
    ``_BURNIN_DECAY`` of its peak, the latter at most ``_BURNIN_CAP``."""
    if p == 0:
        return 0
    norms = np.linalg.norm(ar, 2, axis=(1, 2))
    live = np.flatnonzero(norms > _BURNIN_DECAY * norms.max())
    return 10 * p + min(int(live[-1]) + 1, _BURNIN_CAP)


def _noise_rows(
    root: LinearOperator, cfg: SimConfig, pre: int, kind: str
) -> np.ndarray:
    """Rows ``eps_t = Sigma^{1/2} xi_t`` for t in [-pre, T), given ``root = Sigma^{1/2}``."""
    xi = _standard_block(cfg.seed, cfg.replication, pre + cfg.T, root.n, kind)
    return xi @ root.entries.T


def _fft_apply(filter_fft: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Circular convolution of ``path`` (zero-padded) with the filter whose
    FFT, at the FFT length ``len(filter_fft)``, is ``filter_fft``."""
    xf = np.fft.fft(path, filter_fft.shape[0], axis=0)
    return np.fft.ifft(np.einsum("fij,fj->fi", filter_fft, xf), axis=0)


def _convolve(coeffs: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Causal operator convolution ``y_t = sum_k C_k x_{t-k}`` (zero-padded)."""
    t_len = path.shape[0]
    m = scipy.fft.next_fast_len(t_len + coeffs.shape[0] - 1)
    out = _fft_apply(np.fft.fft(coeffs, m, axis=0), path)[:t_len]
    if np.all(coeffs.imag == 0.0) and np.all(path.imag == 0.0):
        # a real filter of a real path is real; drop the FFT's rounding fuzz
        out = out.real.astype(complex)
    return out


@dataclass(eq=False)
class _FilterPlan:
    """A model's whole causal filter for one ``(T, K_trunc, burnin)``, built once.

    A path is ``Sigma^{1/2}`` times ``pre + T`` standard noise rows, filtered
    by the causal filter whose FFT is ``filter_fft`` (``None``: the identity).
    Only the last ``keep`` rows reach the output rows; with the FFT length
    covering ``keep`` plus the filter length, the circular convolution's
    wrap-around misses them.
    """

    key: tuple[int, int, int | None]
    burnin: int
    pre: int
    keep: int
    filter_fft: np.ndarray | None
    real: bool  # filter and Sigma^{1/2} have real entries
    meta: dict  # diagnostics of the filter


def _filter_plan(
    model: ArmaModel | FiarmaModel, key: tuple[int, int, int | None]
) -> _FilterPlan:
    """Impulse response of ``phi^{-1} theta``, folded into the truncated MA
    coefficients of ``(1 - z)^{-D}`` for a :class:`FiarmaModel`, and the FFT
    of the result.

    A plain ARMA filter is sized for the ``K_trunc`` lead rows that
    :func:`simulate_arma` may prepend.  The stacked ``(m, n, n)`` transforms
    go through ``scipy.fft``, which runs them along the strided time axis
    faster than ``numpy.fft``.
    """
    t_len, k_trunc, burnin = key
    fractional = isinstance(model, FiarmaModel)
    base = model.base if fractional else model
    p, q = base.phi.degree, base.theta.degree
    after = k_trunc + q + t_len  # noise rows after the burn-in
    if burnin is None:
        ar = _ar_impulse(base.phi, 10 * p + _BURNIN_CAP + after)
        burnin = _auto_burnin(ar, p)
    else:
        ar = _ar_impulse(base.phi, burnin + after)
    rows = burnin + after
    ar = ar[:rows]
    psi = np.concatenate([ar, np.zeros((q,) + ar.shape[1:], dtype=complex)])
    for j, b in enumerate(base.theta.stacked(), start=1):
        psi[j : j + len(ar)] += ar @ b
    psi = psi[:rows]
    real = bool(np.all(base.root.entries.imag == 0.0) and np.all(psi.imag == 0.0))
    pre = rows - t_len

    if not fractional:
        if len(psi) == 1:
            return _FilterPlan(key, burnin, pre, 0, None, real, {})
        span = t_len + k_trunc + len(psi) - 1
        m = scipy.fft.next_fast_len(span)
        return _FilterPlan(
            key, burnin, pre, min(rows, span), scipy.fft.fft(psi, m, axis=0), real, {}
        )

    order = max(k_trunc, 1)
    coeffs = frac_ma_coeffs(model.D, order).data
    span = t_len + order + len(psi) - 1
    m = scipy.fft.next_fast_len(span)
    filter_fft = scipy.fft.fft(coeffs, m, axis=0) @ scipy.fft.fft(psi, m, axis=0)
    eig_re = np.linalg.eigvals(model.D.D.entries).real
    tail_norm = float(np.linalg.norm(coeffs[order], 2))
    tail_estimate = tail_norm * order / max(1.0, 1.0 - 2.0 * float(eig_re.max()))
    meta = {"coeff_tail_norm": tail_norm, "truncation_tail_estimate": tail_estimate}
    real = real and bool(np.all(coeffs.imag == 0.0))
    return _FilterPlan(key, burnin, pre, min(rows, span), filter_fft, real, meta)


def _plan(model: ArmaModel | FiarmaModel, cfg: SimConfig) -> _FilterPlan:
    """The model's cached filter plan for ``cfg``, rebuilt when the sizes change."""
    key = (cfg.T, cfg.K_trunc, cfg.burnin)
    if model._sim_plan is None or model._sim_plan.key != key:
        model._sim_plan = _filter_plan(model, key)
    return model._sim_plan


def _filtered_rows(
    plan: _FilterPlan, root: LinearOperator, cfg: SimConfig, kind: str, lead: int
) -> np.ndarray:
    """Output rows for times ``-lead .. T-1`` from the ``(seed, replication)`` noise."""
    if plan.filter_fft is None:
        return _noise_rows(root, cfg, plan.pre, kind)[plan.pre - lead :]
    xi = _standard_block(cfg.seed, cfg.replication, plan.pre + cfg.T, root.n, kind)
    noise = xi[-plan.keep :] @ root.entries.T
    out = _fft_apply(plan.filter_fft, noise)[plan.keep - cfg.T - lead : plan.keep]
    if plan.real and kind == "real-gaussian":
        # a real filter of a real path is real; drop the FFT's rounding fuzz
        out = out.real.astype(complex)
    return out


def gaussian_white_noise(sigma: LinearOperator, cfg: SimConfig) -> SampledPath:
    """White noise with covariance ``sigma``; rows are ``Sigma^{1/2}`` times
    independent standard (real or circular complex) Gaussians."""
    kind = _resolve_noise_kind(cfg.noise_kind, sigma.entries)
    burnin = cfg.burnin or 0
    pre = burnin + cfg.K_trunc
    rows = _noise_rows(sqrt_psd(sigma), cfg, pre, kind)
    meta = {
        "seed": cfg.seed,
        "replication": cfg.replication,
        "burnin": burnin,
        "K_trunc": cfg.K_trunc,
        "noise_kind": kind,
    }
    return SampledPath(rows[pre:], sigma.grid, meta)


def _arma_kind(model: ArmaModel, cfg: SimConfig) -> str:
    return _resolve_noise_kind(
        cfg.noise_kind, model.phi.stacked(), model.theta.stacked(), model.sigma.entries
    )


def simulate_arma(model: ArmaModel, cfg: SimConfig, lead: int = 0) -> SampledPath:
    """Stationary ARMA path: the noise filtered by the impulse response of
    ``phi^{-1} theta``, started from zero ``burnin + K_trunc + q`` rows back.

    ``lead`` extra rows of pre-history (at most ``K_trunc``) are prepended,
    so the returned rows cover times ``-lead .. T-1``.  Burn-in rows before
    that are discarded.
    """
    if not 0 <= lead <= cfg.K_trunc:
        raise ValueError("lead must lie in [0, K_trunc]")
    kind = _arma_kind(model, cfg)
    plan = _plan(model, cfg)
    meta = {
        "seed": cfg.seed,
        "replication": cfg.replication,
        "burnin": plan.burnin,
        "K_trunc": cfg.K_trunc,
        "noise_kind": kind,
        "lead": lead,
    }
    return SampledPath(_filtered_rows(plan, model.root, cfg, kind, lead), model.grid, meta)


def simulate_fiarma(model: FiarmaModel, cfg: SimConfig, force: bool = False) -> SampledPath:
    """Fractionally integrated ARMA path via the truncated MA expansion.

    The existence conditions are checked first (when the memory operator is
    normal); a failing verdict refuses to simulate unless ``force`` is set.
    Truncation diagnostics land in the path metadata.
    """
    existence = "forced" if force else None
    if not force:
        try:
            report = check_conditions(model.base, model.D)
        except NotNormalError:
            existence = "unchecked (memory operator not normal)"
        else:
            if report.verdict == "fails":
                cond = report.failed_condition()
                raise ExistenceRefusal(
                    cond,
                    f"existence condition ({cond}) fails for this model; "
                    "pass force=True to simulate anyway",
                )
            existence = report.verdict

    kind = _arma_kind(model.base, cfg)
    plan = _plan(model, cfg)
    meta = {
        "seed": cfg.seed,
        "replication": cfg.replication,
        "burnin": plan.burnin,
        "K_trunc": cfg.K_trunc,
        "noise_kind": kind,
        "lead": 0,
        "existence": existence,
        **plan.meta,
    }
    return SampledPath(_filtered_rows(plan, model.base.root, cfg, kind, 0), model.grid, meta)


def simulate_duker(
    n_op: LinearOperator,
    sigma: LinearOperator,
    cfg: SimConfig,
    force: bool = False,
) -> SampledPath:
    """Power-law moving average ``sum_k (k+1)^{-N} eps_{t-k}``, truncated."""
    existence = "forced"
    dec = None
    if not force:
        dec = normal_decompose(n_op)
        report = check_duker_conditions(n_op, sigma, dec)
        if not report.passes:
            raise ExistenceRefusal(
                "duker",
                "power-law moving average conditions fail (need Re exponents "
                "> 1/2 with a finite weighted sum); pass force=True to override",
            )
        existence = "holds"

    kind = _resolve_noise_kind(cfg.noise_kind, n_op.entries, sigma.entries)
    burnin = cfg.burnin or 0
    pre = burnin + cfg.K_trunc
    noise = _noise_rows(sqrt_psd(sigma), cfg, pre, kind)
    weights = power_law_weights(n_op, cfg.K_trunc, dec)
    y = _convolve(weights.data, noise[burnin:])[cfg.K_trunc:]
    meta = {
        "seed": cfg.seed,
        "replication": cfg.replication,
        "burnin": burnin,
        "K_trunc": cfg.K_trunc,
        "noise_kind": kind,
        "existence": existence,
    }
    return SampledPath(y, n_op.grid, meta)


@dataclass(eq=False)
class DecompositionCheck:
    """Pathwise comparison of the fractional filter against the power-law
    moving average plus its short-memory remainder, on shared noise."""

    residual: float
    delta_norms: np.ndarray
    rho: float
    t_len: int
    k_trunc: int

    @property
    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.delta_norms)

    def to_dict(self) -> dict:
        sums = self.partial_sums
        return {
            "residual": float(self.residual),
            "delta_norm_total": float(sums[-1]),
            "delta_norm_tail_fraction": float(
                (sums[-1] - sums[len(sums) // 2]) / sums[-1]
            )
            if sums[-1] > 0
            else 0.0,
            "rho": float(self.rho),
            "T": int(self.t_len),
            "K_trunc": int(self.k_trunc),
        }


def verify_longmemory_decomposition(
    n_op: LinearOperator, sigma: LinearOperator, cfg: SimConfig
) -> DecompositionCheck:
    """Check ``Filter((1-z)^{N-Id}) eps = C Y + Z`` on one shared noise path.

    Path A convolves the noise with the binomial coefficients of
    ``(1 - z)^{N - Id}``; path B assembles ``C`` times the power-law path
    plus the remainder convolution.  The two agree up to floating point
    because the remainder is defined as the matching residual; the report
    also carries the remainder norms whose partial sums certify the
    short-memory property.
    """
    dec = normal_decompose(n_op)
    report = check_duker_conditions(n_op, sigma, dec)
    if not report.passes:
        raise ExistenceRefusal(
            "duker", "power-law moving average conditions fail; nothing to verify"
        )
    k_trunc = max(cfg.K_trunc, 1)
    kind = _resolve_noise_kind(cfg.noise_kind, n_op.entries, sigma.entries)
    burnin = cfg.burnin or 0
    pre = burnin + k_trunc
    noise = _noise_rows(sqrt_psd(sigma), cfg, pre, kind)[burnin:]

    eye = np.eye(n_op.n, dtype=complex)
    binom = binomial_ma_coeffs(LinearOperator(eye - n_op.entries, n_op.grid), k_trunc)
    c_mat, deltas, rho = duker_decomposition(n_op, k_trunc, dec)
    powers = power_law_weights(n_op, k_trunc, dec)

    path_a = _convolve(binom.data, noise)[k_trunc:]
    duker_rows = _convolve(powers.data, noise)[k_trunc:]
    path_b = duker_rows @ c_mat.entries.T + _convolve(deltas.data, noise)[k_trunc:]

    residual = float(np.max(np.linalg.norm(path_a - path_b, axis=1), initial=0.0))
    return DecompositionCheck(
        residual=residual,
        delta_norms=deltas.norms(),
        rho=rho,
        t_len=path_a.shape[0],
        k_trunc=k_trunc,
    )
