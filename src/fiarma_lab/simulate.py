"""Seeded time-domain generation of white-noise, ARMA, fractional and
power-law moving-average paths, plus the pathwise check of the long-memory
decomposition.

Noise comes from a counter-based generator keyed by ``(seed, replication)``,
drawn in a single block per path covering the burn-in and truncation
pre-history, so identical configurations reproduce bit-identical paths and
replications are independent streams that can run in parallel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .existence import ExistenceRefusal, check_conditions, check_duker_conditions
from .hilbert import HilbertGrid, LinearOperator, NotNormalError, normal_decompose, sqrt_psd
from .spectral import ArmaModel, FiarmaModel
from .transfer import (
    ar_inverse_laurent,
    binomial_ma_coeffs,
    duker_decomposition,
    frac_ma_coeffs,
    power_law_weights,
)

NOISE_KINDS = ("auto", "real-gaussian", "complex-gaussian")


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


def _auto_burnin(model: ArmaModel) -> int:
    """Burn-in sized from the decay of the inverse AR coefficients."""
    p = model.phi.degree
    if p == 0:
        return 0
    seq = ar_inverse_laurent(model.phi, 64, 512)
    n32 = float(np.linalg.norm(seq[32], 2))
    n64 = float(np.linalg.norm(seq[64], 2))
    if n32 <= 0.0 or n64 <= 0.0:
        rate = 0.5
    else:
        rate = (n64 / n32) ** (1.0 / 32.0)
    rate = min(max(rate, 1e-9), 1.0 - 1e-6)
    return 10 * p + min(int(math.ceil(math.log(1e-12) / math.log(rate))), 10_000)


def _noise_rows(
    root: LinearOperator, cfg: SimConfig, pre: int, kind: str
) -> np.ndarray:
    """Rows ``eps_t = Sigma^{1/2} xi_t`` for t in [-pre, T), given ``root = Sigma^{1/2}``."""
    xi = _standard_block(cfg.seed, cfg.replication, pre + cfg.T, root.n, kind)
    return xi @ root.entries.T


def _convolve(coeffs: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Causal operator convolution ``y_t = sum_k C_k x_{t-k}`` (zero-padded)."""
    k_len, n = coeffs.shape[0], coeffs.shape[1]
    t_len = path.shape[0]
    m = scipy.fft.next_fast_len(t_len + k_len - 1)
    cf = np.fft.fft(coeffs, m, axis=0)
    xf = np.fft.fft(path, m, axis=0)
    yf = np.einsum("fij,fj->fi", cf, xf)
    out = np.fft.ifft(yf, axis=0)[:t_len]
    if np.all(coeffs.imag == 0.0) and np.all(path.imag == 0.0):
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


def simulate_arma(model: ArmaModel, cfg: SimConfig, lead: int = 0) -> SampledPath:
    """Stationary ARMA path by the MA-then-AR recursion from zero starts.

    ``lead`` extra rows of pre-history (at most ``K_trunc``) are prepended,
    so the returned rows cover times ``-lead .. T-1``; downstream fractional
    convolutions consume them.  Burn-in rows before that are discarded.
    """
    if not 0 <= lead <= cfg.K_trunc:
        raise ValueError("lead must lie in [0, K_trunc]")
    q = model.theta.degree
    kind = _resolve_noise_kind(
        cfg.noise_kind, model.phi.stacked(), model.theta.stacked(), model.sigma.entries
    )
    burnin = cfg.burnin if cfg.burnin is not None else _auto_burnin(model)
    pre = burnin + cfg.K_trunc + q
    noise = _noise_rows(model.root, cfg, pre, kind)

    if q:
        eps = noise.copy()
        thetas = model.theta.stacked()
        for k in range(1, q + 1):
            eps[k:] += noise[:-k] @ thetas[k - 1].T
    else:
        eps = noise

    p = model.phi.degree
    if p:
        phis = model.phi.stacked()
        x = np.zeros_like(eps)
        transposed = [a.T.copy() for a in phis]
        for t in range(x.shape[0]):
            acc = eps[t]
            for j in range(1, min(p, t) + 1):
                acc = acc + x[t - j] @ transposed[j - 1]
            x[t] = acc
    else:
        x = eps

    start = pre - lead
    meta = {
        "seed": cfg.seed,
        "replication": cfg.replication,
        "burnin": burnin,
        "K_trunc": cfg.K_trunc,
        "noise_kind": kind,
        "lead": lead,
    }
    return SampledPath(x[start:], model.grid, meta)


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

    k_trunc = max(cfg.K_trunc, 1)
    coeffs = frac_ma_coeffs(model.D, k_trunc)
    base = simulate_arma(model.base, cfg, lead=k_trunc)
    y = _convolve(coeffs.data, base.values)[k_trunc:]

    eig_re = np.linalg.eigvals(model.D.D.entries).real
    tail_norm = float(np.linalg.norm(coeffs[k_trunc], 2))
    tail_estimate = tail_norm * k_trunc / max(1.0, 1.0 - 2.0 * float(eig_re.max()))
    meta = dict(base.meta)
    meta.update(
        {
            "lead": 0,
            "existence": existence,
            "coeff_tail_norm": tail_norm,
            "truncation_tail_estimate": tail_estimate,
        }
    )
    return SampledPath(y, model.grid, meta)


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
