"""Seeded time-domain generation of white-noise, ARMA, fractional and
power-law moving-average paths, plus the pathwise check of the long-memory
decomposition.

Noise comes from a counter-based generator keyed by ``(seed, replication)``,
drawn in a single block per path covering the burn-in and truncation
pre-history, so identical configurations reproduce bit-identical paths and
replications are independent streams that can run in parallel.

An ARMA or fractional ARMA path is one FFT convolution of that block with a
per-model filter: the exact impulse response of ``phi^{-1} theta`` times
``Sigma^{1/2}``, folded into the truncated MA coefficients of
``(1 - z)^{-D}`` for a fractional model.  The impulse response is the causal
one, so an AR polynomial with a root inside the unit disk is refused with
:class:`NonCausalError` when the filter is built.  The model object keeps the
filter's FFT for the last ``(T, K_trunc, burnin)`` it simulated, and a
fractional model also keeps its existence verdict, so replications of one
model only draw noise and convolve.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .existence import ExistenceRefusal, check_conditions, check_duker_conditions
from .hilbert import HilbertGrid, LinearOperator, NotNormalError, normal_decompose, sqrt_psd
from .spectral import ArmaModel, FiarmaModel
from .transfer import (
    OperatorPolynomial,
    _binomial_scalars,
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


class NonCausalError(ValueError):
    """The AR polynomial has a root inside the unit disk, so the causal
    impulse response that simulation filters with diverges."""


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
        for name in ("seed", "replication"):
            message = key_range_error(name, getattr(self, name))
            if message:
                raise ValueError(message)


def key_range_error(name: str, value: int) -> str | None:
    """The message for a ``seed`` or ``replication`` that does not fit one
    64-bit word of the noise stream's key, or None.  A negative value stands
    for its two's complement; a value outside ``[-2**63, 2**64)`` would wrap
    onto the stream of another key."""
    if -(2**63) <= value < 2**64:
        return None
    return f"{name}: must lie in [-2**63, 2**64) to key the noise stream, got {value}"


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
    """Standard Gaussian block from a Philox stream keyed by (seed, replication):
    real for ``real-gaussian``, circular complex for ``complex-gaussian``."""
    key = np.array([seed & (2**64 - 1), replication & (2**64 - 1)], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    if kind == "complex-gaussian":
        a = rng.standard_normal((rows, n))
        b = rng.standard_normal((rows, n))
        return (a + 1j * b) / np.sqrt(2.0)
    return rng.standard_normal((rows, n))


def _require_causal(phi: OperatorPolynomial) -> None:
    """Refuse ``phi`` unless every eigenvalue of its block companion matrix
    ``[[A_1 ... A_p], [Id 0]]`` lies inside the unit disk.  ``phi(z)`` is
    singular exactly at the reciprocals of those eigenvalues, so this is the
    condition under which the causal impulse response of ``phi^{-1}``
    decays (Brockwell & Davis 1991, section 11.3)."""
    a = phi.stacked()
    p, n = len(a), phi.grid.n
    if not p:
        return
    companion = np.eye(p * n, k=-n, dtype=complex)
    companion[:n] = np.concatenate(list(a), axis=1)
    eig = np.linalg.eigvals(companion)
    lam = eig[np.argmax(np.abs(eig))]
    if abs(lam) >= 1.0:
        raise NonCausalError(
            f"AR polynomial not causal: companion eigenvalue {lam:.6g} has modulus "
            f"{abs(lam):.6g} >= 1, so phi(z) is singular at z = {1 / lam:.6g} "
            "inside the unit disk"
        )


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


def _next_fast_len(target: int) -> int:
    """Smallest 5-smooth integer ``>= target``, the real-transform length of
    ``scipy.fft.next_fast_len(target, real=True)``.

    Every convolution here transforms real noise with ``rfft``, and numpy's
    real transforms have kernels for the factors 2, 3, 4 and 5 only: a
    factor 7 or 11 runs through a generic pass that costs 1.5 to 1.9 times
    as much per point.  On a 2-core Xeon with numpy 2.4, four lines of real
    noise took 250 us at 5145 = 3 5 7^3 and 148 us at 5184 = 2^6 3^4; their
    complex inverse took 271 and 227 us.
    """
    m = target
    while True:
        rest = m
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return m
        m += 1


def _fft_stack(ops: np.ndarray, m: int) -> np.ndarray:
    """Length-``m`` FFTs of stacked ``(rows, n, n)`` operators along the time
    axis, returned by entry as a contiguous ``(n, n, m)`` array.  The
    transforms run along the contiguous last axis, which ``numpy.fft``
    handles faster than the strided time axis."""
    by_entry = np.ascontiguousarray(ops.transpose(1, 2, 0))
    return np.fft.fft(by_entry, m, axis=-1)


def _fft_apply(filter_fft: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Circular convolution of the ``(rows, n)`` ``path`` (zero-padded) with
    the filter whose FFT, stored by entry as ``(n, n, m)``, is ``filter_fft``.
    Returns the ``(m, n)`` result, C-contiguous.

    Each coordinate of the path is transformed as one line (``path.T``)
    straight into a row of the ``(n, m)`` spectrum, which the per-entry
    filter multiplies directly, and the inverse transform writes its lines
    into the columns of the result.  A real path takes a half-length
    ``rfft`` and the other half of its spectrum by Hermitian symmetry; the
    filter itself may be complex.  The real path is first copied into
    zero-padded contiguous lines: one copy is cheaper than letting ``rfft``
    pad each strided line itself.
    """
    n, _, m = filter_fft.shape
    xf = np.empty((n, m), dtype=complex)
    if np.iscomplexobj(path):
        np.fft.fft(path.T, m, out=xf)
    else:
        h = m // 2 + 1
        padded = np.empty((n, m))
        padded[:, : len(path)] = path.T
        padded[:, len(path) :] = 0.0
        np.fft.rfft(padded, out=xf[:, :h])
        np.conjugate(xf[:, m - h : 0 : -1], out=xf[:, h:])
    # at small n this loop over j beats an (m, n, n) einsum or matmul
    yf = filter_fft[:, 0] * xf[0]
    term = np.empty_like(yf)
    for j in range(1, n):
        yf += np.multiply(filter_fft[:, j], xf[j], out=term)
    out = np.empty((m, n), dtype=complex)
    np.fft.ifft(yf, out=out.T)
    return out


def _convolve(coeffs: np.ndarray, path: np.ndarray) -> np.ndarray:
    """Causal operator convolution ``y_t = sum_k C_k x_{t-k}`` (zero-padded)."""
    t_len = path.shape[0]
    m = _next_fast_len(t_len + coeffs.shape[0] - 1)
    out = _fft_apply(_fft_stack(coeffs, m), path)[:t_len]
    if np.all(coeffs.imag == 0.0) and np.all(path.imag == 0.0):
        # a real filter of a real path is real; drop the FFT's rounding fuzz
        out = out.real.astype(complex)
    return out


@dataclass(eq=False)
class _FilterPlan:
    """A model's whole causal filter for one ``(T, K_trunc, burnin, lead)``,
    built once.

    A path is ``pre + T`` standard noise rows filtered by the causal filter
    whose FFT is ``filter_fft``, with ``Sigma^{1/2}`` folded in (``None``:
    the filter is ``Sigma^{1/2}`` alone).  Only the last ``keep`` rows reach
    the output rows; with the FFT length covering ``keep`` plus the filter
    length, the circular convolution's wrap-around misses them.
    ``auto_kind`` is the noise family that ``noise_kind="auto"`` resolves to
    for this model.
    """

    key: tuple[int, int, int | None, int]
    burnin: int
    pre: int
    keep: int
    filter_fft: np.ndarray | None
    real: bool  # the filter has real entries
    auto_kind: str
    meta: dict  # diagnostics of the filter

    def noise_kind(self, cfg: SimConfig) -> str:
        return self.auto_kind if cfg.noise_kind == "auto" else cfg.noise_kind


def _filter_plan(
    model: ArmaModel | FiarmaModel, key: tuple[int, int, int | None, int]
) -> _FilterPlan:
    """Impulse response of ``phi^{-1} theta`` times ``Sigma^{1/2}``, folded
    into the truncated MA coefficients of ``(1 - z)^{-D}`` for a
    :class:`FiarmaModel`, and the FFT of the result, stored by entry as
    ``(n, n, m)`` (:func:`_fft_stack`).

    A non-causal AR polynomial is refused first (:func:`_require_causal`).
    The noise block always covers the burn-in and ``K_trunc + q`` rows of
    pre-history, whatever ``lead`` is; a plain ARMA filter is sized for the
    ``lead`` rows that :func:`simulate_arma` prepends, a fractional one for
    its ``K_trunc`` MA lags.
    """
    t_len, k_trunc, burnin, lead = key
    fractional = isinstance(model, FiarmaModel)
    base = model.base if fractional else model
    _require_causal(base.phi)
    thetas = base.theta.stacked()
    auto_kind = _resolve_noise_kind("auto", base.phi.stacked(), thetas, base.sigma.entries)
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
    for j, b in enumerate(thetas, start=1):
        psi[j : j + len(ar)] += ar @ b
    psi = psi[:rows] @ base.root.entries
    real = bool(np.all(psi.imag == 0.0))
    pre = rows - t_len

    if not fractional:
        if len(psi) == 1:
            return _FilterPlan(key, burnin, pre, 0, None, real, auto_kind, {})
        span = t_len + lead + len(psi) - 1
        filter_fft = _fft_stack(psi, _next_fast_len(span))
        return _FilterPlan(key, burnin, pre, min(rows, span), filter_fft, real, auto_kind, {})

    order = max(k_trunc, 1)
    coeffs = frac_ma_coeffs(model.D, order).data
    span = t_len + order + len(psi) - 1
    m = _next_fast_len(span)
    by_freq = _fft_stack(coeffs, m).transpose(2, 0, 1) @ _fft_stack(psi, m).transpose(2, 0, 1)
    filter_fft = np.ascontiguousarray(by_freq.transpose(1, 2, 0))
    eig_re = np.linalg.eigvals(model.D.D.entries).real
    tail_norm = float(np.linalg.norm(coeffs[order], 2))
    tail_estimate = tail_norm * order / max(1.0, 1.0 - 2.0 * float(eig_re.max()))
    meta = {"coeff_tail_norm": tail_norm, "truncation_tail_estimate": tail_estimate}
    real = real and bool(np.all(coeffs.imag == 0.0))
    return _FilterPlan(key, burnin, pre, min(rows, span), filter_fft, real, auto_kind, meta)


def _plan(model: ArmaModel | FiarmaModel, cfg: SimConfig, lead: int = 0) -> _FilterPlan:
    """The model's cached filter plan for ``cfg`` and ``lead``, rebuilt when
    the sizes change."""
    key = (cfg.T, cfg.K_trunc, cfg.burnin, lead)
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
    out = _fft_apply(plan.filter_fft, xi[-plan.keep :])[plan.keep - cfg.T - lead : plan.keep]
    if plan.real and kind == "real-gaussian":
        # a real filter of a real path is real; drop the FFT's rounding fuzz
        out = out.real
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
    """Stationary ARMA path: the noise filtered by the impulse response of
    ``phi^{-1} theta``, started from zero ``burnin + K_trunc + q`` rows back.
    A non-causal AR polynomial raises :class:`NonCausalError`.

    ``lead`` extra rows of pre-history (at most ``K_trunc``) are prepended,
    so the returned rows cover times ``-lead .. T-1``.  Burn-in rows before
    that are discarded.
    """
    if not 0 <= lead <= cfg.K_trunc:
        raise ValueError("lead must lie in [0, K_trunc]")
    plan = _plan(model, cfg, lead)
    kind = plan.noise_kind(cfg)
    meta = {
        "seed": cfg.seed,
        "replication": cfg.replication,
        "burnin": plan.burnin,
        "K_trunc": cfg.K_trunc,
        "noise_kind": kind,
        "lead": lead,
    }
    return SampledPath(_filtered_rows(plan, model.root, cfg, kind, lead), model.grid, meta)


def _existence_verdict(model: FiarmaModel) -> str:
    """The model's existence verdict, decided on first use and kept on the
    model.  A failing verdict raises :class:`ExistenceRefusal` on every call."""
    if model._existence is None:
        try:
            report = check_conditions(model.base, model.D)
        except NotNormalError:
            model._existence = ("unchecked (memory operator not normal)", None)
        else:
            model._existence = (report.verdict, report.failed_condition())
    verdict, cond = model._existence
    if cond is not None:
        raise ExistenceRefusal(
            cond,
            f"existence condition ({cond}) fails for this model; "
            "pass force=True to simulate anyway",
        )
    return verdict


def simulate_fiarma(model: FiarmaModel, cfg: SimConfig, force: bool = False) -> SampledPath:
    """Fractionally integrated ARMA path via the truncated MA expansion.

    The existence conditions are decided once per model, on the first call
    without ``force`` (when the memory operator is normal), and the verdict
    is kept on the model; a failing verdict refuses to simulate on every
    call unless ``force`` is set.  A non-causal AR polynomial raises
    :class:`NonCausalError`.  Truncation diagnostics land in the path
    metadata.
    """
    existence = "forced" if force else _existence_verdict(model)
    plan = _plan(model, cfg)
    kind = plan.noise_kind(cfg)
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
    ``(1 - z)^{N - Id}``, taken per eigenvalue of ``N`` in its frame; path B
    assembles ``C`` times the power-law path plus the remainder convolution.
    The two agree up to floating point because the remainder is defined as
    the matching residual; the report also carries the remainder norms
    whose partial sums certify the short-memory property.
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

    binom = dec.apply_scalar(_binomial_scalars(-dec.d, k_trunc))  # (1-z)^{N-Id}
    c_mat, deltas, rho = duker_decomposition(n_op, k_trunc, dec)
    powers = power_law_weights(n_op, k_trunc, dec)

    path_a = _convolve(binom, noise)[k_trunc:]
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
