"""Seeded time-domain generation of white-noise, ARMA, fractional and
power-law moving-average paths, plus the pathwise check of the long-memory
decomposition.

Noise comes from a counter-based generator keyed by ``(seed, replication)``,
drawn in a single block per path covering the burn-in and truncation
pre-history, so identical configurations reproduce bit-identical paths and
replications are independent streams that can run in parallel.

Every path is that block through one causal filter, planned and sized in
one place (:func:`_plan`).  Every model is its ARMA base, plus a memory
factor when it has one.  The base's filter is the exact causal impulse
response of ``phi^{-1} theta`` times ``Sigma^{1/2}``; the memory factor
before it is the truncated MA coefficients of ``(1 - z)^{-D}`` for a
fractional model and the weights ``(k+1)^{-N}`` for a power-law one.  White
noise is the identity ARMA model, whose filter is the one tap
``Sigma^{1/2}``, and a white base's tap is folded into the memory factor.
Every filter, one tap or many, is applied as one FFT convolution at a
5-smooth length (:func:`_filter_plan`).  An AR polynomial with a root
inside the unit disk has no causal filter and is refused with
:class:`NonCausalError`, read from the model's poles.  The simulator, not
the model, keeps each model's plan for the last ``(T, K_trunc, burnin)``,
its ``auto`` noise family and its existence verdict, in a weak mapping
(:class:`_ModelState`), so replications of one model only draw noise and
convolve.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Iterator

import numpy as np

from .existence import ExistenceRefusal, check_conditions, check_duker_conditions
from .hilbert import HilbertGrid, LinearOperator, NotNormalError, identity
from .spectral import ArmaModel, FiarmaModel, PowerLawModel
from .transfer import (
    OperatorPolynomial,
    binomial_ma_coeffs,
    duker_decomposition,
    frac_ma_coeffs,
    power_law_weights,
)

NOISE_KINDS = ("auto", "real-gaussian", "complex-gaussian")
_Model = ArmaModel | FiarmaModel | PowerLawModel

# An impulse-response row below this fraction of the response's peak is
# double-precision rounding of the peak.
_ROUNDING_FLOOR = 2.0**-60
# The auto burn-in lets the AR impulse response fall to this fraction of its
# peak, within at most _BURNIN_CAP rows.
_BURNIN_DECAY = 1e-12
_BURNIN_CAP = 10_000


class NonCausalError(ValueError):
    """A pole of the AR symbol lies outside the open unit disk, so the causal
    impulse response that simulation filters with diverges."""


def _is_int(value) -> bool:  # booleans are not integers here
    return type(value) is int or isinstance(value, np.integer)


def key_range_error(name: str, value: int) -> str | None:
    """The message for a ``seed`` or ``replication`` that is not an integer
    fitting one 64-bit word of the noise stream's key, or None.  A negative
    value stands for its two's complement; a value outside
    ``[-2**63, 2**64)`` would wrap onto the stream of another key."""
    if not _is_int(value):
        return f"{name}: must be an integer"
    if -(2**63) <= value < 2**64:
        return None
    return f"{name}: must lie in [-2**63, 2**64) to key the noise stream, got {value}"


@dataclass
class SimConfig:
    """Run length, pre-history sizes, seed and noise family for one path,
    refused with the first rule of :meth:`errors` that it breaks.
    ``noise_kind="auto"`` draws real noise when ``phi``, ``theta`` and
    ``Sigma`` are real (``D`` does not count), and for a power-law model
    when ``N`` and ``Sigma`` are; it draws complex noise otherwise."""

    T: int = 1024
    burnin: int | None = None  # None: sized from the AR forgetting rate
    K_trunc: int = 2048
    seed: int = 0
    noise_kind: str = "auto"  # auto | real-gaussian | complex-gaussian
    replication: int = 0

    # the smallest value of each size: a path needs a row
    SIZES = {"T": 1, "K_trunc": 0}

    def __post_init__(self) -> None:
        if message := next(self.errors(vars(self)), None):
            raise ValueError(message)

    @classmethod
    def errors(cls, values: dict, prefix: str = "") -> Iterator[str]:
        """The message of every rule that the field ``values`` break, each
        naming its field after ``prefix``."""
        for key, low in cls.SIZES.items():
            if not _is_int(values[key]) or values[key] < 0:
                yield f"{prefix}{key}: must be a nonnegative integer"
            elif values[key] < low:
                yield f"{prefix}{key}: must be at least {low}"
        for key in ("seed", "replication"):  # may be negative: they key the noise stream
            if message := key_range_error(prefix + key, values[key]):
                yield message
        burnin = values["burnin"]
        if burnin is not None and (not _is_int(burnin) or burnin < 0):
            yield f"{prefix}burnin: must be a nonnegative integer or null"
        if values["noise_kind"] not in NOISE_KINDS:
            yield f"{prefix}noise_kind: unknown kind {values['noise_kind']!r}"


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


def _resolve_noise_kind(model: _Model) -> str:
    """The family that ``noise_kind="auto"`` draws for ``model``, by the rule
    of :class:`SimConfig`."""
    base = model.base
    mats = [base.phi.stacked(), base.theta.stacked(), base.sigma.entries]
    mats += [model.N.D.entries] if isinstance(model, PowerLawModel) else []
    real = all(np.all(m.imag == 0.0) for m in mats)
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


def _next_fast_len(target: int) -> int:
    """Smallest 5-smooth integer ``>= target``, the real-transform length of
    ``scipy.fft.next_fast_len(target, real=True)``.

    Every convolution here transforms real noise with ``rfft``, and numpy's
    real transforms have kernels for the factors 2, 3, 4 and 5 only: a
    factor 7 or 11 runs through a generic pass that costs 1.5 to 1.9 times
    as much per point.  On a 2-core Xeon with numpy 2.4, four lines of real
    noise took 250 us at 5145 = 3 5 7^3 and 148 us at 5184 = 2^6 3^4; their
    complex inverse took 271 and 227 us.  Each ``3^b 5^c`` below the best
    so far takes the least power of two reaching ``target``: O(log^2) steps.
    """
    best = 1 << max(target - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


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
    out = np.empty((m, n), dtype=complex)
    # an overflow leaves values that are not finite: SampledPath refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        # at small n this loop over j beats an (m, n, n) einsum or matmul
        yf = filter_fft[:, 0] * xf[0]
        term = np.empty_like(yf)
        for j in range(1, n):
            yf += np.multiply(filter_fft[:, j], xf[j], out=term)
        np.fft.ifft(yf, out=out.T)
    return out


@dataclass(eq=False)
class FilterPlan:
    """One causal filter ``sum_k C_k z^k``, ``Sigma^{1/2}`` folded in, for
    paths of ``t_len`` rows, built once.

    A path is the last ``keep`` of ``rows`` standard noise rows through the
    filter, of which the last ``t_len`` output rows are returned.
    ``filter_fft`` is the filter's FFT stored by entry as ``(n, n, m)``
    (:func:`_fft_stack`); with ``m`` covering the path plus the filter
    length, the circular convolution's wrap-around misses the output rows.
    """

    burnin: int
    rows: int
    t_len: int
    keep: int
    filter_fft: np.ndarray
    real: bool  # the filter has real entries
    meta: dict  # diagnostics of the filter


def _filter_plan(
    factors: list[np.ndarray], t_len: int, rows: int, burnin: int = 0, meta: dict | None = None
) -> FilterPlan:
    """The plan of the filter ``factors[0] factors[1] ...``, a product of
    stacked ``(taps, n, n)`` causal coefficient sequences, for ``t_len``
    output rows from ``rows`` noise rows.

    The product has ``sum(len(f)) - len(factors) + 1`` taps, so only the
    last ``t_len + taps - 1`` noise rows reach the output; with fewer rows
    the filter starts from zero.  The FFT length is the 5-smooth
    :func:`_next_fast_len` of that span.  A filter that is not finite raises
    :class:`OverflowError`, before any noise is drawn.
    """
    taps = sum(len(f) for f in factors) - len(factors) + 1
    span = t_len + taps - 1
    m = _next_fast_len(span)
    with np.errstate(over="ignore", invalid="ignore"):
        by_freq = reduce(np.matmul, [_fft_stack(f, m).transpose(2, 0, 1) for f in factors])
    filter_fft = np.ascontiguousarray(by_freq.transpose(1, 2, 0))
    if not np.isfinite(filter_fft).all():
        raise OverflowError("simulation filter overflows")
    real = not any(f.imag.any() for f in factors)
    return FilterPlan(burnin, rows, t_len, min(rows, span), filter_fft, real, meta or {})


@dataclass(eq=False)
class _ModelState:
    """What the simulator keeps of one model: its ``auto`` noise family, its
    existence verdict with the failed condition (``None`` when none failed)
    once decided, and the plan of the last path sizes ``key``."""

    auto_kind: str
    verdict: tuple[str, str | None] | None = None
    key: tuple | None = None
    plan: FilterPlan | None = None


# The state of every model simulated, dropped when the model is collected.
_STATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _state(model: _Model) -> _ModelState:
    """The simulator's state of ``model``, made on its first use."""
    if model not in _STATES:
        _STATES[model] = _ModelState(_resolve_noise_kind(model))
    return _STATES[model]


def _noise(model: _Model, plan: FilterPlan, cfg: SimConfig) -> tuple[str, np.ndarray]:
    """The noise family of ``cfg`` for ``model`` and its ``(seed, replication)`` block."""
    kind = _state(model).auto_kind if cfg.noise_kind == "auto" else cfg.noise_kind
    return kind, _standard_block(cfg.seed, cfg.replication, plan.rows, model.grid.n, kind)


def _plan(model: _Model, cfg: SimConfig) -> FilterPlan:
    """The model's filter plan for the sizes of ``cfg``, kept in its
    :class:`_ModelState` and rebuilt when they change.

    Every model is its ARMA base: the impulse response of
    ``phi^{-1} theta`` times ``Sigma^{1/2}``, refused first when a pole of
    the base is not inside the unit disk, on a block covering the burn-in
    and ``K_trunc + q`` rows of pre-history.  Its memory factor comes first:
    the MA coefficients of ``(1 - z)^{-D}`` or the weights ``(k+1)^{-N}``,
    with a white base's one tap ``Sigma^{1/2}`` folded in.
    """
    state = _state(model)
    key = (cfg.T, cfg.K_trunc, cfg.burnin)
    if state.key == key:
        return state.plan
    base = model.base
    lam = max(base.poles.values, key=abs, default=0.0)
    if abs(lam) >= 1.0:
        raise NonCausalError(
            f"AR polynomial not causal: companion eigenvalue {lam:.6g} has modulus "
            f"{abs(lam):.6g} >= 1, so phi(z) is singular at z = {1 / lam:.6g} "
            "inside the unit disk"
        )
    p, q = base.phi.degree, base.theta.degree
    after = cfg.K_trunc + q + cfg.T  # noise rows after the burn-in
    if cfg.burnin is None:
        ar = _ar_impulse(base.phi, 10 * p + _BURNIN_CAP + after)
        burnin = _auto_burnin(ar, p)
    else:
        burnin = cfg.burnin
        ar = _ar_impulse(base.phi, burnin + after)
    rows = burnin + after
    ar = ar[:rows]
    thetas = base.theta.stacked()
    memory, meta = None, {}
    if isinstance(model, FiarmaModel):
        memory = frac_ma_coeffs(model.D, max(cfg.K_trunc, 1)).data
        meta = {"coeff_tail_norm": float(np.linalg.norm(memory[-1], 2))}
    elif isinstance(model, PowerLawModel):
        memory = power_law_weights(model.N, cfg.K_trunc).data
    with np.errstate(over="ignore", invalid="ignore"):  # _filter_plan refuses an overflow
        psi = np.concatenate([ar, np.zeros((q,) + ar.shape[1:], dtype=complex)])
        for j, b in enumerate(thetas, start=1):
            psi[j : j + len(ar)] += ar @ b
        factors = [psi[:rows] @ base.root.entries]
        if memory is not None:
            factors = [memory @ factors[0]] if p == q == 0 else [memory, *factors]
    state.plan = _filter_plan(factors, cfg.T, rows, burnin, meta)
    state.key = key
    return state.plan


def _filtered_rows(plan: FilterPlan, xi: np.ndarray) -> np.ndarray:
    """The ``plan.t_len`` path rows that ``plan`` makes of the standard noise
    block ``xi``."""
    x = xi[-plan.keep :]
    out = _fft_apply(plan.filter_fft, x)[plan.keep - plan.t_len : plan.keep]
    if plan.real and not np.iscomplexobj(x):
        # a real filter of a real path is real; drop the FFT's rounding fuzz
        out = out.real
    return out


def _path(model: _Model, plan: FilterPlan, cfg: SimConfig, **extra) -> SampledPath:
    """The path of ``model`` that ``plan`` makes of the ``(seed, replication)``
    noise block."""
    kind, xi = _noise(model, plan, cfg)
    meta = {
        "seed": cfg.seed,
        "replication": cfg.replication,
        "burnin": plan.burnin,
        "K_trunc": cfg.K_trunc,
        "noise_kind": kind,
        **extra,
    }
    return SampledPath(_filtered_rows(plan, xi), model.grid, meta)


def gaussian_white_noise(sigma: LinearOperator, cfg: SimConfig) -> SampledPath:
    """White noise with covariance ``sigma``, the path of the identity ARMA
    model: ``Sigma^{1/2}`` times standard (real or circular complex) noise."""
    white = OperatorPolynomial(sigma.grid)
    return simulate_arma(ArmaModel(white, white, sigma), cfg)


def simulate_arma(model: ArmaModel, cfg: SimConfig) -> SampledPath:
    """Stationary ARMA path: the noise filtered by the impulse response of
    ``phi^{-1} theta``, started from zero ``burnin + K_trunc + q`` rows back.
    A non-causal AR polynomial raises :class:`NonCausalError`."""
    return _path(model, _plan(model, cfg), cfg)


def _verdict(model: FiarmaModel | PowerLawModel, force: bool) -> str:
    """``"forced"`` under ``force``, else the model's existence verdict, kept
    with its failed condition in the model's :class:`_ModelState` from its
    first use and refused with :class:`ExistenceRefusal` while it fails.  A
    ``D`` without a frame is ``unchecked``; an ``N`` without one raises
    every call."""
    if force:
        return "forced"
    state = _state(model)
    if state.verdict is None:
        if isinstance(model, PowerLawModel):
            passes = check_duker_conditions(model).passes
            state.verdict = ("holds", None) if passes else ("fails", "duker")
        else:
            try:
                report = check_conditions(model.base, model.D)
            except NotNormalError:
                state.verdict = ("unchecked (memory operator not normal)", None)
            else:
                state.verdict = (report.verdict, report.failed_condition())
    verdict, cond = state.verdict
    if cond is not None:
        raise ExistenceRefusal(
            cond,
            "power-law moving average conditions fail (need Re exponents > 1/2 "
            "with a finite weighted sum)"
            if cond == "duker"
            else f"existence condition ({cond}) fails for this model; "
            "pass force=True to simulate anyway",
        )
    return verdict


def simulate_fiarma(model: FiarmaModel, cfg: SimConfig, force: bool = False) -> SampledPath:
    """Fractionally integrated ARMA path via the truncated MA expansion.

    The existence conditions are decided once per model, on the first call
    without ``force`` (:func:`_verdict`); a failing verdict refuses to
    simulate on every call unless ``force`` is set.  A non-causal AR
    polynomial raises :class:`NonCausalError`.  Truncation diagnostics land
    in the path metadata.
    """
    existence = _verdict(model, force)
    plan = _plan(model, cfg)
    return _path(model, plan, cfg, existence=existence, **plan.meta)


def simulate_duker(model: PowerLawModel, cfg: SimConfig, force: bool = False) -> SampledPath:
    """Power-law moving average ``sum_k (k+1)^{-N} eps_{t-k}``, truncated.
    A model that fails its conditions is refused unless ``force`` is set."""
    existence = _verdict(model, force)
    return _path(model, _plan(model, cfg), cfg, existence=existence)


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
        """The CLI's ``duker_verify.json``: the residual, the remainder norms'
        total and the share of it beyond their midpoint, and the sizes."""
        sums = self.partial_sums
        tail = (sums[-1] - sums[len(sums) // 2]) / sums[-1] if sums[-1] > 0 else 0.0
        return {
            "residual": self.residual,
            "delta_norm_total": sums[-1],
            "delta_norm_tail_fraction": tail,
            "rho": self.rho,
            "T": self.t_len,
            "K_trunc": self.k_trunc,
        }


def verify_longmemory_decomposition(
    model: PowerLawModel, cfg: SimConfig, force: bool = False
) -> DecompositionCheck:
    """Check ``Filter((1-z)^{N-Id}) eps = C Y + Z`` on one shared noise path.

    Path A filters the noise with the binomial coefficients of
    ``(1 - z)^{N - Id}`` from the dense recursion on ``Id - N``, which needs
    no eigenframe; path B assembles ``C`` times the power-law path plus the
    remainder path, whose ``Delta_k`` are taken per eigenvalue of ``N`` in
    its frame.  The two routes agree up to floating point exactly when the
    frame's binomials and matching constant are right; the report also
    carries the remainder norms whose partial sums certify the short-memory
    property.  Noise and power-law path come from the model's own plan at
    ``max(K_trunc, 1)``, which :func:`simulate_duker` then reuses.  A model
    that fails its conditions is refused unless ``force`` is set.
    """
    _verdict(model, force)
    k_trunc = max(cfg.K_trunc, 1)
    plan = _plan(model, replace(cfg, K_trunc=k_trunc))
    root = model.base.root.entries
    c_mat, deltas, rho = duker_decomposition(model.N, k_trunc)  # first: its overflow names N
    binom = binomial_ma_coeffs(identity(model.grid) - model.N.D, k_trunc)  # (1-z)^{N-Id}
    checks = [_filter_plan([seq.data @ root], cfg.T, plan.rows) for seq in (binom, deltas)]
    xi = _noise(model, plan, cfg)[1]
    path_a, remainder = (_filtered_rows(check, xi) for check in checks)
    path_b = _filtered_rows(plan, xi) @ c_mat.entries.T + remainder

    residual = float(np.max(np.linalg.norm(path_a - path_b, axis=1), initial=0.0))
    return DecompositionCheck(
        residual=residual,
        delta_norms=deltas.norms(),
        rho=rho,
        t_len=path_a.shape[0],
        k_trunc=k_trunc,
    )
