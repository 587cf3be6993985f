"""Seeded time-domain generation of white-noise, ARMA, fractional and
power-law moving-average paths, plus the pathwise check of the long-memory
decomposition.

Noise comes from a counter-based generator keyed by ``(seed, replication)``,
drawn in a single block per path of exactly the ``T + taps - 1`` rows its
filter reads, so identical configurations reproduce bit-identical paths and
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
5-smooth length (:func:`_filter_plan`), and every output row sees every
tap.  An AR polynomial with a root inside the unit disk has no causal
filter and is refused with :class:`NonCausalError`, read from the model's
poles.  The simulator, not the model, keeps each model's plan for the last
``(T, K_trunc)``, its ``auto`` noise family and its existence verdict, in a
weak mapping (:class:`_ModelState`), so replications of one model only draw
noise and convolve.  The decomposition check builds its three filters and
draws its block, and leaves the plan and any spectrum made ahead to the
simulation.

A Philox block depends on nothing but its key, and its filtered spectrum on
nothing but the block and the plan, so sequential replications are begun
ahead: when a call on a model follows its call for replication ``r - 1``
with the same seed, rows and noise family, replication ``r + 1``'s block is
drawn, transformed and multiplied by this call's filter on one background
thread while the caller runs ``r``'s inverse FFT and does its own work, and
the spectrum is kept with the block's key and the plan in the model's state.
One call takes that spectrum, only for the same key and plan, in the process
that made it, once made without error, and makes its own otherwise, so every
path stays bit-identical, calls on one model from several threads get the
paths that one thread gets, and any error is the caller's own.  The inverse
FFT stays with the caller, so the two threads share a replication's work
about evenly.  Nothing sets this: a single call, or a machine that gives the
process one CPU, starts no thread.
"""
from __future__ import annotations

import math
import os
import weakref
from functools import cache, reduce
from typing import Iterator

import numpy as np

from .existence import ExistenceRefusal, check_conditions, check_duker_conditions
from .hilbert import HilbertGrid, identity
from .spectral import ArmaModel, FiarmaModel, PowerLawModel
from .transfer import (
    NotNormalError,
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
# The AR impulse response is cut after this many rows, reached before the
# rounding floor only by a pole within about 4e-3 of the unit circle.
_AR_ROWS_CAP = 10_000
# A response that the cap cuts above this fraction of its peak is refused: a geometric
# tail cut there drops a share of the variance below its square, double rounding.
_AR_CUT_TAIL = 2.0**-26


class NonCausalError(ValueError):
    """A pole of the AR symbol lies outside the open unit disk, so the causal
    impulse response that simulation filters with diverges."""


def is_int(value) -> bool:  # booleans are not integers here
    return type(value) is int or isinstance(value, np.integer)


def _digits(value: int) -> int:
    """The decimal digits of ``abs(value)``, counted without ``str()``, which refuses huge ones."""
    size = abs(int(value))
    digits = int((size.bit_length() - 1) * math.log10(2)) + 1  # those of 2**(bit_length - 1)
    return digits + (size >= 10**digits)


def key_range_error(name: str, value: int) -> str | None:
    """The message for a ``seed`` or ``replication`` that is not an integer
    fitting one 64-bit word of the noise stream's key, or None.  A negative
    value stands for its two's complement; a value outside
    ``[-2**63, 2**64)`` would wrap onto the stream of another key."""
    if not is_int(value):
        return f"{name}: must be an integer"
    if -(2**63) <= value < 2**64:
        return None
    digits = _digits(value)
    return f"{name}: must lie in [-2**63, 2**64) to key the noise stream, got {digits} digits"


# the longest repr of a configured string that a message shows
ECHO_CHARS = 40


def echo(value) -> str:
    """A configured value as a message shows it: a string as its ``repr``,
    cut to ``ECHO_CHARS`` characters that end in ``...``, any other value by
    its type name.  No value makes a message long."""
    if not isinstance(value, str):
        return f"of type {type(value).__name__}"
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else text[: ECHO_CHARS - 3] + "..."


class SimConfig:
    """Run length, pre-history sizes, seed and noise family for one path,
    refused with the first rule of :meth:`errors` that it breaks.
    ``noise_kind="auto"`` draws real noise when ``phi``, ``theta`` and
    ``Sigma`` are real (``D`` does not count), and for a power-law model
    when ``N`` and ``Sigma`` are; it draws complex noise otherwise.  A path
    of ``T`` rows draws the ``T + taps - 1`` noise rows that its filter of
    ``taps`` coefficients reads.  Two configs are equal when they are of one
    class and their fields are equal."""

    # the smallest value of each size: a path needs a row
    SIZES = {"T": 1, "K_trunc": 0}

    def __init__(self, T: int = 1024, K_trunc: int = 2048, seed: int = 0, noise_kind: str = "auto",
                 replication: int = 0) -> None:
        self._set(locals())

    def _set(self, values: dict) -> None:
        """Set the constructor's arguments, passed as its ``locals()``, as the
        fields in signature order, refused with the first rule of
        :meth:`errors` that they break."""
        del values["self"]
        if message := next(self.errors(values), None):
            raise ValueError(message)
        vars(self).update(values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @classmethod
    def errors(cls, values: dict, prefix: str = "") -> Iterator[str]:
        """The message of every rule that the field ``values`` break, each
        naming its field after ``prefix``."""
        for key, low in cls.SIZES.items():
            if not is_int(values[key]) or values[key] < 0:
                yield f"{prefix}{key}: must be a nonnegative integer"
            elif values[key] < low:
                yield f"{prefix}{key}: must be at least {low}"
        for key in ("seed", "replication"):  # may be negative: they key the noise stream
            if message := key_range_error(prefix + key, values[key]):
                yield message
        if values["noise_kind"] not in NOISE_KINDS:
            yield f"{prefix}noise_kind: unknown kind {echo(values['noise_kind'])}"


class SampledPath:
    """Realized path: rows are time, columns weighted grid coordinates;
    ``meta`` is a new empty dict when not given."""

    def __init__(self, values: np.ndarray, grid: HilbertGrid, meta: dict | None = None) -> None:
        self.values = np.ascontiguousarray(values, dtype=complex)
        self.grid = grid
        self.meta = {} if meta is None else meta
        if self.values.ndim != 2 or self.values.shape[1] != grid.n:
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


def _ar_impulse(phi: OperatorPolynomial) -> np.ndarray:
    """Causal coefficients ``P_0 = Id``, ``P_k = sum_j A_j P_{k-j}`` of ``phi^{-1}``.

    The exact recursion stops once its last ``p`` rows fall below
    ``_ROUNDING_FLOOR`` of the peak, since every later row is a linear image
    of them, and it never runs past ``_AR_ROWS_CAP`` rows.
    """
    a = phi.stacked()
    p = len(a)
    rows = [np.eye(phi.grid.n, dtype=complex)]
    sizes = [1.0]
    peak = 1.0
    while p and len(rows) < _AR_ROWS_CAP:
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


def _filtered_spectrum(filter_fft: np.ndarray, path: np.ndarray) -> np.ndarray:
    """The length-``m`` spectrum of the circular convolution of the
    ``(rows, n)`` ``path`` (zero-padded) with the filter whose FFT, stored by
    entry as ``(n, n, m)``, is ``filter_fft``, by coordinate as a
    C-contiguous ``(n, m)`` array: its inverse FFT along the last axis is the
    convolution (:func:`_path_rows`).

    Each coordinate of the path is transformed as one line (``path.T``)
    straight into a row of the ``(n, m)`` spectrum, which the per-entry
    filter multiplies directly, one output row at a time.  A real path takes
    a half-length ``rfft`` and the other half of its spectrum by Hermitian
    symmetry; the filter itself may be complex.  The real path is first
    copied into zero-padded contiguous lines, held in the output's memory
    until the product overwrites it: one copy is cheaper than letting
    ``rfft`` pad each strided line itself.  Beside the path's spectrum and
    the output, only one line of ``m`` values is allocated.
    """
    n, _, m = filter_fft.shape
    xf = np.empty((n, m), dtype=complex)
    yf = np.empty((n, m), dtype=complex)
    if np.iscomplexobj(path):
        np.fft.fft(path.T, m, out=xf)
    else:
        h = m // 2 + 1
        padded = yf.view(float)[:, :m]
        padded[:, : len(path)] = path.T
        padded[:, len(path) :] = 0.0
        np.fft.rfft(padded, out=xf[:, :h])
        # line by line: across lines the two halves' address ranges overlap,
        # and numpy would copy the whole input half first
        for line in xf:
            np.conjugate(line[m - h : 0 : -1], out=line[h:])
    term = np.empty(m, dtype=complex)
    # an overflow leaves values that are not finite: SampledPath refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        # at small n this loop beats an (m, n, n) einsum or matmul
        for i, acc in enumerate(yf):
            np.multiply(filter_fft[i, 0], xf[0], out=acc)
            for j in range(1, n):
                acc += np.multiply(filter_fft[i, j], xf[j], out=term)
    return yf


class FilterPlan:
    """One causal filter ``sum_k C_k z^k``, ``Sigma^{1/2}`` folded in, for
    paths of ``t_len`` rows, built once.

    A path is ``rows = t_len + taps - 1`` standard noise rows through the
    filter, of which the last ``t_len`` output rows, the ones that see every
    tap, are returned.  ``filter_fft`` is the filter's FFT stored by entry
    as ``(n, n, m)`` (:func:`_fft_stack`); with ``m`` covering ``rows``, the
    circular convolution's wrap-around misses the output rows.
    """

    def __init__(self, rows: int, t_len: int, filter_fft: np.ndarray, real: bool,
                 meta: dict) -> None:
        self.rows = rows
        self.t_len = t_len
        self.filter_fft = filter_fft
        self.real = real  # the filter has real entries
        self.meta = meta  # diagnostics of the filter


def _filter_plan(factors: list[np.ndarray], t_len: int, meta: dict | None = None) -> FilterPlan:
    """The plan of the filter ``factors[0] factors[1] ...``, a product of
    stacked ``(taps, n, n)`` causal coefficient sequences, for ``t_len``
    output rows.

    The product has ``sum(len(f)) - len(factors) + 1`` taps, so ``t_len``
    output rows read the ``span = t_len + taps - 1`` noise rows that the
    plan draws.  The FFT length is the 5-smooth :func:`_next_fast_len` of
    that span, searched only when an ``(n, n, span)`` complex filter fits
    the address range, else :class:`MemoryError`.  A filter that is not
    finite raises :class:`OverflowError`, before any noise is drawn.
    """
    taps = sum(len(f) for f in factors) - len(factors) + 1
    span = t_len + taps - 1
    n = factors[0].shape[-1]
    if n * n * span * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        digits = _digits(span)
        raise MemoryError(f"the simulation's FFT span has {digits} digits: too long to address")
    m = _next_fast_len(span)
    with np.errstate(over="ignore", invalid="ignore"):
        by_freq = reduce(np.matmul, [_fft_stack(f, m).transpose(2, 0, 1) for f in factors])
    filter_fft = np.ascontiguousarray(by_freq.transpose(1, 2, 0))
    if not np.isfinite(filter_fft).all():
        raise OverflowError("simulation filter overflows")
    real = not any(f.imag.any() for f in factors)
    return FilterPlan(span, t_len, filter_fft, real, meta or {})


class _ModelState:
    """What the simulator keeps of one model: its ``auto`` noise family, its
    existence verdict once decided, its last plan as one ``((T, K_trunc),
    plan)`` pair, the key of the last path's noise block (the arguments of
    :func:`_standard_block`) and the filtered spectrum being made ahead, as a
    ``(key, plan, future, pid)`` entry in a list that the call using it
    pops: ``list.pop`` is atomic, so no two calls take one array."""

    def __init__(self, auto_kind: str) -> None:
        self.auto_kind = auto_kind
        self.verdict: str | None = None
        self.plan: tuple = (None, None)
        self.drawn: tuple | None = None
        self.ahead: list = []


# The state of every model simulated, dropped when the model is collected.
_STATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _state(model: _Model) -> _ModelState:
    """The simulator's state of ``model``, made on its first use."""
    if model not in _STATES:
        _STATES[model] = _ModelState(_resolve_noise_kind(model))
    return _STATES[model]


@cache
def _executor(pid: int):
    """The one background thread that makes filtered spectra ahead in the
    process ``pid``, started on first use: a forked child has no such thread
    and starts its own."""
    from concurrent.futures import ThreadPoolExecutor  # 4 ms to import: only when needed

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="fiarma-ahead")


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _take(ahead: list, key: tuple, plan: FilterPlan) -> np.ndarray | None:
    """The filtered spectrum of the entry popped from ``ahead``, if any, when
    made of the block ``key`` with ``plan`` in this process without error,
    else None.  Another block's or plan's job is cancelled; a job of the
    parent of a forked child is left untouched: its thread is not in the child."""
    try:
        ahead_key, ahead_plan, future, pid = ahead.pop()
    except IndexError:
        return None
    if pid != os.getpid():
        return None
    if ahead_key != key or ahead_plan is not plan:
        future.cancel()
        return None
    try:
        return future.result()
    except Exception:  # the caller makes the spectrum itself, and meets any error there
        return None


def _block_key(model: _Model, plan: FilterPlan, cfg: SimConfig) -> tuple:
    """The arguments of :func:`_standard_block` for the noise that ``plan``
    filters into the path of ``cfg``, the noise family last."""
    kind = _state(model).auto_kind if cfg.noise_kind == "auto" else cfg.noise_kind
    seed, rep = int(cfg.seed), int(cfg.replication)  # a numpy integer's sum may wrap
    return (seed, rep, plan.rows, model.grid.n, kind)


def _plan(model: _Model, cfg: SimConfig) -> FilterPlan:
    """The model's filter plan for the sizes of ``cfg``, kept in its
    :class:`_ModelState` and rebuilt when they change.

    Every model is its ARMA base: the impulse response of
    ``phi^{-1} theta`` times ``Sigma^{1/2}``, refused first when a pole of
    the base is not inside the unit disk, or when the row cap cuts the AR
    response above ``_AR_CUT_TAIL`` of its peak (a :class:`ValueError`).
    Its memory factor comes first: the MA coefficients of ``(1 - z)^{-D}``
    or the weights ``(k+1)^{-N}``, with a white base's one tap
    ``Sigma^{1/2}`` folded in.  The plan's block is the ``T + taps - 1``
    noise rows that the filter reads.
    """
    state = _state(model)
    sizes, plan = state.plan
    if sizes == (cfg.T, cfg.K_trunc):
        return plan
    base = model.base
    lam = max(base.poles.values, key=abs, default=0.0)
    if abs(lam) >= 1.0:
        raise NonCausalError(
            f"AR polynomial not causal: companion eigenvalue {lam:.6g} has modulus "
            f"{abs(lam):.6g} >= 1, so phi(z) is singular at z = {1 / lam:.6g} "
            "inside the unit disk"
        )
    p, q = base.phi.degree, base.theta.degree
    ar = _ar_impulse(base.phi)
    if len(ar) == _AR_ROWS_CAP and np.abs(ar[-p:]).max() > _AR_CUT_TAIL * np.abs(ar).max():
        raise ValueError(
            f"AR impulse response not resolved in {_AR_ROWS_CAP} rows: the largest pole "
            f"modulus {abs(lam):.6g} is too close to 1"
        )
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
        factors = [psi @ base.root.entries]
        if memory is not None:
            factors = [memory @ factors[0]] if p == q == 0 else [memory, *factors]
    plan = _filter_plan(factors, cfg.T, meta)
    state.plan = ((cfg.T, cfg.K_trunc), plan)
    return plan


def _path_rows(plan: FilterPlan, spectrum: np.ndarray, real_noise: bool) -> np.ndarray:
    """The ``plan.t_len`` path rows whose :func:`_filtered_spectrum` under
    ``plan`` is ``spectrum``, which the inverse FFT overwrites, as a new
    C-contiguous complex array that holds no other row of the convolution."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.fft.ifft(spectrum, out=spectrum)
    lines = spectrum[:, plan.rows - plan.t_len : plan.rows]
    if plan.real and real_noise:
        # a real filter of a real path is real; drop the FFT's rounding fuzz
        lines = lines.real
    return np.array(lines.T, dtype=complex, order="C")


def _filtered_rows(plan: FilterPlan, xi: np.ndarray) -> np.ndarray:
    """The path rows that ``plan`` makes of the standard noise block ``xi``
    of ``plan.rows`` rows."""
    return _path_rows(plan, _filtered_spectrum(plan.filter_fft, xi), not np.iscomplexobj(xi))


def _block_spectrum(plan: FilterPlan, key: tuple) -> np.ndarray:
    """The :func:`_filtered_spectrum` of the noise block ``_standard_block(*key)``
    under ``plan``."""
    return _filtered_spectrum(plan.filter_fft, _standard_block(*key))


def _path(model: _Model, plan: FilterPlan, cfg: SimConfig, **extra) -> SampledPath:
    """The path of ``model`` that ``plan`` makes of the ``(seed, replication)``
    noise block.  Its filtered spectrum is the one made ahead for this block
    and plan (:func:`_take`), else made now; the inverse FFT runs here.  A
    call that follows the model's path for the replication before, with the
    same seed, rows and noise family, makes the next replication's spectrum
    ahead with its own plan."""
    state = _state(model)
    key = _block_key(model, plan, cfg)
    spectrum = _take(state.ahead, key, plan)
    seed, rep = key[:2]
    follows = state.drawn == (seed, rep - 1, *key[2:])
    state.drawn = key
    if follows and key_range_error("replication", rep + 1) is None and _cpus() > 1:
        ahead_key = (seed, rep + 1, *key[2:])
        future = _executor(os.getpid()).submit(_block_spectrum, plan, ahead_key)
        state.ahead = [(ahead_key, plan, future, os.getpid())]
    if spectrum is None:
        spectrum = _block_spectrum(plan, key)
    meta = {
        "seed": cfg.seed,
        "replication": cfg.replication,
        "K_trunc": cfg.K_trunc,
        "noise_kind": key[-1],
        **extra,
    }
    rows = _path_rows(plan, spectrum, key[-1] != "complex-gaussian")
    return SampledPath(rows, model.grid, meta)


def _verdict(model: FiarmaModel | PowerLawModel, force: bool) -> str:
    """``"forced"`` under ``force``, else the model's existence verdict
    (:func:`check_conditions` of D, :func:`check_duker_conditions` of N),
    kept in the model's :class:`_ModelState` from its first use and refused
    with :class:`ExistenceRefusal` while condition (ii) fails.  A memory
    operator without a frame is ``unchecked``."""
    if force:
        return "forced"
    state = _state(model)
    if state.verdict is None:
        try:
            if isinstance(model, PowerLawModel):
                state.verdict = check_duker_conditions(model).verdict
            else:
                state.verdict = check_conditions(model.base, model.D).verdict
        except NotNormalError:
            state.verdict = "unchecked (memory operator not normal)"
    if state.verdict == "fails":
        raise ExistenceRefusal(
            "existence condition (ii) fails for this model; pass force=True to simulate anyway"
        )
    return state.verdict


def simulate_fiarma(
    model: ArmaModel | FiarmaModel, cfg: SimConfig, force: bool = False
) -> SampledPath:
    """Path of a FIARMA(p, D, q) model via the truncated MA expansion.

    An :class:`ArmaModel`, the ``D = 0`` member, has no verdict and no
    truncation, and ignores ``force``.  A :class:`FiarmaModel`'s verdict is
    decided once (:func:`_verdict`) and refuses every call while it fails,
    unless ``force`` is set; it lands in the path metadata with the
    truncation diagnostics.  A non-causal AR polynomial raises
    :class:`NonCausalError`, any other model class :class:`TypeError`."""
    if isinstance(model, FiarmaModel):
        existence = _verdict(model, force)
        plan = _plan(model, cfg)
        return _path(model, plan, cfg, existence=existence, **plan.meta)
    if not isinstance(model, ArmaModel):
        raise TypeError(
            f"simulate_fiarma takes an ArmaModel or a FiarmaModel, not {type(model).__name__}; "
            "a power-law model is simulated by simulate_duker"
        )
    return _path(model, _plan(model, cfg), cfg)


def simulate_duker(model: PowerLawModel, cfg: SimConfig, force: bool = False) -> SampledPath:
    """Power-law moving average ``sum_k (k+1)^{-N} eps_{t-k}``, truncated.
    A model that fails its conditions is refused unless ``force`` is set."""
    existence = _verdict(model, force)
    return _path(model, _plan(model, cfg), cfg, existence=existence)


class DecompositionCheck:
    """Pathwise comparison of the fractional filter against the power-law
    moving average plus its short-memory remainder, on shared noise."""

    def __init__(
        self, residual: float, delta_norms: np.ndarray, rho: float, t_len: int, k_trunc: int
    ) -> None:
        self.residual = residual
        self.delta_norms = delta_norms
        self.rho = rho
        self.t_len = t_len
        self.k_trunc = k_trunc

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
    property.  The check builds its three filters at ``max(K_trunc, 1)`` and
    draws its block, and leaves the plan and any spectrum made ahead to the
    simulation.  A model that fails its conditions is refused unless
    ``force`` is set.
    """
    _verdict(model, force)
    k_trunc = max(cfg.K_trunc, 1)
    root = model.base.root.entries
    with np.errstate(over="ignore", invalid="ignore"):  # _filter_plan refuses an overflow
        power_law = _filter_plan([power_law_weights(model.N, k_trunc).data @ root], cfg.T)
    c_mat, deltas, rho = duker_decomposition(model.N, k_trunc)  # first: its overflow names N
    binom = binomial_ma_coeffs(identity(model.grid) - model.N.D, k_trunc)  # (1-z)^{N-Id}
    # each filter has k_trunc + 1 taps, so all three read one block
    checks = [_filter_plan([seq.data @ root], cfg.T) for seq in (binom, deltas)]
    xi = _standard_block(*_block_key(model, power_law, cfg))
    path_a, remainder = (_filtered_rows(check, xi) for check in checks)
    path_b = _filtered_rows(power_law, xi) @ c_mat.entries.T + remainder

    residual = float(np.max(np.linalg.norm(path_a - path_b, axis=1), initial=0.0))
    return DecompositionCheck(
        residual=residual,
        delta_norms=deltas.norms(),
        rho=rho,
        t_len=path_a.shape[0],
        k_trunc=k_trunc,
    )
