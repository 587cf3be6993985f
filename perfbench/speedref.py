"""Fixed reference tasks that measure how fast the machine runs right now.

On a shared host the speed of the same code moved by up to 1.7x between
phases of ten seconds to minutes, for the program and for a pure-Python loop
alike.  The untraced run therefore times a reference task right after each
op and scales the op's wall time by the task's nominal time over its local
median time: the timing metrics are seconds at the speed at which the task
takes its nominal time.  The tasks are the benchmark's own code, never the
program's, so a change to the program moves the scaled times just as it
moves wall times.

Each workload uses the task that slows down as its ops do.  ``COMPUTE``
follows in-process numerical work: a Python-level loop over 4x4 matrix
products (as in an AR recursion), an FFT down the columns of a 4096x4 array
and the 4x4 outer products of its rows (as in a periodogram).  ``STARTUP``
follows the start of a fresh interpreter that imports numpy, as each CLI op
and each worker set-up does; on the 2-core Xeon used, COMPUTE tracked those
so loosely that scaling by it widened their run-to-run spread.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_rng = np.random.default_rng(12345)
_A = 0.2 * _rng.normal(size=(4, 4))
_E = _rng.normal(size=(1200, 4))
_Z = _rng.normal(size=(4096, 4))


def _compute() -> None:
    x = np.zeros(4)
    for e in _E:
        x = _A @ x + e
    f = np.fft.fft(_Z, axis=0)
    p = f[:, :, None] * f[:, None, :].conj()
    float(x.sum() + p.real.sum())


def _startup() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


@dataclass(frozen=True)
class Reference:
    name: str
    task: Callable[[], None]
    # seconds the task takes at the reference speed, near its time on the
    # 2-core Xeon used in its slower phases
    nominal_s: float
    # task samples that make up one local median: enough to damp the task's
    # own jitter, few enough to follow a change of phase
    window: int

    def sample(self, reps: int) -> list[float]:
        """Wall times of ``reps`` back-to-back runs of the task."""
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self.task()
            out.append(time.perf_counter() - t0)
        return out

    def scale(self, durations: list[float], refs: list[list[float]]) -> list[float]:
        """Each wall time at the reference speed.

        ``refs[i]`` holds the task times taken next to ``durations[i]``.  The
        speed for entry ``i`` is the median over the entries around it,
        enough of them for ``window`` task samples.
        """
        half = self.window // (2 * max(len(r) for r in refs))
        n = len(durations)
        out = []
        for i, d in enumerate(durations):
            local = [t for r in refs[max(0, i - half):min(n, i + half + 1)] for t in r]
            out.append(d * self.nominal_s / statistics.median(local))
        return out


COMPUTE = Reference("compute", _compute, 0.005, 16)
STARTUP = Reference("startup", _startup, 0.2, 4)
