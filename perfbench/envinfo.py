"""The machine and library versions a result was measured on.

Results from different machines must not be compared by accident, so every
result file carries this record.
"""
from __future__ import annotations

import ctypes
import os
import platform
import sys

import numpy as np
import scipy

# Thread-count getters of the OpenBLAS builds numpy and scipy ship with.
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> tuple[str, int | None]:
    """BLAS library name and the thread count it uses, read from the loaded library."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = "unknown"
    try:
        with open(f"/proc/{os.getpid()}/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return name, int(getter())
    return name, None


def program_env(root) -> dict:
    """This process's environment with the checkout's ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def environment(seed: int) -> dict:
    blas, threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "seed": seed,
    }
