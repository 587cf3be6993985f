"""Path persistence: CSV for readable output, a small binary container for
bit-exact round trips.  All writes go through a temp file and an atomic
rename."""
from __future__ import annotations

import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .hilbert import HilbertGrid
from .simulate import SampledPath

_MAGIC = b"FIAR"
_VERSION = 1
# the formats :func:`write_path` writes, each the suffix of the CLI's path file
PATH_FORMATS = ("csv", "bin")


class PathFormatError(ValueError):
    """Malformed or truncated path file."""


def _atomic_write(target: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_TABLE_CHUNK_CELLS = 1 << 16


def _table_bytes(header: list[str], cells: np.ndarray, index: np.ndarray | None = None) -> bytes:
    """CSV bytes of ``header`` and one line per row of the 2-D float array
    ``cells``, led by the integer ``index`` of the row when one is given.

    Every float is written as ``format(x, ".17g")`` would write it, ``-0``
    included.  Rows go through one ``%`` operation per chunk of about 65536
    cells, which bounds the Python floats and strings alive at once.
    """
    cells = np.asarray(cells, dtype=float)
    row = ",".join(["%.17g"] * cells.shape[1])
    if index is not None:
        cells = np.column_stack([np.asarray(index, dtype=float), cells])
        row = "%d," + row
    row += "\n"
    step = max(1, _TABLE_CHUNK_CELLS // max(1, cells.shape[1]))
    parts = [(",".join(header) + "\n").encode()]
    for r0 in range(0, cells.shape[0], step):
        chunk = cells[r0 : r0 + step]
        parts.append((row * len(chunk) % tuple(chunk.ravel().tolist())).encode())
    return b"".join(parts)


def _complex_cells(values: np.ndarray) -> np.ndarray:
    """Rows of ``values`` (first axis) as float columns ``re, im`` per entry,
    in row-major entry order; zero rows give a ``(0, 2 * entries)`` array."""
    values = np.ascontiguousarray(values, dtype=complex)
    return values.reshape(len(values), math.prod(values.shape[1:])).view(float)


def _csv_bytes(path: SampledPath) -> bytes:
    n = path.grid.n
    header = ["t"] + [f"coord_{i}_re,coord_{i}_im" for i in range(1, n + 1)]
    return _table_bytes(header, _complex_cells(path.values), np.arange(path.t_len))


def _binary_bytes(path: SampledPath) -> bytes:
    t_len, n = path.values.shape
    head = _MAGIC + struct.pack("<HIQ", _VERSION, n, t_len)
    flat = np.empty((t_len, n, 2), dtype="<f8")
    flat[:, :, 0] = path.values.real
    flat[:, :, 1] = path.values.imag
    return head + flat.tobytes()


def write_path(path: SampledPath, file: str | Path, fmt: str | None = None) -> None:
    """Serialize a path as ``csv`` or ``bin`` (chosen from the suffix if not given)."""
    target = Path(file)
    if fmt is None:
        fmt = "bin" if target.suffix in (".bin", ".fiar") else "csv"
    if fmt not in PATH_FORMATS:
        raise ValueError(f"unknown path format {fmt!r}")
    _atomic_write(target, _csv_bytes(path) if fmt == "csv" else _binary_bytes(path))


def _read_csv(raw: bytes, grid: HilbertGrid | None) -> SampledPath:
    text = raw.decode()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PathFormatError("empty path")
    header = lines[0].split(",")
    if header[0] != "t" or (len(header) - 1) % 2:
        raise PathFormatError("malformed CSV header")
    n = (len(header) - 1) // 2
    if n == 0:
        raise PathFormatError("CSV header names no coordinates")
    if len(lines) == 1:
        raise PathFormatError("empty path")
    values = np.empty((len(lines) - 1, n), dtype=complex)
    parts = values.view(float)  # re, im of each coordinate in turn, as a row holds them
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != 1 + 2 * n:
            raise PathFormatError(f"row {t}: expected {1 + 2 * n} cells")
        try:
            nums = [float(c) for c in cells[1:]]
            stamp = int(cells[0])
        except ValueError as exc:
            raise PathFormatError(f"row {t}: {exc}") from None
        if stamp != t:
            raise PathFormatError(f"row {t}: t column reads {stamp}, expected {t}")
        parts[t] = nums
    _refuse_non_finite(parts)
    return _on_grid(values, grid)


def _read_binary(raw: bytes, grid: HilbertGrid | None) -> SampledPath:
    head_len = len(_MAGIC) + struct.calcsize("<HIQ")
    if len(raw) < head_len:
        raise PathFormatError("truncated file (no header)")
    if raw[:4] != _MAGIC:
        raise PathFormatError("bad magic bytes")
    version, n, t_len = struct.unpack("<HIQ", raw[4:head_len])
    if version != _VERSION:
        raise PathFormatError(f"unsupported container version {version}")
    if t_len == 0:
        raise PathFormatError("empty path")
    if n == 0:
        raise PathFormatError("no coordinates")
    expected = head_len + t_len * n * 16
    if len(raw) != expected:
        raise PathFormatError(
            f"truncated file ({len(raw)} bytes, expected {expected})"
        )
    flat = np.frombuffer(raw, dtype="<f8", offset=head_len).reshape(t_len, n, 2)
    _refuse_non_finite(flat.reshape(t_len, -1))
    return _on_grid(flat[:, :, 0] + 1j * flat[:, :, 1], grid)


def _on_grid(values: np.ndarray, grid: HilbertGrid | None) -> SampledPath:
    """The ``(T, n)`` ``values`` as a path on ``grid``, or on ``n`` unit-weight
    points without one."""
    n = values.shape[1]
    if grid is None:
        grid = HilbertGrid(np.arange(n, dtype=float), np.ones(n))
    elif grid.n != n:
        raise PathFormatError(f"file holds {n} coordinates, the grid has {grid.n}")
    return SampledPath(values, grid)


def _refuse_non_finite(cells: np.ndarray) -> None:
    """Raise :class:`PathFormatError` naming the first row of the ``(T, m)``
    float cells that holds a ``nan`` or ``inf``."""
    finite = np.isfinite(cells).all(axis=1)
    if not finite.all():
        raise PathFormatError(f"row {int(np.argmin(finite))}: value not finite")


def read_path(file: str | Path, grid: HilbertGrid | None = None) -> SampledPath:
    """Load a path written by :func:`write_path`; the format is sniffed from
    the magic bytes.  Without a grid, unit weights are assumed."""
    raw = Path(file).read_bytes()
    if raw[:4] == _MAGIC:
        return _read_binary(raw, grid)
    return _read_csv(raw, grid)
