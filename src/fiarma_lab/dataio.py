"""Every file the package writes: paths as CSV or a small binary container
for bit-exact round trips, CSV tables of named columns, and sorted JSON
documents.  All writes go through a temp file and an atomic rename."""
from __future__ import annotations

import json
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
    """Replace ``target`` by ``payload``.  An error names ``target``, never
    the temporary file, so its message is the same on every run."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(target)) from None
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


def _columns_bytes(columns: dict[str, np.ndarray]) -> bytes:
    """CSV bytes of a table given as ``{name: column}`` over the columns' first axis.

    A leading integer column (``t``, ``h``, ``k``, ``level``) is written as
    integers and any other 1-D column as floats.  A column with more axes
    holds a vector or matrix per row, written as ``name_i_re,name_i_im`` or
    ``name_i_j_re,name_i_j_im`` per entry in row-major order.
    """
    header, cells, index = [], [], None
    for name, column in columns.items():
        column = np.asarray(column)
        if not header and column.dtype.kind in "iu":
            header.append(name)
            index = column
        elif column.ndim == 1:
            header.append(name)
            cells.append(column[:, None])
        else:
            for entry in np.ndindex(column.shape[1:]):
                tag = "_".join(str(i + 1) for i in entry)
                header += [f"{name}_{tag}_re", f"{name}_{tag}_im"]
            # re, im per entry; the explicit width keeps a zero-row table's columns
            entries = np.ascontiguousarray(column, dtype=complex)
            cells.append(entries.reshape(len(column), math.prod(column.shape[1:])).view(float))
    return _table_bytes(header, np.hstack(cells), index)


def _binary_bytes(path: SampledPath) -> bytes:
    t_len, n = path.values.shape
    return _MAGIC + struct.pack("<HIQ", _VERSION, n, t_len) + path.values.astype("<c16").tobytes()


def write_path(path: SampledPath, file: str | Path, fmt: str | None = None) -> None:
    """Serialize a path as ``csv`` or ``bin`` (chosen from the suffix if not given)."""
    target = Path(file)
    if fmt is None:
        fmt = "bin" if target.suffix in (".bin", ".fiar") else "csv"
    if fmt not in PATH_FORMATS:
        raise ValueError(f"unknown path format {fmt!r}")
    if fmt == "bin":
        _atomic_write(target, _binary_bytes(path))
    else:
        _atomic_write(target, _columns_bytes({"t": np.arange(path.t_len), "coord": path.values}))


def write_outputs(out: Path, outputs: dict) -> None:
    """Write each ``{file name: output}`` into the directory ``out``, in order:
    a :class:`SampledPath` by :func:`write_path`, a ``.json`` document sorted
    and indented, numpy values as lists, and any other output as a table of
    named columns (:func:`_columns_bytes`).  ``out`` and its parents are
    created first; an :class:`OSError` there says that it could not be."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory: {exc}") from None
    for name, output in outputs.items():
        target = out / name
        if isinstance(output, SampledPath):
            write_path(output, target)
        elif target.suffix == ".json":
            text = json.dumps(output, indent=2, sort_keys=True, default=lambda v: v.tolist())
            _atomic_write(target, (text + "\n").encode())
        else:
            _atomic_write(target, _columns_bytes(output))


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
