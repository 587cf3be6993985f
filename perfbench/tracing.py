"""Outside-in span tracing of ``fiarma_lab`` and the fresh-interpreter import probe.

:class:`Tracer` replaces every public function bound as a module attribute in
any ``fiarma_lab.*`` namespace with a wrapper that records a span, so calls
between modules and within one module are both seen; public classes get their
``__init__`` wrapped.  A span is named after the defining module and the
function (``transfer.arma_transfer_batch``) and carries start, end, parent
span and op id.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import json
import re
import statistics
import subprocess
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

from envinfo import program_env

PACKAGE = "fiarma_lab"


def _short(module: str) -> str:
    return module.split(".", 1)[1] if "." in module else module


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False
        self._wrappers: dict[object, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions and class constructors of every loaded
        module of the package; spans are recorded while ``enabled`` is set."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not str(getattr(value, "__module__", "")).startswith(PACKAGE):
                    continue
                if isinstance(value, types.FunctionType):
                    if value not in self._wrappers:
                        self._wrappers[value] = self.wrap(
                            f"{_short(value.__module__)}.{value.__name__}", value
                        )
                    self._patch(module, attr, self._wrappers[value])
                elif isinstance(value, type) and "__init__" in vars(value) and value not in self._wrappers:
                    init = vars(value)["__init__"]
                    self._wrappers[value] = self.wrap(
                        f"{_short(value.__module__)}.{value.__name__}", init
                    )
                    self._patch(value, "__init__", self._wrappers[value])

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self, ops: int, op_wall: float) -> dict:
        """Per-op calls and self time by span name and by module, plus coverage.

        Self time is a span's duration minus the durations of its direct
        children.  ``trace.covered_frac`` is the traced self time of all
        modules over the wall time of the ops.
        """
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layers: dict[str, float] = defaultdict(float)
        for idx, (nid, start, end, parent, op) in enumerate(self.spans):
            if op < 0:
                continue
            name = self.names[nid]
            own = end - start - child[idx]
            calls[name] += 1
            self_s[name] += own
            layers[name.split(".", 1)[0]] += own
        out = {}
        for name in sorted(calls):
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_s"] = self_s[name] / ops
        for layer in sorted(layers):
            out[f"{layer}.self_s"] = layers[layer] / ops
        out["trace.spans"] = sum(calls.values()) / ops
        out["trace.covered_frac"] = sum(layers.values()) / op_wall if op_wall > 0 else 0.0
        return out

    def dump(self, target: Path) -> None:
        with open(target, "w") as fh:
            for nid, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"name": self.names[nid], "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a recorded span adds to one call, measured on an empty function."""

    def empty():
        return None

    tracer = Tracer()
    traced = tracer.wrap("empty", empty)
    tracer.enabled = True
    tracer.op = 0
    best = float("inf")
    clock = time.perf_counter
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = clock()
        for _ in range(calls):
            traced()
        t1 = clock()
        for _ in range(calls):
            empty()
        t2 = clock()
        best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
    return max(best, 0.0)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def parse_importtime(text: str) -> tuple[float, float]:
    """``(package cumulative s, scipy s)`` from ``-X importtime`` output.

    The scipy share is the cumulative time of every scipy module imported
    by something outside scipy; the tree comes from the name indentation.
    """
    rows = []
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            rows.append((len(match.group(3)), match.group(4), int(match.group(2))))
    package = scipy = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy) on the way down
    for depth, name, cumulative in reversed(rows):  # parents come first when reversed
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = stack[-1][1] if stack else False
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy += cumulative
        if name == PACKAGE:
            package = cumulative
        stack.append((depth, inside or is_scipy))
    return package / 1e6, scipy / 1e6


def import_probe(root: Path, repeats: int = 3) -> tuple[float, float]:
    """Median ``(import_s, import_scipy_s)`` over fresh interpreters."""
    env = program_env(root)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {PACKAGE}"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(parse_importtime(proc.stderr))
    return (
        statistics.median(s[0] for s in samples),
        statistics.median(s[1] for s in samples),
    )
