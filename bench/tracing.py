"""Span recorder for the traced run, installed from outside the library.

Every public function of each axiwave module is replaced by a recording
wrapper, both on its own module and wherever an importing module re-binds
the same object (e.g. `axiwave.evolution.fourier_full`,
`axiwave.cli.analyze`).  A few private functions that carry a layer's work
get their own span names (`transforms.quadrature`, `transforms.trig_sum`,
`evolution.diagnostics.*`); `AxisGrid.conjugate` is wrapped on the class;
the kernel layer is `scipy.fft.dct` / `dst` (the r2r calls) and
`numpy.fft.fft` / `ifft`.

Spans (name, start, end, parent, op id) are kept in memory and written
out at the end.  A span's self time is its duration minus the durations
of its direct children, accumulated as the spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.fft

LAYERS = ("cli", "verify", "fileio", "evolution", "operators", "relativity",
          "spectral", "transforms", "grids", "fd", "kernel")
MODULES = {"cli": "axiwave.cli", "verify": "axiwave.verify",
           "fileio": "axiwave.fileio", "evolution": "axiwave.evolution",
           "operators": "axiwave.operators", "relativity": "axiwave.relativity",
           "spectral": "axiwave.spectral", "transforms": "axiwave.transforms",
           "grids": "axiwave.grids", "fd": "axiwave._fd"}
# private functions that get a span of their own, by module and name
PRIVATE = {("transforms", "_hilbert_quadrature"): "transforms.quadrature",
           ("transforms", "_trig_sum"): "transforms.trig_sum",
           ("evolution", "_scalar_diagnostics"): "evolution.diagnostics.scalar"}
DIAGNOSTICS = ("continuity_residuals_from_snapshots", "density_current",
               "sigma_density", "packet_centroid")
PROPAGATORS = {"propagate_wave": "evolution.wave",
               "propagate_weyl": "evolution.weyl",
               "propagate_maxwell": "evolution.maxwell"}
KEEP_DURATIONS = ("evolution.scalar", "evolution.rk4", "evolution.wave",
                  "evolution.weyl", "evolution.maxwell")
MAX_STORED_SPANS = 1_000_000


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


class Tracer:
    """Records spans and per-name aggregates; `install` / `uninstall` patch
    the library in place and restore it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.durations: dict[int, list] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self.stack: list = []
        self._keep: set = set()
        self.op = -1
        self.n_spans = 0
        self.stored = {"index": array("i"), "name": array("i"),
                       "parent": array("i"), "op": array("i"),
                       "start": array("d"), "end": array("d")}
        self._undo: list = []

    # -- recording
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_time.append(0.0)
        return nid

    def enter(self, nid: int) -> list:
        index = self.n_spans
        self.n_spans += 1
        parent = self.stack[-1][3] if self.stack else -1
        frame = [nid, 0.0, 0.0, index, parent]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        self.stack.pop()
        nid, start, child, index, parent = frame
        dur = end - start
        self.calls[nid] += 1
        self.self_time[nid] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if nid in self._keep:
            self.durations[nid].append(dur)
        if index < MAX_STORED_SPANS:
            s = self.stored
            s["index"].append(index)
            s["name"].append(nid)
            s["parent"].append(parent)
            s["op"].append(self.op)
            s["start"].append(start)
            s["end"].append(end)
        return dur

    @contextmanager
    def op_span(self, i: int):
        """Root span of op i; everything the op calls nests under it."""
        self.op = i
        frame = self.enter(self.name_id("bench.op"))
        try:
            yield
        finally:
            self.exit(frame)

    def wrap(self, fn, name, namer=None, before=None, after=None):
        """Recording wrapper; `namer(args, kwargs)` picks the span name per
        call, `before`/`after` collect extra counts around the call."""
        fixed = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = tracer.name_id(namer(args, kwargs)) if namer else fixed
            state = before(args, kwargs) if before else None
            frame = tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.exit(frame)
            if after:
                after(args, kwargs, result, dur, state)
            return result

        return wrapper

    # -- hooks
    def _kernel_after(self, key):
        def after(args, kwargs, result, dur, state):
            self.counters[key] += _nbytes(args[0]) + _nbytes(result)
        return after

    def _fileio_before(self, args, kwargs):
        path = args[0] if args else kwargs.get("path")
        try:
            return os.path.getsize(path)
        except (OSError, TypeError):
            return 0

    def _fileio_after(self, direction):
        def after(args, kwargs, result, dur, state):
            if direction == "read":
                size = state
            else:
                size = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
            self.counters[f"fileio.{direction}.bytes"] += size
            self.counters[f"fileio.{direction}.seconds"] += dur
        return after

    def _alloc_before(self, args, kwargs):
        tracemalloc.start()

    def _alloc_after(self, name):
        def after(args, kwargs, result, dur, state):
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.alloc_peak[name] = max(self.alloc_peak[name], peak)
        return after

    # -- installing
    def install(self):
        from axiwave.grids import AxisGrid

        self._keep = {self.name_id(n) for n in KEEP_DURATIONS}
        replace: dict[int, object] = {}

        def plan(fn, name, **hooks):
            replace[id(fn)] = self.wrap(fn, name, **hooks)

        for layer, modname in MODULES.items():
            mod = importlib.import_module(modname)
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == modname):
                    continue
                name = PRIVATE.get((layer, attr))
                if name is None and attr.startswith("_"):
                    continue
                if attr in DIAGNOSTICS:
                    name = f"evolution.diagnostics.{attr}"
                elif attr in PROPAGATORS:
                    name = PROPAGATORS[attr]
                elif attr == "propagate_scalar":
                    plan(obj, "evolution.scalar", namer=_scalar_kind)
                    continue
                elif layer == "fileio" and attr.startswith(("read_", "write_")):
                    direction = attr.split("_")[0]
                    plan(obj, f"fileio.{attr}",
                         before=self._fileio_before if direction == "read" else None,
                         after=self._fileio_after(direction))
                    continue
                elif name == "transforms.quadrature":
                    plan(obj, name, before=self._alloc_before,
                         after=self._alloc_after(name))
                    continue
                plan(obj, name or f"{layer}.{attr}")

        # kernels are patched on their own modules, for calls through the
        # module attribute, and re-bound below wherever axiwave imported them
        for owner, attr, kind in ((scipy.fft, "dct", "r2r"), (scipy.fft, "dst", "r2r"),
                                  (np.fft, "fft", "fft"), (np.fft, "ifft", "fft")):
            fn = getattr(owner, attr)
            plan(fn, f"kernel.{kind}.{attr}",
                 after=self._kernel_after(f"kernel.{kind}.bytes"))
            self._set(owner, attr, replace[id(fn)])

        for modname, mod in list(sys.modules.items()):
            if modname == "axiwave" or modname.startswith("axiwave."):
                for attr, obj in list(vars(mod).items()):
                    wrapped = replace.get(id(obj))
                    if wrapped is not None:
                        self._set(mod, attr, wrapped)
        self._set(AxisGrid, "conjugate",
                  self.wrap(AxisGrid.conjugate, "grids.conjugate"))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results
    def layer_totals(self):
        """calls and self seconds per layer (first part of the span name)."""
        calls, self_s = defaultdict(int), defaultdict(float)
        for nid, name in enumerate(self.names):
            layer = name.split(".")[0]
            calls[layer] += self.calls[nid]
            self_s[layer] += self.self_time[nid]
        return calls, self_s

    def prefix_sum(self, prefix: str, what: str = "calls"):
        values = self.calls if what == "calls" else self.self_time
        return sum(values[nid] for nid, name in enumerate(self.names)
                   if name == prefix or name.startswith(prefix + "."))

    def p50_ms(self, name: str) -> float:
        d = self.durations.get(self._ids.get(name, -1))
        return float(np.median(d)) * 1e3 if d else 0.0

    def write(self, path: Path):
        """Write the stored spans as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {k: np.frombuffer(v, dtype="i4" if v.typecode == "i" else "f8")
                  for k, v in self.stored.items()}
        np.savez(path, names=np.array(self.names), total_spans=self.n_spans,
                 **arrays)


def _scalar_kind(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "spectral")
    return "evolution.rk4" if method == "rk4" else "evolution.scalar"
