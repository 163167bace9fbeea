"""Per-call table of the library's hot calls at three grid sizes.

Rows and columns follow the baseline table of ROADMAP.md; each cell is
the median over five chunks of the mean time per call, in microseconds,
each chunk running for at least CHUNK_SECONDS.  Run untraced, after the
traced pass.  The dense quadrature's n^2 kernel does not fit in memory at
n_half 65536, so that cell is skipped.
"""

from __future__ import annotations

import statistics
import time
import warnings

import numpy as np

from axiwave import evolution
from axiwave.grids import AxialField, make_grid
from axiwave.operators import pbar, pbar0
from axiwave.spectral import analyze, analyze_fast
from axiwave.transforms import HalfLineFunction, hilbert_even, hilbert_signed

SIZES = (256, 4096, 65536)
SPACING = 40.0 / 256          # CLI default h at every size
CHUNK_SECONDS = 0.04
CHUNKS = 5
QUADRATURE_MAX_N = 4096
ROWS = ("analyze", "analyze_fast", "hilbert_signed", "pbar0_spectral",
        "pbar0_left", "pbar", "rk4_apply", "propagate_scalar_6",
        "hilbert_even_quadrature")


def _per_call(fn) -> float:
    fn()                                   # warm caches and lazy set-up
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    reps = max(1, int(CHUNK_SECONDS / max(once, 1e-9)))
    chunks = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        chunks.append((time.perf_counter() - t0) / reps)
    return statistics.median(chunks)


def _rows(n: int) -> dict:
    grid = make_grid(n, n * SPACING)
    lam = grid.nodes
    g = np.exp(-((lam / (0.2 * grid.extent)) ** 2)) * np.exp(2j * lam)
    psi = AxialField(grid, "g", g)
    spectral, left, p = pbar0(grid, "spectral"), pbar0(grid, "left"), pbar(grid)
    ham = evolution._hamiltonian_g(grid)     # the RK4 stepper's operator
    times = np.linspace(0.0, 5.0, 6)
    half = HalfLineFunction(grid.h, g[n:])
    rows = {
        "analyze": lambda: analyze(psi),
        "analyze_fast": lambda: analyze_fast(psi),
        "hilbert_signed": lambda: hilbert_signed(psi),
        "pbar0_spectral": lambda: spectral.apply(psi),
        "pbar0_left": lambda: left.apply(psi),
        "pbar": lambda: p.apply(psi),
        "rk4_apply": lambda: ham(g),
        "propagate_scalar_6": lambda: evolution.propagate_scalar(psi, times),
    }
    if n <= QUADRATURE_MAX_N:
        rows["hilbert_even_quadrature"] = \
            lambda: hilbert_even(half, backend="quadrature")
    return rows


def metric_names() -> list[str]:
    return [f"micro.{row}.n{n}_us" for n in SIZES for row in ROWS
            if n <= QUADRATURE_MAX_N or row != "hilbert_even_quadrature"]


def run() -> dict[str, float]:
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in SIZES:
            for row, fn in _rows(n).items():
                out[f"micro.{row}.n{n}_us"] = _per_call(fn) * 1e6
    return out
