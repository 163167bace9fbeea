"""Unitary map between axis configuration space and momentum space.

Analysis takes a field psi(lambda) to a signed-momentum profile phi(kappa)
through

    phi = (1 / (2 sqrt k)) [ (Fc - i Fs) + (Fc + i Fs) P ] sqrt(r) psi

evaluated per momentum branch (kappa>0 reads the bracket as written,
kappa<0 with the parity-swapped roles).  Synthesis composes the inverse
factors in reverse order.  In the weighted representation g = sqrt|l| psi
the whole map collapses to a plain full-line Fourier transform,

    sqrt|kappa| phi(kappa) = ghat(kappa),

which `analyze_fast` evaluates by FFT with half-sample phase shifts; on
the offset grids that map is exactly unitary, so synthesize(analyze(psi))
reproduces psi to rounding and the flat g-norm equals the flat ghat-norm.

Both routes are kept as genuinely separate code paths (trig transforms +
parity bookkeeping vs. phased FFT) so each can check the other.

Every phased FFT runs on a per-grid plan: the read-only phase vector
applied before the FFT and the phase-and-scale vector applied after it,
cached per (n_half, spacing) for a bounded number of grids.  The scale
factors are folded into the post vector in the left-to-right order of
the defining formula, so the planned transform is bit-identical to that
formula evaluated in full.

The trig route is stated once, as `_to_modes` and its inverse
`_from_modes`: the cos coefficients of g's even part and the sin
coefficients of its odd part, run as one DCT-IV over both rows
(`transforms._trig_rows`, through DST-IV(x)_m = (-1)^m DCT-IV(x
reversed)_m): one trig-kernel call per analysis or synthesis, itself one
half-length `numpy.fft.fft`, so the two routes share numpy's FFT but no
twiddle or index map.  The RK4 stepper of `evolution` works on the same
modes.
"""

from __future__ import annotations

import functools

import numpy as np

from .grids import (AxialField, AxisGrid, SpectralGrid, SpectralProfile,
                    field_from_g, g_values, parity_join, parity_split, unfold)
from .transforms import _trig_rows

_PLAN_CACHE_SIZE = 8   # grids whose plans stay cached at once


def _phases(n_half: int):
    # centered DFT: lambda_j=(j-N+1/2)h, kappa_m=(m-N+1/2)dk, h dk = pi/N
    n = n_half
    j = np.arange(2 * n)
    w = np.exp(1j * np.pi * (n - 0.5) * j / n)
    c0 = np.exp(-1j * np.pi * (n - 0.5) ** 2 / n)
    return w, c0


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _forward_plan(n_half: int, h: float):
    w, c0 = _phases(n_half)
    return _read_only(w, h / np.sqrt(2.0 * np.pi) * c0 * w)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _inverse_plan(n_half: int, dk: float):
    w, c0 = _phases(n_half)
    return _read_only(np.conj(w), dk / np.sqrt(2.0 * np.pi) * np.conj(c0 * w))


def fourier_full(values: np.ndarray, grid: AxisGrid) -> np.ndarray:
    """ghat(kappa_m) = (h/sqrt(2 pi)) sum_j g_j exp(-i kappa_m lambda_j)."""
    pre, post = _forward_plan(grid.n_half, grid.h)
    return post * np.fft.fft(np.asarray(values, dtype=complex) * pre)


def fourier_full_inverse(values: np.ndarray, sgrid: SpectralGrid) -> np.ndarray:
    """g_j = (dk/sqrt(2 pi)) sum_m ghat_m exp(+i kappa_m lambda_j), of each
    row of `values` by one inverse FFT over all of them."""
    pre, post = _inverse_plan(sgrid.n_half, sgrid.dk)
    conf = np.asarray(values, dtype=complex) * pre
    np.fft.ifft(conf, out=conf)
    # post times the inverse FFT, in that order: on SIMD the complex
    # product need not commute to the bit
    np.multiply(post, conf, out=conf)
    conf *= 2 * sgrid.n_half
    return conf


def spectral_derivative(values: np.ndarray, grid: AxisGrid) -> np.ndarray:
    """d/dlambda through the full-line Fourier representation.

    Exactly anti-Hermitian with respect to the flat nodal product; accurate
    only for samples smooth through the origin (g-representation data).
    """
    sg = grid.conjugate()
    return fourier_full_inverse(1j * sg.nodes * fourier_full(values, grid), sg)


def _to_modes(g: np.ndarray, grid: AxisGrid) -> np.ndarray:
    """The trig modes of g: the (2, N) stack of the cos coefficients of its
    even part and the sin coefficients of its odd part on the N positive
    momentum nodes, from one DCT-IV call."""
    return _trig_rows(parity_split(g, grid.n_half), grid.h, ("cos", "sin"))


def _from_modes(modes, sgrid: SpectralGrid) -> np.ndarray:
    """g from its trig modes, the inverse of `_to_modes` (to rounding: the
    DCT-IV is orthogonal)."""
    return parity_join(*_trig_rows(modes, sgrid.dk, ("cos", "sin")))


def analyze(psi: AxialField) -> SpectralProfile:
    """Project an axis field onto the signed-momentum profile phi(kappa).

    Composes the trig transforms, parity and the sqrt(r), 1/sqrt(k)
    diagonal factors exactly as written in the defining bracket.
    `bench/micro.py` times it against `analyze_fast`.
    """
    grid = psi.grid
    sgrid = grid.conjugate()
    ce, so = _to_modes(g_values(psi), grid)
    root = np.sqrt(sgrid.positive_nodes())
    phi_plus = (ce - 1j * so) / root
    phi_minus = (ce + 1j * so) / root
    return SpectralProfile(sgrid, unfold(phi_plus, phi_minus))


def synthesize(phi: SpectralProfile) -> AxialField:
    """Superpose the profile back into an axis field (f-representation)."""
    sgrid = phi.grid
    even, odd = parity_split(np.sqrt(np.abs(sgrid.nodes)) * phi.values,
                             sgrid.n_half)
    g = _from_modes([even, 1j * odd], sgrid)
    return field_from_g(sgrid.axis_grid(), g, "f")


def analyze_fast(psi: AxialField) -> SpectralProfile:
    """Same map as `analyze` through the phased full-line FFT."""
    g = g_values(psi)
    sgrid = psi.grid.conjugate()
    ghat = fourier_full(g, psi.grid)
    return SpectralProfile(sgrid, ghat / np.sqrt(np.abs(sgrid.nodes)))

