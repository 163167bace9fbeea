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
"""

from __future__ import annotations

import numpy as np

from .grids import (AxialField, AxisGrid, SpectralGrid, SpectralProfile,
                    convert_rep, parity_join, parity_split, unfold)
from .transforms import _trig_sum


def _phases(n_half: int):
    # centered DFT: lambda_j=(j-N+1/2)h, kappa_m=(m-N+1/2)dk, h dk = pi/N
    n = n_half
    j = np.arange(2 * n)
    w = np.exp(1j * np.pi * (n - 0.5) * j / n)
    c0 = np.exp(-1j * np.pi * (n - 0.5) ** 2 / n)
    return w, c0


def fourier_full(values: np.ndarray, grid: AxisGrid) -> np.ndarray:
    """ghat(kappa_m) = (h/sqrt(2 pi)) sum_j g_j exp(-i kappa_m lambda_j)."""
    n = grid.n_half
    w, c0 = _phases(n)
    spec = np.fft.fft(np.asarray(values, dtype=complex) * w)
    return grid.h / np.sqrt(2.0 * np.pi) * c0 * w * spec


def fourier_full_inverse(values: np.ndarray, sgrid: SpectralGrid) -> np.ndarray:
    """g_j = (dk/sqrt(2 pi)) sum_m ghat_m exp(+i kappa_m lambda_j)."""
    n = sgrid.n_half
    w, c0 = _phases(n)
    conf = np.fft.ifft(np.asarray(values, dtype=complex) * np.conj(w))
    return sgrid.dk / np.sqrt(2.0 * np.pi) * np.conj(c0 * w) * conf * (2 * n)


def spectral_derivative(values: np.ndarray, grid: AxisGrid) -> np.ndarray:
    """d/dlambda through the full-line Fourier representation.

    Exactly anti-Hermitian with respect to the flat nodal product; accurate
    only for samples smooth through the origin (g-representation data).
    """
    sg = grid.conjugate()
    return fourier_full_inverse(1j * sg.nodes * fourier_full(values, grid), sg)


def analyze(psi: AxialField) -> SpectralProfile:
    """Project an axis field onto the signed-momentum profile phi(kappa).

    Composes the trig transforms, parity and the sqrt(r), 1/sqrt(k)
    diagonal factors exactly as written in the defining bracket.
    """
    grid = psi.grid
    sgrid = grid.conjugate()
    even, odd = parity_split(convert_rep(psi, "g").values, grid.n_half)
    ce = _trig_sum(even, grid.h, "cos")
    so = _trig_sum(odd, grid.h, "sin")
    root = np.sqrt(sgrid.positive_nodes())
    phi_plus = (ce - 1j * so) / root
    phi_minus = (ce + 1j * so) / root
    return SpectralProfile(sgrid, unfold(phi_plus, phi_minus))


def synthesize(phi: SpectralProfile) -> AxialField:
    """Superpose the profile back into an axis field (f-representation)."""
    sgrid = phi.grid
    even, odd = parity_split(np.sqrt(np.abs(sgrid.nodes)) * phi.values,
                             sgrid.n_half)
    g = parity_join(_trig_sum(even, sgrid.dk, "cos"),
                    _trig_sum(1j * odd, sgrid.dk, "sin"))
    return convert_rep(AxialField(sgrid.axis_grid(), "g", g), "f")


def analyze_fast(psi: AxialField) -> SpectralProfile:
    """Same map as `analyze` through the phased full-line FFT."""
    g = convert_rep(psi, "g").values
    sgrid = psi.grid.conjugate()
    ghat = fourier_full(g, psi.grid)
    return SpectralProfile(sgrid, ghat / np.sqrt(np.abs(sgrid.nodes)))


def synthesize_fast(phi: SpectralProfile) -> AxialField:
    """Inverse of `analyze_fast` (g-level inverse FFT)."""
    sgrid = phi.grid
    grid = sgrid.axis_grid()
    ghat = np.sqrt(np.abs(sgrid.nodes)) * phi.values
    g = fourier_full_inverse(ghat, sgrid)
    return convert_rep(AxialField(grid, "g", g), "f")
