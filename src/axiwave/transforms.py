"""Trigonometric and Hilbert transforms on the half-offset grids.

Half-line trig transforms
-------------------------
Forward and inverse Fourier cosine/sine transforms

    (Fc f)(k) = sqrt(2/pi) * integral_0^inf f(r) cos(kr) dr
    (Fs f)(k) = sqrt(2/pi) * integral_0^inf f(r) sin(kr) dr

discretized by the midpoint rule on nodes r_j = (j+1/2) h with conjugate
nodes k_m = (m+1/2) dk, dk = pi/(N h).  On these offset grids the kernel
matrices are the orthogonal DCT-IV / DST-IV, so the inverse transform is
the same kernel with r and k exchanged, exactly:  Fc~ Fc = Fs~ Fs = 1 to
rounding.  A `HalfLineFunction` passes the grid rule of `grids.check_grid`
(pi / extent included); its nodes are half of `grids.offset_nodes`.

Hilbert transforms
------------------
Singular transforms of even and odd half-line functions

    (He f)(r) = -(2r/pi) pv integral_0^inf  f(t) / (r^2 - t^2) dt
    (Ho f)(r) = -(2/pi)  pv integral_0^inf t f(t) / (r^2 - t^2) dt

with two independent realizations:

  * spectral   : He = -Fs~ Fc,  Ho = Fc~ Fs   (composition identities)
  * quadrature : midpoint principal-value rule with the singular cell
    handled by singularity subtraction f(t) -> f(t) - f(r), plus the exact
    log correction of the truncated  pv integral dt/(r^2-t^2).

`_hilbert_core` is the one backend switch behind every Hilbert transform,
and every trig transform runs on the one DCT-IV kernel `_trig_rows`.  That
kernel is `scipy.fft.dct`, looked up at call time: importing the package
loads no scipy, and `scipy.fft` loads on the first r2r call.

The quadrature never forms its n x n kernel.  On the offset grid
r_i = (i + 1/2) h the partial fractions

    1/(r_i^2 - r_j^2) = [1/((i-j) h) + 1/((i+j+1) h)] / (2 r_i)

split it into a Toeplitz kernel 1/(i-j) and a Hankel kernel 1/(i+j+1),
and each acts by one FFT convolution of length 2n: O(n log n) time and
O(n) memory per call, with an O(n) plan cached per grid.  It calls no
DCT/DST, so it stays independent of the spectral backend it checks.

The signed full-line combinations act on axis fields:

    Hplus  = (1/2) [ (He + Ho) + (He - Ho) P ]
    Hminus = (1/2) [ (He + Ho) - (He - Ho) P ]

where P is parity.  Hplus e^{ikz} = +i e^{ikz} for z>0 and -i e^{ikz} for
z<0 (k>0), and Hplus Hminus = Hminus Hplus = -1.
"""

from __future__ import annotations

import functools
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._fd import derivative
from .grids import (AxialField, check_grid, offset_nodes, parity_join,
                    parity_split)

_KINDS = ("cos", "sin")
_BACKENDS = ("spectral", "quadrature")


@dataclass(frozen=True, eq=False)
class HalfLineFunction:
    """Complex samples on the positive half-grid r_j = (j+1/2) * spacing."""

    spacing: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ValueError("need a 1-d array of samples")
        check_grid(vals.size, self.spacing, conjugate=True)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def extent(self) -> float:
        return self.n * self.spacing

    def conjugate_spacing(self) -> float:
        return np.pi / self.extent


def _trig_sum(values: np.ndarray, spacing: float, kind: str) -> np.ndarray:
    # sqrt(2/pi) * sum_j f_j ker(k_m r_j) * spacing, ker(x)=cos/sin(x);
    # DCT-IV/DST-IV carry a conventional factor 2.
    return _trig_rows([values], spacing, [kind])[0]


@functools.lru_cache(maxsize=4)
def _row_buffer(n: int, thread: int) -> np.ndarray:
    # per thread: the r2r kernel runs without the interpreter lock
    return np.empty((2, n), dtype=complex)


def _trig_rows(rows, spacing: float, kinds) -> list:
    """Trig transform kinds[i] ("cos"/"sin") of rows[i], for one or two
    rows, from one DCT-IV over all of them.

    DST-IV(x)_m = (-1)^m DCT-IV(x reversed)_m is how the r2r kernel itself
    evaluates a DST-IV, so a sin row is reversed on the way in and its odd
    entries negated on the way out.  The rows are transformed in place in a
    cached work buffer (a fresh (2, n) stack at n = 4096 lands on the
    allocator's mmap threshold and costs a page fault storm per call); the
    results are fresh arrays.
    """
    buf = _row_buffer(len(rows[0]), threading.get_ident())[:len(rows)]
    for row, x, kind in zip(buf, rows, kinds):
        row[:] = x if kind == "cos" else x[::-1]
    core = _r2r_pair(buf, kinds)
    return [np.sqrt(2.0 / np.pi) * 0.5 * spacing * row for row in core]


def _r2r_pair(buf: np.ndarray, kinds) -> np.ndarray:
    """The unscaled DCT-IV / DST-IV core of `_trig_rows`, in place.

    `buf` is a C-contiguous complex (rows, n) array; each sin row must hold
    its input reversed.  Its float view (rows, n, 2) goes through one real
    DCT-IV along the node axis, so the real and imaginary parts of every
    row are transformed in one call (scipy's complex branch makes two).
    Returns `buf`.
    """
    import scipy.fft  # loaded on the first r2r call, not at import

    scipy.fft.dct(buf.view(float).reshape(*buf.shape, 2), type=4, axis=1,
                  overwrite_x=True)
    for row, kind in zip(buf, kinds):
        if kind == "sin":
            np.negative(row[1::2], out=row[1::2])
    return buf


def trig_transform(f: HalfLineFunction, kind: str = "cos") -> HalfLineFunction:
    """Fourier cosine/sine transform onto the conjugate half-grid.

    The discrete kernel is self-reciprocal on the offset grids, so the
    same call is also the inverse transform, read from the conjugate side.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    out = _trig_sum(f.values, f.spacing, kind)
    return HalfLineFunction(spacing=f.conjugate_spacing(), values=out)


def _warn_if_not_decayed(values: np.ndarray, label: str):
    n_edge = max(1, values.size // 20)
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return
    if np.max(np.abs(values[-n_edge:])) > 1e-3 * peak:
        warnings.warn(
            f"{label}: input has not decayed at the grid edge; the "
            "finite-domain transform is unreliable near truncation",
            stacklevel=4,
        )


@functools.lru_cache(maxsize=8)
def _pv_plan(n: int, spacing: float):
    """(r, kernel spectra, kernel row sums, log correction) of one grid.

    The spectra are the length-2n FFTs of the circulant embedding of the
    Toeplitz kernel 1/(i-j) (0 on the diagonal) and of the Hankel kernel
    1/(i+j+1) padded with one zero, stacked as one (2, 2n) array.  All
    arrays are read-only: every caller on the grid shares them.
    """
    r = offset_nodes(n, spacing)[n:]
    inv_d = 1.0 / np.arange(1, n)
    kernels = np.zeros((2, 2 * n))
    kernels[0, 1:n] = inv_d
    kernels[0, n + 1:] = -inv_d[::-1]
    kernels[1, :-1] = 1.0 / np.arange(1, 2 * n)
    spectra = np.fft.fft(kernels)
    rowsum = _pv_matvec(r, spectra, spacing, np.ones(n)).real
    big_l = n * spacing
    logcorr = np.log((big_l + r) / (big_l - r))
    plan = (r, spectra, rowsum, logcorr)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _pv_matvec(r, spectra, spacing, u):
    """sum_{j != i} u_j / (r_i^2 - r_j^2) by two FFT convolutions.

    Row 0 convolves u with the Toeplitz kernel (entries [:n]); row 1
    convolves u reversed with the Hankel kernel (entries [n-1:2n-1]).  The
    Hankel sum includes j = i, whose term u_i/(2r)^2 is taken back out.
    """
    n = u.size
    padded = np.zeros((2, 2 * n), dtype=complex)
    padded[0, :n] = u
    padded[1, :n] = u[::-1]
    conv = np.fft.ifft(np.fft.fft(padded) * spectra)
    return ((conv[0, :n] + conv[1, n - 1:2 * n - 1]) / (2.0 * r * spacing)
            - u / (2.0 * r) ** 2)


def _hilbert_quadrature(f: HalfLineFunction, odd_kernel: bool) -> np.ndarray:
    r, spectra, rowsum, logcorr = _pv_plan(f.n, f.spacing)
    h = f.spacing
    u = r * f.values if odd_kernel else f.values
    du = derivative(u, h)
    # subtracted singularity: columns carry u(t)-u(r); diagonal cell takes
    # the limiting value -u'(r)/(2r)
    total = _pv_matvec(r, spectra, h, u) - u * rowsum
    total += -du / (2.0 * r) * 1.0
    total *= h
    # exact pv integral of the bare kernel over the truncated domain
    total += u * logcorr / (2.0 * r)
    if odd_kernel:
        return -(2.0 / np.pi) * total
    return -(2.0 * r / np.pi) * total


def hilbert_even(f: HalfLineFunction,
                 backend: str = "spectral") -> HalfLineFunction:
    """Hilbert transform of an even function, He f.

    backend="spectral" composes the trig transforms (He = -Fs~ Fc);
    backend="quadrature" evaluates the principal-value integral directly.
    The ledger entry "hilbert backends agree" compares the two.
    """
    return _hilbert_dispatch(f, "even", backend)


def hilbert_odd(f: HalfLineFunction,
                backend: str = "spectral") -> HalfLineFunction:
    """Hilbert transform of an odd function, Ho f."""
    return _hilbert_dispatch(f, "odd", backend)


# spectral Hilbert kernels as (first, second) trig transforms; He carries
# a minus sign: He = -Fs~ Fc, Ho = Fc~ Fs
_SPECTRAL_KINDS = {"even": ("cos", "sin"), "odd": ("sin", "cos")}


def _hilbert_core(parts, kernels, backend: str) -> list:
    """He ("even") or Ho ("odd") by kernels[i] of parts[i], one or two
    half-line functions on one grid; spectral parts share each trig stage."""
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "quadrature":
        return [_hilbert_quadrature(f, odd_kernel=k == "odd")
                for f, k in zip(parts, kernels)]
    first, second = zip(*(_SPECTRAL_KINDS[k] for k in kernels))
    outs = _trig_rows(_trig_rows([f.values for f in parts], parts[0].spacing,
                                 first),
                      parts[0].conjugate_spacing(), second)
    return [-out if k == "even" else out for out, k in zip(outs, kernels)]


def _hilbert_dispatch(f, parity, backend):
    _warn_if_not_decayed(f.values, f"hilbert_{parity}")
    out, = _hilbert_core([f], [parity], backend)
    return HalfLineFunction(f.spacing, out)


def cosine_taper(x: np.ndarray, width: float, ramp: float) -> np.ndarray:
    """Flat window of total half-width `width`/2 with cosine ramps.

    1 on |x| <= width/2 - ramp, rolling smoothly to 0 at |x| = width/2.
    The single apodization helper used to build square-integrable
    stand-ins for the delta-normalized axis waves.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    a = 0.5 * width - ramp
    out = np.zeros_like(ax)
    out[ax <= a] = 1.0
    on_ramp = (ax > a) & (ax < 0.5 * width)
    out[on_ramp] = 0.5 * (1.0 + np.cos(np.pi * (ax[on_ramp] - a) / ramp))
    return out


def hilbert_signed(fld: AxialField, sign: str = "plus",
                   backend: str = "spectral") -> AxialField:
    """Full-line signed Hilbert transform Hplus / Hminus of an axis field.

    Acts on the raw samples of whatever representation the field is in;
    callers manage the sqrt(r) conjugations.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"unknown sign {sign!r}")
    parts = [HalfLineFunction(fld.grid.h, part)
             for part in parity_split(fld.values, fld.grid.n_half)]
    # plus: even part -> He (even output), odd part -> Ho (odd output);
    # minus: even part through the odd kernel (even output), odd part
    # through the even kernel (odd output)
    kernels = ("even", "odd") if sign == "plus" else ("odd", "even")
    return fld.copy_with(parity_join(*_hilbert_core(parts, kernels, backend)))
