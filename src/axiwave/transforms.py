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
and every trig transform, the RK4 stepper's included, runs on the one
DCT-IV kernel `_trig_rows`, over any number of rows.  That kernel, `_dct4`,
is one `numpy.fft.fft` over the real and imaginary parts of all the rows,
of half their length for an even length: the package needs numpy alone.

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
z<0 (k>0), and Hplus Hminus = Hminus Hplus = -1.  `_hilbert` is both on
arrays, the kernel of `hilbert_signed` and of the operators on g.
"""

from __future__ import annotations

import functools
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


def _trig_rows(rows, spacing: float, kinds) -> np.ndarray:
    """Trig transform kinds[i] ("cos"/"sin") of rows[i], for any number of
    rows of one length n, as one fresh (rows, n) array; row i of the result
    is bit for bit the one-row call on rows[i].

    DST-IV(x)_m = (-1)^m DCT-IV(x reversed)_m, so a sin row goes into the
    stack reversed and `_dct4` negates its odd entries.  The real and
    imaginary parts of the stacked rows are its real rows, which it
    transforms in place.
    """
    n = len(rows[0])
    sin = [kind == "sin" for _, kind in zip(rows, kinds)]
    stack = np.empty((len(sin), n), dtype=complex)
    for row, x, s in zip(stack, rows, sin):
        row[...] = x[::-1] if s else x
    _dct4(stack.view(float).reshape(len(sin), n, 2).transpose(0, 2, 1),
          sin, *_dct4_plan(n, spacing))
    return stack


@functools.lru_cache(maxsize=16)   # a grid's h and dk: 8 grids
def _dct4_plan(n: int, spacing: float):
    """The read-only (pre, post) twiddles of `_dct4` on n nodes, with the
    trig transform's scale sqrt(2/pi) spacing / 2, times the DCT-IV's 2,
    folded into post.  Even n: pre_i = exp(-i pi (8i+1) / (8n)) for
    i < n/2, and post = scale * pre.  Odd n: pre_j = exp(-i pi j / (2n))
    and post_k = scale * exp(-i pi (2k+1) / (4n)) for j, k < n."""
    scale = np.sqrt(2.0 / np.pi) * spacing
    if n % 2 == 0:
        pre = np.exp(-1j * np.pi * (8 * np.arange(n // 2) + 1) / (8 * n))
        post = scale * pre
    else:
        j = np.arange(n)
        pre = np.exp(-0.5j * np.pi * j / n)
        post = scale * np.exp(-0.25j * np.pi * (2 * j + 1) / n)
    pre.setflags(write=False)
    post.setflags(write=False)
    return pre, post


def _dct4(x, sin, pre, post):
    """The scaled DCT-IV of each real row x[i, p] (p = 0, 1), in place, with
    the odd entries of the rows x[i] where sin[i] negated; one
    `np.fft.fft` (looked up at call time) over every row.

    Even n is the half-length complex FFT of the even/odd repacking
    (Britanak, Yip & Rao, Discrete Cosine and Sine Transforms, 2007, 2.4;
    pocketfft's even DCT-IV): y_i = (x_2i + i x_(n-1-2i)) pre_i and Y its
    FFT give out_2i = Re(Y_i post_i), out_(n-1-2i) = -Im(Y_i post_i).  Odd
    n is the length-2n FFT of x_j pre_j zero-padded: out_k = Re(Y_k post_k).
    """
    rows, _, n = x.shape
    # the (-1)^m of a sin row's odd entries
    flip = np.array([-1.0 if s else 1.0 for s in sin])[:, None]
    if n % 2 == 0:
        y = np.empty((rows, 2, n // 2), dtype=complex)
        y.real, y.imag = x[..., 0::2], x[..., ::-2]
        y *= pre
        np.fft.fft(y, out=y)
        y *= post
        # one part at a time: the parts interleave in x
        for p in (0, 1):
            x[:, p, 0::2] = y.real[:, p]
            np.multiply(y.imag[:, p, ::-1], -flip, out=x[:, p, 1::2])
        return
    y = np.zeros((rows, 2, 2 * n), dtype=complex)
    y.real[..., :n] = x
    y[..., :n] *= pre
    np.fft.fft(y, out=y)
    z = y[..., :n]
    z *= post
    for p in (0, 1):
        x[:, p] = z.real[:, p]
        x[:, p, 1::2] *= flip


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
    # the edge is part of the peak, so an input of zeros never warns
    if np.max(np.abs(values[-n_edge:])) > 1e-3 * np.max(np.abs(values)):
        warnings.warn(f"{label}: input has not decayed at the grid edge; the "
                      "finite-domain transform is unreliable near truncation",
                      stacklevel=4)


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


def _hilbert_core(rows, spacing: float, kernels, backend: str):
    """He ("even") or Ho ("odd") by kernels[i] of rows[i], for any number of
    rows sampled on the one half-grid of `spacing`: one output row each.
    Spectral rows share each trig stage and come back as one fresh array."""
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "quadrature":
        return [_hilbert_quadrature(HalfLineFunction(spacing, row),
                                    odd_kernel=k == "odd")
                for row, k in zip(rows, kernels)]
    first, second = zip(*(_SPECTRAL_KINDS[k] for k in kernels))
    # the conjugate spacing as `HalfLineFunction.conjugate_spacing` forms it
    dk = np.pi / (len(rows[0]) * spacing)
    outs = _trig_rows(_trig_rows(rows, spacing, first), dk, second)
    for out, k in zip(outs, kernels):
        if k == "even":
            np.negative(out, out=out)
    return outs


def _hilbert_dispatch(f, parity, backend):
    _warn_if_not_decayed(f.values, f"hilbert_{parity}")
    out, = _hilbert_core([f.values], f.spacing, [parity], backend)
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


def _hilbert(values, grid, sign: str, backend="spectral") -> np.ndarray:
    """Hplus / Hminus of the samples `values` on the axis grid `grid`."""
    if sign not in ("plus", "minus"):
        raise ValueError(f"unknown sign {sign!r}")
    parts = parity_split(values, grid.n_half)
    # plus: He on the even part, Ho on the odd; minus: Ho on the even part,
    # He on the odd (each output keeps its part's parity)
    kernels = ("even", "odd") if sign == "plus" else ("odd", "even")
    return parity_join(*_hilbert_core(parts, grid.h, kernels, backend))


def hilbert_signed(fld: AxialField, sign: str = "plus",
                   backend: str = "spectral") -> AxialField:
    """Full-line signed Hilbert transform Hplus / Hminus of an axis field,
    on the raw samples of its representation: callers manage sqrt(r)."""
    return fld.copy_with(_hilbert(fld.values, fld.grid, sign, backend))
