"""The operator zoo: radial momenta, the positive Hamiltonian, boost
generators, and residual harnesses for their algebra.

Every factory returns a LinearOperatorHandle whose `apply` maps axis
fields to axis fields (input representation is preserved).  The kernels
act on the weighted representation g = sqrt|lambda| f, where the calculus
is natural; only pt and the s multipliers act on f.  `_wrap` is the one
place that converts, once on the way in and once on the way out.

Derivatives that appear inside compositions with the signed Hilbert
transforms are taken per half-line (4th-order stencils that never
straddle the origin): the integrands of this calculus generically jump at
the origin, and a full-line derivative would ring there.  The weighted
momentum pbar is the exception: in g-representation it is exactly
-i d/dlambda, realized spectrally, which makes it self-adjoint for the
1/r product to rounding.

Operator conventions on the axis (n is the unit axis direction,
sgn = sign(lambda), r = |lambda|):

    pt        = -i (1/lambda) d/dlambda (lambda .)         unit-weight symmetric
    pbar      = -i r^{-1/2} d/dlambda r^{1/2}              1/r-weight symmetric
    pbar0     = -(1/sqrt r) d_r Hplus sqrt(r)              (left form)
              = -(1/sqrt r) Hminus d_r sqrt(r)             (right form)
              = r^{-1/2} F^-1 |kappa| F r^{1/2}            (spectral form)
    s^0, s.n  = -1/r ,  1/lambda                           multipliers
    t^0       = i sgn r^{-1/2} d/dlambda r^{1/2},  t.n = pbar
    N'        = i sgn (lambda d/dlambda + 2)               local boost factor
    N         = (r^{-1/2} Hminus r^{1/2}) (i N')           full boost generator
              = (i N') (r^{-1/2} Hplus r^{1/2})            (second ordering)

with i N' = -sgn (lambda d/dlambda + 2), the axial dilation factor.

The residual harnesses quantify commutator and adjoint identities on
probe suites, reporting interior norms (edge bands excluded).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._fd import derivative_per_half
from .grids import AxialField, AxisGrid, convert_rep, inner_product
from .spectral import fourier_full, fourier_full_inverse, spectral_derivative
from .transforms import hilbert_signed

_PBAR0_FORMS = ("left", "right", "spectral")
_BOOST_ORDERINGS = ("h_first", "h_last")


@dataclass(frozen=True, eq=False)
class LinearOperatorHandle:
    """A labelled linear map on axis fields of one grid."""

    label: str
    grid: AxisGrid
    apply: Callable[[AxialField], AxialField] = field(repr=False)


def _wrap(label: str, grid: AxisGrid, fn: Callable[[np.ndarray], np.ndarray],
          rep: str = "g") -> LinearOperatorHandle:
    """Build a handle from a kernel acting on `rep`-representation values."""

    def apply(fld: AxialField) -> AxialField:
        if not fld.grid.same_as(grid):
            raise ValueError(f"{label}: field lives on a different grid")
        out = AxialField(grid, rep, fn(convert_rep(fld, rep).values))
        return convert_rep(out, fld.rep)

    return LinearOperatorHandle(label=label, grid=grid, apply=apply)


def _routes_residual(handles, probes) -> float:
    """Worst pairwise interior gap among the handles' g-outputs over probes,
    relative to the largest interior output norm of each probe."""
    mask = handles[0].grid.interior_mask()
    worst = 0.0
    for f in probes:
        outs = [convert_rep(h.apply(f), "g").values for h in handles]
        scale = max(np.linalg.norm(o[mask]) for o in outs)
        worst = max(worst, max(np.linalg.norm((a - b)[mask]) for a, b in
                               itertools.combinations(outs, 2)) / scale)
    return worst


def _dhalf(values: np.ndarray, grid: AxisGrid) -> np.ndarray:
    return derivative_per_half(values, grid.n_half, grid.h)


def _hilbert(g: np.ndarray, grid: AxisGrid, sign: str) -> np.ndarray:
    return hilbert_signed(AxialField(grid, "g", g), sign).values


def radial_momentum_tilde(grid: AxisGrid) -> LinearOperatorHandle:
    """pt f = -i (1/lambda) d/dlambda (lambda f), uniform in sign(lambda).

    Symmetric under the unit weight for fields whose lambda*f is
    continuous through the origin; a violation shows up as the surface
    term probed by `adjoint_residual`.
    """
    lam = grid.nodes

    def fn(f):
        return -1j * _dhalf(lam * f, grid) / lam

    return _wrap("pt", grid, fn, rep="f")


def pbar(grid: AxisGrid) -> LinearOperatorHandle:
    """pbar f = -i (d/dlambda + 1/(2 lambda)) f; exactly -i d/dlambda on g.

    Realized spectrally in g-representation, hence self-adjoint for the
    1/r product up to rounding.
    """
    return _wrap("pbar", grid, lambda g: -1j * spectral_derivative(g, grid))


def pbar0(grid: AxisGrid, form: str = "spectral") -> LinearOperatorHandle:
    """The positive nonlocal Hamiltonian, momentum-space symbol |kappa|.

    form="left"   : -(1/sqrt r) d_r Hplus sqrt(r)
    form="right"  : -(1/sqrt r) Hminus d_r sqrt(r)
    form="spectral": multiplication by |kappa| between the unitary maps.

    The three are independent discretizations of the same operator; their
    pairwise disagreement is part of the verification ledger (see
    `pbar0_triangle_residual`).  The Hilbert factors of the left and right
    forms run on the spectral backend.
    """
    if form not in _PBAR0_FORMS:
        raise ValueError(f"unknown form {form!r}")
    label = f"pbar0[{form}]"
    if form == "spectral":
        sg = grid.conjugate()
        absk = np.abs(sg.nodes)
        return _wrap(label, grid, lambda g: fourier_full_inverse(
            absk * fourier_full(g, grid), sg))
    sgn = np.sign(grid.nodes)
    if form == "left":
        return _wrap(label, grid, lambda g: -sgn * _dhalf(
            _hilbert(g, grid, "plus"), grid))
    return _wrap(label, grid, lambda g: -_hilbert(
        sgn * _dhalf(g, grid), grid, "minus"))


def pbar0_triangle_residual(grid: AxisGrid,
                            probes: Sequence[AxialField]) -> float:
    """Worst pairwise interior disagreement among the three pbar0 forms."""
    return _routes_residual([pbar0(grid, f) for f in _PBAR0_FORMS], probes)


def four_vector_ops(grid: AxisGrid, which: str):
    """Time and axial components of the 4-vector multiplier/derivative pairs.

    which="s": the multiplication pair (-1/r, 1/lambda).
    which="t": (i sgn r^{-1/2} d_lambda r^{1/2}, pbar).
    """
    lam = grid.nodes
    if which == "s":
        s0 = _wrap("s0", grid, lambda f: -f / np.abs(lam), rep="f")
        s3 = _wrap("s3", grid, lambda f: f / lam, rep="f")
        return s0, s3
    if which == "t":
        sgn = np.sign(lam)
        t0 = _wrap("t0", grid, lambda g: 1j * sgn * _dhalf(g, grid))
        return t0, pbar(grid)
    raise ValueError(f"unknown four-vector family {which!r}")


def boost_generator_local(grid: AxisGrid) -> LinearOperatorHandle:
    """N' = i sgn(lambda) (lambda d/dlambda + 2), the local boost factor.

    Realized in the g-representation, where the same operator reads
    i sgn (lambda d/dlambda + 3/2) on smooth samples.
    """
    lam = grid.nodes
    sgn = np.sign(lam)

    def fn(g):
        return 1j * sgn * (lam * _dhalf(g, grid) + 1.5 * g)

    return _wrap("N'", grid, fn)


def boost_generator_config(grid: AxisGrid, ordering: str = "h_first"
                           ) -> LinearOperatorHandle:
    """Axial boost generator N, Hilbert factor on either side.

    ordering="h_first": N = (r^{-1/2} Hminus r^{1/2}) (r grad - 2 rhat d_r r)
    ordering="h_last" : N = (r grad - 2 rhat d_r r) (r^{-1/2} Hplus r^{1/2})

    Both reduce on the axis to conjugations of H (lambda d/dlambda + 3/2)
    acting on g, with the Hilbert factor on the spectral backend; the
    orderings differ only by discretization, and `boost_ordering_residual`
    measures the gap between them.
    """
    if ordering not in _BOOST_ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    lam = grid.nodes
    sgn = np.sign(lam)

    def dilation(g):
        # sqrt(r) (r grad - 2 rhat d_r r).n (1/sqrt r) = -sgn (lambda d + 3/2)
        return -sgn * (lam * _dhalf(g, grid) + 1.5 * g)

    label = f"N[{ordering}]"
    if ordering == "h_first":
        return _wrap(label, grid, lambda g: _hilbert(dilation(g), grid, "minus"))
    return _wrap(label, grid, lambda g: dilation(_hilbert(g, grid, "plus")))


def boost_ordering_residual(grid: AxisGrid,
                            probes: Sequence[AxialField]) -> float:
    """Worst interior disagreement between the two orderings of N."""
    return _routes_residual(
        [boost_generator_config(grid, o) for o in _BOOST_ORDERINGS], probes)


def commutator_residual(a: LinearOperatorHandle, b: LinearOperatorHandle,
                        expected: LinearOperatorHandle | None,
                        scale: complex, probes: Sequence[AxialField]) -> float:
    """max over probes of ||(AB - BA - scale*expected) f||_int / ||f||_int.

    Norms are flat g-representation norms over the interior mask (the 1/r
    inner product restricted to the retained nodes).
    """
    if len(probes) == 0:
        raise ValueError("empty probe list")
    mask = a.grid.interior_mask()
    worst = 0.0
    for f in probes:
        ab = a.apply(b.apply(f))
        ba = b.apply(a.apply(f))
        resid = convert_rep(ab, "g").values - convert_rep(ba, "g").values
        if expected is not None:
            resid = resid - scale * convert_rep(expected.apply(f), "g").values
        fg = convert_rep(f, "g").values
        worst = max(worst, np.linalg.norm(resid[mask]) /
                    np.linalg.norm(fg[mask]))
    return worst


def adjoint_residual(a: LinearOperatorHandle, b: LinearOperatorHandle,
                     weight: str, probes: Sequence[AxialField]) -> float:
    """max |<x, A y>_w - <B x, y>_w| / max(|x||Ay|, |Bx||y|) over probe pairs.

    The denominator carries the operator output norms so that residuals of
    operators with very different scales are comparable.  weight must be
    "unit" or "inv_r" (`grids.inner_product` checks it).
    """
    if len(probes) < 2:
        raise ValueError("need at least two probes")
    worst = 0.0
    for x, y in zip(probes[:-1], probes[1:]):
        ay = a.apply(y)
        bx = b.apply(x)
        gap = abs(inner_product(x, ay, weight) - inner_product(bx, y, weight))
        den = max(
            np.sqrt(inner_product(x, x, weight).real
                    * inner_product(ay, ay, weight).real),
            np.sqrt(inner_product(bx, bx, weight).real
                    * inner_product(y, y, weight).real),
        )
        worst = max(worst, gap / den)
    return worst


def rayleigh_quotient(handle: LinearOperatorHandle, f: AxialField) -> float:
    """<f, H f> / <f, f> in the 1/r inner product."""
    num = inner_product(f, handle.apply(f), "inv_r").real
    den = inner_product(f, f, "inv_r").real
    return num / den

