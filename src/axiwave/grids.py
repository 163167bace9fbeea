"""Symmetric axis grids, field containers and weighted inner products.

The computational domain is a straight line through the coordinate origin,
sampled at half-integer offsets

    lambda_j = +/- (j + 1/2) h ,      j = 0 .. n_half-1 ,

so no node sits at the origin and every factor 1/lambda, 1/sqrt|lambda|
stays finite on the grid.  The conjugate momentum grid uses the same offset
pattern with spacing dk = pi / extent; with that choice the discrete
Fourier map between the two grids is exactly unitary.  The grid rule that
`check_grid` applies to every grid: n_half is an integer from 8 to
MAX_N_HALF and the spacing s has 0 < s/2 and (n_half - 1/2) s < inf, so
all nodes are finite, nonzero and distinct; on an axis grid pi / extent
passes too.

Fields come in two representations:

    f-rep : raw samples psi(lambda)
    g-rep : weighted samples g = sqrt|lambda| * psi(lambda)

The calculus runs on g-arrays: `g_values` reads a field's g and
`field_from_g` makes a field of g, through `convert_rep`.

The two inner products are nodal (midpoint) quadratures of the volume
integrals restricted to the axis; the r^2 Jacobian of the line restriction
is part of the measure:

    unit  :  h * sum  lambda_j^2   conj(a_j) b_j      (plain volume product)
    inv_r :  h * sum  |lambda_j|   conj(a_j) b_j      (1/r weighted product)

In g-rep the inv_r product is the flat sum  h * sum conj(g_a) g_b, which is
what makes the weighted derivative -i d/dlambda self-adjoint there.

Momentum profiles live on the signed conjugate grid: kappa > 0 encodes
magnitude kappa moving along +n, kappa < 0 magnitude |kappa| along -n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

F_REP = "f"
G_REP = "g"

_REPS = (F_REP, G_REP)
_FIELD_WEIGHTS = ("unit", "inv_r")
_SPECTRAL_WEIGHTS = ("inv_k", "k")
MIN_N_HALF = 8
# the most nodes per side whose 2 n_half float64 values numpy can address
MAX_N_HALF = int(np.iinfo(np.intp).max) // 16
# the interior band |lambda| <= INTERIOR * extent of every interior norm
INTERIOR = 0.6


class GridMismatchError(ValueError):
    """Raised when two fields/profiles do not share a grid."""


class _HalfOffset:
    """What both grids share: n_half nodes per side, from `offset_nodes`."""

    @property
    def size(self) -> int:
        return 2 * self.n_half

    def positive_nodes(self) -> np.ndarray:
        """(j + 1/2) times the spacing: the positive half of the grid."""
        return self.nodes[self.n_half:]


@dataclass(frozen=True, eq=False)
class AxisGrid(_HalfOffset):
    """Symmetric half-offset sampling of a line through the origin."""

    n_half: int
    h: float
    nodes: np.ndarray = field(repr=False)
    _conjugate: "SpectralGrid | None" = field(default=None, init=False,
                                              repr=False)

    @property
    def extent(self) -> float:
        return self.n_half * self.h

    def conjugate(self) -> "SpectralGrid":
        """The conjugate momentum grid, built on first use and kept."""
        if self._conjugate is None:
            dk = np.pi / self.extent
            object.__setattr__(self, "_conjugate", SpectralGrid(
                self.n_half, dk, offset_nodes(self.n_half, dk), self.h))
        return self._conjugate

    def interior_mask(self) -> np.ndarray:
        """Boolean mask of the interior band |lambda| <= INTERIOR * extent.

        The excluded band sits at the truncation edges |lambda| ~ extent,
        where finite-domain transforms are wrong by construction.
        """
        return np.abs(self.nodes) <= INTERIOR * self.extent

    def same_as(self, other: "AxisGrid") -> bool:
        return self.n_half == other.n_half and self.h == other.h


@dataclass(frozen=True, eq=False)
class SpectralGrid(_HalfOffset):
    """Signed momentum grid conjugate to an AxisGrid (same offset pattern).

    It keeps that grid's spacing, not the grid, so an AxisGrid and the
    conjugate it keeps form no reference cycle."""

    n_half: int
    dk: float
    nodes: np.ndarray = field(repr=False)
    _axis_h: float = field(repr=False)

    @property
    def extent(self) -> float:
        return self.n_half * self.dk

    def axis_grid(self) -> AxisGrid:
        """A new copy of the configuration grid this one is conjugate to."""
        return AxisGrid(self.n_half, self._axis_h,
                        offset_nodes(self.n_half, self._axis_h))

    def same_as(self, other: "SpectralGrid") -> bool:
        return self.n_half == other.n_half and self.dk == other.dk


def check_grid(n_half, spacing, name="spacing", conjugate=False) -> None:
    """The module's grid rule (pi / extent too if `conjugate`), O(1); its
    ValueError names `name`."""
    if not (isinstance(n_half, (int, np.integer)) and n_half >= MIN_N_HALF):
        raise ValueError(f"grid too coarse: n_half must be an integer >= "
                         f"{MIN_N_HALF}, got {n_half!r}")
    if n_half > MAX_N_HALF:   # its bits: repr() refuses 4,301 digits
        raise ValueError(f"grid too fine: n_half must be at most {MAX_N_HALF}"
                         f", got one of {int(n_half).bit_length()} bits")
    n, step = int(n_half), float(spacing)
    for label in ("spacing", "pi/extent") if conjugate else ("spacing",):
        if not (0.0 < step / 2 and (n - 0.5) * step < np.inf):
            raise ValueError(f"{name} is out of range: {label} {step!r} "
                             f"gives no {n} finite, nonzero, distinct nodes")
        step = np.pi / (n * step)


def axis_spacing(n_half, extent) -> float:
    """h = extent / n_half of a usable axis grid; errors name `extent`."""
    h = float(extent) / min(max(n_half, 1), MAX_N_HALF)   # checked below
    check_grid(n_half, h, "extent", conjugate=True)
    return h


def offset_nodes(n_half: int, spacing: float) -> np.ndarray:
    """The read-only nodes +/-(j + 1/2) spacing, j < n_half, increasing."""
    half = (np.arange(n_half) + 0.5) * spacing
    nodes = np.concatenate([-half[::-1], half])
    nodes.setflags(write=False)
    return nodes


def make_grid(n_half: int, extent: float) -> AxisGrid:
    """The axis grid with h = extent / n_half, if it passes the grid rule."""
    h = axis_spacing(n_half, extent)
    return AxisGrid(n_half=int(n_half), h=h, nodes=offset_nodes(n_half, h))


def make_spectral_grid(n_half: int, dk: float) -> SpectralGrid:
    """The momentum grid of spacing dk, if it and the axis grid of extent
    pi / dk (h = pi / dk / n_half) pass the grid rule."""
    check_grid(n_half, dk, "dk")
    n, dk = int(n_half), float(dk)
    h = np.pi / dk / n
    check_grid(n, h, "dk", conjugate=True)
    return SpectralGrid(n, dk, offset_nodes(n, dk), h)


@dataclass(frozen=True, eq=False)
class AxialField:
    """Complex samples of a field along the axis, in f- or g-representation."""

    grid: AxisGrid
    rep: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.rep not in _REPS:
            raise ValueError(f"unknown representation {self.rep!r}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError("values length must equal node count")
        object.__setattr__(self, "values", vals)

    def copy_with(self, values: np.ndarray) -> "AxialField":
        return AxialField(self.grid, self.rep, values)


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Complex momentum-space samples phi(kappa) on the signed grid."""

    grid: SpectralGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError("values length must equal kappa node count")
        object.__setattr__(self, "values", vals)


def sample_field(generator, grid: AxisGrid) -> AxialField:
    """Evaluate the vectorized `generator(lambda)` at every node, no
    smoothing, as an f-rep field.  A result that is not one finite value
    per node is rejected."""
    vals = np.asarray(generator(grid.nodes), dtype=complex)
    if vals.shape != grid.nodes.shape or not np.all(np.isfinite(vals)):
        raise ValueError("generator values are non-finite or not one per node")
    return AxialField(grid, F_REP, vals)


def convert_rep(fld: AxialField, target: str) -> AxialField:
    """Convert between f- and g-representation (multiply/divide sqrt|lambda|)."""
    if target == fld.rep:
        return fld
    if target == F_REP:
        return AxialField(fld.grid, F_REP,
                          fld.values / np.sqrt(np.abs(fld.grid.nodes)))
    return AxialField(fld.grid, target, g_values(fld))   # checks `target`


def fold(values: np.ndarray, n_half: int):
    """(plus, minus): the samples at +r_j and at -r_j, j = 0 .. n_half-1."""
    return values[n_half:], values[n_half - 1::-1]


def unfold(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Inverse of `fold`: the full symmetric-grid array."""
    return np.concatenate([minus[::-1], plus])


def parity_split(values: np.ndarray, n_half: int):
    """(even, odd) half-line parts (f(r) +/- f(-r)) / 2."""
    plus, minus = fold(values, n_half)
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


def parity_join(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Inverse of `parity_split`."""
    return unfold(even + odd, even - odd)


def gaussian_packet(grid: AxisGrid, k0: float, width: float,
                    center: float = 0.0, rep: str = G_REP) -> AxialField:
    """Windowed plane wave exp(-((l-c)/w)^2) exp(i k0 l), built in g-rep."""
    lam = grid.nodes
    g = np.exp(-(((lam - center) / width) ** 2)) * np.exp(1j * k0 * lam)
    return field_from_g(grid, g, rep)


def random_packet(grid: AxisGrid, rng, **draw) -> AxialField:
    """Random wavelets drawn by `_draw_wavelets`, summed by `_wavelet_sum`."""
    return _wavelet_sum(grid, _draw_wavelets(grid, rng, **draw))


def _draw_wavelets(grid: AxisGrid, rng, kmax=3.0, signs=(1.0, 1.0, 1.0, 1.0),
                   centers=(-0.3, 0.3), widths=(0.08, 0.2)) -> list:
    """(c, w, k, amp) per entry of `signs`, drawn in order: center sign *
    U(centers) * extent, width U(widths) * extent, carrier U(-kmax, kmax),
    complex normal amplitude.  Signs (-1, 1), centers > 0: annular probes."""
    return [(sign * rng.uniform(*centers) * grid.extent,
             rng.uniform(*widths) * grid.extent, rng.uniform(-kmax, kmax),
             rng.normal() + 1j * rng.normal()) for sign in signs]


def _wavelet_sum(grid: AxisGrid, wavelets) -> AxialField:
    """The wavelets summed in g-rep in their order, returned in f-rep."""
    lam, g = grid.nodes, np.zeros(grid.size, dtype=complex)
    for c, w, k, amp in wavelets:
        g += amp * np.exp(-(((lam - c) / w) ** 2)) * np.exp(1j * k * lam)
    return field_from_g(grid, g, F_REP)


def g_values(fld: AxialField) -> np.ndarray:
    """The g-representation values of `fld`: its own array if it is in g."""
    if fld.rep == G_REP:
        return fld.values
    return fld.values * np.sqrt(np.abs(fld.grid.nodes))


def field_from_g(grid: AxisGrid, g: np.ndarray, rep: str) -> AxialField:
    """The field of g-values `g` on `grid`, in representation `rep`."""
    return convert_rep(AxialField(grid, G_REP, g), rep)


def inner_product(a: AxialField, b: AxialField, weight: str = "unit") -> complex:
    """Weighted nodal inner product, conjugate-linear in the first argument.

    weight="unit" is the axis restriction of the plain volume product
    (measure lambda^2 h); weight="inv_r" restricts the 1/r-weighted product
    (measure |lambda| h).  Computed on g-values by `g_product`.
    """
    if not a.grid.same_as(b.grid):
        raise GridMismatchError("fields live on different grids")
    return g_product(a.grid, g_values(a), g_values(b), weight)


def g_product(grid: AxisGrid, ga: np.ndarray, gb: np.ndarray,
              weight: str) -> complex:
    """`inner_product` of g-value arrays: measure |lambda| h or h (inv_r)."""
    if weight not in _FIELD_WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    w = np.abs(grid.nodes) if weight == "unit" else 1.0
    return complex(np.vdot(ga, w * gb) * grid.h)


def spectral_inner_product(a: SpectralProfile, b: SpectralProfile,
                           weight: str = "inv_k") -> complex:
    """Momentum-space inner product on the signed grid.

    weight="inv_k" is the scale-invariant product sum conj(a) b dk/|kappa|
    (invariant under the Doppler rescaling of a boost); weight="k" is its
    energy-weighted partner sum |kappa| conj(a) b dk, the one tied to the
    configuration-space inv_r product by the unitary analysis map.
    """
    if not a.grid.same_as(b.grid):
        raise GridMismatchError("profiles live on different kappa grids")
    if weight not in _SPECTRAL_WEIGHTS:
        raise ValueError(f"unknown weight {weight!r}")
    ak = np.abs(a.grid.nodes)
    w = 1.0 / ak if weight == "inv_k" else ak
    return complex(np.sum(w * np.conj(a.values) * b.values) * a.grid.dk)


def spectral_norm(a: SpectralProfile, weight: str = "inv_k") -> float:
    return float(np.sqrt(spectral_inner_product(a, a, weight).real))
