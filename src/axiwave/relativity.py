"""Momentum-space Lorentz kinematics for beams of axis waves.

A boost of velocity v along the unit vector b acts on a null 4-momentum
(k, k_vec) by

    k_par' = gamma (k_par - v k),     k' = gamma (k - v k_par),

with the transverse part untouched.  Directions follow the aberration
formula (the normalized boost of the null ray), magnitudes follow the
Doppler factor gamma (1 - v khat.b).

A BeamState carries a signed-momentum profile along one axis: kappa > 0
photons travel along +n, kappa < 0 along -n.  Under a general boost the
two branches aberrate to two different new axes, so `boost_beam` returns
a pair of beams; only a boost parallel to the beam axis keeps one axis.
Profiles transform as scalars (pure substitution phi'(kappa') =
phi(kappa)), resampled with cubic splines; the scale-invariant norm
sum |phi|^2 dk/|kappa| is preserved up to interpolation error.  The splines
are scipy.interpolate's, imported on the first resample, so only a boost
loads that module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._fd import derivative
from .grids import SpectralProfile, fold, make_grid, unfold
from .spectral import spectral_derivative

_UNIT_TOL = 1e-12


def _as_unit(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector")
    n = np.linalg.norm(v)
    if not abs(n - 1.0) <= 1e-9:
        raise ValueError("direction must be a unit vector")
    return v / n


@dataclass(frozen=True)
class FourMomentum:
    """Null 4-momentum (k0, k) of a massless mode."""

    k0: float
    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float))
        if self.k.shape != (3,):
            raise ValueError("spatial part must be a 3-vector")
        if not (np.isfinite(self.k0) and np.isfinite(self.k).all()):
            raise ValueError("4-momentum must be finite")
        if not self.k0 >= 0.0:
            raise ValueError("k0 must be non-negative")
        if not abs(self.k0 - np.linalg.norm(self.k)) <= \
                _UNIT_TOL * max(self.k0, 1e-300):
            raise ValueError("4-momentum is not null")


@dataclass(frozen=True)
class BoostParams:
    """Velocity |v| < 1 along a unit axis; gamma = (1 - v^2)^{-1/2}."""

    v: float
    axis: np.ndarray

    def __post_init__(self):
        if not abs(self.v) < 1.0:
            raise ValueError("|v| must be below 1")
        object.__setattr__(self, "axis", _as_unit(self.axis))

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.v * self.v)


@dataclass(frozen=True, eq=False)
class BeamState:
    """A unit propagation axis with a signed-momentum profile along it."""

    direction: np.ndarray
    profile: SpectralProfile = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "direction", _as_unit(self.direction))


def boost_four_momentum(k: FourMomentum, b: BoostParams) -> FourMomentum:
    par = float(k.k @ b.axis)
    perp = k.k - par * b.axis
    g, v = b.gamma, b.v
    k0p = g * (k.k0 - v * par)
    parp = g * (par - v * k.k0)
    return FourMomentum(k0p, perp + parp * b.axis)


def aberrate_direction(khat, b: BoostParams) -> np.ndarray:
    """New propagation direction of a null ray; normalized boost of (1, khat)."""
    n = _as_unit(khat)
    c = float(n @ b.axis)
    perp = n - c * b.axis
    g, v = b.gamma, b.v
    denom = g * (1.0 - v * c)
    return (perp + g * (c - v) * b.axis) / denom


def observation_aberration(cos_theta: float, v: float) -> float:
    """cos theta' = (cos theta + v) / (1 + v cos theta).

    theta is the angle the light is observed FROM (momentum along -khat),
    which flips the sign relative to the propagation form.
    """
    return (cos_theta + v) / (1.0 + v * cos_theta)


def doppler_factor(khat, b: BoostParams) -> float:
    """Momentum magnitude multiplier k'/k = gamma (1 - v khat.b)."""
    n = _as_unit(khat)
    return b.gamma * (1.0 - b.v * float(n @ b.axis))


def _resample_half(k_nodes: np.ndarray, values: np.ndarray,
                   queries: np.ndarray, label: str) -> np.ndarray:
    """Cubic-spline the profile of one momentum branch at the query nodes."""
    out = np.zeros(queries.shape, dtype=complex)
    inside = (queries >= k_nodes[0]) & (queries <= k_nodes[-1])
    peak = np.max(np.abs(values)) if values.size else 0.0
    # warn only when the zero-extrapolated region actually carries weight
    lost_high = np.any(queries > k_nodes[-1]) and \
        np.abs(values[-1]) > 1e-12 * peak
    lost_low = np.any(queries < k_nodes[0]) and \
        np.abs(values[0]) > 1e-12 * peak
    if peak > 0.0 and (lost_high or lost_low):
        warnings.warn(
            f"boost_beam: {label} branch resampled outside the source "
            "support; missing values extrapolated as zero", stacklevel=3)
    if np.any(inside):
        from scipy.interpolate import CubicSpline  # only boosts load it

        sp_re = CubicSpline(k_nodes, values.real)
        sp_im = CubicSpline(k_nodes, values.imag)
        q = queries[inside]
        out[inside] = sp_re(q) + 1j * sp_im(q)
    return out


def boost_beam(beam: BeamState, b: BoostParams) -> tuple[BeamState, ...]:
    """Boost a beam; scalar profile transformation phi'(kappa') = phi(kappa).

    Returns one beam when the boost is parallel to the beam axis
    (|cos| within 1e-12 of 1) or v = 0; otherwise the forward (kappa > 0)
    and backward (kappa < 0) branches aberrate to different axes and a
    pair of single-sided beams comes back.
    """
    if b.v == 0.0:
        return (beam,)
    sg = beam.profile.grid
    kpos = sg.positive_nodes()
    # phi at the +kappa and at the -kappa nodes, by |kappa|
    fwd, bwd = fold(beam.profile.values, sg.n_half)
    c = float(beam.direction @ b.axis)
    # kappa' = alpha(branch) * kappa, alpha the branch's Doppler factor
    new_fwd = _resample_half(kpos, fwd, kpos / (b.gamma * (1.0 - b.v * c)),
                             "forward")
    new_bwd = _resample_half(kpos, bwd, kpos / (b.gamma * (1.0 + b.v * c)),
                             "backward")
    if abs(abs(c) - 1.0) <= _UNIT_TOL:
        # one axis survives
        return (BeamState(beam.direction,
                          SpectralProfile(sg, unfold(new_fwd, new_bwd))),)
    zeros = np.zeros(sg.n_half, dtype=complex)
    return tuple(BeamState(aberrate_direction(nhat, b),
                           SpectralProfile(sg, unfold(vals, zeros)))
                 for vals, nhat in ((new_fwd, beam.direction),
                                    (new_bwd, -beam.direction)))


def momentum_boost_generator(profile: SpectralProfile,
                             method: str = "spectral") -> SpectralProfile:
    """Axial boost generator in momentum space: (N_k phi)(kappa) =
    i kappa d phi/d kappa.

    The kappa-derivative is taken spectrally (method="spectral") or with
    4th-order central differences (method="fd"); the profile must be
    smooth across kappa = 0 for either route.  On forward-branch
    profiles the finite boost flow of `boost_beam` is
    phi -> phi - i dv N_k phi + O(dv^2).
    """
    sg = profile.grid
    kap = sg.nodes
    if method == "spectral":
        # kappa sampled like an axis grid of spacing dk
        dphi = spectral_derivative(profile.values,
                                   make_grid(sg.n_half, sg.extent))
    elif method == "fd":
        dphi = derivative(profile.values, sg.dk)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SpectralProfile(sg, 1j * kap * dphi)
