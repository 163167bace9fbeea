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
Profiles transform as scalars, phi'(kappa) = phi(kappa / alpha) with alpha
the branch's Doppler factor.  `_dilate` samples that dilation exactly: the
Fourier sum behind `spectral.fourier_full` continues a profile to every
kappa, and one chirp-z convolution (Rabiner, Schafer & Rader 1969;
Bluestein 1970) sums it at every kappa_m / alpha on numpy FFTs.  Above the
band (kappa_m / alpha > N dk) the value is zero, so a blue shift loses what
it moves off the band top: a branch that keeps less than 1 - 1e-12 of its
norm sum |phi|^2 dk/|kappa| raises one UserWarning giving the fraction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grids import SpectralProfile, fold, make_grid, unfold
from .spectral import fourier_full_inverse, spectral_derivative

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


def doppler_factor(khat, b: BoostParams) -> float:
    """Momentum magnitude multiplier k'/k = gamma (1 - v khat.b)."""
    n = _as_unit(khat)
    return b.gamma * (1.0 - b.v * float(n @ b.axis))


def _dilate(branches: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """phi(kappa_m / alpha) of each branch row at the N positive nodes.

    ghat(kappa) = (h/sqrt(2 pi)) sum_j g_j exp(-i kappa lambda_j), g the
    field of the row's one-sided profile, has the phase beta u v at
    kappa_m / alpha, with u = m + 1/2, v = j - N + 1/2, beta = pi/(N alpha);
    u v = [u^2 + v^2 - (u - v)^2] / 2 makes the sum a convolution in
    u - v = m - j + N, which runs over 1 - N .. 2N - 1.  Every h and dk
    cancels between the inverse transform, the sum and 1/sqrt(kappa), so
    the rows are dilated on the unit grid h = 1: the result depends on the
    node values alone, at any grid scale.
    """
    n = branches.shape[1]
    sg = make_grid(n, float(n)).conjugate()
    kpos = sg.positive_nodes()
    g = fourier_full_inverse(np.concatenate(
        [np.zeros_like(branches), np.sqrt(kpos) * branches], axis=1), sg)
    half_beta = np.pi / (2 * n) / alphas[:, None]
    # FFTs of a power of two >= 3N - 1 run 2-5x faster than of 3N - 1 itself
    size = 1 << (3 * n - 2).bit_length()
    d = np.concatenate([np.arange(2 * n), np.arange(2 * n - size, 0)])
    v = np.arange(2 * n) - (n - 0.5)
    conv = np.fft.ifft(np.fft.fft(g * np.exp(-1j * half_beta * (v * v)), size)
                       * np.fft.fft(np.exp(1j * half_beta * (d * d))))
    ghat = (conv[:, n:2 * n] / np.sqrt(2.0 * np.pi)
            * np.exp(-1j * half_beta * (np.arange(n) + 0.5) ** 2))
    q = kpos / alphas[:, None]
    return np.where(q <= n * sg.dk, ghat / np.sqrt(q), 0.0)


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
    # phi at the +kappa and at the -kappa nodes, by |kappa|
    branches = np.stack(fold(beam.profile.values, sg.n_half))
    # kappa' = alpha(branch) * kappa, alpha the branch's Doppler factor
    new_fwd, new_bwd = new = _dilate(branches, np.array(
        [doppler_factor(d, b) for d in (beam.direction, -beam.direction)]))
    # each branch's sum |phi|^2 / |kappa|, in units of dk
    norms = np.linalg.norm(np.stack([branches, new])
                           / np.sqrt(np.arange(sg.n_half) + 0.5), axis=2)
    for label, (before, after) in zip(("forward", "backward"), norms.T):
        kept = after / before if before else 1.0
        if not abs(kept - 1.0) <= 1e-12:   # a NaN warns too
            warnings.warn(f"boost_beam: the {label} branch keeps "
                          f"{float(kept)!r} of its 1/|kappa| norm on the band",
                          stacklevel=2)
    if abs(abs(float(beam.direction @ b.axis)) - 1.0) <= _UNIT_TOL:
        # one axis survives
        return (BeamState(beam.direction,
                          SpectralProfile(sg, unfold(new_fwd, new_bwd))),)
    zeros = np.zeros(sg.n_half, dtype=complex)
    return tuple(BeamState(aberrate_direction(nhat, b),
                           SpectralProfile(sg, unfold(vals, zeros)))
                 for vals, nhat in ((new_fwd, beam.direction),
                                    (new_bwd, -beam.direction)))


def momentum_boost_generator(profile: SpectralProfile) -> SpectralProfile:
    """Axial boost generator in momentum space: (N_k phi)(kappa) =
    i kappa d phi/d kappa.

    The kappa-derivative is taken spectrally, so the profile must be smooth
    across kappa = 0.  On forward-branch profiles the finite boost flow of
    `boost_beam` is phi -> phi - i dv N_k phi + O(dv^2).  With u = kappa/dk
    on the unit grid, kappa dphi/dkappa = u dphi/du carries no grid scale.
    """
    n = profile.grid.n_half
    unit = make_grid(n, float(n))
    return SpectralProfile(profile.grid, 1j * unit.nodes
                           * spectral_derivative(profile.values, unit))
