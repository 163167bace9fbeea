"""Time propagation for the axis fields: scalar, second-order wave,
two-component spinor and complex three-vector forms.

Everything propagates in the weighted representation g = sqrt|l| psi,
where the first-order evolution i dg/dt = H dg/dlambda (H the full-line
Hilbert transform) is diagonal in momentum space with symbol |kappa|:

    scalar   g(t) = Finv exp(-i |kappa| t) F g0          (positive branch)
    wave     ghat(t) = cos(|k| t) ghat0 + sin(|k| t)/|k| ghatdot0
    spinor   upper/lower components carry symbols +kappa / -kappa
    vector   (F1, F2) rotate by the angle kappa t (circular combinations
             F1 -/+ i F2 carry symbols +kappa / -kappa)

Every spectral propagator is the one modal core `_evolve` with its own
C x C momentum-space transfer matrix, exactly the identity at t = 0, and
is exact in time; the entries mirror one cos and one sin of kappa t on
the N positive nodes (the closed forms, bit for bit).  Each kind is one
private stream of g-rows and diagnostics per time, which `propagate_*`
collect and the CLI writes as it comes.  A classical RK4 stepper of the
composed Hamiltonian is kept as a cross-check for the scalar case; its
step must respect dt <= 2 sqrt(2) h / pi, obtained from |R(iy)| <= 1 for
RK4 on the imaginary axis (|y| <= 2 sqrt 2) and the spectral radius
max|kappa| < pi/h of the discrete Hamiltonian.

The scalar density rho = |g|^2 + |Hg|^2 is pointwise non-negative by
construction and satisfies a discrete continuity law with the axial
current J = -2 Im(conj(g) Hg); the residual of that law converges at
second order in the joint (h, dt) refinement.  The spectral route evolves
Hg in momentum space (H is the multiplier -i sgn kappa); the RK4 route
takes it from the trig-route Hilbert transform, so each checks the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grids import AxialField, AxisGrid, convert_rep, fold, unfold
from .spectral import fourier_full, fourier_full_inverse
from .transforms import _r2r_pair, hilbert_signed

RK4_STABILITY_FACTOR = 2.0 * np.sqrt(2.0) / np.pi  # dt <= this * h
RK4_MAX_NODE_STEPS = 2 ** 32  # bound on ceil(t_end / dt) x node count


@dataclass(frozen=True, eq=False)
class SpinorField:
    """Two-component field (upper, lower) on an axis grid."""

    grid: AxisGrid
    rep: str
    up: np.ndarray = field(repr=False)
    down: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.asarray(self.up, dtype=complex)
        d = np.asarray(self.down, dtype=complex)
        if u.shape != (self.grid.size,) or d.shape != (self.grid.size,):
            raise ValueError("component lengths must equal node count")
        object.__setattr__(self, "up", u)
        object.__setattr__(self, "down", d)

    def component(self, idx: int) -> AxialField:
        return AxialField(self.grid, self.rep, self.up if idx == 0 else self.down)


@dataclass(frozen=True, eq=False)
class VectorField3:
    """Complex 3-vector field (electric + i magnetic) on an axis grid."""

    grid: AxisGrid
    rep: str
    values: np.ndarray = field(repr=False)  # shape (3, 2 n_half)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (3, self.grid.size):
            raise ValueError("expected shape (3, node count)")
        object.__setattr__(self, "values", v)

    def component(self, idx: int) -> AxialField:
        return AxialField(self.grid, self.rep, self.values[idx])


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    times: np.ndarray
    snapshots: list
    diagnostics: dict

    def __post_init__(self):
        if len(self.snapshots) != len(self.times):
            raise ValueError("one snapshot per time")


def _collect(t, stream, snapshot) -> EvolutionResult:
    """snapshot(g-rows) of each time, and each diagnostic as one array."""
    snaps, diags = zip(*((snapshot(rows), diag) for rows, diag in stream))
    return EvolutionResult(np.asarray(t, dtype=float), list(snaps), {
        key: np.array([d[key] for d in diags], dtype=float) for key in diags[0]})


def _check_times(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or t[0] != 0.0:
        raise ValueError("time grid must start at 0")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("time grid must be strictly increasing")
    return t


def _g_of(fld: AxialField) -> np.ndarray:
    return convert_rep(fld, "g").values


def _field_from_g(grid, g, rep):
    return convert_rep(AxialField(grid, "g", g), rep)


def _scalar_diagnostics(grid, g, backend="spectral"):
    """rho, J and the flat norm of one g-snapshot, from one Hilbert transform
    H = -sgn . Hplus (`density_current` and the RK4 route; the spectral
    route has Hg)."""
    hplus = hilbert_signed(AxialField(grid, "g", g), "plus", backend=backend)
    return _rho_j_norm(grid, g, -np.sign(grid.nodes) * hplus.values)


def _rho_j_norm(grid, g, hg):
    """rho, J and the flat norm of g, given its Hilbert transform hg.

    rho = |g|^2 + |Hg|^2  (pointwise >= 0 by construction),
    J   = -2 Im(conj(g) Hg), positive for forward-moving waves.
    """
    g2 = g.real ** 2 + g.imag ** 2
    rho = g2 + (hg.real ** 2 + hg.imag ** 2)
    j = -2.0 * np.imag(np.conj(g) * hg)
    return rho, j, float(np.sqrt(np.sum(g2) * grid.h))


def density_current(psi: AxialField):
    """Non-negative density rho and axial current J of the first-order flow,
    from the spectral Hilbert transform."""
    rho, j, _ = _scalar_diagnostics(psi.grid, _g_of(psi))
    return rho, j


def sigma_density(psi: AxialField, dpsi_dt: AxialField) -> np.ndarray:
    """Second-order conserved density i (psi* dt psi - CC); indefinite."""
    g = _g_of(psi)
    gdot = _g_of(dpsi_dt)
    return -2.0 * np.imag(np.conj(g) * gdot)


def _evolve(comps, t_grid, transfer, hilbert=False):
    """The modal core shared by the spectral propagators.

    Checks the times and takes the components `comps` (AxialFields on one
    grid) to momentum space; `hilbert` appends the first one's Hilbert
    transform -i sgn(kappa) ghat.  At each time ti, `transfer(c, s, k)`,
    given the N positive momentum nodes k and c, s = cos(k ti), sin(k ti),
    mirrors them into a C x C matrix (rows of (2N,) momentum symbols, or
    None for a zero entry) that mixes those C components; each output row
    is transformed back on its own.  Yields one list of C g-arrays per time.
    """
    t = _check_times(t_grid)
    sg = comps[0].grid.conjugate()
    ghats = [fourier_full(_g_of(c), c.grid) for c in comps]
    if hilbert:
        ghats.append(-1j * np.sign(sg.nodes) * ghats[0])
    k = sg.positive_nodes()
    for ti in t:
        x = k * ti
        yield [fourier_full_inverse(
            sum(e * gh for e, gh in zip(row, ghats) if e is not None), sg)
            for row in transfer(np.cos(x), np.sin(x), k)]


def _scalar_transfer(c, s, k):
    """exp(-i |kappa| t), even in kappa, on both rows of (g-hat, Hg-hat)."""
    e = c - 1j * s
    e = unfold(e, e)
    return [[e, None], [None, e]]


def _weyl_transfer(c, s, k):
    """exp(-i kappa t) for the upper component, its conjugate for the lower."""
    e = c - 1j * s
    up = unfold(e, np.conj(e))
    return [[up, None], [None, np.conj(up)]]


def _wave_transfer(c, s, k):
    """The (g-hat, g-hat-dot) propagator of cos(|k| t), sin(|k| t)/|k|."""
    c, sk, ks = (unfold(x, x) for x in (c, s / k, -k * s))
    return [[c, sk], [ks, c]]


def _maxwell_transfer(c, s, k):
    """Rotation of (F1-hat, F2-hat) by kappa t: cos even, sin odd."""
    c, s = unfold(c, c), unfold(s, -s)
    return [[c, -s], [s, c]]


def _hamiltonian_g(grid: AxisGrid):
    """g-level stepped Hamiltonian, left factorization with the
    trig-interpolant radial derivative: apply(g, out=None) is H g.

    Differentiating the sine/cosine interpolants maps their coefficient
    spaces into each other exactly, which collapses
    -sgn d_r (Hplus g) into the parity-split composition
    (Fc~ k Fc) on the even part + (Fs~ k Fs) on the odd part.  That
    operator is Hermitian and positive to rounding (the same matrix the
    unitary-map route produces), so the stepped norm cannot grow; the
    finite-difference left/right factorizations keep their own ledger in
    the operators module.
    """
    return _scaled_hamiltonian(grid, 1.0)


def _scaled_hamiltonian(grid, factor):
    """apply(g, out=None): factor * H g (factor 1 or -1j), bit for bit the
    parity split, two two-row `_trig_rows` calls, the parity join and a
    last multiply by `factor`.  The three work rows are allocated once
    here, so an apply serves one thread.

    Each DCT-IV is followed by one multiply by a precomputed complex row
    pair: the split's 1/2 and the first scale, then the second scale and
    `factor`, both with the sin row's odd entries negated (the DST-IV sign,
    so `_r2r_pair` runs both rows as cos).  Powers of 2, signs and 1 or -i
    are exact, so every product still rounds once.  The x k and the sin
    row's reversal are one multiply into the third row."""
    n = grid.n_half
    sg = grid.conjugate()
    k = sg.positive_nodes().astype(complex)   # k + 0j, cast once
    sign = np.stack([np.ones(n), (-1.0) ** np.arange(n)])
    # the scale factors of the two trig transforms, as `_trig_rows` forms them
    first, second = (np.multiply(f, np.sqrt(2.0 / np.pi) * 0.5 * s * sign,
                                 dtype=complex)
                     for f, s in ((0.5, grid.h), (factor, sg.dk)))
    w = np.empty((3, n), dtype=complex)
    (w0, w1, w2), w01, w12 = w, w[:2], w[1:]   # views made once

    def apply(g, out=None):
        out = np.empty(2 * n, dtype=complex) if out is None else out
        plus, minus = fold(g, n)
        # 2 x the even part, and 2 x the odd part reversed for its sin row
        np.add(plus, minus, out=w0)
        np.subtract(plus[::-1], minus[::-1], out=w1)
        np.multiply(_r2r_pair(w01, ()), first, out=w01)
        np.multiply(k, w1, out=w2[::-1])
        np.multiply(k, w0, out=w1)
        np.multiply(_r2r_pair(w12, ()), second, out=w12)
        np.add(w1, w2, out=out[n:])
        np.subtract(w1, w2, out=out[n - 1::-1])
        return out

    return apply


def _rk4(grid, g0, t, dt):
    """Classical RK4 of i dg/dt = H g, yielding [g] at each time in t.

    Each stage is one `_scaled_hamiltonian` apply of -i H.  The stages
    k1..k4 and the stage argument are allocated once per call and
    overwritten in place, with the operand order of
    g + step/6 (k1 + 2 k2 + 2 k3 + k4).
    """
    rhs = _scaled_hamiltonian(grid, -1j)
    g = np.array(g0, dtype=complex)
    k1, k2, k3, k4, arg = (np.empty_like(g) for _ in range(5))

    t_now = 0.0
    for ti in t:
        while t_now < ti - 1e-12:
            step = min(dt, ti - t_now)
            rhs(g, k1)
            rhs(np.add(g, np.multiply(0.5 * step, k1, out=arg), out=arg), k2)
            rhs(np.add(g, np.multiply(0.5 * step, k2, out=arg), out=arg), k3)
            rhs(np.add(g, np.multiply(step, k3, out=arg), out=arg), k4)
            np.add(k1, np.multiply(2, k2, out=k2), out=k2)
            np.add(k2, np.multiply(2, k3, out=k3), out=k3)
            np.add(k3, k4, out=k4)
            np.add(g, np.multiply(step / 6.0, k4, out=k4), out=g)
            t_now += step
        yield [g.copy()]


def _rk4_step(h, size, t_end, dt=None) -> float:
    """The step of an RK4 run to t_end on `size` nodes of spacing h: dt,
    or h/4 by default.  Refused (ValueError) when it breaks the stability
    bound or the run takes more than RK4_MAX_NODE_STEPS steps x nodes."""
    dt_max = RK4_STABILITY_FACTOR * h
    dt = h / 4.0 if dt is None else float(dt)
    if not 0.0 < dt <= dt_max:
        raise ValueError(
            f"rk4 step {dt:.3e} is not positive or violates the stability "
            f"bound 2*sqrt(2)*h/pi = {dt_max:.3e}")
    steps = np.ceil(t_end / dt)
    if not steps * size <= RK4_MAX_NODE_STEPS:
        raise ValueError(
            f"rk4 run of {steps:.3g} steps x {size} nodes exceeds "
            f"the limit of 2**32 node-steps")
    return dt


def _scalar_stream(comps, t_grid, method="spectral", dt=None):
    """Per time, [g] and its diagnostics.  A time's "continuity_residual"
    is filled in once the next time is made (NaN at the first and last)."""
    t = _check_times(t_grid)
    grid = comps[0].grid
    if method == "spectral":
        flow = ((g, _rho_j_norm(grid, g, hg)) for g, hg in
                _evolve(comps, t, _scalar_transfer, hilbert=True))
    elif method == "rk4":
        dt = _rk4_step(grid.h, grid.size, t[-1], dt)
        flow = ((g, _scalar_diagnostics(grid, g))
                for (g,) in _rk4(grid, _g_of(comps[0]), t, dt))
    else:
        raise ValueError(f"unknown method {method!r}")

    window = []   # (t, rho, J, diagnostics) of the two times before this one
    for ti, (g, (rho, j, nrm)) in zip(t, flow):
        if len(window) == 2:
            (t0, rho0, _, _), (_, _, j1, diag1) = window
            diag1["continuity_residual"] = _continuity_residual(
                ti - t0, rho0, j1, rho, grid)
        diag = {"norm": nrm, "min_rho": rho.min(), "max_rho": rho.max(),
                "continuity_residual": np.nan}
        window = window[-1:] + [(ti, rho, j, diag)]
        yield [g], diag


def propagate_scalar(psi0: AxialField, t_grid: Sequence[float],
                     method: str = "spectral",
                     dt: float | None = None) -> EvolutionResult:
    """First-order evolution i dt psi = p0 psi (positive branch only).

    method="spectral" multiplies by exp(-i |kappa| t), exact in time;
    method="rk4" steps the composed left-form Hamiltonian and serves as an
    independent cross-check.  The RK4 substep obeys
    dt <= 2 sqrt(2) h / pi (spectral radius bound); default h/4.  A run of
    more than RK4_MAX_NODE_STEPS steps x nodes is refused before stepping.
    """
    return _collect(t_grid, _scalar_stream([psi0], t_grid, method, dt),
                    lambda rows: _field_from_g(psi0.grid, rows[0], psi0.rep))


def _continuity_residual(dt2, rho_before, j, rho_after, grid) -> float:
    """Centered-difference residual dt rho + dlambda J of one triple (dt2
    the time between its outer densities), over the band |lambda| <= 0.6
    extent, relative to the peak |dt rho| there: 0 if that peak is 0, NaN
    if it is not finite."""
    # the band is [lo, hi) on the increasing, symmetric nodes, lo >= 1 for
    # every n_half >= 8; widened by a node each side, the gradient's central
    # differences on it are the full-length ones
    lo = int(np.searchsorted(grid.nodes, -0.6 * grid.extent))
    hi = grid.size - lo
    drho = (rho_after[lo:hi] - rho_before[lo:hi]) / dt2
    resid = drho + np.gradient(j[lo - 1:hi + 1], grid.h)[1:-1]
    scale = np.max(np.abs(drho))
    if not scale < np.inf:
        return np.nan
    return np.max(np.abs(resid)) / scale if scale > 0 else 0.0


def _wave_stream(comps, t_grid):
    """Per time, [g, g-dot] and their diagnostics."""
    grid = comps[0].grid
    if not grid.same_as(comps[1].grid):
        raise ValueError("initial data live on different grids")
    for g, gdot in _evolve(comps, t_grid, _wave_transfer):
        sig = -2.0 * np.imag(np.conj(g) * gdot)
        yield [g, gdot], {"norm": np.sqrt(np.vdot(g, g).real * grid.h),
                          "charge": np.sum(sig) * grid.h,
                          "sigma_min": np.min(sig), "sigma_max": np.max(sig)}


def propagate_wave(psi0: AxialField, dpsi0_dt: AxialField,
                   t_grid: Sequence[float]) -> EvolutionResult:
    """Second-order wave form; supports both frequency signs.

    ghat(t) = cos(|k| t) ghat0 + sin(|k| t)/|k| ghatdot0, exact in time.
    Snapshots are (psi, dpsi_dt) pairs.  Diagnostics: "norm" (flat g-norm,
    conserved for one-branch data only), "charge" (h sum sigma, conserved,
    positive for forward movers) and the extrema "sigma_min", "sigma_max".
    """
    return _collect(t_grid, _wave_stream([psi0, dpsi0_dt], t_grid), lambda rows:
                    tuple(_field_from_g(psi0.grid, g, psi0.rep) for g in rows))


def _weyl_stream(comps, t_grid):
    """Per time, [upper, lower] and their diagnostics."""
    for u, d in _evolve(comps, t_grid, _weyl_transfer):
        su, sd = np.sum(np.abs(u) ** 2), np.sum(np.abs(d) ** 2)
        yield [u, d], {key: np.sqrt(s * comps[0].grid.h) for key, s in (
            ("norm", su + sd), ("norm_up", su), ("norm_down", sd))}


def propagate_weyl(psi0: SpinorField, t_grid: Sequence[float]) -> EvolutionResult:
    """Massless two-component evolution i dt Psi = sigma . pbar Psi.

    On the axis sigma . pbar is diagonal: the upper component carries the
    momentum-space symbol +kappa (forward mover), the lower -kappa.
    Diagnostics: "norm" (flat g-norm) and its conserved parts "norm_up",
    "norm_down".
    """
    grid, rep = psi0.grid, psi0.rep
    stream = _weyl_stream([psi0.component(0), psi0.component(1)], t_grid)
    return _collect(t_grid, stream, lambda rows: SpinorField(grid, rep, *(
        _field_from_g(grid, x, rep).values for x in rows)))


def weyl_hamiltonian(grid: AxisGrid):
    """Handle applying sigma . pbar to a SpinorField (g-level spectral)."""
    from .operators import pbar
    p = pbar(grid)

    def apply(psi: SpinorField) -> SpinorField:
        up = p.apply(psi.component(0))
        dn = p.apply(psi.component(1))
        return SpinorField(grid, psi.rep, up.values, -dn.values)

    return apply


def _maxwell_stream(comps, t_grid, constraint_tol=1e-12):
    """Per time, [F1, F2, 0] and their diagnostics; F3 must vanish."""
    scale = np.max([np.max(np.abs(c.values)) for c in comps]) or 1.0
    if np.max(np.abs(comps[2].values)) > constraint_tol * scale:
        raise ValueError("transversality constraint violated: the axial "
                         "evolution requires pbar . F = 0, i.e. a vanishing "
                         "axial component F3")
    grid = comps[0].grid
    # F1 -+ i F2 itself, not the cancelling |F1|^2 + |F2|^2 +- 2 Im <F1, F2>:
    # a vanishing circular mode then reads at rounding, not its square root
    mode = np.empty(grid.size, dtype=complex)

    def mode_norm(c1, c2, sign):
        np.add(c1, np.multiply(sign, c2, out=mode), out=mode)
        return np.sqrt(np.vdot(mode, mode).real * grid.h / 2.0)

    for c1, c2 in _evolve(comps[:2], t_grid, _maxwell_transfer):
        s12 = np.sum(np.abs(c1) ** 2) + np.sum(np.abs(c2) ** 2)
        yield [c1, c2, np.zeros_like(c1)], {
            "norm": np.sqrt(s12 * grid.h), "norm_fwd": mode_norm(c1, c2, -1j),
            "norm_back": mode_norm(c1, c2, 1j)}


def propagate_maxwell(f0: VectorField3, t_grid: Sequence[float],
                      constraint_tol: float = 1e-12) -> EvolutionResult:
    """Source-free spin-1 evolution dt F = pbar x F with pbar . F = 0.

    In momentum space (F1, F2) rotate by the angle kappa t; equivalently
    the circular combinations F1 -+ i F2 are eigenmodes with symbols
    +kappa / -kappa, so the forward wave (w, i w, 0) translates in +n and
    (w, -i w, 0) in -n.  F3 is never sourced and must vanish at input.
    Diagnostics: "norm" (flat g-norm) and the conserved circular-mode norms
    "norm_fwd" = |F1 - i F2| / sqrt 2, "norm_back" = |F1 + i F2| / sqrt 2.
    """
    grid, rep = f0.grid, f0.rep
    return _collect(t_grid, _maxwell_stream(
        [f0.component(i) for i in range(3)], t_grid, constraint_tol),
        lambda rows: VectorField3(grid, rep, [
            _field_from_g(grid, c, rep).values for c in rows]))


def packet_centroid(psi: AxialField) -> float:
    """Density-weighted axis position of a scalar snapshot."""
    rho, _ = density_current(psi)
    return float(np.sum(psi.grid.nodes * rho) / np.sum(rho))
