"""The identity ledger: every operator relation of the calculus, quantified
on deterministic probe suites and collected into a machine-readable report.

Each entry carries the mathematical identity it checks, the measured
residual, the tolerance it must meet, and the grid it ran on.  An entry
passes iff residual <= tolerance.  Convergence-order entries report the
shortfall max(0, required_order - measured_order); identities that are
exact to rounding on the offset grids (the unitary round-trip chief among
them) are reported against their machine floor.

The default configuration reproduces the acceptance envelope: half-grid
sizes 256 and 512, extent 40, the interior band of `grids.INTERIOR` and
the 80% half-line band, one fixed seed.  Runs are serial and deterministic: identical config and seed give a
byte-identical JSON report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .grids import (MIN_N_HALF, _draw_wavelets, _wavelet_sum, axis_spacing,
                    g_values, gaussian_packet, inner_product, make_grid,
                    random_packet, sample_field, spectral_inner_product,
                    spectral_norm, SpectralProfile)
from .operators import (_dhalf, adjoint_residual, boost_generator_config,
                        boost_generator_local, boost_ordering_residual,
                        commutator_residual, four_vector_ops, pbar, pbar0,
                        pbar0_triangle_residual, radial_momentum_tilde,
                        rayleigh_quotient, LinearOperatorHandle)
from .evolution import (packet_centroid, propagate_maxwell, propagate_scalar,
                        propagate_weyl, SpinorField, VectorField3)
from .relativity import (BeamState, BoostParams, FourMomentum,
                         aberrate_direction, boost_beam, boost_four_momentum,
                         doppler_factor, momentum_boost_generator)
from .spectral import analyze, analyze_fast, fourier_full, \
    fourier_full_inverse, synthesize
from .transforms import HalfLineFunction, _hilbert, _hilbert_core, \
    _trig_rows, hilbert_even, hilbert_odd, hilbert_signed, trig_transform
from ._fd import derivative as fd_derivative

MACHINE_FLOOR = 1e-12
PROBE_COUNT = 8      # packets in each shared probe suite
PACKET_WIDTH = 10.0  # window width of the ledger's fixed packets
PACKET_K = 8.0       # and their carrier momentum
RK4_TIMES = (0.0, 5.0, 10.0)  # of the stepped entry, on the n_half grid
# half-line probes per kernel call: at grid 1024 one stack of all 50 is no
# faster and lifts the peak RSS of four ledger runs from 60.8 to 66.3 MiB
HALF_LINE_STACK = 10


@dataclass(frozen=True)
class RunConfig:
    n_half: int = 256
    extent: float = 40.0
    seed: int = 7
    tol_scale: float = 1.0

    def __post_init__(self):
        if not self.n_half >= 2 * MIN_N_HALF:   # the ledger runs n_half // 2
            raise ValueError(f"n_half must be at least {2 * MIN_N_HALF}")
        for n in (self.n_half // 2, self.n_half, 2 * self.n_half):
            axis_spacing(n, self.extent)
        if not 0.0 <= self.tol_scale < np.inf:
            raise ValueError("tol_scale must be finite and non-negative")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")
        for name, kind in (("n_half", int), ("extent", float),
                           ("tol_scale", float)):   # so JSON takes them
            object.__setattr__(self, name, kind(getattr(self, name)))


@dataclass(frozen=True)
class VerificationEntry:
    label: str
    identity: str
    residual: float
    tolerance: float
    passed: bool
    grid: dict


@dataclass
class VerificationReport:
    config: dict
    entries: list = field(default_factory=list)

    @property
    def n_passed(self) -> int:
        return sum(e.passed for e in self.entries)

    @property
    def n_failed(self) -> int:
        return len(self.entries) - self.n_passed

    @property
    def all_passed(self) -> bool:
        return self.n_failed == 0

    def to_text(self) -> str:
        w = max(len(e.label) for e in self.entries) + 2
        lines = [f"{'identity':<{w}}{'residual':>12}  {'tolerance':>10}  status"]
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            lines.append(f"{e.label:<{w}}{e.residual:>12.3e}  "
                         f"{e.tolerance:>10.2e}  {status}")
        lines.append(f"summary: {self.n_passed} pass, {self.n_failed} fail")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "entries": [asdict(e) for e in self.entries],
            "summary": {"passed": self.n_passed, "failed": self.n_failed},
        }
        return json.dumps(payload, indent=1, sort_keys=True)


def rel_err(got, want, mask=None) -> float:
    """Relative 2-norm error of `got` against `want`, optionally masked."""
    got = np.asarray(got)
    want = np.asarray(want)
    if mask is not None:
        got, want = got[mask], want[mask]
    den = np.linalg.norm(want)
    if den == 0.0:
        return float(np.linalg.norm(got))
    return float(np.linalg.norm(got - want) / den)


def _ratio(num: float, den: float) -> float:
    """num / den, read as 0 when both are 0 and inf when only den is."""
    if den:
        return num / den
    return 0.0 if num == 0.0 else float("inf")


def _draw_suites(cfg: RunConfig) -> dict:
    """The config, both grids and the shared suites as draws in draw order;
    sections sample what they read; the coarse `probes` are sampled here."""
    rng = np.random.default_rng(cfg.seed)
    grid = make_grid(cfg.n_half, cfg.extent)
    fine = make_grid(2 * cfg.n_half, cfg.extent)
    halves = [(rng.uniform(1.5, 4.0), rng.uniform(0.05, 0.1) * grid.extent,
               rng.uniform(0.2, 0.4) * grid.extent) for _ in range(50)]
    probes = [random_packet(grid, rng) for _ in range(PROBE_COUNT)]
    fine_probes = [_draw_wavelets(fine, rng) for _ in range(PROBE_COUNT)]
    fine_soft = [_draw_wavelets(fine, rng, 2.5) for _ in range(PROBE_COUNT)]
    # kept away from the origin (1/lambda), the edges and unresolved carriers
    annular = [_draw_wavelets(fine, rng, 2.0, signs=(-1.0, 1.0),
                              centers=(0.25, 0.35), widths=(0.06, 0.10))
               for _ in range(PROBE_COUNT)]
    return dict(cfg=cfg, grid=grid, fine=fine, halves=halves, probes=probes,
                fine_probes=fine_probes, fine_soft=fine_soft, annular=annular)


def _half_line_stack(stack, mask80):
    """Per probe of `stack`: the cos and sin trig round-trip errors, the
    spectral He and Ho against the quadrature backend, and He Ho and Ho He
    against -1.  Each spectral stage is one kernel call over the whole
    stack, every probe twice (cos rows and He, then sin rows and Ho); row
    by row those are the bits of one-probe calls."""
    m, h = len(stack), stack[0].spacing
    rows = [f.values for f in stack] * 2
    kinds = ("cos",) * m + ("sin",) * m
    parities = ("even",) * m + ("odd",) * m
    back = _trig_rows(_trig_rows(rows, h, kinds),
                      stack[0].conjugate_spacing(), kinds)
    spec = _hilbert_core(rows, h, parities, "spectral")
    # He Ho f and Ho He f, both from the spectral transforms above
    inv = _hilbert_core([*spec[m:], *spec[:m]], h, parities, "spectral")
    for j, f in enumerate(stack):
        he_q = hilbert_even(f, backend="quadrature").values
        ho_q = hilbert_odd(f, backend="quadrature").values
        yield (rel_err(back[j], f.values), rel_err(back[m + j], f.values),
               rel_err(spec[j], he_q, mask80),
               rel_err(spec[m + j], ho_q, mask80),
               rel_err(inv[j], -f.values, mask80),
               rel_err(inv[m + j], -f.values, mask80))


def _half_line_transforms(cfg, grid, halves, probes, **_):
    mask80 = np.arange(grid.n_half) < int(0.8 * grid.n_half)
    r_cos = r_sin = r_he = r_ho = r_eo = r_oe = r_backend = 0.0
    for i in range(0, len(halves), HALF_LINE_STACK):
        stack = [HalfLineFunction(grid.h, gaussian_packet(grid, *d).values[
            grid.n_half:]) for d in halves[i:i + HALF_LINE_STACK]]
        for e_cos, e_sin, e_he, e_ho, e_eo, e_oe in _half_line_stack(
                stack, mask80):
            r_cos, r_sin = max(r_cos, e_cos), max(r_sin, e_sin)
            r_he, r_ho = max(r_he, e_he), max(r_ho, e_ho)
            r_backend = max(r_backend, e_he / 2.0, e_ho / 2.0)
            r_eo, r_oe = max(r_eo, e_eo), max(r_oe, e_oe)
    yield "trig cos self-inverse", "Fc~ Fc = 1", r_cos, 1e-10
    yield "trig sin self-inverse", "Fs~ Fs = 1", r_sin, 1e-10
    yield "ledger even hilbert", "Fs~ Fc = -He", r_he, 1e-2
    yield "ledger odd hilbert", "Fc~ Fs = Ho", r_ho, 1e-2
    yield ("hilbert backends agree",
           "spectral vs quadrature within 2x estimate", r_backend, 1e-2)
    yield "even-odd inversion", "He Ho = -1", r_eo, 1e-2
    yield "odd-even inversion", "Ho He = -1", r_oe, 1e-2

    interior = grid.interior_mask()
    r_pm = r_mp = 0.0
    for f in probes:
        pm = hilbert_signed(hilbert_signed(f, "plus"), "minus").values
        mp = hilbert_signed(hilbert_signed(f, "minus"), "plus").values
        r_pm = max(r_pm, rel_err(pm, -f.values, interior))
        r_mp = max(r_mp, rel_err(mp, -f.values, interior))
    yield "signed inversion +-", "Hplus Hminus = -1", r_pm, 1e-2
    yield "signed inversion -+", "Hminus Hplus = -1", r_mp, 1e-2

    # intertwining of multiplication by k with the radial derivative
    r_twine = 0.0
    sg = grid.conjugate()
    dk, kpos = sg.dk, sg.positive_nodes()
    rng_t = np.random.default_rng(cfg.seed + 4)
    mask_tw = mask80 & (np.arange(grid.n_half) >= 2)  # skip one-sided rows
    for _ in range(5):
        k0 = rng_t.uniform(1.5, 3.0)
        spec = np.exp(-(((kpos - k0) / 1.0) ** 2)) \
            * (rng_t.normal() + 1j * rng_t.normal())
        a_cos, a_sin, ka_cos, ka_sin = (
            trig_transform(HalfLineFunction(dk, x), kind).values
            for x in (spec, kpos * spec) for kind in ("cos", "sin"))
        for sgn_i in (1.0, -1.0):
            lhs = ka_cos + sgn_i * 1j * ka_sin
            base = a_cos + sgn_i * 1j * a_sin
            rhs = -sgn_i * 1j * fd_derivative(base, grid.h)
            r_twine = max(r_twine, rel_err(lhs, rhs, mask_tw))
    yield "derivative intertwining", "Fpm~ k = -/+ i d_r Fpm~", r_twine, 1e-2


def _unitary_map(cfg, grid, fine, probes, **_):
    def unitarity_error(g):
        rng_u = np.random.default_rng(cfg.seed + 1)
        worst = 0.0
        for f in (random_packet(g, rng_u) for _ in range(4)):
            back = synthesize(analyze(f)).values
            worst = max(worst, rel_err(back, f.values, g.interior_mask()))
        return worst

    err_coarse, err_fine = unitarity_error(grid), unitarity_error(fine)
    yield "unitary round-trip", "Usynth Uanalyze = 1", err_coarse, 1e-2
    if err_coarse <= MACHINE_FLOOR and err_fine <= MACHINE_FLOOR:
        shortfall = 0.0  # exact at both sizes: converged to the floor
    else:
        order = np.log2(max(err_coarse, MACHINE_FLOOR)
                        / max(err_fine, MACHINE_FLOOR))
        shortfall = max(0.0, 1.8 - order)
    yield ("unitary round-trip order", "error order >= 1.8 under doubling",
           shortfall, 0.05)

    phis = [analyze(f) for f in probes]
    r_par = r_fast = 0.0
    for f, phi in zip(probes[:4], phis):
        r_fast = max(r_fast, rel_err(analyze_fast(f).values, phi.values))
        back = analyze(synthesize(phi))
        r_par = max(r_par, rel_err(back.values, phi.values))
    yield "profile round-trip", "Uanalyze Usynth = 1", r_par, 1e-2
    yield ("fast route equals structural", "FFT route = trig route", r_fast,
           1e-10)

    # relative to |a||b| (Cauchy-Schwarz), not to <a,b>, which may be ~0
    r_parseval = 0.0
    for a, b, phi_a, phi_b in zip(probes, probes[1:], phis, phis[1:]):
        lhs = spectral_inner_product(phi_a, phi_b, "k")
        rhs = inner_product(a, b, "inv_r")
        den = np.sqrt(inner_product(a, a, "inv_r").real
                      * inner_product(b, b, "inv_r").real)
        r_parseval = max(r_parseval, abs(lhs - rhs) / den)
    yield ("unitarity of the weighted pair",
           "<Ua,Ub> k-weight = <a,b> 1/r-weight", r_parseval, 1e-2)


def _hamiltonian_forms(grid, probes, **_):
    yield ("hamiltonian triangle", "left = right = spectral (pairwise)",
           pbar0_triangle_residual(grid, probes), 2e-2)

    left, right, p_op = pbar0(grid, "left"), pbar0(grid, "right"), pbar(grid)
    r_sq = max(rel_err(left.kernel(right.kernel(g)),
                       p_op.kernel(p_op.kernel(g)), grid.interior_mask())
               for g in map(g_values, probes[:4]))
    yield "squared hamiltonian", "(p0)^2 = pbar^2", r_sq, 2e-2

    pkt = gaussian_packet(grid, PACKET_K / 2.0, PACKET_WIDTH)
    spec_h = pbar0(grid, "spectral")
    out = spec_h.apply(pkt)
    m_eig = np.abs(grid.nodes) < PACKET_WIDTH / 2.0
    yield ("hamiltonian eigenaction",
           "p0 (windowed wave_k) = k (windowed wave_k)",
           rel_err(out.values, (PACKET_K / 2.0) * pkt.values, m_eig), 2e-2)

    worst_q = min(0.0, *(rayleigh_quotient(op, f) for f in probes
                         for op in (spec_h, left)))
    yield ("hamiltonian positivity", "Rayleigh quotients of p0 >= 0",
           max(0.0, -worst_q), 1e-3)


def _adjoint_suite(cfg, grid, fine, probes, fine_probes, **_):
    fine_probes = [_wavelet_sum(fine, d) for d in fine_probes]
    pt = radial_momentum_tilde(fine)
    yield ("radial momentum symmetric", "<a, pt b> = <pt a, b> (unit weight)",
           adjoint_residual(pt, pt, "unit", fine_probes), 1e-3, fine)

    a_c = sample_field(lambda x: np.exp(-x ** 2) / x, fine)
    b_j = sample_field(lambda x: np.exp(-x ** 2) / np.abs(x), fine)
    defect = inner_product(a_c, pt.apply(b_j), "unit") \
        - inner_product(pt.apply(a_c), b_j, "unit")
    big_a, big_b = np.conj(fine.nodes * a_c.values), fine.nodes * b_j.values
    nf = fine.n_half
    predicted = 1j * (big_a[nf] * big_b[nf] - big_a[nf - 1] * big_b[nf - 1])
    yield ("origin surface term", "symmetry defect = i jump(conj(ra) rb)|0",
           abs(defect - predicted) / abs(predicted), 0.10, fine)
    p_op = pbar(grid)
    yield ("weighted momentum self-adjoint", "<a, pbar b> = <pbar a, b> (1/r)",
           adjoint_residual(p_op, p_op, "inv_r", probes), 1e-3)

    w_plus = LinearOperatorHandle("Wplus", grid,
                                  lambda g: _hilbert(g, grid, "plus"))
    w_minus = LinearOperatorHandle("Wminus", grid,
                                   lambda g: -_hilbert(g, grid, "minus"))
    yield ("signed hilbert adjoints",
           "(r^-1/2 Hplus r^1/2)+ = -(r^-1/2 Hminus r^1/2)",
           adjoint_residual(w_plus, w_minus, "inv_r", probes), 1e-2)

    n_op = boost_generator_config(fine, "h_first")
    rng_n = np.random.default_rng(cfg.seed + 2)
    # alternate packet centers so consecutive probe pairs barely overlap;
    # the residual of the axial N is controlled by the pair overlap
    n_probes = [gaussian_packet(
        fine, rng_n.uniform(0.9, 1.1) * PACKET_K, PACKET_WIDTH,
        (-1.0 if i % 2 else 1.0) * rng_n.uniform(4.0, 7.0), rep="f")
        for i in range(PROBE_COUNT)]
    yield ("boost generator hermitian", "<a, N b> = <N a, b> (1/r)",
           adjoint_residual(n_op, n_op, "inv_r", n_probes), 5e-2, fine)
    yield ("boost generator orderings", "Hminus-first = Hplus-last",
           boost_ordering_residual(fine, fine_probes[:4]), 5e-2, fine)
    nl = boost_generator_local(fine)
    yield ("boost generator factors", "N = (r^-1/2 Hminus r^1/2) (i N')",
           max(rel_err(n_op.kernel(g), _hilbert(1j * nl.kernel(g), fine,
                                                "minus"))
               for g in map(g_values, fine_probes)), MACHINE_FLOOR, fine)


def _commutator_suite(grid, fine, probes, fine_soft, annular, **_):
    fine_soft = [_wavelet_sum(fine, d) for d in fine_soft]
    annular = [_wavelet_sum(fine, d) for d in annular]
    n_op = boost_generator_config(fine, "h_first")
    h_op, p_op = pbar0(fine, "spectral"), pbar(fine)
    yield ("boost-energy commutator", "[N, p0] = i pbar",
           commutator_residual(n_op, h_op, p_op, 1j, fine_soft), 5e-2, fine)
    yield ("boost-momentum commutator", "[N, pbar] = i p0",
           commutator_residual(n_op, p_op, h_op, 1j, fine_soft), 5e-2, fine)

    nl = boost_generator_local(fine)
    s0, s3 = four_vector_ops(fine, "s")
    t0, t3 = four_vector_ops(fine, "t")
    for pair, a, b, op_a, op_b in (
            ("1/r pair (time)", "s0", "s3", s0, s3),
            ("1/r pair (axial)", "s3", "s0", s3, s0),
            ("derivative pair (time)", "t0", "t3", t0, t3),
            ("derivative pair (axial)", "t3", "t0", t3, t0)):
        yield (f"local boost with {pair}", f"[N', {a}] = i {b}",
               commutator_residual(nl, op_a, op_b, 1j, annular), 5e-2, fine)

    # both act on f, so they are conjugated by sqrt|lambda| on g
    root, sgn = np.sqrt(np.abs(grid.nodes)), np.sign(grid.nodes)
    dr = LinearOperatorHandle("d_r", grid,
                              lambda g: root * sgn * _dhalf(g / root, grid))
    hp = LinearOperatorHandle("Hplus", grid,
                              lambda g: root * _hilbert(g / root, grid, "plus"))
    witness = commutator_residual(dr, hp, None, 1.0, probes[:4])
    yield ("noncommutation witness", "[d_r, Hplus] bounded away from zero",
           max(0.0, 10 * 5e-2 - witness), 1e-12)


def _evolution(cfg, grid, **_):
    pkt = gaussian_packet(grid, PACKET_K, PACKET_WIDTH / 2.0, -8.0)
    res = propagate_scalar(pkt, [0.0, 4.0, 8.0])
    norms = res.diagnostics["norm"]
    yield ("norm conservation (spectral)", "d/dt <psi,psi>_1/r = 0",
           float(np.max(np.abs(norms - norms[0])) / norms[0]), 1e-10)
    rho_min = float(np.min(res.diagnostics["min_rho"]))
    rho_max = float(np.max(res.diagnostics["max_rho"]))
    # rho = |g|^2 + |Hg|^2 >= 0, so max rho = 0 leaves nothing negative
    yield ("density positivity", "rho >= 0 pointwise",
           max(0.0, _ratio(-rho_min, rho_max)), 1e-6)
    c = [packet_centroid(snap) for snap in res.snapshots]
    yield ("packet speed (scalar)", "centroid speed = 1",
           abs((c[2] - c[0]) / 8.0 - 1.0), 2e-2)

    nrk = propagate_scalar(gaussian_packet(grid, 3.0, 6.0, -10.0),
                           RK4_TIMES, method="rk4").diagnostics["norm"]
    yield ("norm conservation (rk4)", "d/dt <psi,psi>_1/r = 0 (stepped)",
           float(np.max(np.abs(nrk - nrk[0])) / nrk[0]), 1e-4)

    def cont_resid(n, steps):
        p = gaussian_packet(make_grid(n, cfg.extent), 6.0, 5.0, -8.0)
        rr = propagate_scalar(p, np.linspace(0.0, 2.0, steps))
        return np.nanmax(rr.diagnostics["continuity_residual"])

    rc, rf = cont_resid(grid.n_half // 2, 5), cont_resid(grid.n_half, 9)
    yield ("continuity order", "dt rho + div J -> 0 at order >= 1.8",
           max(0.0, 1.8 - np.log2(rc / rf)), 0.05)

    wres = propagate_weyl(SpinorField(grid, "g", pkt.values,
                                      np.zeros(grid.size)), [0.0, 6.0])
    cu = [packet_centroid(snap.component(0)) for snap in wres.snapshots]
    yield ("packet speed (spinor)", "upper component speed = +1",
           abs((cu[1] - cu[0]) / 6.0 - 1.0), 2e-2)

    # i dPsi/dt at eps by a centered difference, second order in eps;
    # sigma . pbar is pbar on the upper component and -pbar on the lower
    ws = propagate_weyl(SpinorField(grid, "g", pkt.values, np.conj(
        pkt.values)), [0.0, 1e-4, 2e-4]).snapshots
    p_op = pbar(grid)
    gen = np.stack([p_op.kernel(ws[1].up), -p_op.kernel(ws[1].down)])
    s0, s2 = (np.stack([s.up, s.down]) for s in (ws[0], ws[2]))
    gap = np.max(np.abs(1j * (s2 - s0) / 2e-4 - gen))
    yield ("Weyl generator", "i dPsi/dt = sigma . pbar Psi",
           _ratio(float(gap), float(np.max(np.abs(gen)))), 1e-6)

    wvals = pkt.values
    mres = propagate_maxwell(VectorField3(grid, "g", np.stack(
        [wvals, 1j * wvals, np.zeros(grid.size, dtype=complex)])), [0.0, 6.0])
    cm = [packet_centroid(snap.component(0)) for snap in mres.snapshots]
    yield ("packet speed (vector)", "circular (w, iw, 0) speed = +1",
           abs((cm[1] - cm[0]) / 6.0 - 1.0), 2e-2)

    sg = grid.conjugate()
    gt = g_values(mres.snapshots[1].component(0))
    back = fourier_full_inverse(np.exp(1j * sg.nodes * 6.0)
                                * fourier_full(gt, grid), sg)
    yield ("vector wave translates", "F(t) = F(0) shifted by t",
           float(np.max(np.abs(back - wvals)) / np.max(np.abs(wvals))), 1e-6)


def _stacked_kinematics(rng):
    """The worst null, aberration and Doppler gaps over 1000 random boosts
    of random null rays, drawn and run as stacks through the public
    functions."""
    rays = rng.normal(size=(2, 1000, 3))
    ns, axes = rays / np.sqrt(np.vecdot(rays, rays))[..., None]
    vs = rng.uniform(-0.95, 0.95, 1000)
    b = BoostParams(vs, axes)
    kp = boost_four_momentum(FourMomentum(np.ones(1000), ns), b)
    k_norm = np.sqrt(np.vecdot(kp.k, kp.k))   # np.linalg.norm's bits, per row
    return (np.max(np.abs(kp.k0 - k_norm) / kp.k0),
            np.max(np.abs(aberrate_direction(ns, b) - kp.k / k_norm[:, None])),
            np.max(np.abs(doppler_factor(ns, b) - kp.k0)))


def _kinematics(cfg, grid, fine, **_):
    null, aberration, doppler = _stacked_kinematics(
        np.random.default_rng(cfg.seed + 3))
    yield "null preservation", "boosted k stays null", null, 1e-10
    yield ("aberration consistency", "direction formula = normalized boost",
           aberration, 1e-12)
    yield ("doppler consistency", "gamma (1 - v cos) = boosted k0",
           doppler, 1e-12)
    b6 = BoostParams(0.6, np.array([0.0, 0.0, 1.0]))
    yield ("parallel doppler", "gamma (1 - v) at v = 0.6 equals 1/2",
           abs(doppler_factor(np.array([0.0, 0.0, 1.0]), b6) - 0.5), 1e-12)

    def forward_beam(sgrid):
        kap = sgrid.nodes
        phi = SpectralProfile(sgrid, np.where(
            kap > 0, np.exp(-(((kap - PACKET_K) / 1.0) ** 2)), 0.0
        ).astype(complex))
        return phi, BeamState(np.array([0.0, 0.0, 1.0]), phi)

    phi, beam = forward_beam(grid.conjugate())
    out_b = boost_beam(beam, b6)[0]
    yield ("beam norm invariance", "sum |phi|^2 dk/k preserved by boosts",
           _ratio(abs(spectral_norm(out_b.profile, "inv_k")
                      - spectral_norm(phi, "inv_k")),
                  spectral_norm(phi, "inv_k")), 5e-3)

    gen = momentum_boost_generator(phi).values
    consts = []
    for dv in (1e-3, 5e-4):
        moved = boost_beam(beam, BoostParams(dv, beam.direction))[0]
        lin = phi.values - 1j * dv * gen
        consts.append(float(np.max(np.abs(moved.profile.values - lin)))
                      / dv ** 2)
    yield ("finite vs infinitesimal boost",
           "|boost(dv) - (1 - i dv N_k)| = O(dv^2), stable constant",
           _ratio(abs(consts[0] - consts[1]), consts[1]), 0.2)

    fphi, fbeam = forward_beam(fine.conjugate())
    psi = synthesize(fphi)
    psi_g = g_values(psi)
    dv = 2e-4
    moved = boost_beam(fbeam, BoostParams(dv, fbeam.direction))[0].profile
    dactual = g_values(synthesize(moved)) - psi_g
    dpred = -1j * dv * boost_generator_config(fine, "h_first").kernel(psi_g)
    yield ("generator cancellation across modules",
           "boost flow of phi = -i dv N acting on psi",
           rel_err(dactual, dpred, fine.interior_mask()), 5e-2, fine)


# each yields (label, identity, residual, tolerance[, grid]) in report order
_SECTIONS = (_half_line_transforms, _unitary_map, _hamiltonian_forms,
             _adjoint_suite, _commutator_suite, _evolution, _kinematics)


def run_verification(config: RunConfig | None = None) -> VerificationReport:
    cfg = config or RunConfig()
    suites = _draw_suites(cfg)
    report = VerificationReport(config=asdict(cfg))
    for section in _SECTIONS:
        for label, identity, residual, tol, *on in section(**suites):
            grid, tol = (on or [suites["grid"]])[0], tol * cfg.tol_scale
            report.entries.append(VerificationEntry(
                label=label, identity=identity, residual=float(residual),
                tolerance=float(tol), passed=bool(residual <= tol),
                grid={"n_half": grid.n_half, "extent": grid.extent}))
    return report
