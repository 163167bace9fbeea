import warnings

import numpy as np
import pytest

from axiwave import evolution
from axiwave.grids import (AxialField, convert_rep, gaussian_packet, make_grid,
                           random_packet)
from axiwave.evolution import (SpinorField, VectorField3, density_current,
                               packet_centroid, propagate_maxwell,
                               propagate_scalar, propagate_wave,
                               propagate_weyl, sigma_density,
                               RK4_STABILITY_FACTOR)
from axiwave.spectral import fourier_full, fourier_full_inverse
from axiwave.verify import rel_err

GRID = make_grid(256, 40.0)


def fwd_packet(k0=8.0, width=5.0, center=-8.0):
    return gaussian_packet(GRID, k0, width=width, center=center)


def test_time_grid_validation():
    pkt = fwd_packet()
    with pytest.raises(ValueError):
        propagate_scalar(pkt, [1.0, 2.0])
    with pytest.raises(ValueError):
        propagate_scalar(pkt, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        propagate_scalar(pkt, [0.0, 1.0], method="nope")


@pytest.mark.parametrize("propagate", [
    lambda w, t: propagate_scalar(w, t),
    lambda w, t: propagate_scalar(w, t, method="rk4"),
    lambda w, t: propagate_wave(w, AxialField(w.grid, "g", 0 * w.values), t),
    lambda w, t: propagate_weyl(SpinorField(w.grid, "g", w.values,
                                            0 * w.values), t),
    lambda w, t: propagate_maxwell(VectorField3(w.grid, "g", [
        w.values, 1j * w.values, 0 * w.values]), t)],
    ids=["scalar", "rk4", "wave", "weyl", "maxwell"])
@pytest.mark.parametrize("t", [[0.0, np.inf], [0.0, 1.0, np.inf, np.inf],
                               [0.0, -np.inf]], ids=["inf", "infs", "-inf"])
def test_infinite_time_is_refused_before_any_work(propagate, t):
    w = convert_rep(fwd_packet(), "g")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="time grid must be finite"):
            propagate(w, t)


def test_scalar_packet_translates_forward():
    pkt = fwd_packet()
    t_end = 8.0
    res = propagate_scalar(pkt, [0.0, 4.0, t_end])
    c = [packet_centroid(s) for s in res.snapshots]
    assert abs((c[2] - c[0]) / t_end - 1.0) <= 0.02
    assert abs(c[1] - c[0] - 4.0) <= GRID.h + 0.02 * 4.0


def test_scalar_negative_branch_translates_backward():
    pkt = gaussian_packet(GRID, -8.0, width=5.0, center=8.0)
    res = propagate_scalar(pkt, [0.0, 6.0])
    c0, c1 = (packet_centroid(s) for s in res.snapshots)
    assert abs((c1 - c0) / 6.0 + 1.0) <= 0.02


def test_scalar_shape_preserved_dispersionless():
    # single-sided packet: the propagated snapshot shifted back equals the
    # initial data except for spectral leakage across kappa = 0
    pkt = fwd_packet()
    t_end = 5.0
    res = propagate_scalar(pkt, [0.0, t_end])
    g_t = convert_rep(res.snapshots[1], "g").values
    sg = GRID.conjugate()
    ghat = fourier_full(g_t, GRID)
    g_back = fourier_full_inverse(np.exp(1j * sg.nodes * t_end) * ghat, sg)
    g0 = convert_rep(pkt, "g").values
    assert np.max(np.abs(g_back - g0)) <= 1e-8 * np.max(np.abs(g0))


def test_scalar_norm_conserved_spectral():
    pkt = fwd_packet()
    res = propagate_scalar(pkt, np.linspace(0.0, 10.0, 6))
    norms = res.diagnostics["norm"]
    assert np.max(np.abs(norms - norms[0])) <= 1e-10 * norms[0]


def test_scalar_density_nonnegative():
    pkt = fwd_packet()
    res = propagate_scalar(pkt, np.linspace(0.0, 10.0, 6))
    assert np.min(res.diagnostics["min_rho"]) >= -1e-6 * np.max(
        res.diagnostics["max_rho"])


def test_rk4_matches_spectral():
    pkt = gaussian_packet(GRID, 4.0, width=6.0, center=-6.0)
    t = [0.0, 1.0]
    spec = propagate_scalar(pkt, t, method="spectral")
    rk = propagate_scalar(pkt, t, method="rk4", dt=GRID.h / 4.0)
    a = convert_rep(spec.snapshots[1], "g").values
    b = convert_rep(rk.snapshots[1], "g").values
    assert rel_err(b, a, GRID.interior_mask()) <= 0.01


def test_rk4_norm_drift_and_cfl():
    pkt = gaussian_packet(GRID, 4.0, width=6.0, center=-10.0)
    res = propagate_scalar(pkt, [0.0, 5.0, 10.0], method="rk4",
                           dt=GRID.h / 4.0)
    norms = res.diagnostics["norm"]
    assert np.max(np.abs(norms - norms[0])) <= 1e-4 * norms[0]
    for dt in (1.01 * RK4_STABILITY_FACTOR * GRID.h, 0.0, -GRID.h):
        with pytest.raises(ValueError, match="stability"):
            propagate_scalar(pkt, [0.0, 1.0], method="rk4", dt=dt)


def test_rk4_steps_alike_at_every_grid_scale():
    # a grid and its times rescaled by a power of 2 give the same g
    # snapshots, bit for bit: each time is reached relative to the step
    g = convert_rep(random_packet(make_grid(32, 8.0),
                                  np.random.default_rng(62)), "g").values
    runs = []
    for p in (-50, 0, 50):
        grid = make_grid(32, 8.0 * 2.0 ** p)
        t = np.array([0.0, 0.5, 1.3]) * 2.0 ** p
        res = propagate_scalar(AxialField(grid, "g", g), t, method="rk4")
        runs.append([s.values for s in res.snapshots])
    assert not np.array_equal(runs[1][0], runs[1][-1])
    for run in runs[::2]:
        assert all(np.array_equal(a, b)
                   for a, b in zip(run, runs[1], strict=True))


def test_density_current_uniform_on_window():
    lam = GRID.nodes
    gvals = np.exp(-((lam / 12.0) ** 8)) * np.exp(1j * 6.0 * lam)
    pkt = AxialField(GRID, "g", gvals)
    rho, j = density_current(pkt)
    mask = np.abs(lam) < 3.0
    np.testing.assert_allclose(rho[mask], 2.0, rtol=1e-2)
    np.testing.assert_allclose(j[mask], 2.0, rtol=1e-2)
    assert np.all(j[mask] > 0.0)  # current points along +n
    z = AxialField(GRID, "f", np.zeros(GRID.size))
    rho0, j0 = density_current(z)
    assert np.all(rho0 == 0.0) and np.all(j0 == 0.0)


def test_divergence_product_lemma():
    # (1/l) d(l A) B + A (1/l) d(l B) = (1/l^2) d(l^2 A B): the discrete
    # product rule behind the continuity law, as a standalone lemma
    from axiwave._fd import derivative_per_half
    grid = make_grid(512, 40.0)
    lam = grid.nodes
    rng = np.random.default_rng(70)
    for _ in range(5):
        a = gaussian_packet(grid, rng.uniform(-2, 2), width=6.0,
                            center=rng.uniform(-5, 5)).values
        b = gaussian_packet(grid, rng.uniform(-2, 2), width=6.0,
                            center=rng.uniform(-5, 5)).values

        def d(v):
            return derivative_per_half(v, grid.n_half, grid.h)

        lhs = d(lam * a) / lam * b + a * d(lam * b) / lam
        rhs = d(lam ** 2 * a * b) / lam ** 2
        # the 1/lambda^2 amplification magnifies the one-sided stencil rows
        # next to the origin; the lemma is checked on centered-stencil nodes
        mask = grid.interior_mask() & (np.abs(lam) > 2.5 * grid.h)
        assert rel_err(lhs, rhs, mask) <= 1e-3


def test_continuity_residual_refines_at_second_order():
    def residual_at(n, steps):
        grid = make_grid(n, 40.0)
        pkt = gaussian_packet(grid, 6.0, width=5.0, center=-8.0)
        times = np.linspace(0.0, 2.0, steps)
        res = propagate_scalar(pkt, times)
        mid = res.diagnostics["continuity_residual"]
        return np.nanmax(mid)

    coarse = residual_at(128, 5)
    fine = residual_at(256, 9)
    order = np.log2(coarse / fine)
    assert order >= 1.8


def test_continuity_residual_of_degenerate_triples():
    # a vanishing density reads 0; an overflowed one (inf - inf, or a
    # finite difference over a tiny step) reads NaN, not 0
    grid = make_grid(16, 40.0)
    zero, inf = np.zeros(grid.size), np.full(grid.size, np.inf)
    assert evolution._continuity_residual(1.0, zero, zero, zero, grid) == 0.0
    with np.errstate(all="ignore"):
        for dt2, before, after in ((1.0, inf, inf),
                                   (1e-10, zero, np.full(grid.size, 1e308))):
            assert np.isnan(evolution._continuity_residual(
                dt2, before, zero, after, grid))


def test_wave_matched_right_mover_translates():
    grid = GRID
    pkt = gaussian_packet(grid, 6.0, width=5.0, center=-8.0)
    g0 = pkt.values
    # matched velocity: dt g = -dlambda g  <=>  ghatdot = -i kappa ghat
    sg = grid.conjugate()
    ghat = fourier_full(g0, grid)
    gdot = fourier_full_inverse(-1j * sg.nodes * ghat, sg)
    psidot = convert_rep(AxialField(grid, "g", gdot), "g")
    t_end = 4.0
    res = propagate_wave(pkt, psidot, [0.0, t_end])
    g_t = convert_rep(res.snapshots[1][0], "g").values
    shift = fourier_full_inverse(np.exp(1j * sg.nodes * t_end)
                                 * fourier_full(g_t, grid), sg)
    assert np.max(np.abs(shift - g0)) <= 1e-8 * np.max(np.abs(g0))


def test_wave_even_data_splits():
    grid = GRID
    lam = grid.nodes
    g0 = np.exp(-((lam / 4.0) ** 2))
    psi0 = AxialField(grid, "g", g0)
    zero = AxialField(grid, "g", np.zeros(grid.size))
    t_end = 6.0
    res = propagate_wave(psi0, zero, [0.0, t_end])
    g_t = convert_rep(res.snapshots[1][0], "g").values
    dalembert = 0.5 * (np.exp(-(((lam - t_end) / 4.0) ** 2))
                       + np.exp(-(((lam + t_end) / 4.0) ** 2)))
    assert rel_err(g_t, dalembert) <= 1e-6


def test_sigma_density_indefinite():
    # mix of positive- and negative-frequency packets: both signs appear
    grid = GRID
    sg = grid.conjugate()
    p1 = gaussian_packet(grid, 6.0, width=4.0, center=-8.0).values
    p2 = np.conj(gaussian_packet(grid, 6.0, width=4.0, center=8.0).values)
    g0 = p1 + p2
    ghat = fourier_full(g0, grid)
    # frequencies: -|k| for the forward packet, +|k| for the conjugate one
    gdot1 = fourier_full(-1j * 6.0 * p1, grid)
    gdot2 = fourier_full(+1j * 6.0 * p2, grid)
    gdot = fourier_full_inverse(gdot1 + gdot2, sg)
    psi = AxialField(grid, "g", g0)
    psidot = AxialField(grid, "g", gdot)
    sig = sigma_density(psi, psidot)
    assert np.max(sig) > 0.1 * np.max(np.abs(sig))
    assert np.min(sig) < -0.1 * np.max(np.abs(sig))
    # propagate_wave reports the same indefiniteness
    res = propagate_wave(psi, psidot, [0.0, 1.0])
    assert res.diagnostics["sigma_min"][0] < 0.0 < res.diagnostics["sigma_max"][0]


def test_weyl_components_counterpropagate():
    grid = GRID
    up0 = gaussian_packet(grid, 8.0, width=5.0, center=-8.0)
    dn0 = gaussian_packet(grid, 8.0, width=5.0, center=8.0)
    psi0 = SpinorField(grid, "g", up0.values, dn0.values)
    t_end = 6.0
    res = propagate_weyl(psi0, [0.0, t_end])
    up_t = convert_rep(res.snapshots[1].component(0), "g").values
    dn_t = convert_rep(res.snapshots[1].component(1), "g").values
    cu0 = packet_centroid(up0)
    cu1 = packet_centroid(AxialField(grid, "g", up_t))
    cd0 = packet_centroid(dn0)
    cd1 = packet_centroid(AxialField(grid, "g", dn_t))
    assert abs((cu1 - cu0) / t_end - 1.0) <= 0.02
    assert abs((cd1 - cd0) / t_end + 1.0) <= 0.02
    # per-component norm conservation
    for key in ("norm_up", "norm_down"):
        arr = res.diagnostics[key]
        assert np.max(np.abs(arr - arr[0])) <= 1e-10 * arr[0]


def test_maxwell_forward_polarization_translates():
    grid = GRID
    w = gaussian_packet(grid, 8.0, width=5.0, center=-8.0).values
    f0 = VectorField3(grid, "g", np.stack(
        [w, 1j * w, np.zeros(grid.size, dtype=complex)]))
    t_end = 6.0
    res = propagate_maxwell(f0, [0.0, t_end])
    f_t = res.snapshots[1]
    # shape-preserving translation of both transverse components
    sg = grid.conjugate()
    for idx, ref in ((0, w), (1, 1j * w)):
        gt = convert_rep(f_t.component(idx), "g").values
        back = fourier_full_inverse(np.exp(1j * sg.nodes * t_end)
                                    * fourier_full(gt, grid), sg)
        assert np.max(np.abs(back - ref)) <= 1e-8 * np.max(np.abs(ref))
    # F3 never sourced
    assert np.all(f_t.values[2] == 0.0)


def test_maxwell_opposite_polarization_goes_backward():
    grid = GRID
    w = gaussian_packet(grid, 8.0, width=5.0, center=8.0).values
    f0 = VectorField3(grid, "g", np.stack(
        [w, -1j * w, np.zeros(grid.size, dtype=complex)]))
    t_end = 6.0
    res = propagate_maxwell(f0, [0.0, t_end])
    g1 = convert_rep(res.snapshots[1].component(0), "g").values
    c0 = packet_centroid(AxialField(grid, "g", w))
    c1 = packet_centroid(AxialField(grid, "g", g1))
    assert abs((c1 - c0) / t_end + 1.0) <= 0.02


def test_maxwell_constraint_enforced():
    grid = GRID
    w = gaussian_packet(grid, 4.0, width=5.0).values
    bad = VectorField3(grid, "g", np.stack([w, 1j * w, 0.5 * w]))
    with pytest.raises(ValueError, match="transversality"):
        propagate_maxwell(bad, [0.0, 1.0])


def test_group_velocity_all_field_types():
    grid = GRID
    t_end = 6.0
    # scalar
    s = propagate_scalar(gaussian_packet(grid, 8.0, 5.0, -8.0), [0.0, t_end])
    cs = [packet_centroid(x) for x in s.snapshots]
    # weyl upper
    w = propagate_weyl(SpinorField(
        grid, "g", gaussian_packet(grid, 8.0, 5.0, -8.0).values,
        np.zeros(grid.size)), [0.0, t_end])
    cw = [packet_centroid(AxialField(grid, "g",
                                     convert_rep(x.component(0), "g").values))
          for x in w.snapshots]
    # maxwell forward polarization
    wv = gaussian_packet(grid, 8.0, 5.0, -8.0).values
    m = propagate_maxwell(VectorField3(grid, "g", np.stack(
        [wv, 1j * wv, np.zeros(grid.size, dtype=complex)])), [0.0, t_end])
    cm = [packet_centroid(AxialField(grid, "g",
                                     convert_rep(x.component(0), "g").values))
          for x in m.snapshots]
    for c in (cs, cw, cm):
        assert abs((c[1] - c[0]) / t_end - 1.0) <= 0.02


def _initial_data(kind, rng):
    a = convert_rep(random_packet(GRID, rng), "g").values
    b = convert_rep(random_packet(GRID, rng), "g").values
    if kind in ("scalar", "rk4"):
        method = "rk4" if kind == "rk4" else "spectral"
        return [a], lambda t: [[s.values] for s in propagate_scalar(
            AxialField(GRID, "g", a), t, method=method).snapshots]
    if kind == "wave":
        return [a, b], lambda t: [[s.values, sd.values] for s, sd in
                                  propagate_wave(AxialField(GRID, "g", a),
                                                 AxialField(GRID, "g", b),
                                                 t).snapshots]
    if kind == "weyl":
        return [a, b], lambda t: [[s.up, s.down] for s in propagate_weyl(
            SpinorField(GRID, "g", a, b), t).snapshots]
    zero = np.zeros(GRID.size, dtype=complex)
    return [a, b, zero], lambda t: [list(s.values) for s in propagate_maxwell(
        VectorField3(GRID, "g", np.stack([a, b, zero])), t).snapshots]


@pytest.mark.parametrize("kind", ["scalar", "rk4", "wave", "weyl", "maxwell"])
def test_t0_snapshot_equals_input(kind):
    inputs, run = _initial_data(kind, np.random.default_rng(60))
    first = run([0.0, 0.5])[0]
    for got, want in zip(first, inputs):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(inputs[0]))


def test_maxwell_rotation_matches_circular_modes():
    # oracle: the circular combinations F1 -/+ i F2 carry exp(-/+ i kappa t)
    rng = np.random.default_rng(61)
    g1 = convert_rep(random_packet(GRID, rng), "g").values
    g2 = convert_rep(random_packet(GRID, rng), "g").values
    t = rng.uniform(1.0, 10.0)
    sg = GRID.conjugate()
    kap = sg.nodes
    p = fourier_full_inverse(np.exp(+1j * kap * t)
                             * fourier_full(g1 + 1j * g2, GRID), sg)
    m = fourier_full_inverse(np.exp(-1j * kap * t)
                             * fourier_full(g1 - 1j * g2, GRID), sg)
    f0 = VectorField3(GRID, "g", np.stack([g1, g2, np.zeros(GRID.size)]))
    got = propagate_maxwell(f0, [0.0, t]).snapshots[1].values
    scale = np.max(np.abs(np.stack([g1, g2])))
    assert np.max(np.abs(got[0] - 0.5 * (p + m))) <= 1e-12 * scale
    assert np.max(np.abs(got[1] - (p - m) / 2j)) <= 1e-12 * scale


@pytest.mark.parametrize("method", ["spectral", "rk4"])
def test_scalar_hilbert_once_per_snapshot(monkeypatch, method):
    calls = {"hilbert": 0, "fft": 0, "ifft": 0}

    def counting(name, real):
        def fn(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return fn

    monkeypatch.setattr(evolution, "hilbert_signed",
                        counting("hilbert", evolution.hilbert_signed))
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    times = np.linspace(0.0, 1.0, 5)
    propagate_scalar(fwd_packet(k0=3.0), times, method=method)
    if method == "rk4":
        assert calls["hilbert"] == len(times)
    else:
        # Hg comes from momentum space: no Hilbert transform, one forward
        # FFT, and one inverse FFT each for g and Hg per snapshot
        assert calls == {"hilbert": 0, "fft": 1, "ifft": 2 * len(times)}


def _flat_norm(g):
    return np.sqrt(np.sum(np.abs(g) ** 2) * GRID.h)


def test_wave_charge_conserved_and_matches_sigma():
    # mixed-branch data: the flat norm moves, the charge h sum sigma does not
    p1 = gaussian_packet(GRID, 6.0, width=4.0, center=-8.0).values
    p2 = np.conj(gaussian_packet(GRID, 6.0, width=4.0, center=8.0).values)
    psi = AxialField(GRID, "g", p1 + 0.5 * p2)
    psidot = AxialField(GRID, "g", -6j * p1 + 3j * p2)
    res = propagate_wave(psi, psidot, np.linspace(0.0, 6.0, 5))
    charge = res.diagnostics["charge"]
    assert np.max(np.abs(charge - charge[0])) <= 1e-10 * abs(charge[0])
    assert charge[0] == pytest.approx(
        np.sum(sigma_density(psi, psidot)) * GRID.h, rel=1e-12)
    for (s, _), nrm in zip(res.snapshots, res.diagnostics["norm"]):
        assert nrm == pytest.approx(_flat_norm(s.values), rel=1e-12)


def test_weyl_and_maxwell_mode_norms():
    up = gaussian_packet(GRID, 8.0, width=5.0, center=-8.0).values
    down = gaussian_packet(GRID, 4.0, width=3.0, center=8.0).values
    times = np.linspace(0.0, 6.0, 4)
    weyl = propagate_weyl(SpinorField(GRID, "g", up, down), times).diagnostics
    np.testing.assert_allclose(
        weyl["norm"], np.hypot(weyl["norm_up"], weyl["norm_down"]), rtol=1e-14)
    # (a, i a) moves forward, (b, -i b) backward: F1 -/+ i F2 = 2a / 2b
    f0 = VectorField3(GRID, "g", np.stack(
        [up + down, 1j * (up - down), np.zeros(GRID.size, dtype=complex)]))
    res = propagate_maxwell(f0, times)
    diag = res.diagnostics
    np.testing.assert_allclose(diag["norm_fwd"], np.sqrt(2) * _flat_norm(up),
                               rtol=1e-12)
    np.testing.assert_allclose(diag["norm_back"], np.sqrt(2) * _flat_norm(down),
                               rtol=1e-12)
    for snap, f, b in zip(res.snapshots, diag["norm_fwd"], diag["norm_back"]):
        g1, g2 = snap.values[0], snap.values[1]
        assert f == pytest.approx(_flat_norm(g1 - 1j * g2) / np.sqrt(2),
                                  rel=1e-12)
        assert b == pytest.approx(_flat_norm(g1 + 1j * g2) / np.sqrt(2),
                                  rel=1e-12)
    # circular data: the vanishing mode sits at the rounding floor of the norm
    for f0, vanishing in (([up, 1j * up], "norm_back"),
                          ([up, -1j * up], "norm_fwd")):
        f0 = VectorField3(GRID, "g", np.stack(
            f0 + [np.zeros(GRID.size, dtype=complex)]))
        diag = propagate_maxwell(f0, times).diagnostics
        assert np.max(diag[vanishing] / diag["norm"]) <= 1e-14
