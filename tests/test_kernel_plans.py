"""Cached FFT plans, the one DCT-IV trig kernel, the in-place RK4 stepper
and the half-grid transfer symbols: the same bits as the unplanned
formulas, bounded read-only caches, and the kernel call counts they save."""

import numpy as np
import pytest
import scipy.fft
from scipy.fft import dct, dst

from axiwave import evolution, spectral, transforms
from axiwave.evolution import (SpinorField, VectorField3, propagate_maxwell,
                               propagate_scalar, propagate_wave, propagate_weyl)
from axiwave.grids import (AxialField, convert_rep, make_grid, parity_join,
                           parity_split, random_packet)

SIZES = (8, 1000, 4096)
KIND_PAIRS = [(a, b) for a in ("cos", "sin") for b in ("cos", "sin")]


def unplanned_fourier_full(values, grid):
    n = grid.n_half
    j = np.arange(2 * n)
    w = np.exp(1j * np.pi * (n - 0.5) * j / n)
    c0 = np.exp(-1j * np.pi * (n - 0.5) ** 2 / n)
    spec = np.fft.fft(np.asarray(values, dtype=complex) * w)
    return grid.h / np.sqrt(2.0 * np.pi) * c0 * w * spec


def unplanned_fourier_full_inverse(values, sgrid):
    n = sgrid.n_half
    j = np.arange(2 * n)
    w = np.exp(1j * np.pi * (n - 0.5) * j / n)
    c0 = np.exp(-1j * np.pi * (n - 0.5) ** 2 / n)
    conf = np.fft.ifft(np.asarray(values, dtype=complex) * np.conj(w))
    return sgrid.dk / np.sqrt(2.0 * np.pi) * np.conj(c0 * w) * conf * (2 * n)


@pytest.mark.parametrize("n", SIZES)
def test_planned_fourier_is_bit_identical(n):
    grid = make_grid(n, 0.17 * n)
    sg = grid.conjugate()
    g = convert_rep(random_packet(grid, np.random.default_rng(n)), "g").values
    assert np.array_equal(spectral.fourier_full(g, grid),
                          unplanned_fourier_full(g, grid))
    assert np.array_equal(spectral.fourier_full_inverse(g, sg),
                          unplanned_fourier_full_inverse(g, sg))


def scipy_trig_sum(values, spacing, kind):
    """The trig transform straight from scipy's DCT-IV / DST-IV."""
    core = dct(values, type=4) if kind == "cos" else dst(values, type=4)
    return np.sqrt(2.0 / np.pi) * 0.5 * spacing * core


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kinds", KIND_PAIRS)
def test_trig_pair_is_bit_identical(n, kinds):
    rng = np.random.default_rng(n)
    a, b = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    want = [scipy_trig_sum(x, 0.3, kind) for x, kind in zip((a, b), kinds)]
    pair = transforms._trig_rows([a, b], 0.3, kinds)
    assert all(np.array_equal(p, w) for p, w in zip(pair, want, strict=True))
    for x, kind, w in zip((a, b), kinds, want):
        row, = transforms._trig_rows([x], 0.3, [kind])
        assert np.array_equal(row, w)
        assert np.array_equal(transforms._trig_sum(x, 0.3, kind), w)
    # fresh arrays: the next call must not overwrite them
    first = [p.copy() for p in pair]
    transforms._trig_rows([b, a], 0.7, kinds)
    transforms._trig_rows([b], 0.7, kinds[:1])
    assert all(np.array_equal(p, q) for p, q in zip(pair, first))


@pytest.mark.parametrize("n", [*range(8, 70), 1000, 65536])
def test_r2r_pair_is_scipys_complex_dct_bit_for_bit(n):
    # the complex DCT-IV, sin rows' odd entries negated; sign bits included
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    for kinds in KIND_PAIRS + [("cos",), ("sin",)]:
        want = dct(x[:len(kinds)], type=4)
        for row, kind in zip(want, kinds):
            if kind == "sin":
                row[1::2] = -row[1::2]
        buf = x[:len(kinds)].copy()
        assert transforms._r2r_pair(buf, kinds) is buf
        assert np.array_equal(buf.view(np.uint64), want.view(np.uint64))


def reference_hamiltonian(grid):
    """The out-of-place RK4 Hamiltonian: parity split, two two-row trig
    transforms, join."""
    n, sg = grid.n_half, grid.conjugate()
    k = sg.positive_nodes()

    def apply(g):
        ce, so = transforms._trig_rows(parity_split(g, n), grid.h,
                                       ("cos", "sin"))
        return parity_join(*transforms._trig_rows([k * ce, k * so], sg.dk,
                                                  ("cos", "sin")))

    return apply


def reference_rk4(grid, g0, t, dt):
    ham = reference_hamiltonian(grid)
    g, t_now = g0.copy(), 0.0
    for ti in t:
        while t_now < ti - 1e-12:
            step = min(dt, ti - t_now)
            k1 = -1j * ham(g)
            k2 = -1j * ham(g + 0.5 * step * k1)
            k3 = -1j * ham(g + 0.5 * step * k2)
            k4 = -1j * ham(g + step * k3)
            g = g + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t_now += step
        yield [g]


@pytest.mark.parametrize("n", SIZES + (9, 37, 255))
def test_in_place_rk4_is_bit_identical(n):
    grid = make_grid(n, 0.17 * n)
    g = convert_rep(random_packet(grid, np.random.default_rng(n)), "g").values
    assert np.array_equal(evolution._hamiltonian_g(grid)(g),
                          reference_hamiltonian(grid)(g))
    times, dt = np.array([0.0, 2.0, 5.3]) * grid.h, grid.h / 4.0
    # whole runs first: a snapshot must not change as the stepper goes on
    got = list(evolution._rk4(grid, g, times, dt))
    want = list(reference_rk4(grid, g, times, dt))
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(got, want))


def test_plan_arrays_are_read_only():
    grid = make_grid(64, 10.0)
    sg = grid.conjugate()
    plans = (spectral._forward_plan(grid.n_half, grid.h)
             + spectral._inverse_plan(sg.n_half, sg.dk)
             + transforms._pv_plan(grid.n_half, grid.h))
    for arr in plans:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_conjugate_grid_is_built_once():
    grid = make_grid(64, 10.0)
    assert grid.conjugate() is grid.conjugate()
    assert grid.conjugate().axis_grid() is grid


def test_caches_bounded_by_size_not_grids_seen():
    for i in range(20):
        grid = make_grid(8 + i, 5.0 + i)
        psi = convert_rep(random_packet(grid, np.random.default_rng(i)), "g")
        phi = spectral.analyze_fast(psi)
        spectral.fourier_full_inverse(phi.values, phi.grid)
        transforms.hilbert_signed(psi)
        transforms.hilbert_signed(psi, backend="quadrature")
    assert not hasattr(transforms, "_PV_CACHE")
    caches = [obj for mod in (spectral, transforms)
              for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    assert caches
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


@pytest.fixture
def r2r_calls(monkeypatch):
    # every r2r call in the package is the one DCT-IV in `transforms`, which
    # looks up `scipy.fft.dct` at call time: the attribute the bench tracer
    # patches too; each call records its input dtype and `overwrite_x`
    calls = []

    def counting(x, *args, _real=dct, **kwargs):
        calls.append((x.dtype, kwargs.get("overwrite_x", False)))
        return _real(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "dct", counting)
    return calls


def _packet(n=256):
    grid = make_grid(n, 40.0)
    return convert_rep(random_packet(grid, np.random.default_rng(3)), "g")


def test_spectral_hilbert_makes_two_r2r_calls(r2r_calls):
    psi = _packet()
    for sign in ("plus", "minus"):
        r2r_calls.clear()
        transforms.hilbert_signed(psi, sign)
        assert len(r2r_calls) == 2
    r2r_calls.clear()
    evolution._scalar_diagnostics(psi.grid, psi.values)
    assert len(r2r_calls) == 2


def test_rk4_hamiltonian_makes_two_r2r_calls(r2r_calls):
    psi = _packet()
    ham = evolution._hamiltonian_g(psi.grid)
    r2r_calls.clear()
    ham(psi.values)
    assert len(r2r_calls) == 2


def test_trig_transform_makes_one_r2r_call(r2r_calls):
    f = transforms.HalfLineFunction(0.1, _packet().values[256:])
    for kind in ("cos", "sin"):
        r2r_calls.clear()
        transforms.trig_transform(f, kind)
        assert len(r2r_calls) == 1


def test_trig_route_map_makes_one_r2r_call_each_way(r2r_calls):
    psi = _packet()
    phi = spectral.analyze(psi)
    assert len(r2r_calls) == 1
    r2r_calls.clear()
    spectral.synthesize(phi)
    assert len(r2r_calls) == 1


def test_r2r_calls_take_real_input_in_place(r2r_calls):
    # the float view of the complex rows, never scipy's complex branch
    psi = _packet()
    f = transforms.HalfLineFunction(0.1, psi.values[256:])
    transforms.trig_transform(f, "cos")
    transforms.trig_transform(f, "sin")
    transforms.hilbert_signed(psi)
    spectral.synthesize(spectral.analyze(psi))
    evolution._hamiltonian_g(psi.grid)(psi.values)
    dt = psi.grid.h / 4.0   # one RK4 step: four applies of -i H
    list(evolution._rk4(psi.grid, psi.values, [0.0, dt], dt))
    assert len(r2r_calls) == 1 + 1 + 2 + 2 + 2 + 4 * 2
    assert set(r2r_calls) == {(np.dtype(float), True)}


def closed_form_transfer(kind, kap, t):
    """The transfer matrices as closed forms over all 2N momentum nodes."""
    if kind == "scalar":
        e = np.exp(-1j * np.abs(kap) * t)
        return [[e, None], [None, e]]
    if kind == "weyl":
        return [[np.exp(-1j * kap * t), None], [None, np.exp(+1j * kap * t)]]
    if kind == "wave":
        a = np.abs(kap)
        c, s = np.cos(a * t), np.sin(a * t)
        return [[c, s / a], [-a * s, c]]
    c, s = np.cos(kap * t), np.sin(kap * t)
    return [[c, -s], [s, c]]


TRANSFERS = {"scalar": evolution._scalar_transfer,
             "weyl": evolution._weyl_transfer,
             "wave": evolution._wave_transfer,
             "maxwell": evolution._maxwell_transfer}
TIMES = np.concatenate([np.linspace(0.0, 60.0, 41), [1e-9, 0.37, 1e3, 1e5]])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", TRANSFERS)
def test_half_grid_transfers_equal_closed_forms(n, kind):
    sg = make_grid(n, 0.17 * n).conjugate()
    k = sg.positive_nodes()
    for t in TIMES:
        got = TRANSFERS[kind](np.cos(k * t), np.sin(k * t), k)
        want = closed_form_transfer(kind, sg.nodes, t)
        for row_got, row_want in zip(got, want):
            for a, b in zip(row_got, row_want):
                assert (a is None and b is None) or np.array_equal(a, b)


def reference_evolve(grid, g0s, kind, t):
    """The modal loop on the closed-form transfers."""
    sg = grid.conjugate()
    ghats = [spectral.fourier_full(g, grid) for g in g0s]
    for ti in t:
        rows = closed_form_transfer(kind, sg.nodes, ti)[:len(g0s)]
        yield [spectral.fourier_full_inverse(
            sum(s * gh for s, gh in zip(row, ghats) if s is not None), sg)
            for row in rows]


@pytest.mark.parametrize("n", SIZES)
def test_propagator_snapshots_equal_closed_form_evolution(n):
    grid = make_grid(n, 0.17 * n)
    rng = np.random.default_rng(n)
    a, b = (convert_rep(random_packet(grid, rng), "g").values
            for _ in range(2))
    t = np.array([0.0, 0.37, 5.0, 60.0])
    zero = np.zeros(grid.size, dtype=complex)
    got = {
        "scalar": [[s.values] for s in propagate_scalar(
            AxialField(grid, "g", a), t).snapshots],
        "wave": [[p.values, q.values] for p, q in propagate_wave(
            AxialField(grid, "g", a), AxialField(grid, "g", b), t).snapshots],
        "weyl": [[s.up, s.down] for s in propagate_weyl(
            SpinorField(grid, "g", a, b), t).snapshots],
        "maxwell": [list(s.values[:2]) for s in propagate_maxwell(
            VectorField3(grid, "g", np.stack([a, b, zero])), t).snapshots],
    }
    for kind, snaps in got.items():
        g0s = [a] if kind == "scalar" else [a, b]
        want = list(reference_evolve(grid, g0s, kind, t))
        assert len(snaps) == len(want)
        for comps, ref in zip(snaps, want):
            assert all(np.array_equal(x, y) for x, y in zip(comps, ref, strict=True))


@pytest.mark.parametrize("n", (8, 64, 1000, 8192))
def test_momentum_space_density_matches_trig_route(monkeypatch, n):
    grid = make_grid(n, 0.17 * n)
    psi = convert_rep(random_packet(grid, np.random.default_rng(n)), "g")
    seen, rho_j_norm = [], evolution._rho_j_norm

    def capture(grid, g, hg):
        seen.append(rho_j_norm(grid, g, hg))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(evolution, "_rho_j_norm", capture)
        res = propagate_scalar(psi, [0.0, 0.37, 5.0, 60.0])
    rhos, js, _ = zip(*seen)
    for snap, rho, j in zip(res.snapshots, rhos, js, strict=True):
        rho_t, j_t, nrm = evolution._scalar_diagnostics(grid, snap.values)
        assert np.max(np.abs(rho - rho_t)) <= 1e-10 * np.max(rho_t)
        assert np.max(np.abs(j - j_t)) <= 1e-10 * np.max(np.abs(j_t))
    assert np.array_equal(res.diagnostics["norm"], [
        evolution._scalar_diagnostics(grid, s.values)[2] for s in res.snapshots])


@pytest.fixture
def fft_calls(monkeypatch):
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        def counting(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


def test_spectral_scalar_kernel_calls(r2r_calls, fft_calls):
    times = np.linspace(0.0, 3.0, 7)
    propagate_scalar(_packet(), times)
    assert len(r2r_calls) == 0
    assert fft_calls == {"fft": 1, "ifft": 2 * len(times)}


def masked_continuity_residual(dt2, rho_before, j, rho_after, grid,
                               mask_fraction):
    """Full-length arrays reduced through a boolean-mask copy."""
    mask = grid.interior_mask(mask_fraction)
    drho = (rho_after - rho_before) / dt2
    resid = (drho + np.gradient(j, grid.h))[mask]
    scale = np.max(np.abs(drho[mask]))
    return np.max(np.abs(resid)) / scale if scale > 0 else 0.0


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("fraction", (0.6,))  # the band the residual uses
def test_continuity_on_interior_slice_is_bit_identical(n, fraction):
    grid = make_grid(n, 0.17 * n)
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.uniform(0.1, 1.0, 5)) - 0.1
    rhos = [rng.uniform(0.0, 2.0, grid.size) for _ in times]
    js = [rng.normal(size=grid.size) for _ in times]
    for i in range(1, len(times) - 1):
        triple = (times[i + 1] - times[i - 1], rhos[i - 1], js[i], rhos[i + 1])
        assert evolution._continuity_residual(*triple, grid) == \
            masked_continuity_residual(*triple, grid, fraction)
