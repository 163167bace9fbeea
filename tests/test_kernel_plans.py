"""Cached FFT plans, paired DCT-IV kernels and the in-place RK4 stepper:
the same bits as the unplanned formulas, bounded read-only caches, and the
r2r call counts they save."""

import numpy as np
import pytest

from axiwave import evolution, spectral, transforms
from axiwave.grids import make_grid, parity_join, parity_split, random_packet

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
    g = random_packet(grid, np.random.default_rng(n), rep="g").values
    assert np.array_equal(spectral.fourier_full(g, grid),
                          unplanned_fourier_full(g, grid))
    assert np.array_equal(spectral.fourier_full_inverse(g, sg),
                          unplanned_fourier_full_inverse(g, sg))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kinds", KIND_PAIRS)
def test_trig_pair_is_bit_identical(n, kinds):
    rng = np.random.default_rng(n)
    a, b = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    pair = transforms._trig_pair(a, b, 0.3, kinds)
    assert np.array_equal(pair[0], transforms._trig_sum(a, 0.3, kinds[0]))
    assert np.array_equal(pair[1], transforms._trig_sum(b, 0.3, kinds[1]))
    # fresh arrays: the next call must not overwrite them
    first = [p.copy() for p in pair]
    transforms._trig_pair(b, a, 0.7, kinds)
    assert all(np.array_equal(p, q) for p, q in zip(pair, first))


def reference_hamiltonian(grid):
    """The out-of-place RK4 Hamiltonian: parity split, two trig pairs, join."""
    n, sg = grid.n_half, grid.conjugate()
    k = sg.positive_nodes()

    def apply(g):
        ce, so = transforms._trig_pair(*parity_split(g, n), grid.h,
                                       ("cos", "sin"))
        return parity_join(*transforms._trig_pair(k * ce, k * so, sg.dk,
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


@pytest.mark.parametrize("n", SIZES)
def test_in_place_rk4_is_bit_identical(n):
    grid = make_grid(n, 0.17 * n)
    g = random_packet(grid, np.random.default_rng(n), rep="g").values
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
        psi = random_packet(grid, np.random.default_rng(i), rep="g")
        spectral.synthesize_fast(spectral.analyze_fast(psi))
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
    calls = []
    for name in ("dct", "dst"):
        real = getattr(transforms, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(transforms, name, counting)
    return calls


def _packet(n=256):
    grid = make_grid(n, 40.0)
    return random_packet(grid, np.random.default_rng(3), rep="g")


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


def test_trig_route_map_makes_one_r2r_call_each_way(r2r_calls):
    psi = _packet()
    phi = spectral.analyze(psi)
    assert len(r2r_calls) == 1
    r2r_calls.clear()
    spectral.synthesize(phi)
    assert len(r2r_calls) == 1
