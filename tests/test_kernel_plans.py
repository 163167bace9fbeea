"""Cached FFT plans, the one DCT-IV trig kernel, the RK4 stepper on its
trig modes and the half-grid transfer symbols: the same bits as the
unplanned formulas (the stepper to rounding), bounded read-only caches,
and the kernel call counts they save.  The ledger's probe suites, kept as
their draws and sampled where they are read, have the bits of suites
sampled up front."""

import gc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from axiwave import evolution, fileio, spectral, transforms, verify
from axiwave.evolution import (SpinorField, VectorField3, propagate_maxwell,
                               propagate_scalar, propagate_wave, propagate_weyl)
from axiwave.grids import (AxialField, AxisGrid, SpectralGrid,
                           _draw_wavelets, _wavelet_sum, convert_rep,
                           gaussian_packet, make_grid, parity_join,
                           parity_split, random_packet)
from axiwave.transforms import HalfLineFunction
from axiwave.verify import (HALF_LINE_STACK, PROBE_COUNT, RunConfig,
                            _draw_suites, _half_line_transforms, rel_err,
                            run_verification)

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


def direct_trig_sum(rows, spacing, kind):
    """sqrt(2/pi) spacing sum_j x_j ker(pi (2j+1)(2m+1) / (4n)), ker = cos
    or sin, of each row x: the scaled DCT-IV / DST-IV as its O(n^2) sum,
    in long double, as (real parts, imaginary parts)."""
    x = np.atleast_2d(rows)
    n = x.shape[1]
    odd = 2 * np.arange(n) + 1
    # the phase's numerator reduced mod 8n in integers, so exactly
    pi = 4 * np.arctan(np.longdouble(1))
    phase = (np.outer(odd, odd) % (8 * n)).astype(np.longdouble) * pi / (4 * n)
    ker = np.sqrt(2 / pi) * np.longdouble(spacing) * \
        (np.cos if kind == "cos" else np.sin)(phase)
    return (x.real.astype(np.longdouble) @ ker,
            x.imag.astype(np.longdouble) @ ker)


def direct_gap(got, want):
    """max |got - want| over a row, as a share of the peak of `want`, the
    (real parts, imaginary parts) of the direct sum."""
    re, im = want
    peak = max(np.max(np.abs(re)), np.max(np.abs(im)))
    return float(max(np.max(np.abs(got.real - re)),
                     np.max(np.abs(got.imag - im))) / peak)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kinds", KIND_PAIRS)
def test_trig_pair_is_bit_identical(n, kinds):
    # a pair is bit for bit its one-row calls and `_trig_sum`, and close
    # to the direct sum (on every size up to 1001 by the test below)
    rng = np.random.default_rng(n)
    a, b = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
    pair = transforms._trig_rows([a, b], 0.3, kinds)
    for x, kind, p in zip((a, b), kinds, pair, strict=True):
        row, = transforms._trig_rows([x], 0.3, [kind])
        assert same_bits(row, p)
        assert same_bits(transforms._trig_sum(x, 0.3, kind), p)
        if n <= 1000:
            (re,), (im,) = direct_trig_sum(x, 0.3, kind)
            assert direct_gap(p, (re, im)) <= 1e-14
    # fresh arrays: the next call must not overwrite them
    first = [p.copy() for p in pair]
    transforms._trig_rows([b, a], 0.7, kinds)
    transforms._trig_rows([b], 0.7, kinds[:1])
    assert all(np.array_equal(p, q) for p, q in zip(pair, first))


# Named for scipy's complex DCT-IV, the oracle until the kernel moved to
# numpy's FFT; the oracle is now the direct sum, and the DST identity is
# the part that stays bit for bit.
@pytest.mark.parametrize("n", [*range(8, 70), 1000, 1001, 65536])
def test_r2r_pair_is_scipys_complex_dct_bit_for_bit(n):
    # `_trig_rows` is the DCT-IV / DST-IV of each row times sqrt(2/pi)
    # spacing / 2 to 1e-14 of the row's peak, odd n included, on every
    # pairing of kinds; at 65536 nodes the direct sum is too large, and
    # each kind is checked orthogonal instead: Fc~ Fc = Fs~ Fs = 1 to
    # rounding on the conjugate spacing
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    # the DST identity, bit for bit: DST-IV(x)_m = (-1)^m DCT-IV(x rev)_m
    dst = transforms._trig_rows(x[:, ::-1], 0.3, ("sin", "sin"))
    dst[:, 1::2] *= -1.0
    assert same_bits(dst, transforms._trig_rows(x, 0.3, ("cos", "cos")))
    if n == 65536:
        h = 0.3
        dk = np.pi / (n * h)
        for kind in ("cos", "sin"):
            back = transforms._trig_rows(
                transforms._trig_rows(x, h, [kind] * 2), dk, [kind] * 2)
            assert np.max(np.abs(back - x)) <= 1e-14 * np.max(np.abs(x))
        return
    want = {kind: direct_trig_sum(x, 0.3, kind) for kind in ("cos", "sin")}
    for kinds in KIND_PAIRS + [("cos",), ("sin",)]:
        got = transforms._trig_rows(x[:len(kinds)], 0.3, kinds)
        for i, (row, kind) in enumerate(zip(got, kinds)):
            re, im = want[kind]
            assert direct_gap(row, (re[i], im[i])) <= 1e-14


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


# (times in units of h, the bound on the stepper's gap) at dt = h/4: a few
# steps and a rest; an interval of 512 full steps and a rest, as long as
# the ledger's at n_half 1024, whose power of the full-step factor rounds
# as q eps over q steps where the reference's step-by-step products round
# as sqrt(q) eps (1.8e-13 to 9.8e-13 measured); and a rest alone
RK4_SCHEDULES = [((0.0, 2.0, 5.3), 1e-13), ((0.0, 128.1), 1e-11),
                 ((0.0, 0.1), 1e-13)]


def rk4_gap(n, times=RK4_SCHEDULES[0][0]):
    """max over the snapshots of |stepper - stage-by-stage reference|, as
    a share of the reference's peak."""
    grid = make_grid(n, 0.17 * n)
    g = convert_rep(random_packet(grid, np.random.default_rng(n)), "g").values
    times, dt = np.array(times) * grid.h, grid.h / 4.0
    # whole runs first: a snapshot must not change as the stepper goes on
    got = list(evolution._rk4(grid, g, times, dt))
    want = list(reference_rk4(grid, g, times, dt))
    assert len(got) == len(want) == len(times)
    return max(np.max(np.abs(a[0] - b[0])) / np.max(np.abs(b[0]))
               for a, b in zip(got, want))


@pytest.mark.parametrize("n", SIZES + (9, 37, 255))
def test_in_place_rk4_is_bit_identical(n):
    # the operator is bit for bit the reference; the stepper multiplies its
    # modes by powers of RK4's stability function, which skips the
    # transforms between stages, so its snapshots agree to rounding
    grid = make_grid(n, 0.17 * n)
    g = convert_rep(random_packet(grid, np.random.default_rng(n)), "g").values
    assert np.array_equal(evolution._hamiltonian_g(grid)(g),
                          reference_hamiltonian(grid)(g))
    for times, bound in RK4_SCHEDULES:
        assert rk4_gap(n, times) <= bound, times


def test_rk4_bound_rejects_a_wrong_stability_function(monkeypatch):
    # 1/25 for the 1/24 of z^4 / 4!: a gap of 7.7e-7 against the reference
    # on the first schedule, and of 1.6e-5 on the long one
    def wrong(y):
        y2 = y * y
        return (1.0 - y2 / 2.0 + y2 * y2 / 25.0) - 1j * y * (1.0 - y2 / 6.0)

    monkeypatch.setattr(evolution, "_rk4_gain", wrong)
    for times, bound in RK4_SCHEDULES[:2]:
        assert rk4_gap(1000, times) > bound, times


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
    axis = grid.conjugate().axis_grid()
    assert axis.same_as(grid) and np.array_equal(axis.nodes, grid.nodes)


def test_grid_and_conjugate_form_no_reference_cycle():
    # the pair is freed by reference counting alone, as soon as it is
    # dropped; a conjugate that outlives its axis grid builds one with the
    # same spacing and nodes
    grid = make_grid(64, 10.0)
    h, nodes = grid.h, grid.nodes.copy()
    gc.disable()
    try:
        sg = grid.conjugate()
        refs = weakref.ref(grid), weakref.ref(sg)
        del grid
        assert refs[0]() is None
        axis = sg.axis_grid()
        assert axis.h == h and np.array_equal(axis.nodes, nodes)
        del sg, axis
        assert refs[1]() is None
    finally:
        gc.enable()


def test_ledger_leaves_no_grid_to_the_cyclic_collector():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_verification(RunConfig())
        gc.collect()
        held = [type(o).__name__ for o in gc.garbage
                if isinstance(o, (AxisGrid, SpectralGrid, np.ndarray))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert held == []


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


def _immutable(value):
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    if isinstance(value, tuple):
        return all(map(_immutable, value))
    return isinstance(value, (str, int, float, complex))


def test_caches_hand_out_read_only_values():
    # every cache is keyed by a grid's (n_half, spacing); no cache hands
    # out a writable array that two callers could share
    caches = [obj for mod in (fileio, spectral, transforms)
              for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    assert len(caches) >= 4
    for cache in caches:
        first = cache(8, 0.5)
        assert _immutable(first), cache.__name__
        assert cache(8, 0.5) is first


@pytest.fixture
def r2r_calls(monkeypatch):
    # the package's one DCT-IV kernel, `transforms._dct4`, which
    # `_trig_rows` looks up at call time; each call records the real rows
    # it was handed
    calls = []

    def counting(x, *args, _real=transforms._dct4):
        calls.append(x)
        return _real(x, *args)

    monkeypatch.setattr(transforms, "_dct4", counting)
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


@pytest.mark.parametrize("steps", (100, 1000))
def test_rk4_run_transforms_once_and_once_per_time(r2r_calls, steps):
    # g goes to its modes once and back once per time, however many steps
    psi = _packet()
    dt = psi.grid.h / 4.0
    times = np.linspace(0.0, steps * dt, 4)
    r2r_calls.clear()
    snaps = list(evolution._rk4(psi.grid, psi.values, times, dt))
    assert len(snaps) == len(times)
    assert len(r2r_calls) == 1 + len(times)


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
    # the kernel takes the float view of the stacked complex rows, their
    # real and imaginary parts as real rows, and overwrites it: the stack
    # `_trig_rows` returns is the kernel's input
    psi = _packet()
    f = transforms.HalfLineFunction(0.1, psi.values[256:])
    transforms.trig_transform(f, "cos")
    transforms.trig_transform(f, "sin")
    transforms.hilbert_signed(psi)
    spectral.synthesize(spectral.analyze(psi))
    evolution._hamiltonian_g(psi.grid)(psi.values)
    dt = psi.grid.h / 4.0   # one RK4 step: to the modes, back at 2 times
    list(evolution._rk4(psi.grid, psi.values, [0.0, dt], dt))
    assert len(r2r_calls) == 1 + 1 + 2 + 2 + 2 + 3
    assert {x.dtype for x in r2r_calls} == {np.dtype(float)}
    assert {x.shape[1] for x in r2r_calls} == {2}
    out = transforms._trig_rows(psi.values.reshape(2, 256), 0.1, ("cos", "sin"))
    assert np.shares_memory(out, r2r_calls[-1])


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


@pytest.mark.parametrize("n", (8, 9, 64, 1000, 8192))
def test_rk4_density_matches_scalar_diagnostics(monkeypatch, n):
    # the RK4 route's Hg comes from its trig modes, g's with it; rho and J
    # agree with the Hilbert transform of each snapshot
    grid = make_grid(n, 0.17 * n)
    psi = convert_rep(random_packet(grid, np.random.default_rng(n)), "g")
    seen, rho_j_norm = [], evolution._rho_j_norm

    def capture(grid, g, hg):
        seen.append(rho_j_norm(grid, g, hg))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(evolution, "_rho_j_norm", capture)
        res = propagate_scalar(psi, np.array([0.0, 1.3, 5.0]) * grid.h,
                               method="rk4")
    for snap, (rho, j, nrm) in zip(res.snapshots, seen, strict=True):
        rho_t, j_t, nrm_t = evolution._scalar_diagnostics(grid, snap.values)
        assert np.max(np.abs(rho - rho_t)) <= 1e-12 * np.max(rho_t)
        assert np.max(np.abs(j - j_t)) <= 1e-12 * np.max(np.abs(j_t))
        assert nrm == nrm_t


@pytest.mark.parametrize("method", ("spectral", "rk4"))
def test_scalar_snapshots_own_only_g(method):
    # Hg is made with g at each time, but a snapshot keeps g alone
    res = propagate_scalar(_packet(), [0.0, 0.5, 1.0], method=method)
    for snap in res.snapshots:
        assert snap.values.flags.owndata
        assert snap.values.shape == (512,)


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
    # one inverse FFT per time takes g and Hg back together
    assert fft_calls == {"fft": 1, "ifft": len(times)}


def test_half_line_section_makes_six_r2r_calls_per_stack(r2r_calls):
    # per stack of up to HALF_LINE_STACK probes: one cos+sin trig round
    # trip, one spectral He+Ho and one He Ho + Ho He call, two r2r calls
    # each, however many probes the stack holds; the section's loop over
    # the probes runs before its first entry is yielded.  `halves` holds
    # the probes' draws, and sampling a stack from them calls no r2r
    suites = _draw_suites(RunConfig())
    assert HALF_LINE_STACK == 10 and len(suites["halves"]) == 50
    for count, stacks in ((1, 1), (3, 1), (10, 1), (11, 2), (50, 5)):
        r2r_calls.clear()
        next(_half_line_transforms(**{**suites,
                                      "halves": suites["halves"][:count]}))
        assert len(r2r_calls) == 6 * stacks


def per_probe_half_line_entries(halves, n_half):
    """The first seven half-line residuals from one-probe public calls."""
    mask80 = np.arange(n_half) < int(0.8 * n_half)
    r_self = {"cos": 0.0, "sin": 0.0}
    r_he = r_ho = r_eo = r_oe = r_backend = 0.0
    for f in halves:
        for kind in r_self:
            back = transforms.trig_transform(
                transforms.trig_transform(f, kind), kind)
            r_self[kind] = max(r_self[kind], rel_err(back.values, f.values))
        he_q = transforms.hilbert_even(f, backend="quadrature").values
        ho_q = transforms.hilbert_odd(f, backend="quadrature").values
        he_s = transforms.hilbert_even(f)
        ho_s = transforms.hilbert_odd(f)
        e_he = rel_err(he_s.values, he_q, mask80)
        e_ho = rel_err(ho_s.values, ho_q, mask80)
        r_he, r_ho = max(r_he, e_he), max(r_ho, e_ho)
        r_backend = max(r_backend, e_he / 2.0, e_ho / 2.0)
        r_eo = max(r_eo, rel_err(transforms.hilbert_even(ho_s).values,
                                 -f.values, mask80))
        r_oe = max(r_oe, rel_err(transforms.hilbert_odd(he_s).values,
                                 -f.values, mask80))
    return [r_self["cos"], r_self["sin"], r_he, r_ho, r_backend, r_eo, r_oe]


@pytest.mark.parametrize("count", (1, 10, 13))
def test_half_line_stacks_equal_per_probe_calls(count):
    # the section samples its first `count` draws; the reference runs on
    # the same probes sampled up front
    suites = _draw_suites(RunConfig())
    entries = _half_line_transforms(**{**suites,
                                       "halves": suites["halves"][:count]})
    got = [next(entries)[2] for _ in range(7)]
    halves = eager_suites(RunConfig())["halves"][:count]
    assert got == per_probe_half_line_entries(halves, suites["grid"].n_half)


def eager_packet(grid, rng, kmax=3.0, signs=(1.0, 1.0, 1.0, 1.0),
                 centers=(-0.3, 0.3), widths=(0.08, 0.2)):
    """`random_packet` as one loop that draws each wavelet and adds it in
    at once: the reference for the split into a draw and a sample."""
    lam, g = grid.nodes, np.zeros(grid.size, dtype=complex)
    for sign in signs:
        c = sign * rng.uniform(*centers) * grid.extent
        w = rng.uniform(*widths) * grid.extent
        k = rng.uniform(-kmax, kmax)
        amp = rng.normal() + 1j * rng.normal()
        g += amp * np.exp(-(((lam - c) / w) ** 2)) * np.exp(1j * k * lam)
    return convert_rep(AxialField(grid, "g", g), "f")


# the ledger's packet suites in draw order: name, on the fine grid, draw
PACKET_SUITES = (
    ("probes", False, {}), ("fine_probes", True, {}),
    ("fine_soft", True, {"kmax": 2.5}),
    ("annular", True, {"kmax": 2.0, "signs": (-1.0, 1.0),
                       "centers": (0.25, 0.35), "widths": (0.06, 0.10)}))


def eager_suites(cfg):
    """Every shared probe suite of the ledger sampled as it is drawn, all
    held at once: the reference for suites kept as their draws."""
    rng = np.random.default_rng(cfg.seed)
    grid = make_grid(cfg.n_half, cfg.extent)
    fine = make_grid(2 * cfg.n_half, cfg.extent)
    halves = []
    for _ in range(50):
        k0 = rng.uniform(1.5, 4.0)
        w = rng.uniform(0.05, 0.1) * grid.extent
        c = rng.uniform(0.2, 0.4) * grid.extent
        halves.append(HalfLineFunction(
            grid.h, gaussian_packet(grid, k0, w, c).values[cfg.n_half:]))
    suites = {"halves": halves}
    for name, on_fine, draw in PACKET_SUITES:
        suites[name] = [eager_packet(fine if on_fine else grid, rng, **draw)
                        for _ in range(PROBE_COUNT)]
    return suites


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("seed", (7, 123))
@pytest.mark.parametrize("name, on_fine, draw", PACKET_SUITES)
def test_wavelet_draw_then_sum_is_the_eager_packet(seed, name, on_fine, draw):
    grid = make_grid(512 if on_fine else 256, 40.0)
    ref, split, whole = (np.random.default_rng(seed) for _ in range(3))
    for _ in range(PROBE_COUNT):
        want = eager_packet(grid, ref, **draw).values
        got = _wavelet_sum(grid, _draw_wavelets(grid, split, **draw)).values
        assert same_bits(got, want)
        assert same_bits(random_packet(grid, whole, **draw).values, want)
        assert split.bit_generator.state == ref.bit_generator.state
        assert whole.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", (7, 123))
def test_ledger_samples_its_draws_to_the_eager_suites(seed, monkeypatch):
    cfg = RunConfig(seed=seed)
    suites, want = _draw_suites(cfg), eager_suites(cfg)
    stacks = []   # the half-line probes as the section samples them
    monkeypatch.setattr(verify, "_half_line_stack",
                        lambda stack, mask80: stacks.append(stack) or ())
    next(_half_line_transforms(**suites))
    assert [len(s) for s in stacks] == [HALF_LINE_STACK] * 5
    for got, ref in zip([f for s in stacks for f in s], want["halves"],
                        strict=True):
        assert got.spacing == ref.spacing
        assert same_bits(got.values, ref.values)
    for name, on_fine, _ in PACKET_SUITES:
        grid = suites["fine" if on_fine else "grid"]
        got = suites[name] if name == "probes" else [
            _wavelet_sum(grid, d) for d in suites[name]]
        for a, b in zip(got, want[name], strict=True):
            assert a.grid.same_as(b.grid) and same_bits(a.values, b.values)


@pytest.mark.parametrize("n", (256, 1024, 4096))
@pytest.mark.parametrize("m", (1, 2, 10, 20))
def test_trig_rows_stack_is_bit_identical_to_single_rows(n, m):
    rng = np.random.default_rng(n + m)
    rows = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    kinds = [("cos", "sin")[i % 3 == 1] for i in range(m)]
    got = transforms._trig_rows(rows, 0.3, kinds)
    assert got.shape == (m, n)
    for row, kind, g in zip(rows, kinds, got, strict=True):
        one, = transforms._trig_rows([row], 0.3, [kind])
        assert np.array_equal(g.view(np.uint64), one.view(np.uint64))


def test_trig_rows_is_thread_safe():
    # the r2r kernel runs without the interpreter lock; each call fills
    # its own stack, so four threads sharing the kernel get the serial bits
    rng = np.random.default_rng(11)
    kinds = [("cos", "sin")[i % 2] for i in range(20)]
    stacks = [[rng.normal(size=(m, 4096)) + 1j * rng.normal(size=(m, 4096))
               for m in (1, 2, 20)] for _ in range(4)]

    def run(own, times):
        return [[transforms._trig_rows(s, 0.3, kinds).tobytes() for s in own]
                for _ in range(times)]

    want = [run(own, 1) for own in stacks]
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(run, stacks, [50] * 4))
    for one, many in zip(want, got, strict=True):
        assert many == one * 50


def masked_continuity_residual(dt2, rho_before, j, rho_after, grid,
                               mask_fraction):
    """Full-length arrays reduced through a boolean-mask copy."""
    mask = np.abs(grid.nodes) <= mask_fraction * grid.extent
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
