import tracemalloc

import numpy as np
import pytest

from axiwave import transforms
from axiwave._fd import derivative
from axiwave.grids import AxialField, gaussian_packet, make_grid, offset_nodes
from axiwave.transforms import (HalfLineFunction, hilbert_even, hilbert_odd,
                                hilbert_signed, trig_transform)
from axiwave.verify import rel_err


def half_exp(n=512, extent=60.0):
    h = extent / n
    r = (np.arange(n) + 0.5) * h
    return HalfLineFunction(h, np.exp(-r)), r


def test_cos_transform_closed_form():
    # pointwise within 2% wherever the oscillation is resolved (kh <= 0.6),
    # and within 2% of the transform peak over the interior 80%
    f, r = half_exp()
    g = trig_transform(f, "cos")
    k = offset_nodes(g.n, g.spacing)[g.n:]
    want = np.sqrt(2.0 / np.pi) / (1.0 + k ** 2)
    resolved = k * f.spacing <= 0.6
    err = np.abs(g.values - want)
    assert np.max(err[resolved] / want[resolved]) <= 0.02
    interior = slice(0, int(0.8 * f.n))
    assert np.max(err[interior]) <= 0.02 * np.max(want)


def test_sin_transform_closed_form():
    f, r = half_exp()
    g = trig_transform(f, "sin")
    k = offset_nodes(g.n, g.spacing)[g.n:]
    want = np.sqrt(2.0 / np.pi) * k / (1.0 + k ** 2)
    resolved = k * f.spacing <= 0.6
    err = np.abs(g.values - want)
    assert np.max(err[resolved] / want[resolved]) <= 0.02
    # f(0) != 0 puts a jump in the odd extension; coefficients then decay
    # like 1/k and the unresolved band only tracks the envelope
    assert np.max(err) <= 0.05 * np.max(want)


def test_sin_of_zero_is_zero():
    f = HalfLineFunction(0.1, np.zeros(64))
    assert np.all(trig_transform(f, "sin").values == 0.0)


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_trig_self_inverse_exact(kind):
    rng = np.random.default_rng(10)
    n = 256
    f = HalfLineFunction(0.11, rng.normal(size=n) + 1j * rng.normal(size=n))
    back = trig_transform(trig_transform(f, kind), kind)
    assert back.spacing == pytest.approx(f.spacing)
    np.testing.assert_allclose(back.values, f.values, atol=1e-12)


def test_invalid_kind_direction():
    f = HalfLineFunction(0.1, np.zeros(32))
    with pytest.raises(ValueError):
        trig_transform(f, "tan")


def test_hilbert_even_lorentzian():
    # He[1/(1+t^2)](r) = -r/(1+r^2), via pv integral dt/(r^2-t^2) = 0
    n, extent = 512, 60.0
    h = extent / n
    r = (np.arange(n) + 0.5) * h
    f = HalfLineFunction(h, 1.0 / (1.0 + r ** 2))
    out = hilbert_even(f, backend="quadrature")
    want = -r / (1.0 + r ** 2)
    interior = slice(0, int(0.8 * n))
    err = np.abs(out.values[interior] - want[interior]) / np.abs(want[interior])
    assert np.max(err) <= 0.02
    # the trig-composition backend carries the slow 1/r tail of this fat
    # probe less faithfully near truncation; deep interior still agrees
    outs = hilbert_even(f, backend="spectral")
    deep = r < 10.0
    errs = np.abs(outs.values[deep] - want[deep]) / np.abs(want[deep])
    assert np.max(errs) <= 0.02


def test_hilbert_of_zero():
    f = HalfLineFunction(0.1, np.zeros(64))
    assert np.all(hilbert_even(f).values == 0.0)
    assert np.all(hilbert_odd(f).values == 0.0)


def test_trig_kernel_identities_vs_quadrature():
    # -Fs~ Fc and Fc~ Fs reproduce the principal-value transforms.
    # Oscillating probes: a nonzero mean leaves a slow 1/r tail in the
    # transform that the truncated domain cannot carry.
    n, extent = 256, 40.0
    h = extent / n
    r = (np.arange(n) + 0.5) * h
    rng = np.random.default_rng(20)
    interior = np.arange(n) < int(0.8 * n)
    for _ in range(10):
        k0 = rng.uniform(1.5, 4.0)
        w = rng.uniform(2.0, 4.0)
        c = rng.uniform(8.0, 16.0)
        f = HalfLineFunction(h, np.exp(-(((r - c) / w) ** 2)) * np.exp(1j * k0 * r))
        for parity, fn in (("even", hilbert_even), ("odd", hilbert_odd)):
            spec = fn(f, backend="spectral").values
            quad = fn(f, backend="quadrature").values
            assert rel_err(spec, quad, interior) <= 1e-2


def test_hilbert_even_odd_inverse_pair():
    # He Ho = Ho He = -1 on smooth decaying probes
    n, extent = 256, 40.0
    h = extent / n
    r = (np.arange(n) + 0.5) * h
    f = np.exp(-((r - 10.0) / 4.0) ** 2) * np.exp(0.7j * r)
    fh = HalfLineFunction(h, f)
    interior = np.arange(n) < int(0.8 * n)
    eo = hilbert_even(hilbert_odd(fh)).values
    oe = hilbert_odd(hilbert_even(fh)).values
    assert rel_err(eo, -f, interior) <= 1e-2
    assert rel_err(oe, -f, interior) <= 1e-2
    # spectral backend realizes the pair exactly
    assert rel_err(eo, -f) <= 1e-10


@pytest.mark.parametrize("route", [
    lambda grid, fld, b: hilbert_signed(fld, "plus", backend=b),
], ids=["hilbert_signed"])
def test_unknown_hilbert_backend_rejected(route):
    grid = make_grid(32, 10.0)
    fld = gaussian_packet(grid, 2.0, width=2.0)
    with pytest.raises(ValueError, match="spectrl"):
        route(grid, fld, "spectrl")


def test_edge_decay_warning():
    n = 64
    f = HalfLineFunction(0.1, np.ones(n))
    for transform in (hilbert_even, hilbert_odd):
        with pytest.warns(UserWarning, match="decayed") as record:
            transform(f)
        # the warning points at the caller, not into the library
        assert record[0].filename == __file__


def test_hilbert_signed_plane_wave_sign_flip():
    # Hplus exp(ikl) = +i exp(ikl) for l>0, -i for l<0
    grid = make_grid(256, 40.0)
    k0 = 4.0
    pkt = gaussian_packet(grid, k0, width=9.0)
    out = hilbert_signed(pkt, "plus")
    want = 1j * np.sign(grid.nodes) * pkt.values
    mask = np.abs(grid.nodes) < 6.0
    assert rel_err(out.values, want, mask) <= 1e-2


def test_hilbert_signed_inverse_pair():
    grid = make_grid(256, 40.0)
    pkt = gaussian_packet(grid, 2.0, width=6.0, center=-4.0)
    mask = np.abs(grid.nodes) <= 0.8 * grid.extent
    pm = hilbert_signed(hilbert_signed(pkt, "plus"), "minus")
    mp = hilbert_signed(hilbert_signed(pkt, "minus"), "plus")
    assert rel_err(pm.values, -pkt.values, mask) <= 1e-2
    assert rel_err(mp.values, -pkt.values, mask) <= 1e-2
    assert rel_err(pm.values, -pkt.values) <= 1e-10  # spectral atoms: exact


def test_hilbert_signed_even_field_reduces_to_he():
    grid = make_grid(128, 24.0)
    lam = grid.nodes
    fld = AxialField(grid, "f", np.exp(-((np.abs(lam) - 6.0) / 2.5) ** 2))
    out = hilbert_signed(fld, "plus")
    n = grid.n_half
    he = hilbert_even(HalfLineFunction(grid.h, fld.values[n:])).values
    np.testing.assert_allclose(out.values[n:], he, atol=1e-12)
    np.testing.assert_allclose(out.values[:n][::-1], he, atol=1e-12)


def test_hilbert_signed_parity_algebra():
    # relations that follow from the defining even/odd combinations hold
    # exactly in the discrete model: Hpm commute with parity, and
    # Hplus - Hminus = (He - Ho) P on the matched parity sectors
    grid = make_grid(64, 12.0)
    rng = np.random.default_rng(11)
    fld = AxialField(grid, "f", rng.normal(size=grid.size)
                     + 1j * rng.normal(size=grid.size))
    for sign in ("plus", "minus"):
        lhs = hilbert_signed(fld.copy_with(fld.values[::-1]), sign).values
        rhs = hilbert_signed(fld, sign).values[::-1]
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # sum of the two signed transforms = He + Ho applied per parity sector
    total = hilbert_signed(fld, "plus").values + hilbert_signed(fld, "minus").values
    n = grid.n_half
    plus, minus = fld.values[n:], fld.values[n - 1::-1]
    e = HalfLineFunction(grid.h, 0.5 * (plus + minus))
    o = HalfLineFunction(grid.h, 0.5 * (plus - minus))
    he_e = hilbert_even(e).values + hilbert_odd(e).values
    he_o = hilbert_even(o).values + hilbert_odd(o).values
    want_plus = he_e + he_o
    want_minus = he_e - he_o
    np.testing.assert_allclose(total[n:], want_plus, atol=1e-12)
    np.testing.assert_allclose(total[:n][::-1], want_minus, atol=1e-12)


def test_intertwining_derivative_relation():
    # Fpm~ (k a) = -/+ i d/dr Fpm~ a  on smooth decaying spectra
    n, extent = 256, 40.0
    dk = np.pi / extent
    k = (np.arange(n) + 0.5) * dk
    a = np.exp(-((k - 3.0) / 1.0) ** 2) * (1.0 + 0.3j)
    ah = HalfLineFunction(dk, a)
    ka = HalfLineFunction(dk, k * a)
    interior = np.arange(n) < int(0.8 * n)
    for sgn in (+1.0, -1.0):
        def ft(x):
            c = trig_transform(x, "cos").values
            s = trig_transform(x, "sin").values
            return c + sgn * 1j * s
        lhs = ft(ka)
        rhs = -sgn * 1j * derivative(ft(ah), extent / n)
        assert rel_err(lhs, rhs, interior) <= 1e-2


def test_hilbert_linearity():
    grid = make_grid(64, 12.0)
    rng = np.random.default_rng(12)
    a = AxialField(grid, "f", rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    b = AxialField(grid, "f", rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))
    alpha, beta = 1.3 - 0.2j, -0.7 + 2.1j
    combo = AxialField(grid, "f", alpha * a.values + beta * b.values)
    lhs = hilbert_signed(combo, "plus").values
    rhs = alpha * hilbert_signed(a, "plus").values \
        + beta * hilbert_signed(b, "plus").values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def dense_pv_kernel(n, h):
    """The n x n principal-value kernel 1/(r_i^2 - r_j^2), 0 on the diagonal."""
    r = (np.arange(n) + 0.5) * h
    diff = r[:, None] ** 2 - r[None, :] ** 2
    inv = np.zeros_like(diff)
    off = ~np.eye(n, dtype=bool)
    inv[off] = 1.0 / diff[off]
    return r, inv


def dense_hilbert_quadrature(f, odd_kernel):
    """The midpoint pv rule with a dense kernel, term for term."""
    r, inv = dense_pv_kernel(f.n, f.spacing)
    h, big_l = f.spacing, f.extent
    u = r * f.values if odd_kernel else f.values
    total = (inv @ u - u * inv.sum(axis=1)
             - derivative(u, h) / (2.0 * r))
    total = h * total + u * np.log((big_l + r) / (big_l - r)) / (2.0 * r)
    return -(2.0 / np.pi) * total if odd_kernel else -(2.0 * r / np.pi) * total


def max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("n", [8, 9, 64, 255, 1024])
def test_pv_plan_matches_dense_kernel(n):
    h = 23.0 / n
    r, inv = dense_pv_kernel(n, h)
    plan_r, spectra, rowsum, _ = transforms._pv_plan(n, h)
    np.testing.assert_array_equal(plan_r, r)
    assert max_rel(rowsum, inv.sum(axis=1)) <= 1e-14
    rng = np.random.default_rng(n)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert max_rel(transforms._pv_matvec(r, spectra, h, u), inv @ u) <= 1e-14
    f = HalfLineFunction(h, u)
    for odd_kernel in (False, True):
        assert max_rel(transforms._hilbert_quadrature(f, odd_kernel),
                       dense_hilbert_quadrature(f, odd_kernel)) <= 1e-12


def test_quadrature_large_grid_in_linear_memory():
    # a dense kernel at this size would take 32 GiB
    n, extent = 65536, 640.0
    h = extent / n
    r = (np.arange(n) + 0.5) * h
    f = HalfLineFunction(h, np.exp(-((r - 200.0) / 30.0) ** 2)
                         * np.exp(2.5j * r))
    interior = np.arange(n) < int(0.8 * n)
    for fn in (hilbert_even, hilbert_odd):
        transforms._pv_plan.cache_clear()
        tracemalloc.start()
        try:
            quad = fn(f, backend="quadrature").values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert rel_err(fn(f).values, quad, interior) <= 1e-2
