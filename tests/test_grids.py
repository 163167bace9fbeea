import numpy as np
import pytest

from axiwave.grids import (AxialField, GridMismatchError,
                           convert_rep, inner_product, make_grid, sample_field, spectral_inner_product,
                           SpectralProfile)


def rng_fields(grid, rng, n_pairs=100):
    for _ in range(n_pairs):
        a = AxialField(grid, "f", rng.normal(size=grid.size)
                       + 1j * rng.normal(size=grid.size))
        b = AxialField(grid, "f", rng.normal(size=grid.size)
                       + 1j * rng.normal(size=grid.size))
        yield a, b


def test_make_grid_small_example():
    g = make_grid(8, 4.0)
    assert g.h == 0.5
    expect = np.array([-3.75, -3.25, -2.75, -2.25, -1.75, -1.25, -0.75, -0.25,
                       0.25, 0.75, 1.25, 1.75, 2.25, 2.75, 3.25, 3.75])
    np.testing.assert_array_equal(g.nodes, expect)


def test_make_grid_desk_scale():
    g = make_grid(256, 40.0)
    assert g.size == 512
    assert np.min(np.abs(g.nodes)) == pytest.approx(0.078125)


def test_make_grid_rejects_coarse_and_bad_extent():
    with pytest.raises(ValueError, match="too coarse"):
        make_grid(7, 4.0)
    with pytest.raises(ValueError):
        make_grid(64, np.inf)
    with pytest.raises(ValueError):
        make_grid(64, -1.0)


def test_grid_antisymmetry_and_conjugate():
    g = make_grid(64, 10.0)
    np.testing.assert_array_equal(g.nodes, -g.nodes[::-1])
    assert np.all(g.nodes != 0.0)
    k = g.conjugate()
    assert k.dk == pytest.approx(np.pi / 10.0)
    np.testing.assert_array_equal(k.nodes, -k.nodes[::-1])
    assert np.all(k.nodes != 0.0)
    axis = k.axis_grid()
    assert axis.same_as(g) and np.array_equal(axis.nodes, g.nodes)


def test_sample_field_pointwise():
    g = make_grid(8, 4.0)
    f = sample_field(lambda x: np.exp(-x ** 2), g)
    assert f.values[8] == pytest.approx(np.exp(-0.0625))
    z = sample_field(lambda x: 0.0 * x, g)
    assert np.all(z.values == 0.0)
    # 1/lambda is finite everywhere because no node is zero
    inv = sample_field(lambda x: 1.0 / x, g)
    assert np.all(np.isfinite(inv.values))


def test_sample_field_rejects_nonfinite():
    g = make_grid(8, 4.0)
    with pytest.raises(ValueError, match="non-finite"):
        sample_field(lambda x: 1.0 / (x - 0.25), g)
    # a scalar generator gets no per-node retry
    with pytest.raises(ValueError, match="not one per node"):
        sample_field(lambda x: 1.0, g)


def test_convert_rep_explicit_values():
    g = make_grid(16, 8.0)
    ones = AxialField(g, "f", np.ones(g.size))
    gv = convert_rep(ones, "g")
    i4 = np.argmin(np.abs(g.nodes - 4.25))
    assert gv.values[i4] == pytest.approx(np.sqrt(4.25))
    # f = 1/sqrt|l| has g-rep identically one
    f = sample_field(lambda x: 1.0 / np.sqrt(np.abs(x)), g)
    np.testing.assert_allclose(convert_rep(f, "g").values, 1.0, rtol=1e-14)


def test_convert_rep_round_trip(rng=np.random.default_rng(1)):
    g = make_grid(128, 20.0)
    for a, _ in rng_fields(g, rng, 10):
        back = convert_rep(convert_rep(a, "g"), "f")
        np.testing.assert_allclose(back.values, a.values, rtol=1e-14)
    # converting to the current rep is the identity
    a = AxialField(g, "f", rng.normal(size=g.size))
    assert convert_rep(a, "f") is a


def test_inner_product_positive_and_conjugate_linear():
    g = make_grid(64, 12.0)
    rng = np.random.default_rng(2)
    a, b = next(rng_fields(g, rng, 1))
    for w in ("unit", "inv_r"):
        aa = inner_product(a, a, w)
        assert aa.imag == pytest.approx(0.0, abs=1e-12)
        assert aa.real >= 0.0
        ab = inner_product(a, b, w)
        ba = inner_product(b, a, w)
        assert ab == pytest.approx(np.conj(ba))
        scaled = inner_product(AxialField(g, "f", 2j * a.values), b, w)
        assert scaled == pytest.approx(-2j * ab)


def test_inv_r_equals_flat_g_sum():
    # quantified identity on >= 100 random pairs
    g = make_grid(96, 15.0)
    rng = np.random.default_rng(3)
    for a, b in rng_fields(g, rng, 100):
        lhs = inner_product(a, b, "inv_r")
        ga = convert_rep(a, "g").values
        gb = convert_rep(b, "g").values
        rhs = np.sum(np.conj(ga) * gb) * g.h
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_inv_r_gaussian_oracle():
    # f = exp(-l^2)/sqrt|l| has flat-measure g-norm^2 = integral exp(-2 l^2)
    g = make_grid(512, 30.0)
    f = sample_field(lambda x: np.exp(-x ** 2) / np.sqrt(np.abs(x)), g)
    val = inner_product(f, f, "inv_r").real
    assert val == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-6)


def test_inner_product_grid_mismatch():
    a = AxialField(make_grid(32, 8.0), "f", np.zeros(64))
    b = AxialField(make_grid(32, 9.0), "f", np.zeros(64))
    with pytest.raises(GridMismatchError):
        inner_product(a, b)


def test_parity_even_odd_and_involution():
    g = make_grid(64, 10.0)
    even = sample_field(lambda x: np.exp(-x ** 2), g)
    odd = sample_field(lambda x: x * np.exp(-x ** 2), g)
    np.testing.assert_array_equal(even.values[::-1], even.values)
    np.testing.assert_array_equal(odd.values[::-1], -odd.values)
    # reversing the samples is the reflection lambda -> -lambda, exactly
    np.testing.assert_array_equal(g.nodes[::-1], -g.nodes)


def test_parity_isometry_both_weights():
    g = make_grid(64, 10.0)
    rng = np.random.default_rng(5)
    a, b = next(rng_fields(g, rng, 1))
    for w in ("unit", "inv_r"):
        assert inner_product(a.copy_with(a.values[::-1]),
                             b.copy_with(b.values[::-1]), w) == \
            pytest.approx(inner_product(a, b, w), rel=1e-13)


def test_spectral_inner_product_weights_and_zero():
    g = make_grid(64, 16.0)
    k = g.conjugate()
    rng = np.random.default_rng(6)
    a = SpectralProfile(k, rng.normal(size=k.size) + 1j * rng.normal(size=k.size))
    z = SpectralProfile(k, np.zeros(k.size))
    for w in ("inv_k", "k"):
        assert spectral_inner_product(z, z, w) == 0.0
        aa = spectral_inner_product(a, a, w)
        assert aa.real >= 0.0 and abs(aa.imag) < 1e-12
    manual = np.sum(np.conj(a.values) * a.values / np.abs(k.nodes)) * k.dk
    assert spectral_inner_product(a, a, "inv_k") == pytest.approx(complex(manual))
