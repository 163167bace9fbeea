import numpy as np
import pytest

from axiwave.grids import (AxialField, SpectralProfile, convert_rep,
                           gaussian_packet, inner_product, make_grid,
                           random_packet, spectral_inner_product)
from axiwave.spectral import (analyze, analyze_fast, fourier_full,
                              fourier_full_inverse, spectral_derivative,
                              synthesize)
from axiwave.verify import rel_err


def test_fourier_full_matches_dense_and_unitary():
    grid = make_grid(32, 8.0)
    sg = grid.conjugate()
    rng = np.random.default_rng(31)
    g = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    dense = grid.h / np.sqrt(2 * np.pi) * np.exp(
        -1j * np.outer(sg.nodes, grid.nodes)) @ g
    np.testing.assert_allclose(fourier_full(g, grid), dense, atol=1e-12)
    back = fourier_full_inverse(fourier_full(g, grid), sg)
    np.testing.assert_allclose(back, g, atol=1e-12)
    # flat-measure Parseval is exact on the offset grids
    spec = fourier_full(g, grid)
    assert np.sum(np.abs(spec) ** 2) * sg.dk == pytest.approx(
        np.sum(np.abs(g) ** 2) * grid.h, rel=1e-13)


def test_round_trip_is_identity():
    grid = make_grid(256, 40.0)
    rng = np.random.default_rng(32)
    psi = random_packet(grid, rng)
    back = synthesize(analyze(psi))
    assert rel_err(back.values, psi.values) <= 1e-12  # far inside 1e-2
    # the FFT route back: g = Finv(sqrt|kappa| phi)
    phi = analyze_fast(psi)
    g = fourier_full_inverse(np.sqrt(np.abs(phi.grid.nodes)) * phi.values,
                             phi.grid)
    assert rel_err(g, convert_rep(psi, "g").values) <= 1e-12


def test_forward_round_trip_on_profiles():
    grid = make_grid(128, 30.0)
    sg = grid.conjugate()
    kk = sg.nodes
    phi = SpectralProfile(sg, np.exp(-((kk - 4.0) / 1.5) ** 2)
                          + 0.5j * np.exp(-((kk + 2.0) / 1.0) ** 2))
    again = analyze(synthesize(phi))
    assert rel_err(again.values, phi.values) <= 1e-12


def test_fast_equals_structural():
    grid = make_grid(192, 36.0)
    rng = np.random.default_rng(33)
    for _ in range(5):
        psi = random_packet(grid, rng)
        a = analyze(psi)
        b = analyze_fast(psi)
        assert a.grid.same_as(b.grid)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)


def test_zero_field_zero_profile():
    grid = make_grid(64, 16.0)
    z = AxialField(grid, "f", np.zeros(grid.size))
    assert np.all(analyze(z).values == 0.0)


def test_parity_covariance():
    grid = make_grid(128, 24.0)
    rng = np.random.default_rng(34)
    psi = random_packet(grid, rng)
    lhs = analyze(psi.copy_with(psi.values[::-1])).values
    rhs = analyze(psi).values[::-1]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_even_field_collapses_to_cos_route():
    grid = make_grid(128, 24.0)
    lam = grid.nodes
    psi = AxialField(grid, "g", np.exp(-((np.abs(lam) - 6.0) / 2.0) ** 2))
    phi = analyze(psi)
    np.testing.assert_allclose(phi.values, phi.values[::-1], atol=1e-13)
    # structural collapse: (1/sqrt k) Fc applied to either g-half
    from axiwave.transforms import HalfLineFunction, trig_transform
    gp = convert_rep(psi, "g").values[grid.n_half:]
    ce = trig_transform(HalfLineFunction(grid.h, gp), "cos").values
    k = phi.grid.positive_nodes()
    np.testing.assert_allclose(phi.values[grid.n_half:], ce / np.sqrt(k),
                               atol=1e-13)


def test_windowed_wave_peaks_at_k0():
    grid = make_grid(256, 40.0)
    k0 = 5.0
    psi = convert_rep(gaussian_packet(grid, k0, width=8.0), "f")
    phi = analyze(psi)
    peak = phi.grid.nodes[np.argmax(np.abs(phi.values))]
    assert abs(peak - k0) <= phi.grid.dk


def test_negative_branch_peak():
    grid = make_grid(256, 40.0)
    psi = convert_rep(gaussian_packet(grid, -6.0, width=8.0), "f")
    phi = analyze(psi)
    peak = phi.grid.nodes[np.argmax(np.abs(phi.values))]
    assert abs(peak + 6.0) <= phi.grid.dk


def test_parseval_ties_inv_r_to_k_weight():
    grid = make_grid(128, 24.0)
    rng = np.random.default_rng(35)
    for _ in range(10):
        a = random_packet(grid, rng)
        b = random_packet(grid, rng)
        lhs = spectral_inner_product(analyze(a), analyze(b), "k")
        rhs = inner_product(a, b, "inv_r")
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_delta_profile_synthesis_oracle():
    # single-node profile synthesizes to exp(i kappa0 l)/sqrt(|kappa0 l|)
    # shape; oracle is the direct superposition sum
    grid = make_grid(128, 24.0)
    sg = grid.conjugate()
    vals = np.zeros(sg.size, dtype=complex)
    m0 = sg.n_half + 20
    vals[m0] = 1.0
    k0 = sg.nodes[m0]
    fld = synthesize(SpectralProfile(sg, vals))
    lam = grid.nodes
    oracle_g = sg.dk / np.sqrt(2 * np.pi) * np.sqrt(k0) * np.exp(1j * k0 * lam)
    got_g = convert_rep(fld, "g").values
    np.testing.assert_allclose(got_g, oracle_g, atol=1e-14)
    shape = np.exp(1j * k0 * lam) / np.sqrt(np.abs(k0 * lam))
    ratio = fld.values / shape
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_spectral_derivative_accuracy_and_skewness():
    grid = make_grid(256, 40.0)
    lam = grid.nodes
    g = np.exp(-((lam - 2.0) / 5.0) ** 2) * np.exp(1j * 3.0 * lam)
    dg = spectral_derivative(g, grid)
    want = (-2.0 * (lam - 2.0) / 25.0 + 3.0j) * g
    assert rel_err(dg, want) <= 1e-8
    # exactly anti-Hermitian under the flat product
    rng = np.random.default_rng(36)
    a = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    b = rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size)
    lhs = np.sum(np.conj(a) * spectral_derivative(b, grid))
    rhs = -np.sum(np.conj(spectral_derivative(a, grid)) * b)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
