import warnings

import numpy as np
import pytest

from axiwave.grids import (SpectralProfile, convert_rep, make_grid,
                           spectral_norm)
from axiwave.relativity import (BeamState, BoostParams, FourMomentum,
                                aberrate_direction, boost_beam,
                                boost_four_momentum, doppler_factor,
                                momentum_boost_generator)
from axiwave import relativity
from axiwave.spectral import fourier_full_inverse, synthesize
from axiwave.operators import boost_generator_config
from axiwave.verify import rel_err

EZ = np.array([0.0, 0.0, 1.0])
EX = np.array([1.0, 0.0, 0.0])


def test_four_momentum_validation():
    FourMomentum(1.0, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="null"):
        FourMomentum(1.0, [0.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        FourMomentum(-1.0, [0.0, 0.0, -1.0])
    for k0, k in ((np.nan, [0.0, 0.0, 1.0]), (np.inf, [0.0, 0.0, np.inf]),
                  (np.inf, [0.0, 0.0, 1.0]), (1.0, [0.0, 0.0, np.nan])):
        with pytest.raises(ValueError):
            FourMomentum(k0, k)


def test_boost_params_validation():
    b = BoostParams(0.6, EZ)
    assert b.gamma * np.sqrt(1 - 0.36) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        BoostParams(1.0, EZ)
    with pytest.raises(ValueError):
        BoostParams(0.5, [1.0, 1.0, 0.0])
    for axis in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="unit"):
            BoostParams(0.5, axis)


def test_boost_examples():
    b = BoostParams(0.6, EZ)
    k = boost_four_momentum(FourMomentum(1.0, EZ), b)
    assert k.k0 == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(k.k, [0.0, 0.0, 0.5], atol=1e-12)
    # transverse case
    kt = boost_four_momentum(FourMomentum(1.0, EX), b)
    assert kt.k0 == pytest.approx(1.25, abs=1e-12)
    np.testing.assert_allclose(kt.k, [1.0, 0.0, -0.75], atol=1e-12)
    assert kt.k0 ** 2 == pytest.approx(1.0 + 0.75 ** 2)
    # v = 0 identity
    k0 = boost_four_momentum(FourMomentum(2.0, 2 * EX), BoostParams(0.0, EZ))
    assert k0.k0 == 2.0 and np.all(k0.k == 2 * EX)


def test_null_preservation_random():
    rng = np.random.default_rng(60)
    for _ in range(200):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        scale = rng.uniform(0.1, 10.0)
        k = FourMomentum(scale, scale * d)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        b = BoostParams(rng.uniform(-0.95, 0.95), axis)
        kp = boost_four_momentum(k, b)
        assert abs(kp.k0 - np.linalg.norm(kp.k)) <= 1e-10 * kp.k0


def test_boost_composition_law():
    v1, v2 = 0.5, 0.3
    v12 = (v1 + v2) / (1 + v1 * v2)
    k = FourMomentum(1.0, EX)
    b1 = boost_four_momentum(boost_four_momentum(k, BoostParams(v1, EZ)),
                             BoostParams(v2, EZ))
    b2 = boost_four_momentum(k, BoostParams(v12, EZ))
    assert b1.k0 == pytest.approx(b2.k0, rel=1e-12)
    np.testing.assert_allclose(b1.k, b2.k, rtol=1e-12)


def test_aberration_formula_values():
    # v = 0 identity
    n = np.array([0.6, 0.0, 0.8])
    np.testing.assert_allclose(aberrate_direction(n, BoostParams(0.0, EZ)), n)


def test_aberration_equals_normalized_boost():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        b = BoostParams(rng.uniform(-0.99, 0.99), axis)
        via_formula = aberrate_direction(n, b)
        kp = boost_four_momentum(FourMomentum(1.0, n), b)
        via_boost = kp.k / np.linalg.norm(kp.k)
        assert np.max(np.abs(via_formula - via_boost)) <= 1e-12
        assert abs(np.linalg.norm(via_formula) - 1.0) <= 1e-12


def test_doppler_values_and_oracle():
    b = BoostParams(0.6, EZ)
    assert doppler_factor(EZ, b) == pytest.approx(0.5, abs=1e-12)
    assert doppler_factor(-EZ, b) == pytest.approx(2.0, abs=1e-12)
    # against the 4-vector boost, random directions
    rng = np.random.default_rng(62)
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        v = rng.uniform(-0.9, 0.9)
        bb = BoostParams(v, EZ)
        kp = boost_four_momentum(FourMomentum(1.0, n), bb)
        assert doppler_factor(n, bb) == pytest.approx(kp.k0, rel=1e-12)
        # forward/backward product = gamma^2 (1 - v^2 c^2)
        prod = doppler_factor(n, bb) * doppler_factor(n, BoostParams(-v, EZ))
        c = n @ EZ
        assert prod == pytest.approx(bb.gamma ** 2 * (1 - v * v * c * c),
                                     rel=1e-12)


def forward_beam(k0=8.0, width_k=1.2):
    grid = make_grid(256, 40.0)
    sg = grid.conjugate()
    kap = sg.nodes
    vals = np.where(kap > 0, np.exp(-(((kap - k0) / width_k) ** 2)), 0.0)
    return BeamState(EZ, SpectralProfile(sg, vals.astype(complex)))


def test_parallel_boost_peak_halves():
    beam = forward_beam(k0=8.0)
    out = boost_beam(beam, BoostParams(0.6, EZ))
    assert len(out) == 1
    new = out[0]
    np.testing.assert_allclose(new.direction, EZ)
    kap = new.profile.grid.nodes
    peak = kap[np.argmax(np.abs(new.profile.values))]
    assert abs(peak - 4.0) <= new.profile.grid.dk


@pytest.mark.parametrize("tilt,count", [(1e-7, 1), (1e-5, 2)])
def test_parallel_branch_threshold(tilt, count):
    # the single-beam branch needs |cos| within 1e-12 of 1, a tilt below
    # about 1.4e-6 rad
    beam = forward_beam()
    b = BoostParams(0.6, [np.sin(tilt), 0.0, np.cos(tilt)])
    assert len(boost_beam(beam, b)) == count


def test_boost_beam_v0_identity():
    beam = forward_beam()
    out = boost_beam(beam, BoostParams(0.0, EZ))
    assert len(out) == 1
    np.testing.assert_array_equal(out[0].profile.values, beam.profile.values)


def test_inv_k_norm_preserved_parallel():
    beam = forward_beam(k0=8.0, width_k=1.0)
    before = spectral_norm(beam.profile, "inv_k")
    out = boost_beam(beam, BoostParams(0.6, EZ))[0]
    after = spectral_norm(out.profile, "inv_k")
    assert abs(after - before) / before <= 5e-3


def test_general_boost_splits_branches():
    grid = make_grid(256, 40.0)
    sg = grid.conjugate()
    kap = sg.nodes
    vals = (np.exp(-(((kap - 8.0) / 1.2) ** 2))
            + np.exp(-(((kap + 6.0) / 1.0) ** 2))).astype(complex)
    beam = BeamState(EZ, SpectralProfile(sg, vals))
    b = BoostParams(0.5, EX)
    fwd, bwd = boost_beam(beam, b)
    np.testing.assert_allclose(fwd.direction, aberrate_direction(EZ, b),
                               atol=1e-12)
    np.testing.assert_allclose(bwd.direction, aberrate_direction(-EZ, b),
                               atol=1e-12)
    # each output is single-sided in kappa
    n = sg.n_half
    assert np.all(fwd.profile.values[:n] == 0.0)
    assert np.all(bwd.profile.values[:n] == 0.0)
    # transverse boost: magnitudes scale by gamma on both branches
    peak_f = sg.nodes[np.argmax(np.abs(fwd.profile.values))]
    assert abs(peak_f - b.gamma * 8.0) <= 2 * sg.dk


def test_inv_k_drift_refines_with_kappa_grid():
    # the dilation is exact: the 1/|kappa| norm holds to rounding on both
    # kappa grids (the cubic spline drifted 2.9e-7 at the coarser one)
    for extent, n in ((40.0, 256), (80.0, 512)):
        sg = make_grid(n, extent).conjugate()
        kap = sg.nodes
        vals = np.where(kap > 0, np.exp(-(((kap - 8.0) / 1.0) ** 2)),
                        0.0).astype(complex)
        beam = BeamState(EZ, SpectralProfile(sg, vals))
        before = spectral_norm(beam.profile, "inv_k")
        out = boost_beam(beam, BoostParams(0.6, EZ))[0]
        assert abs(spectral_norm(out.profile, "inv_k") - before) \
            <= 1e-13 * before


def test_resample_outside_support_warns():
    # a blue shift by alpha = 14.1 moves the packet at kappa 8 far above
    # the band top (about 20): the forward branch keeps almost nothing
    beam = forward_beam(k0=8.0, width_k=1.0)
    with pytest.warns(UserWarning, match="forward branch keeps") as caught:
        out = boost_beam(beam, BoostParams(-0.99, EZ))[0]
    assert len(caught) == 1
    kept = spectral_norm(out.profile) / spectral_norm(beam.profile)
    assert kept < 1e-6
    said = float(str(caught[0].message).split(" keeps ")[1].split()[0])
    assert said == pytest.approx(kept, rel=1e-5)


def test_red_shift_near_band_top_warns_of_gain():
    # a packet cut at its peak by the band top, red-shifted: its
    # band-limited continuation rings between the nodes, and the branch
    # comes out with more 1/|kappa| norm than it went in with
    beam = forward_beam(k0=20.0, width_k=2.0)
    with pytest.warns(UserWarning, match="forward branch keeps") as caught:
        out = boost_beam(beam, BoostParams(0.6, EZ))[0]
    assert len(caught) == 1
    kept = spectral_norm(out.profile) / spectral_norm(beam.profile)
    assert kept > 1.0 + 1e-3
    said = float(str(caught[0].message).split(" keeps ")[1].split()[0])
    assert said == pytest.approx(kept, rel=1e-5)


def _gauss_beam(sg, peak=1.0):
    """A forward beam of the same node values on any kappa grid."""
    m = np.arange(-sg.n_half, sg.n_half) + 0.5
    return BeamState(EZ, SpectralProfile(
        sg, np.where(m > 0, peak * np.exp(-(m - 16.0) ** 2 / 16.0), 0.0)))


def test_nan_loss_warns():
    # near the top of the float range the dilation's sums overflow and the
    # beam comes back partly non-finite: a NaN fraction kept warns like any
    # other loss
    beam = _gauss_beam(make_grid(64, 40.0).conjugate(), 1e307)
    with np.errstate(all="ignore"), \
            pytest.warns(UserWarning, match="forward branch keeps nan"):
        (out,) = boost_beam(beam, BoostParams(0.6, EZ))
    assert not np.isfinite(out.profile.values).all()


@pytest.mark.filterwarnings("ignore:boost_beam:UserWarning")
def test_boost_depends_on_node_values_alone():
    # every grid scale cancels in the dilation: the same node values give
    # the same bits at any accepted extent
    for b in (BoostParams(0.6, EZ), BoostParams(-0.4, [0.6, 0.0, 0.8])):
        values = [np.stack([out.profile.values for out in boost_beam(
            _gauss_beam(make_grid(64, extent).conjugate()), b)])
            for extent in (40.0, 1e-250, 1e250, 1e300)]
        assert np.isfinite(values[0]).all()
        for other in values[1:]:
            assert np.array_equal(other, values[0])


def direct_dilation(sg, branch, alpha):
    """phi(kappa_m / alpha) by the O(n^2) Fourier sum of the branch's field."""
    n, kpos = sg.n_half, sg.positive_nodes()
    g = fourier_full_inverse(np.concatenate([np.zeros(n), np.sqrt(kpos)
                                             * branch]), sg)
    axis = sg.axis_grid()
    q = kpos / alpha
    ghat = axis.h / np.sqrt(2.0 * np.pi) \
        * np.exp(-1j * np.outer(q, axis.nodes)) @ g
    return np.where(q <= n * sg.dk, ghat / np.sqrt(q), 0.0)


@pytest.mark.parametrize("n_half", [16, 256])
def test_dilate_matches_direct_sum(n_half):
    sg = make_grid(n_half, n_half * 40.0 / 256).conjugate()
    kpos = sg.positive_nodes()
    alphas = np.array([0.07, 0.5, 2.0, 14.1])
    for k0 in (8.0, 0.3 * n_half * sg.dk):
        branch = np.exp(-((kpos - k0) / 1.0) ** 2) * (1.0 + 0.3j)
        got = relativity._dilate(np.tile(branch, (4, 1)), alphas)
        for row, alpha in zip(got, alphas):
            want = direct_dilation(sg, branch, alpha)
            assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(branch))


# the blue shifts (-0.3, -0.4) cut a tail of about 2e-4 off the band top
# on both sides of the identity, and warn
@pytest.mark.filterwarnings("ignore:boost_beam:UserWarning")
@pytest.mark.parametrize("n_half", [256, 1024])
@pytest.mark.parametrize("v1, v2", [(0.3, 0.4), (-0.3, -0.4), (0.6, -0.5)])
def test_collinear_boosts_compose(n_half, v1, v2):
    # rapidities add: boost(v2) boost(v1) = boost((v1 + v2) / (1 + v1 v2))
    sg = make_grid(n_half, n_half * 40.0 / 256).conjugate()
    kap = sg.nodes
    vals = np.where(kap > 0, np.exp(-((kap - 8.0) ** 2)), 0.0)
    beam = BeamState(EZ, SpectralProfile(sg, vals.astype(complex)))
    twice = boost_beam(boost_beam(beam, BoostParams(v1, EZ))[0],
                       BoostParams(v2, EZ))[0].profile.values
    once = boost_beam(beam, BoostParams((v1 + v2) / (1.0 + v1 * v2),
                                        EZ))[0].profile.values
    assert np.max(np.abs(twice - once)) <= 1e-11 * np.max(np.abs(once))


def test_generator_two_routes_agree():
    grid = make_grid(2048, 160.0)
    sg = grid.conjugate()
    kap = sg.nodes
    phi = SpectralProfile(sg, (kap * np.exp(-kap ** 2)).astype(complex))
    a = momentum_boost_generator(phi).values
    scale = np.max(np.abs(a))
    want = 1j * kap * (1.0 - 2.0 * kap ** 2) * np.exp(-kap ** 2)
    assert np.max(np.abs(a - want)) <= 1e-8 * scale


def test_infinitesimal_boost_matches_generator():
    # finite parallel boost vs phi - i dv N_k phi on a forward profile:
    # residual O(dv^2) with a stable constant under dv halving
    beam = forward_beam(k0=8.0, width_k=1.0)
    gen = momentum_boost_generator(beam.profile).values
    consts = []
    for dv in (1e-3, 5e-4):
        out = boost_beam(beam, BoostParams(dv, EZ))[0].profile.values
        lin = beam.profile.values - 1j * dv * gen
        resid = np.max(np.abs(out - lin))
        consts.append(resid / dv ** 2)
    assert consts[0] == pytest.approx(consts[1], rel=0.15)


def test_cross_module_generator_cancellation():
    # synthesize(boost(dv) phi) ~ (1 - i dv N_config) synthesize(phi)
    grid = make_grid(512, 40.0)
    sg = grid.conjugate()
    kap = sg.nodes
    phi = SpectralProfile(sg, np.where(
        kap > 0, np.exp(-(((kap - 8.0) / 1.0) ** 2)), 0.0).astype(complex))
    beam = BeamState(EZ, phi)
    psi = synthesize(phi)
    psi_g = convert_rep(psi, "g").values
    n_conf = boost_generator_config(grid, "h_first")
    dv = 2e-4
    boosted = boost_beam(beam, BoostParams(dv, EZ))[0].profile
    delta_actual = convert_rep(synthesize(boosted), "g").values - psi_g
    delta_pred = -1j * dv * convert_rep(n_conf.apply(psi), "g").values
    mask = grid.interior_mask()
    assert rel_err(delta_actual, delta_pred, mask) <= 0.05


def scalar_reference(n, v, axis):
    """The one-vector formulas as float dot products: boosted (k0, k) of
    (1, n), the aberrated direction and the Doppler factor."""
    axis = axis / np.linalg.norm(axis)
    g = 1.0 / np.sqrt(1.0 - v * v)
    nn = n / np.linalg.norm(n)
    par, c = float(n @ axis), float(nn @ axis)
    k0p, parp = g * (1.0 - v * par), g * (par - v * 1.0)
    ab = (nn - c * axis + g * (c - v) * axis) / (g * (1.0 - v * c))
    return k0p, n - par * axis + parp * axis, ab, g * (1.0 - v * c)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@pytest.mark.parametrize("m", (1, 2, 7, 1000))
def test_stacks_give_the_bits_of_single_calls(m):
    rng = np.random.default_rng(m)
    ns, axes = rng.normal(size=(2, m, 3))
    ns /= np.linalg.norm(ns, axis=1, keepdims=True)
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    vs = rng.uniform(-0.95, 0.95, m)
    b = BoostParams(vs, axes)
    kp = boost_four_momentum(FourMomentum(np.ones(m), ns), b)
    ab, dop = aberrate_direction(ns, b), doppler_factor(ns, b)
    assert kp.k.shape == ab.shape == (m, 3) and dop.shape == kp.k0.shape == (m,)
    for i in range(m):
        bi = BoostParams(vs[i], axes[i])
        one = boost_four_momentum(FourMomentum(1.0, ns[i]), bi)
        ref = scalar_reference(ns[i], vs[i], axes[i])
        for got, want in zip((kp.k0[i], kp.k[i], ab[i], dop[i]),
                             (one.k0, one.k, aberrate_direction(ns[i], bi),
                              doppler_factor(ns[i], bi))):
            assert np.array_equal(_bits(got), _bits(want))
        # a single vector keeps the bits of the one-vector formulas
        for got, want in zip((one.k0, one.k, aberrate_direction(ns[i], bi),
                              doppler_factor(ns[i], bi)), ref):
            assert np.array_equal(_bits(got), _bits(want))
        assert np.ndim(one.k0) == np.ndim(doppler_factor(ns[i], bi)) == 0


def test_stack_validation():
    ez2 = np.stack([EZ, EX])
    BoostParams([0.5, -0.5], ez2)
    FourMomentum([1.0, 2.0], [EZ, 2 * EX])
    with pytest.raises(ValueError, match="one value per 3-vector"):
        BoostParams(0.5, ez2)
    with pytest.raises(ValueError, match="one value per 3-vector"):
        FourMomentum([1.0, 1.0, 1.0], ez2)
    with pytest.raises(ValueError, match="below 1"):
        BoostParams([0.5, 1.0], ez2)
    with pytest.raises(ValueError, match="unit"):
        BoostParams([0.5, 0.5], [EZ, 2 * EX])
    with pytest.raises(ValueError, match="null"):
        FourMomentum([1.0, 1.0], [EZ, 0.5 * EX])
    with pytest.raises(ValueError, match="3-vector"):
        aberrate_direction(np.ones((2, 2)), BoostParams(0.5, EZ))
    with pytest.raises(ValueError, match="3-vector"):
        BeamState(ez2, None)


def test_kinematics_entries_equal_the_single_vector_loop():
    # the ledger draws its 1000 rays, axes and speeds in bulk and runs them
    # as stacks; a one-vector loop over the same draws stays here as the
    # reference, and the arithmetic is the same
    from axiwave.verify import RunConfig, _draw_suites, _kinematics
    cfg = RunConfig()
    rng = np.random.default_rng(cfg.seed + 3)
    rays = rng.normal(size=(2, 1000, 3))
    speeds = rng.uniform(-0.95, 0.95, 1000)
    worst_null = worst_ab = worst_dop = 0.0
    for n, ax, v in zip(*rays, speeds):
        n = n / np.linalg.norm(n)
        b = BoostParams(v, ax / np.linalg.norm(ax))
        kp = boost_four_momentum(FourMomentum(1.0, n), b)
        worst_null = max(worst_null, abs(kp.k0 - np.linalg.norm(kp.k)) / kp.k0)
        ab = aberrate_direction(n, b)
        worst_ab = max(worst_ab,
                       float(np.max(np.abs(ab - kp.k / np.linalg.norm(kp.k)))))
        worst_dop = max(worst_dop, abs(doppler_factor(n, b) - kp.k0))
    entries = _kinematics(**_draw_suites(cfg))
    got = [float(next(entries)[2]) for _ in range(3)]
    assert got == [worst_null, worst_ab, worst_dop]
