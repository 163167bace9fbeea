import numpy as np
import pytest

from axiwave.grids import (AxialField, convert_rep, gaussian_packet,
                           inner_product, make_grid, random_packet,
                           sample_field)
from axiwave.operators import (LinearOperatorHandle, adjoint_residual,
                               boost_generator_config, boost_generator_local,
                               boost_ordering_residual, commutator_residual,
                               four_vector_ops, pbar, pbar0, pbar0_triangle_residual,
                               radial_momentum_tilde, rayleigh_quotient)
from axiwave._fd import derivative_per_half
from axiwave.transforms import hilbert_signed
from axiwave.verify import rel_err

GRID = make_grid(256, 40.0)
RNG = np.random.default_rng(40)


def probes(grid, n=6, kmax=3.0, rng=None):
    rng = rng or np.random.default_rng(41)
    return [random_packet(grid, rng, kmax=kmax) for _ in range(n)]


def linearity_residual(handle, rng):
    """max |H(aa+bb) - a H a - b H b| / scale over five random probe pairs."""
    grid = handle.grid
    worst = 0.0
    for _ in range(5):
        a = AxialField(grid, "f", rng.normal(size=grid.size)
                       + 1j * rng.normal(size=grid.size))
        b = AxialField(grid, "f", rng.normal(size=grid.size)
                       + 1j * rng.normal(size=grid.size))
        al, be = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        combo = AxialField(grid, "f", al * a.values + be * b.values)
        lhs = handle.apply(combo).values
        rhs = al * handle.apply(a).values + be * handle.apply(b).values
        scale = max(np.linalg.norm(rhs), 1e-30)
        worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    return worst


def test_handles_are_linear():
    for handle in (radial_momentum_tilde(GRID), pbar(GRID),
                   pbar0(GRID, "left"), pbar0(GRID, "right"),
                   pbar0(GRID, "spectral"), boost_generator_local(GRID),
                   boost_generator_config(GRID, "h_first")):
        assert linearity_residual(handle, np.random.default_rng(42)) <= 1e-12


def _every_factory(grid):
    return [radial_momentum_tilde(grid), pbar(grid),
            *(pbar0(grid, form) for form in ("left", "right", "spectral")),
            *four_vector_ops(grid, "s"), *four_vector_ops(grid, "t"),
            boost_generator_local(grid),
            *(boost_generator_config(grid, o) for o in ("h_first", "h_last"))]


@pytest.mark.parametrize("index", range(12), ids=[
    "pt", "pbar", "pbar0_left", "pbar0_right", "pbar0_spectral", "s0", "s3",
    "t0", "t3", "N_local", "N_h_first", "N_h_last"])
def test_handle_output_independent_of_input_rep(index):
    # the representation conversion lives in one place: the same packet
    # handed over in f or in g gives the same output, in the caller's rep
    handle = _every_factory(GRID)[index]
    g_in = gaussian_packet(GRID, 2.0, width=4.0, center=3.0)
    f_in = convert_rep(g_in, "f")
    out_g, out_f = handle.apply(g_in), handle.apply(f_in)
    assert (out_g.rep, out_f.rep) == ("g", "f")
    assert rel_err(convert_rep(out_f, "g").values, out_g.values) <= 1e-12


def test_pt_kernel_contains_inverse_lambda():
    pt = radial_momentum_tilde(GRID)
    f = sample_field(lambda x: 1.0 / x, GRID)
    out = pt.apply(f)
    assert np.max(np.abs(out.values)) <= 1e-10 * np.max(np.abs(f.values))


def test_pt_eigenaction_on_u_k_standin():
    # f = exp(ikl)/l * taper:  pt f = k f where the taper is flat
    k0 = 3.0
    lam = GRID.nodes
    taper = np.exp(-((lam / 12.0) ** 8))
    f = AxialField(GRID, "f", np.exp(1j * k0 * lam) * taper / lam)
    out = radial_momentum_tilde(GRID).apply(f)
    # skip the two one-sided stencil rows next to the origin
    mask = (np.abs(lam) > 2.5 * GRID.h) & (np.abs(lam) < 5.0)
    assert rel_err(out.values, k0 * f.values, mask) <= 2e-3


def test_pt_symmetric_given_continuity():
    # random smooth fields in g all satisfy the origin-continuity condition
    grid = make_grid(512, 40.0)
    pt = radial_momentum_tilde(grid)
    ps = probes(grid, 6, rng=np.random.default_rng(43))
    assert adjoint_residual(pt, pt, "unit", ps) <= 1e-3


def test_pt_symmetry_defect_matches_surface_term():
    # lambda*b jumps at the origin by 2: the defect of <a, pt b> - <pt a, b>
    # equals i * jump(conj(lambda a) * (lambda b)) evaluated at the origin
    grid = make_grid(512, 40.0)
    pt = radial_momentum_tilde(grid)
    a = sample_field(lambda x: np.exp(-x ** 2) / x, grid)      # continuous l*a
    b = sample_field(lambda x: np.exp(-x ** 2) / np.abs(x), grid)  # jumping l*b
    defect = inner_product(a, pt.apply(b), "unit") \
        - inner_product(pt.apply(a), b, "unit")
    lam = grid.nodes
    big_a = np.conj(lam * a.values)
    big_b = lam * b.values
    n = grid.n_half
    jump = big_a[n] * big_b[n] - big_a[n - 1] * big_b[n - 1]
    predicted = 1j * jump
    assert abs(defect - predicted) <= 0.10 * abs(predicted)


def test_pr_not_symmetric_contrast():
    # p_r = -i (1/r) d_r r picks up the SUM of the two surface values, so a
    # perfectly continuity-respecting probe still leaves a finite defect
    grid = make_grid(512, 40.0)
    lam = grid.nodes

    def fn(f):
        # d_r (r f) = d/dlambda (lambda f) on both rays; 1/r = 1/|lambda|
        return -1j * derivative_per_half(lam * f, grid.n_half, grid.h) \
            / np.abs(lam)

    pr = LinearOperatorHandle("p_r", grid, lambda fld: fld.copy_with(
        fn(convert_rep(fld, "f").values)))
    a = sample_field(lambda x: np.exp(-x ** 2) / x, grid)
    defect = inner_product(a, pr.apply(a), "unit") \
        - inner_product(pr.apply(a), a, "unit")
    big_a = lam * a.values
    n = grid.n_half
    surface_sum = (np.conj(big_a[n]) * big_a[n]
                   + np.conj(big_a[n - 1]) * big_a[n - 1])
    predicted = 1j * surface_sum
    assert abs(defect - predicted) <= 0.10 * abs(predicted)
    # same probe leaves pt with essentially no defect
    pt = radial_momentum_tilde(grid)
    d0 = inner_product(a, pt.apply(a), "unit") \
        - inner_product(pt.apply(a), a, "unit")
    assert abs(d0) <= 1e-3 * abs(predicted)


def test_pbar_eigenaction():
    # flat-top window: the envelope-derivative term vanishes on the plateau
    k0 = 5.0
    lam = GRID.nodes
    pkt = AxialField(GRID, "g", np.exp(-((lam / 10.0) ** 8))
                     * np.exp(1j * k0 * lam))
    out = pbar(GRID).apply(pkt)
    mask = np.abs(lam) < 4.0
    assert rel_err(out.values, k0 * pkt.values, mask) <= 1e-3


def test_pbar_self_adjoint_inv_r():
    ps = probes(GRID, 6, rng=np.random.default_rng(44))
    p = pbar(GRID)
    assert adjoint_residual(p, p, "inv_r", ps) <= 1e-12


def test_pbar_squared_equals_pbar0_squared():
    # apply left then right pbar0 forms and compare with pbar twice
    ps = probes(GRID, 3, kmax=2.5, rng=np.random.default_rng(45))
    left = pbar0(GRID, "left")
    right = pbar0(GRID, "right")
    p = pbar(GRID)
    mask = GRID.interior_mask()
    for f in ps:
        via_h = left.apply(right.apply(f))
        via_p = p.apply(p.apply(f))
        a = convert_rep(via_h, "g").values
        b = convert_rep(via_p, "g").values
        assert rel_err(a, b, mask) <= 0.02


@pytest.mark.parametrize("form", ["left", "right", "spectral"])
def test_pbar0_eigenaction(form):
    # windowed w_k stand-in: pbar0 f ~ |k| f  (k * width >= 20)
    k0, width = 4.0, 10.0
    pkt = gaussian_packet(GRID, k0, width=width)
    assert k0 * width >= 20
    out = pbar0(GRID, form).apply(pkt)
    mask = np.abs(GRID.nodes) < 5.0
    assert rel_err(out.values, k0 * pkt.values, mask) <= 0.02


def test_pbar0_triangle():
    ps = probes(GRID, 6, kmax=3.0, rng=np.random.default_rng(46))
    assert pbar0_triangle_residual(GRID, ps) <= 0.02


def test_pbar0_positive():
    ps = probes(GRID, 8, rng=np.random.default_rng(47))
    spec = pbar0(GRID, "spectral")
    left = pbar0(GRID, "left")
    for f in ps:
        assert rayleigh_quotient(spec, f) >= -1e-3
        assert rayleigh_quotient(left, f) >= -1e-3
    # spectral form is positive by construction: tiny negative floor only
    z = probes(GRID, 1, rng=np.random.default_rng(48))[0]
    assert rayleigh_quotient(spec, z) >= -1e-12


def test_s_multipliers():
    s0, s3 = four_vector_ops(GRID, "s")
    ones = AxialField(GRID, "f", np.ones(GRID.size))
    np.testing.assert_allclose(s0.apply(ones).values,
                               -1.0 / np.abs(GRID.nodes), atol=1e-14)
    np.testing.assert_allclose(s3.apply(ones).values,
                               1.0 / GRID.nodes, atol=1e-14)


def test_t_axial_is_pbar():
    t0, t3 = four_vector_ops(GRID, "t")
    assert t3.label == "pbar"
    pkt = gaussian_packet(GRID, 3.0, width=8.0)
    np.testing.assert_allclose(t3.apply(pkt).values,
                               pbar(GRID).apply(pkt).values, atol=1e-12)


def test_commutator_trivial_zero():
    p = pbar(GRID)
    ps = probes(GRID, 2, rng=np.random.default_rng(49))
    assert commutator_residual(p, p, None, 1.0, ps) == 0.0
    with pytest.raises(ValueError):
        commutator_residual(p, p, None, 1.0, [])


def annular_probes(grid, n=6, rng=None):
    rng = rng or np.random.default_rng(50)
    return [random_packet(grid, rng, signs=(-1.0, 1.0), centers=(0.25, 0.4),
                          widths=(0.06, 0.12)) for _ in range(n)]


def test_local_boost_commutators_s_family():
    # [N', s0] = i s3   and   [N', s3] = i s0
    grid = make_grid(512, 40.0)
    np_loc = boost_generator_local(grid)
    s0, s3 = four_vector_ops(grid, "s")
    ps = annular_probes(grid, 6)
    assert commutator_residual(np_loc, s0, s3, 1j, ps) <= 0.05
    assert commutator_residual(np_loc, s3, s0, 1j, ps) <= 0.05


def test_local_boost_commutators_t_family():
    grid = make_grid(512, 40.0)
    np_loc = boost_generator_local(grid)
    t0, t3 = four_vector_ops(grid, "t")
    ps = annular_probes(grid, 6)
    assert commutator_residual(np_loc, t0, t3, 1j, ps) <= 0.05
    assert commutator_residual(np_loc, t3, t0, 1j, ps) <= 0.05


def test_full_boost_commutators():
    # [N, pbar0] = i pbar   and   [N, pbar] = i pbar0
    grid = make_grid(512, 40.0)
    n_op = boost_generator_config(grid, "h_first")
    h_op = pbar0(grid, "spectral")
    p_op = pbar(grid)
    ps = probes(grid, 6, kmax=2.5, rng=np.random.default_rng(51))
    assert commutator_residual(n_op, h_op, p_op, 1j, ps) <= 0.05
    assert commutator_residual(n_op, p_op, h_op, 1j, ps) <= 0.05


def test_boost_orderings_agree():
    grid = make_grid(512, 40.0)
    ps = probes(grid, 4, kmax=2.5, rng=np.random.default_rng(52))
    assert boost_ordering_residual(grid, ps) <= 0.02


def test_boost_hermitian_inv_r():
    grid = make_grid(512, 40.0)
    n_op = boost_generator_config(grid, "h_first")
    rng = np.random.default_rng(53)
    ps = [gaussian_packet(grid, rng.uniform(7.0, 9.0), width=10.0,
                          center=rng.uniform(-3.0, 3.0), rep="f")
          for _ in range(6)]
    assert adjoint_residual(n_op, n_op, "inv_r", ps) <= 0.05


def test_hilbert_conjugate_adjoint_pair():
    # (r^{-1/2} Hpm r^{1/2})^dag = -(r^{-1/2} Hmp r^{1/2}) under inv_r
    grid = GRID
    root = np.sqrt(np.abs(grid.nodes))

    def conj_h(sign):
        def fn(f):
            u = hilbert_signed(AxialField(grid, "g", root * f), sign)
            return u.values / root
        def apply(fld):
            f = convert_rep(fld, "f")
            return convert_rep(AxialField(grid, "f", fn(f.values)), fld.rep)
        return LinearOperatorHandle(f"W{sign}", grid, apply)

    wp, wm = conj_h("plus"), conj_h("minus")
    neg_wm = LinearOperatorHandle("-Wminus", grid,
                                  lambda fld: fld.copy_with(-wm.apply(fld).values))
    neg_wp = LinearOperatorHandle("-Wplus", grid,
                                  lambda fld: fld.copy_with(-wp.apply(fld).values))
    ps = probes(grid, 6, rng=np.random.default_rng(54))
    assert adjoint_residual(wp, neg_wm, "inv_r", ps) <= 1e-2
    assert adjoint_residual(wm, neg_wp, "inv_r", ps) <= 1e-2


def test_noncommutation_witness():
    # the derivative and Hplus components of pbar0 genuinely do not commute
    grid = GRID
    sgn = np.sign(grid.nodes)

    def d_r(fld):
        f = convert_rep(fld, "f")
        out = sgn * derivative_per_half(f.values, grid.n_half, grid.h)
        return convert_rep(AxialField(grid, "f", out), fld.rep)

    dr = LinearOperatorHandle("d_r", grid, d_r)
    hp = LinearOperatorHandle("Hplus", grid,
                              lambda fld: hilbert_signed(fld, "plus"))
    ps = probes(grid, 4, rng=np.random.default_rng(55))
    assert commutator_residual(dr, hp, None, 1.0, ps) > 10 * 0.05
