"""Property tests of the grid rule, and of the signed Hilbert transform on
random grids: it is the parity join of He / Ho on the parity halves, bit
for bit, on both backends, and it commutes with parity."""

import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from axiwave.grids import (make_grid, make_spectral_grid, offset_nodes,
                           parity_join, parity_split, random_packet)
from axiwave.transforms import (HalfLineFunction, hilbert_even, hilbert_odd,
                                hilbert_signed)

grids = st.builds(make_grid, st.integers(8, 2048),
                  st.floats(0.5, 500.0, allow_nan=False))
seeds = st.integers(0, 2 ** 32 - 1)
BACKENDS = ("spectral", "quadrature")
# plus: He on the even half, Ho on the odd half; minus: the reverse
HALF_KERNELS = {"plus": (hilbert_even, hilbert_odd),
                "minus": (hilbert_odd, hilbert_even)}


@settings(max_examples=15, deadline=None)
@given(grid=grids, seed=seeds)
def test_signed_hilbert_is_parity_join_of_even_and_odd(grid, seed):
    psi = random_packet(grid, np.random.default_rng(seed))
    even, odd = (HalfLineFunction(grid.h, part)
                 for part in parity_split(psi.values, grid.n_half))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # edge-decay warnings on coarse grids
        for backend in BACKENDS:
            for sign, (on_even, on_odd) in HALF_KERNELS.items():
                want = parity_join(on_even(even, backend).values,
                                   on_odd(odd, backend).values)
                got = hilbert_signed(psi, sign, backend).values
                assert np.array_equal(got, want)


@settings(max_examples=15, deadline=None)
@given(grid=grids, seed=seeds)
def test_signed_hilbert_commutes_with_parity(grid, seed):
    psi = random_packet(grid, np.random.default_rng(seed))
    for backend in BACKENDS:
        for sign in HALF_KERNELS:
            a = hilbert_signed(psi.copy_with(psi.values[::-1]), sign,
                               backend).values
            b = hilbert_signed(psi, sign, backend).values[::-1]
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


# n_half: whole numbers around the minimum of 8, and floats; spacings: any
# float, subnormals, zero, negatives, +/-inf and nan included
counts = st.one_of(st.integers(-2, 64),
                   st.sampled_from([8.0, 8.5, 16.0, np.int64(9), np.nan]))
spacings = st.one_of(st.floats(), st.floats(1e-3, 1e3), st.sampled_from(
    [0.0, -0.0, -1.0, 5e-324, 1e-322, 1e-310, 1e308, np.inf, -np.inf]))


def _assert_half_offset(nodes, n_half):
    assert nodes.size == 2 * n_half
    assert np.all(nodes[1:] > nodes[:-1])
    assert np.all(nodes != 0.0) and np.all(np.isfinite(nodes))
    assert np.array_equal(nodes, -nodes[::-1])


@settings(max_examples=200, deadline=None)
@given(n_half=counts, spacing=spacings,
       build=st.sampled_from(["axis", "spectral", "half-line"]))
@example(n_half=8, spacing=5e-324, build="axis")
@example(n_half=8, spacing=1e-322, build="axis")
@example(n_half=8.5, spacing=1.0, build="spectral")
@example(n_half=8.0, spacing=4.0, build="axis")
@example(n_half=8, spacing=np.inf, build="half-line")
@example(n_half=8, spacing=1e-320, build="spectral")
@example(n_half=8, spacing=1.70e-308, build="spectral")
def test_grid_rule_raises_value_error_or_builds_a_usable_grid(n_half, spacing,
                                                             build):
    # the spacing is the extent for an axis grid, dk for a spectral grid and
    # the node spacing of a half-line function
    try:
        if build == "axis":
            grid = make_grid(n_half, spacing)
        elif build == "spectral":
            grid = make_spectral_grid(n_half, spacing)
        elif isinstance(n_half, int):   # a sample count is a whole number
            f = HalfLineFunction(spacing, np.ones(max(n_half, 0)))
        else:
            return
    except ValueError:
        return
    if build == "half-line":
        assert f.n == n_half
        _assert_half_offset(offset_nodes(f.n, f.spacing), f.n)
        assert 0.0 < f.conjugate_spacing() < np.inf
        return
    assert grid.size == 2 * n_half == grid.nodes.size
    _assert_half_offset(grid.nodes, grid.n_half)
    if build == "axis":   # a built axis grid always has its conjugate
        _assert_half_offset(grid.conjugate().nodes, grid.n_half)
    else:   # and a built spectral grid its axis grid
        _assert_half_offset(grid.axis_grid().nodes, grid.n_half)
