"""Property tests of the signed Hilbert transform on random grids: it is the
parity join of He / Ho on the parity halves, bit for bit, on both backends,
and it commutes with parity."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from axiwave.grids import (apply_parity, make_grid, parity_join, parity_split,
                           random_packet)
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
            a = hilbert_signed(apply_parity(psi), sign, backend).values
            b = apply_parity(hilbert_signed(psi, sign, backend)).values
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
