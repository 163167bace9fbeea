"""The names the benchmark under bench/ imports or wraps.

The benchmark is run unchanged against successive versions of the
library, so each of these must keep its name and call signature.
"""

import inspect

import numpy as np
import pytest

from axiwave import cli, evolution, spectral, transforms
from axiwave.grids import make_grid


@pytest.mark.parametrize("module, name, params", [
    (spectral, "analyze_fast", ["psi"]),
    (evolution, "_hamiltonian_g", ["grid"]),
    (evolution, "_scalar_diagnostics", ["grid", "g", "backend"]),
    (transforms, "_trig_sum", ["values", "spacing", "kind"]),
    (transforms, "_hilbert_quadrature", ["f", "odd_kernel"]),
    (evolution, "propagate_scalar", ["psi0", "t_grid", "method", "dt"]),
    (evolution, "propagate_wave", ["psi0", "dpsi0_dt", "t_grid"]),
    (evolution, "propagate_weyl", ["psi0", "t_grid"]),
    (evolution, "propagate_maxwell", ["f0", "t_grid", "constraint_tol"]),
    (cli, "main", ["argv"]),
])
def test_bound_function_signatures(module, name, params):
    assert list(inspect.signature(getattr(module, name)).parameters) == params


def test_bound_containers_and_stepped_operator():
    grid = make_grid(16, 4.0)
    g = np.exp(-grid.nodes ** 2) + 0j
    assert evolution._hamiltonian_g(grid)(g).shape == g.shape
    evolution.SpinorField(grid, "g", g, g)
    evolution.VectorField3(grid, "g", np.stack([g, 1j * g, 0 * g]))
