"""Finite-difference first derivative on a uniformly spaced open segment.

Fourth-order centered stencil in the interior, fourth-order one-sided
stencils at the two nodes next to each end; the grid rule of
`grids.check_grid` leaves at least 8 nodes.  Used wherever a derivative
must not reach across the origin (the integrands of this calculus jump
there), and for the explicit derivative factors of composed operators.
"""

from __future__ import annotations

import numpy as np

# one-sided 5-point first-derivative stencils, O(h^4)
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def derivative(values: np.ndarray, spacing: float) -> np.ndarray:
    """d/dx of samples on x_j = x0 + j*spacing, no periodic wrap."""
    f = np.asarray(values)
    out = np.empty_like(f, dtype=complex if np.iscomplexobj(f) else float)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / 12.0
    out[0] = _EDGE0 @ f[:5]
    out[1] = _EDGE1 @ f[:5]
    out[-2] = -(_EDGE1 @ f[-1:-6:-1])
    out[-1] = -(_EDGE0 @ f[-1:-6:-1])
    return out / spacing


def derivative_per_half(values: np.ndarray, n_half: int, spacing: float) -> np.ndarray:
    """d/dlambda on a symmetric axis grid, each half-line differentiated
    separately so the stencil never straddles the origin."""
    out = np.empty_like(np.asarray(values, dtype=complex))
    out[:n_half] = derivative(values[:n_half], spacing)
    out[n_half:] = derivative(values[n_half:], spacing)
    return out

