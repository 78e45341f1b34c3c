"""Central finite-difference Wirtinger derivatives.

d/dzbar = (d/dx + i d/dy) / 2; a vanishing dbar residual is the sampled
Cauchy-Riemann condition.  The default step 1e-5 balances the O(h^2)
truncation of the central stencil against double rounding (eps/h ~ 1e-11).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .sampling import evaluate

#: offsets of the four samples around zeta, in units of the step, in the
#: order :func:`dbar_stencil` takes their values
STENCIL = (1, -1, 1j, -1j)


def dbar_stencil(f_xp, f_xm, f_yp, f_ym, step: float):
    """d f / d zbar from f at zeta + h, zeta - h, zeta + ih, zeta - ih (h = step)."""
    dx = (f_xp - f_xm) / (2.0 * step)
    dy = (f_yp - f_ym) / (2.0 * step)
    return 0.5 * (dx + 1j * dy)


def dbar_fd(f: Callable, zeta, step: float = 1e-5):
    """Finite-difference d f / d zbar at zeta; elementwise if zeta is an array."""
    return dbar_stencil(*(f(zeta + offset * step) for offset in STENCIL), step)


def dbar_fd_component(
    f: Callable[[Sequence[complex]], complex],
    z: Sequence[complex],
    j: int,
    step: float = 1e-5,
) -> complex:
    """Finite-difference d f / d zbar_j for a function on C^N (one batched call)."""
    points = np.tile(np.asarray(z, dtype=complex), (len(STENCIL), 1))
    points[:, j] += np.array(STENCIL) * step
    return complex(dbar_stencil(*evaluate(f, points), step))
