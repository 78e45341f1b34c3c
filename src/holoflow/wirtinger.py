"""d/dzbar as the -1 Fourier mode on a small circle.

d/dzbar = (d/dx + i d/dy) / 2; a vanishing dbar residual is the sampled
Cauchy-Riemann condition.  For f sampled at zeta + r w_k on the M-th roots
of unity w_k, the -1 mode  (1/M) sum_k f_k w_k  is r f_zbar, plus the
aliased mode M - 1, r^(M-1) f^(M-1) / (M-1)! for holomorphic f, plus O(r^3)
if f is not holomorphic.  With M = 4 it is the central difference
(f(z+r) - f(z-r) + i f(z+ir) - i f(z-ir)) / 4r, whose noise floor on
holomorphic f is the term r^2 f^(3) / 6.  The 0 mode is the circle mean,
f(zeta) + O(r^2).  Trefethen & Weideman, SIAM Review 56 (2014).  Every
sampled dbar in the package reads f on :func:`circles`, of radius FD_STEP.
"""

from __future__ import annotations

import numpy as np

#: the fourth roots of unity, written exactly: exp(2 pi i k / 4) leaves a
#: 6e-17 real part on i, which biases dbar by about 1e-12 |f|
CIRCLE = np.array((1, 1j, -1, -1j))
#: radius of every circle
FD_STEP = 1e-5


def circles(centres):
    """The circle centre + FD_STEP * CIRCLE about each centre, on a new last axis."""
    return np.asarray(centres)[..., None] + FD_STEP * CIRCLE


def dbar_circle(values):
    """(circle mean, d f / d zbar) from f on :func:`circles` (last axis)."""
    values = np.asarray(values, dtype=complex)
    # numpy's own pairwise order for a width-4 axis: values.mean(axis=-1) up to
    # the sign of a zero (its reduction starts from +0), at a quarter of the cost
    v0, v1, v2, v3 = np.moveaxis(values, -1, 0)
    mean = ((v0 + v1) + (v2 + v3)) / len(CIRCLE)
    return mean, values @ CIRCLE / (len(CIRCLE) * FD_STEP)
