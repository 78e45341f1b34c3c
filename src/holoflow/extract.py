"""Coefficient recovery for bounded holomorphic sums of decaying exponentials.

Given samples of  f(z) = sum c_j e^(-lambda_j z)  on the vertical line
Re z = X0 and the exact rational grid the levels come from, each
coefficient is a window mean of f(z) e^(lambda_j z), that is one DFT bin:

* The window [-L, L) is snapped to a multiple of the common period of all
  grid frequencies, 2L = 2 pi q K with q the lcm of the level denominators.
  On Q equispaced nodes y_n = -L + 2Ln/Q the mean for level j/q is
  c_j = e^(lambda_j X0) (-1)^(jK) ifft(samples)[jK mod Q], and other grid
  levels land in other bins, so cross terms cancel exactly while Q exceeds
  every jK (Trefethen & Weideman, SIAM Review 56, 2014).  The sign
  e^(-i lambda_j L) = (-1)^(jK) is exact; as a float phase with L near 1e4
  it is off by about 1e-12.  Q is rounded up to a 5-smooth FFT length.
* A bin of the raw samples carries the rounding error of the whole sum, up
  to a decade more than a level-by-level mean of the running residual.  So
  the terms found are subtracted as c e^(-lambda z) with np.exp, as that
  sweep did (synthesizing them by FFT lost up to four decades on the large
  grids), a second transform of the residual corrects every coefficient,
  and the corrections, at rounding level, are subtracted by one FFT of
  their bins; what is left feeds the consistency check.  The deflation
  reproduces the terms of a HolomorphicExpansion oracle bit for bit only on
  windows below 16 384 nodes: from there on numpy's temporary elision
  computes the oracle's  c * np.exp(...)  in place, in the other operand
  order (8 198 of the 30 375 nodes of scenarios/extraction_large.txt differ
  in the last bits), and the second pass absorbs that difference.
* X0 must stay small: the weight e^(lambda X0) multiplies the float
  rounding noise of the samples, so recovering level lambda costs
  eps * e^(lambda X0) in absolute error.  X0 = 1 keeps that below 1e-11
  for lambda <= 10; X0 = 8 would bury every coefficient.

The grid fixes the rest, so ExtractionParams is the grid alone: the window
nearest HALF_WIDTH, at least MIN_NODES nodes, zero below TOL.

Levels must come from an exact grid; there is no blind frequency search.
Levels are Fractions at the API and the grid's integers steps = levels * q
inside: bins steps * K (below MAX_NODES / 20 by the node check, so no int64
overflow) and float levels steps / q.  The Cauchy check takes np.hypot of
each coefficient: np.abs differs from abs(complex) by an ulp on many inputs.
A short read of the line (:func:`sampling.evaluate_prefix`) is an
ExtractionError with the read's note, whatever the oracle raised.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asympt import HolomorphicExpansion
from .flow import LevelGrid
from .reports import Check
from .sampling import evaluate_prefix

#: abscissa of the line the coefficients are read on
X0 = 1.0
#: requested window half-length; the window is the nearest common-period multiple
HALF_WIDTH = 64.0
#: least line nodes of a window
MIN_NODES = 4096
#: coefficients below this modulus are reported as zero
TOL = 1e-6
#: required quadrature nodes per oscillation period of the fastest grid level
NODES_PER_PERIOD = 20
#: most line nodes one extraction or sup may sample; a larger window fails up front
MAX_NODES = 2**22
#: abscissa of the line sampled_sup reads, next to the boundary Re z = 0
SUP_X = 1e-9


class ExtractionError(RuntimeError):
    """A short read, a window over MAX_NODES, a line transform beyond double range,
    or an oracle inconsistent with the grid."""


@dataclass(frozen=True)
class ExtractionParams:
    """The exact level grid an extraction reads, with a finite top weight
    e^(lambda_max X0); the grid fixes the discretization (module docstring)."""

    grid: LevelGrid

    def __post_init__(self):
        lam_max = float(self.grid.lambda_max)
        if lam_max * X0 > math.log(sys.float_info.max):  # a level weight would overflow
            raise ValueError(f"lambda_max must be small enough that e^(lambda_max X0) is "
                             f"finite (X0 = {X0}), got {lam_max}")


@functools.lru_cache(maxsize=64)
def _five_smooth(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, for n <= 2**23."""
    odd = [3**b * 5**c for b in range(16) for c in range(11)]
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def _window(grid: LevelGrid) -> tuple[np.ndarray, int]:
    """The y-nodes of the window (a 5-smooth count) and its K: the half-width
    HALF_WIDTH snapped to pi q K, q the grid's lcm, or one common period."""
    q = grid.q
    K = max(1, round(HALF_WIDTH / (math.pi * q)))
    L = math.pi * q * K
    periods = (float(grid.levels[-1]) if grid.levels else 0.0) * q * K
    Q = max(MIN_NODES, int(math.ceil(NODES_PER_PERIOD * periods)) + 1)
    if Q > MAX_NODES:
        raise ExtractionError(f"window needs Q = {Q} line nodes; MAX_NODES = {MAX_NODES}")
    Q = _five_smooth(Q)  # MAX_NODES is 5-smooth, so this stays within it
    return -L + (2.0 * L / Q) * np.arange(Q), K


def _line_values(oracle, z: np.ndarray) -> np.ndarray:
    """One batched oracle call on the line nodes; a short read is an ExtractionError."""
    values, note = evaluate_prefix(oracle, z)
    if note:
        raise ExtractionError(note)
    return values


def quadrature_nodes(params: ExtractionParams) -> np.ndarray:
    """Equispaced y-nodes of the aligned periodic window."""
    return _window(params.grid)[0]


def extract_coefficients(
    oracle: Callable,
    params: ExtractionParams,
    trace: list | None = None,
) -> HolomorphicExpansion:
    """Recover one coefficient per grid level from line samples of the oracle.

    The oracle is called once, on all line nodes (see :func:`_line_values`);
    each coefficient is a DFT bin refined by one deflation step (module
    docstring), and reported as zero below TOL in modulus.  If ``trace``
    is a list, rows (level, coefficient, sup of the residual without the levels
    up to this one) are appended; ``holoflow run`` reports the sups as
    ``residual_norms``.  The trace walk starts from the final residual and
    adds each nonzero term back, computing its exponential again rather than
    keeping the deflation's: a traced run then holds a few arrays of line
    nodes, as an untraced one does, not one per term (at ``MAX_NODES`` each
    is 64 MB).
    """
    levels, steps, q = params.grid.levels, params.grid.steps, params.grid.q
    y, K = _window(params.grid)
    z = X0 + 1j * y
    vals = _line_values(oracle, z)

    # steps and q are exact in double below 2^53, so the quotient is float(level)
    lam = steps / q if q <= 2**53 else np.array([float(v) for v in levels])
    bins = steps * K  # below MAX_NODES / 20: _window checked lam_max q K
    weight = np.exp(lam * X0) * np.where(bins % 2, -1.0, 1.0)
    bins %= len(z)
    norm0 = float(np.max(np.abs(vals)))
    with np.errstate(all="ignore"):  # a sum beyond double range is a non-finite value
        first = weight * np.fft.ifft(vals)[bins]
        first[np.abs(first) < TOL] = 0
        for i in np.flatnonzero(first):
            vals -= first[i] * np.exp(-lam[i] * z)
        coeffs = first + weight * np.fft.ifft(vals)[bins]
        coeffs[np.abs(coeffs) < TOL] = 0
        spectrum = np.zeros_like(vals)
        spectrum[bins] = (coeffs - first) / weight
        vals -= np.fft.fft(spectrum)  # sum of (coeffs - first) e^(-lambda z)
    norm = float(np.max(np.abs(vals)))
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if len(bad):
        raise ExtractionError(f"non-finite coefficient {complex(coeffs[bad[0]])} at level "
                              f"{levels[bad[0]]}: the line values' transform overflows")
    if not math.isfinite(norm):
        raise ExtractionError(f"non-finite residual norm {norm} after all {len(levels)} levels")
    if levels:
        # after the whole grid is consumed, only snapped-to-zero terms and
        # content decaying faster than lambda_max may legitimately remain
        scale = max(1.0, norm0)
        allowance = TOL * (10 + len(levels)) * scale \
            + scale * math.exp(-float(params.grid.lambda_max) * X0)
        if norm > allowance:
            raise ExtractionError(
                f"residual norm {norm:.3e} after all {len(levels)} levels "
                f"(allowed {allowance:.3e}); oracle is inconsistent with the level grid")
    if trace is not None:  # walk down from the final residual, adding each term back
        rows = []
        for i in reversed(range(len(levels))):
            rows.append((float(lam[i]), complex(coeffs[i]), norm))
            if coeffs[i] != 0:
                with np.errstate(all="ignore"):
                    vals += coeffs[i] * np.exp(-lam[i] * z)
                norm = float(np.max(np.abs(vals)))
        trace.extend(reversed(rows))
    return HolomorphicExpansion(zip(levels, coeffs.tolist()))


def shift_difference(oracle: Callable[[complex], complex], a: float):
    """The function  g(z) = oracle(z + i a) - oracle(z).

    If the oracle expands as sum c_j e^(-lambda_j z), g expands with
    coefficients (e^(-i a lambda_j) - 1) c_j on the same levels.
    """
    a = float(a)

    def shifted(z):
        return oracle(z + 1j * a) - oracle(z)

    return shifted


def sampled_sup(oracle: Callable, params: ExtractionParams) -> float:
    """Sup of |oracle| over the aligned y-grid on the line Re z = SUP_X.

    One batched oracle call.  By the maximum principle a bounded holomorphic
    exponential sum takes its sup over Re z >= SUP_X on that line, and the
    aligned window mean that produces a coefficient is exact there, so the
    sampled max is at least |c_j| e^(-lambda_j SUP_X) for every grid level;
    samples at larger abscissas could only add values below the true sup.
    """
    vals = _line_values(oracle, SUP_X + 1j * quadrature_nodes(params))
    return float(np.max(np.abs(vals)))


def verify_cauchy_bound(
    e: HolomorphicExpansion,
    oracle: Callable,
    M: float,
    tol: float = 1e-6,
) -> Check:
    """Rule ``cauchy_ratio``: every |c_j| / M below 1 + tol, M a sampled sup of |oracle|.

    M already carries the oracle's samples (see :func:`sampled_sup`); ``oracle``
    is accepted for the callers that pass it and is never evaluated.  A NaN
    coefficient fails the check at its level; M must be finite and positive.
    """
    if not 0 < M < math.inf:  # NaN fails too
        raise ValueError("bound M must be positive and finite")
    levels = [lam.numerator / lam.denominator for lam in e.levels]  # float(lam), faster
    c = np.array(e.coeffs, dtype=complex)
    ratios = np.hypot(c.real, c.imag) / M  # abs(c) to the bit (module docstring)
    worst, worst_level = 0.0, None
    if len(ratios):
        i = int(np.argmax(ratios))  # the first NaN, else the first largest
        if ratios[i] != 0:
            worst, worst_level = float(ratios[i]), levels[i]
    return Check("cauchy_ratio", worst, 1.0 + tol,
                 table={"max_ratio": worst, "worst_level": worst_level, "bound": M,
                        "ratios": tuple(zip(levels, ratios.tolist()))})
