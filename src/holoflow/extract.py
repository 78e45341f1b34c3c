"""Coefficient recovery for bounded holomorphic sums of decaying exponentials.

Given samples of  f(z) = sum c_j e^(-lambda_j z)  on a vertical line
Re z = x0 and the exact rational grid the levels come from, each
coefficient is the window average of the running residual weighted by
e^(lambda_j z).  Two implementation choices control the error budget:

* The averaging window [-L, L] is snapped to an exact integer multiple of
  the common period of all grid frequencies (2L = 2 pi q K, where q is the
  lcm of the level denominators).  Over such a window every cross term
  e^(-i (lambda_i - lambda_j) y) averages to exactly zero, and the
  equispaced node sum reproduces that zero exactly as long as the node
  count exceeds the largest frequency-period product, so the only leakage
  left is double rounding.  An unaligned window leaks
  |c_i| e^(-(lambda_i-lambda_j) x0) / (L |lambda_i - lambda_j|) per term,
  which for close levels is far above any useful tolerance.
* x0 must stay small: the weight e^(lambda x0) multiplies the float
  rounding noise of the residual, so recovering level lambda costs
  eps * e^(lambda x0) in absolute error.  The default x0 = 1 keeps that
  below 1e-11 for lambda <= 10; x0 = 8 would bury every coefficient.

Levels must come from an exact grid; there is no blind frequency search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .asympt import HolomorphicExpansion
from .flow import LevelGrid
from .sampling import evaluate

#: required quadrature nodes per oscillation period of the fastest grid level
NODES_PER_PERIOD = 20


class ExtractionError(RuntimeError):
    """Sampling failed or the oracle is inconsistent with the level grid."""


@dataclass(frozen=True)
class ExtractionParams:
    """Discretization of the vertical-line averaging.

    half_width is the requested window half-length; the effective window is
    the nearest exact common-period multiple (see module docstring).  nodes
    is a floor: the effective count grows with window * max level to keep
    NODES_PER_PERIOD nodes per oscillation.
    """

    grid: LevelGrid
    x0: float = 1.0
    half_width: float = 64.0
    nodes: int = 4096
    tol: float = 1e-6

    def __post_init__(self):
        if self.x0 <= 0:
            raise ValueError("x0 must be > 0")
        if self.half_width <= 0:
            raise ValueError("half_width must be > 0")
        if self.nodes < 2:
            raise ValueError("nodes must be >= 2")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")


def aligned_window(grid: LevelGrid, half_width: float) -> tuple[float, int, int]:
    """Snap the half-width to pi*q*K so the window is a common period multiple.

    Returns (effective half-width, q, K) with q the lcm of the level
    denominators.  For q so large that pi*q exceeds the request, one full
    common period is used.
    """
    q = 1
    for lam in grid.levels:
        q = math.lcm(q, Fraction(lam).denominator)
    K = max(1, round(half_width / (math.pi * q)))
    return math.pi * q * K, q, K


def _effective_nodes(params: ExtractionParams, q: int, K: int) -> int:
    lam_max = float(params.grid.levels[-1]) if params.grid.levels else 0.0
    periods = lam_max * q * K
    return max(params.nodes, int(math.ceil(NODES_PER_PERIOD * periods)) + 1)


def _line_values(oracle, z: np.ndarray) -> np.ndarray:
    """One batched oracle call on the line nodes; non-finite samples are an error."""
    values = evaluate(oracle, z)
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise ExtractionError(f"non-finite oracle sample at z = {z[np.argmax(bad)]}")
    return values


def quadrature_nodes(params: ExtractionParams) -> np.ndarray:
    """Equispaced y-nodes of the aligned periodic window."""
    L, q, K = aligned_window(params.grid, params.half_width)
    Q = _effective_nodes(params, q, K)
    return -L + (2.0 * L / Q) * np.arange(Q)


def extract_coefficients(
    oracle: Callable,
    params: ExtractionParams,
    n_levels: int | None = None,
    trace: list | None = None,
) -> HolomorphicExpansion:
    """Recover one coefficient per grid level from line samples of the oracle.

    The oracle is called once, on the array of all line nodes (see
    :func:`sampling.evaluate`).  Levels are processed in ascending order;
    after each level the estimated term is subtracted from the node values,
    so level j averages the running residual.  Estimates below params.tol in
    modulus are reported as zero.  If ``trace`` is a list, rows (level,
    coefficient, residual sup norm) are appended for CSV export.
    """
    levels = list(params.grid.levels)
    if n_levels is not None:
        if n_levels < 1:
            raise ValueError("n_levels must be >= 1")
        levels = levels[:n_levels]
    y = quadrature_nodes(params)
    z = params.x0 + 1j * y
    vals = _line_values(oracle, z)

    norm0 = float(np.max(np.abs(vals))) if len(vals) else 0.0
    norm = norm0
    coeffs: list[complex] = []
    for lam in levels:
        lam_f = float(lam)
        weight = np.exp(lam_f * z)
        c = complex(np.mean(vals * weight))
        if abs(c) < params.tol:
            c = 0j
        else:
            vals -= c * np.exp(-lam_f * z)
        norm = float(np.max(np.abs(vals)))
        coeffs.append(c)
        if trace is not None:
            trace.append((lam_f, c, norm))
    if n_levels is None and levels:
        # after the whole grid is consumed, only snapped-to-zero terms and
        # content decaying faster than lambda_max may legitimately remain
        scale = max(1.0, norm0)
        allowance = params.tol * (10 + len(levels)) * scale \
            + scale * math.exp(-float(params.grid.lambda_max) * params.x0)
        if norm > allowance:
            raise ExtractionError(
                f"residual norm {norm:.3e} after all {len(levels)} levels "
                f"(allowed {allowance:.3e}); oracle is inconsistent with the level grid")
    return HolomorphicExpansion(zip(levels, coeffs))


def shift_difference(oracle: Callable[[complex], complex], a: float):
    """The function  g(z) = oracle(z + i a) - oracle(z).

    If the oracle expands as sum c_j e^(-lambda_j z), g expands with
    coefficients (e^(-i a lambda_j) - 1) c_j on the same levels.
    """
    a = float(a)

    def shifted(z):
        return oracle(z + 1j * a) - oracle(z)

    return shifted


def sampled_sup(
    oracle: Callable,
    params: ExtractionParams,
    x_values: Sequence[float] = (1e-9, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0),
) -> float:
    """Sup of |oracle| over the aligned y-grid at several abscissas.

    One batched oracle call per abscissa.  Includes a near-boundary segment
    (x = 1e-9 by default), so for an on-grid exponential sum the sampled sup
    is at least the modulus of every coefficient up to a factor
    e^(-lambda x_min): the discrete window mean that produces a coefficient
    is itself bounded by this sup.
    """
    y = quadrature_nodes(params)
    worst = 0.0
    for x in x_values:
        vals = _line_values(oracle, x + 1j * y)
        worst = max(worst, float(np.max(np.abs(vals))))
    return worst


@dataclass(frozen=True)
class CauchyBoundReport:
    """Outcome of comparing every |c_j| against the sampled sup."""

    passed: bool
    max_ratio: float
    worst_level: float | None
    bound: float
    ratios: tuple

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_ratio": self.max_ratio,
            "worst_level": self.worst_level,
            "bound": self.bound,
            "ratios": [[lvl, r] for lvl, r in self.ratios],
        }


def verify_cauchy_bound(
    e: HolomorphicExpansion,
    oracle: Callable,
    M: float,
    tol: float = 1e-6,
) -> CauchyBoundReport:
    """Check every coefficient modulus against M (a sampled sup of |oracle|)."""
    if M <= 0:
        raise ValueError("bound M must be positive")
    ratios = []
    worst, worst_level = 0.0, None
    for lam, c in e.pairs():
        ratio = abs(c) / M
        ratios.append((float(lam), ratio))
        if ratio > worst:
            worst, worst_level = ratio, float(lam)
    return CauchyBoundReport(
        passed=worst <= 1.0 + tol,
        max_ratio=worst,
        worst_level=worst_level,
        bound=M,
        ratios=tuple(ratios),
    )
