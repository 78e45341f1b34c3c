"""Exponential asymptotic expansions on the right half-plane.

An expansion is a finite set of terms  p * e^(-mu z - nu zbar)  with
rational mu, nu >= 0, grouped by the decay level lambda = mu + nu.  The
class stores the canonical form: duplicate (mu, nu) keys merged, zero
coefficients pruned, levels sorted ascending.  Two expansions are equal
exactly when their nonzero terms coincide, so uniqueness checks are plain
dictionary equality.

The holomorphic specialization keeps (lambda_j, c_j) pairs only; it allows
explicit zero coefficients because coefficient recovery reports a value
for every grid level, including the structurally absent ones.

Weighted-tail checks replace "-> 0 as Re z -> infinity" by a monotone
decrease below tolerance over an abscissa ladder, and boundary values by
samples on a deep vertical segment; each report records the protocol used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .flow import DiagonalField, _coords, normalize_time
from .reports import (FAIL, INCONCLUSIVE, PASS, DecayReport, clamped_exp,
                      fitted_decay_rate, monotone_below)
from .sampling import evaluate_prefix
from .series import TaylorSeries, level_sums

#: merged pushforward coefficients below this modulus are treated as
#: structural zeros (cancellation), not data
MERGE_PRUNE_TOL = 1e-14

#: tail_bound_check's protocol: the abscissas Re z, increasing, the heights Im z
#: sampled at each, and the level the weighted tail must fall below
TAIL_ABSCISSAS = (1.0, 2.0, 4.0, 8.0, 12.0)
Y_SAMPLES = (0.0, 0.7, -1.3, 2.9, -4.2, 6.1)
TAIL_TOL = 1e-8


def _exponent(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("exponents must be exact (int, Fraction, or 'p/q' string)")
    return Fraction(value)


class AntiHolomorphicTermError(ValueError):
    """An expansion contains a term with nu > 0 where none is allowed."""

    def __init__(self, level: Fraction, mu: Fraction, nu: Fraction, coeff: complex):
        self.level, self.mu, self.nu, self.coeff = level, mu, nu, coeff
        super().__init__(
            f"anti-holomorphic term at level {level}: "
            f"(mu, nu, p) = ({mu}, {nu}, {coeff}) has nu > 0"
        )


class AsymptoticExpansion:
    """Canonical finite expansion  sum p e^(-mu z - nu zbar)."""

    __slots__ = ("_terms", "_levels")

    def __init__(self, terms: Iterable = ()):
        data: dict[tuple[Fraction, Fraction], complex] = {}
        for mu, nu, p in terms:
            mu, nu = _exponent(mu), _exponent(nu)
            if mu < 0 or nu < 0:
                raise ValueError(f"exponents must be >= 0, got (mu, nu) = ({mu}, {nu})")
            p = complex(p) + data.get((mu, nu), 0j)
            if p == 0:
                data.pop((mu, nu), None)
            else:
                data[(mu, nu)] = p
        self._terms = data
        self._levels = tuple(sorted({mu + nu for mu, nu in data}))

    @property
    def levels(self) -> tuple[Fraction, ...]:
        """Levels that carry at least one nonzero term, ascending."""
        return self._levels

    def all_terms(self) -> tuple[tuple[Fraction, Fraction, complex], ...]:
        return tuple(sorted(((mu, nu, p) for (mu, nu), p in self._terms.items()),
                            key=lambda t: (t[0] + t[1], t[0], t[1])))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AsymptoticExpansion):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"AsymptoticExpansion(levels={len(self._levels)}, terms={len(self._terms)})"

    def partial(self, zeta, n: int | None = None):
        """Partial sum through stored level index n (all levels if None, none if -1);
        broadcasts."""
        if n is None:
            n = len(self._levels) - 1
        if not -1 <= n < len(self._levels):
            raise ValueError(f"level index {n} out of range ({len(self._levels)} levels)")
        z = np.asarray(zeta, dtype=complex)
        total = np.zeros_like(z)
        for (mu, nu), p in self._terms.items():
            if n >= 0 and mu + nu <= self._levels[n]:
                total = total + p * np.exp(-float(mu) * z - float(nu) * np.conj(z))
        return complex(total) if total.ndim == 0 else total


def equals(e1: AsymptoticExpansion, e2: AsymptoticExpansion) -> bool:
    """True iff the canonical nonzero term sets are identical."""
    return e1 == e2


class HolomorphicExpansion:
    """Pairs (lambda_j, c_j) with strictly increasing rational levels.

    Zero coefficients are allowed (recovery reports one value per grid
    level); :meth:`to_expansion` prunes them into canonical form.  The
    object is callable and numpy-broadcasting, so it doubles as the
    synthesized oracle for its own sum.
    """

    __slots__ = ("_levels", "_coeffs")

    def __init__(self, pairs: Iterable = ()):
        levels, coeffs = [], []
        for lam, c in pairs:
            levels.append(_exponent(lam))
            coeffs.append(complex(c))
        if any(lam.numerator < 0 for lam in levels):  # integer tests: no Fraction compares
            raise ValueError("levels must be >= 0")
        if any(a.numerator * b.denominator >= b.numerator * a.denominator
               for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        self._levels = tuple(levels)
        self._coeffs = tuple(coeffs)

    @property
    def levels(self) -> tuple[Fraction, ...]:
        return self._levels

    @property
    def coeffs(self) -> tuple[complex, ...]:
        return self._coeffs

    def pairs(self) -> tuple[tuple[Fraction, complex], ...]:
        return tuple(zip(self._levels, self._coeffs))

    def nonzero_pairs(self) -> tuple[tuple[Fraction, complex], ...]:
        return tuple((lam, c) for lam, c in self.pairs() if c != 0)

    def coefficient(self, lam) -> complex:
        lam = Fraction(lam)
        for level, c in self.pairs():
            if level == lam:
                return c
        return 0j

    def __len__(self) -> int:
        return len(self._levels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HolomorphicExpansion):
            return NotImplemented
        return self.nonzero_pairs() == other.nonzero_pairs()

    def __hash__(self):
        return hash(self.nonzero_pairs())

    def __repr__(self) -> str:
        return f"HolomorphicExpansion(levels={len(self._levels)})"

    def partial(self, z, n: int | None = None):
        """Sum of c_j e^(-lambda_j z) for j <= n (all if None, none if -1); broadcasts."""
        if n is None:
            n = len(self._levels) - 1
        if not -1 <= n < len(self._levels):
            raise ValueError(f"term index {n} out of range ({len(self._levels)} terms)")
        total = np.zeros_like(np.asarray(z, dtype=complex))
        for lam, c in list(self.pairs())[: n + 1]:
            if c != 0:
                total = total + c * np.exp(-float(lam) * np.asarray(z, dtype=complex))
        if np.ndim(z) == 0:
            return complex(total)
        return total

    def __call__(self, z):
        return self.partial(z)

    def to_expansion(self) -> AsymptoticExpansion:
        return AsymptoticExpansion((lam, Fraction(0), c) for lam, c in self.nonzero_pairs())


def pushforward(series: TaylorSeries, field: DiagonalField, c, lambda_max) -> AsymptoticExpansion:
    """Expansion of  phi(s_c(zeta))  on the half-plane, in canonical time.

    Each stored (k, m) with nonzero  a * c^k conj(c)^m  contributes the term
    (mu, nu, p) = ((alpha,k), (alpha,m), a c^k conj(c)^m)  at level mu+nu,
    for levels up to lambda_max.  Terms landing on the same (mu, nu) merge;
    merged coefficients below MERGE_PRUNE_TOL are treated as cancellation.

    The field is normalized internally (positive rates, tau = 1), so the
    expansion variable is the canonical curve time.
    """
    lam_max = _exponent(lambda_max)
    nfield, _ = normalize_time(field)  # raises SpectrumError without positive ratios
    alphas = nfield.rates
    coords = _coords(c)
    if len(coords) != series.dim or series.dim != nfield.dim:
        raise ValueError("series, field, and base point dimensions must agree")

    return AsymptoticExpansion(
        (mu, nu, p) for (mu, nu), p in level_sums(series, alphas, coords).items()
        if mu + nu <= lam_max and abs(p) >= MERGE_PRUNE_TOL)


def eval_expansion(e: AsymptoticExpansion, zeta: complex, n: int | None = None) -> complex:
    """Partial sum of e through stored level index n at the point zeta."""
    return e.partial(zeta, n)


def tail_bound_check(
    oracle: Callable[[complex], complex],
    e: AsymptoticExpansion,
    n: int,
) -> DecayReport:
    """Check that the level-n tail decays faster than e^(-lambda_n Re z).

    The residual, sampled at each abscissa x of TAIL_ABSCISSAS on the heights
    Y_SAMPLES, is weighted by e^(lambda_n x) and judged by the monotone rule
    at TAIL_TOL.
    """
    if e.levels and not 0 <= n < len(e.levels):
        raise ValueError(f"level index {n} out of range")
    lam_n = float(e.levels[n]) if e.levels else 0.0

    grid = np.array([complex(x, y) for x in TAIL_ABSCISSAS for y in Y_SAMPLES],
                    dtype=complex).reshape(len(TAIL_ABSCISSAS), len(Y_SAMPLES))
    samples, exc = evaluate_prefix(oracle, grid.ravel())
    rows = grid[: len(samples) // len(Y_SAMPLES)]
    partial = e.partial(rows, n) if e.levels else 0j
    resid = np.abs(samples[: rows.size].reshape(rows.shape) - partial)
    sups = resid.max(axis=1)
    values = [clamped_exp((math.log(sup) if sup else -math.inf) + lam_n * x)
              for sup, x in zip(sups.tolist(), TAIL_ABSCISSAS)]
    if len(samples) < grid.size:
        note = (f"oracle failed: {exc}" if exc is not None
                else f"non-finite oracle value at {complex(grid.flat[len(samples)])}")
        return DecayReport(lam_n, TAIL_ABSCISSAS, tuple(values), TAIL_TOL, INCONCLUSIVE,
                           "monotone_below_tol", note=note)

    # the largest residual at the last abscissa; its first height, Im z = 0, if all are 0
    witness = complex(grid[-1, np.argmax(resid[-1])])
    verdict = PASS if monotone_below(values, TAIL_TOL) else FAIL
    return DecayReport(lam_n, TAIL_ABSCISSAS, tuple(values), TAIL_TOL, verdict,
                       "monotone_below_tol", slope=fitted_decay_rate(TAIL_ABSCISSAS, values),
                       witness=witness if verdict == FAIL else None)


def restrict_holomorphic(e: AsymptoticExpansion) -> HolomorphicExpansion:
    """Succeeds iff every term has nu = 0; otherwise raises naming the term."""
    for mu, nu, p in e.all_terms():
        if nu > 0:
            raise AntiHolomorphicTermError(mu + nu, mu, nu, p)
    pairs = sorted((mu, p) for mu, nu, p in e.all_terms())
    return HolomorphicExpansion(pairs)


def max_principle_bound(
    oracle: Callable[[complex], complex],
    M: float,
    lam,
    samples: Sequence[complex],
    *,
    x_lo: float,
    tol: float = 1e-6,
) -> DecayReport:
    """Check |oracle(z)| <= M e^(-lambda (Re z - x_lo)) (1 + tol) on the samples.

    M plays the role of the boundary sup, sampled on the segment Re z = x_lo;
    all decay is measured relative to that segment.
    """
    lam = float(Fraction(lam)) if not isinstance(lam, float) else lam
    if lam < 0:
        raise ValueError("decay rate must be >= 0")
    if not 0 < M < math.inf:
        raise ValueError("bound M must be positive and finite")
    z = np.asarray(samples, dtype=complex)
    left = np.flatnonzero(z.real < x_lo - 1e-12)
    if len(left):
        raise ValueError(f"sample {complex(z[left[0]])} lies left of the reference "
                         f"segment Re z = {x_lo}")
    values, exc = evaluate_prefix(oracle, z)
    read = z[: len(values)]
    with np.errstate(divide="ignore"):  # a zero value has log ratio -inf, ratio 0
        log_ratio = np.log(np.abs(values)) - math.log(M) + lam * (read.real - x_lo)
    xs, at = np.unique(read.real, return_inverse=True)
    worst_log = np.full(len(xs), -np.inf)
    np.maximum.at(worst_log, at, log_ratio)
    ratios = tuple(clamped_exp(v) for v in worst_log.tolist())
    worst_ratio = max(ratios, default=0.0)
    verdict = PASS if worst_ratio <= 1.0 + tol else FAIL
    note = f"worst ratio {worst_ratio:.6e} vs allowed 1+tol"
    if len(values) < len(z):
        verdict = INCONCLUSIVE
        note = (f"oracle failed: {exc}" if exc is not None
                else f"non-finite oracle value at {complex(z[len(values)])}")
    witness = complex(read[np.argmax(log_ratio)]) if verdict == FAIL else None
    return DecayReport(lam, tuple(xs.tolist()), ratios, tol, verdict, "bound_margin",
                       witness=witness, note=note)


def residual(oracle: Callable[[complex], complex], e: HolomorphicExpansion, n: int):
    """The callable  f_n(z) = oracle(z) - sum_{j<=n} c_j e^(-lambda_j z)."""
    if n < 0 or n >= len(e):
        raise ValueError(f"term index {n} out of range ({len(e)} terms)")
    return lambda z: oracle(z) - e.partial(z, n)
