"""Finite mixed Taylor jets at the origin of C^N.

A jet is a finite sum  sum a_{km} z^k zbar^m  where k and m are
multi-indices of length N.  Coefficients are complex doubles; structural
identities (a term vanishing because its coefficient is exactly zero) are
kept exact by pruning zero coefficients at construction, so equality of
jets is equality of coefficient maps.  Jets are immutable: every operation
returns a new value, and sharing across threads is safe.

Text format (one line per stored term, used by the CLI scenario files)::

    k1 k2 ... kN | m1 m2 ... mN | re | im

e.g. ``1 0 | 0 1 | 1.0 | 0.0`` is the term z1 * conj(z2).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .flow import _lattice
from .reports import (FAIL, INCONCLUSIVE, PASS, DecayReport, clamped_exp,
                      fitted_decay_rate, monotone_below)
from .sampling import evaluate_prefix

Point = Sequence[complex]

#: directions remainder_ladder samples at each radius, and the seed of their phases
N_DIRECTIONS = 6
DIRECTION_SEED = 0


class MultiIndex(tuple):
    """Immutable tuple of non-negative integer exponents."""

    def __new__(cls, entries: Iterable[int]):
        items = tuple(int(e) for e in entries)
        if len(items) == 0:
            raise ValueError("multi-index must have at least one entry")
        if any(e < 0 for e in items):
            raise ValueError(f"multi-index entries must be >= 0, got {items}")
        return super().__new__(cls, items)

    @property
    def order(self) -> int:
        return sum(self)


def _as_key(k, m, dim: int) -> tuple[MultiIndex, MultiIndex]:
    ki, mi = MultiIndex(k), MultiIndex(m)
    if len(ki) != dim or len(mi) != dim:
        raise ValueError(f"exponent length mismatch: dim={dim}, k={ki}, m={mi}")
    return ki, mi


class TaylorSeries:
    """Finite map (k, m) -> a_{km} with zero coefficients pruned."""

    __slots__ = ("_dim", "_terms", "_degree", "_plan")

    def __init__(self, dim: int, terms: Mapping | Iterable | None = None):
        dim = int(dim)
        if dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        self._dim = dim
        data: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for (k, m), a in items:
            key = _as_key(k, m, dim)
            a = complex(a) + data.get(key, 0j)
            if a == 0:
                data.pop(key, None)
            else:
                data[key] = a
        self._terms = data
        # per term: coefficient, order and the factors (j, k_j, m_j) with k_j or m_j nonzero
        self._plan = tuple(
            (a, k.order + m.order,
             tuple((j, kj, mj) for j, (kj, mj) in enumerate(zip(k, m)) if kj or mj))
            for (k, m), a in data.items())
        self._degree = max((order for _a, order, _f in self._plan), default=0)

    @classmethod
    def monomial(cls, dim: int, k, m, coeff: complex = 1.0) -> "TaylorSeries":
        return cls(dim, {(tuple(k), tuple(m)): coeff})

    @classmethod
    def zero(cls, dim: int) -> "TaylorSeries":
        return cls(dim)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def degree(self) -> int:
        """Largest |k|+|m| with nonzero coefficient (0 for the zero jet)."""
        return self._degree

    def terms(self) -> dict[tuple[MultiIndex, MultiIndex], complex]:
        return dict(self._terms)

    def coefficient(self, k, m) -> complex:
        return self._terms.get(_as_key(k, m, self._dim), 0j)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaylorSeries):
            return NotImplemented
        return self._dim == other._dim and self._terms == other._terms

    def __hash__(self):
        return hash((self._dim, frozenset(self._terms.items())))

    def __add__(self, other: "TaylorSeries") -> "TaylorSeries":
        if self._dim != other._dim:
            raise ValueError("dimension mismatch in series addition")
        merged = dict(self._terms)
        for key, a in other._terms.items():
            merged[key] = merged.get(key, 0j) + a
        return TaylorSeries(self._dim, merged)

    def __sub__(self, other: "TaylorSeries") -> "TaylorSeries":
        return self + other.scale(-1)

    def scale(self, factor: complex) -> "TaylorSeries":
        return TaylorSeries(self._dim, {key: factor * a for key, a in self._terms.items()})

    def _sum(self, plan, z):
        """Sum of a z^k conj(z)^m over the plan's terms, in order; z as for eval_taylor."""
        zs = np.asarray(z, dtype=complex)
        if zs.ndim not in (1, 2) or zs.shape[-1] != self._dim:
            raise ValueError(f"points have shape {zs.shape}, series has dimension {self._dim}")
        # coordinate columns: complex scalars for one point, arrays for a batch
        cols = zs.tolist() if zs.ndim == 1 else list(zs.T)
        total = 0j if zs.ndim == 1 else np.zeros(len(zs), dtype=complex)
        # exponent 1 skips numpy's per-element npy_cpow; 2 is numpy's fast square, and a
        # product chain for 3 or more would round differently (the multiply fuses).  A
        # term starts from its first factor: 1 + 0j times it moves at most a zero's sign
        for a, _order, factors in plan:
            value = None
            for j, kj, mj in factors:
                zj = cols[j]
                if kj:
                    f = zj if kj == 1 else zj ** kj
                    value = f if value is None else value * f
                if mj:
                    zc = zj.conjugate()
                    f = zc if mj == 1 else zc ** mj
                    value = f if value is None else value * f
            total = total + (a if value is None else a * value)
        return total

    def partial_sum(self, z, order: int):
        """Evaluate only the terms with |k|+|m| <= order; see :func:`eval_taylor`."""
        plan = self._plan if order >= self._degree else [p for p in self._plan if p[1] <= order]
        return self._sum(plan, z)

    def __repr__(self) -> str:
        return f"TaylorSeries(dim={self._dim}, terms={len(self._terms)}, degree={self.degree})"


def eval_taylor(series: TaylorSeries, z):
    """Evaluate  sum a_{km} z^k conj(z)^m  over the stored support.

    z is one point of shape (N,), giving a complex, or a batch of shape
    (n, N), giving an array of n values.
    """
    return series.partial_sum(z, series.degree)


def level_sums(series: TaylorSeries, rates, z) -> dict:
    """{(mu, nu): eval_taylor at z of the terms with ((alpha,k), (alpha,m)) = (mu, nu)}.

    Along the curve of the field with rates alpha through c, the sum at c
    multiplies  e^(-mu zeta - nu conj(zeta)).  Terms are grouped by the integers
    (mu q, nu q), q the lcm of the rate denominators; rates must be exact.
    """
    q, steps = _lattice(rates)
    plans: dict = {}
    for (k, m), term in zip(series._terms, series._plan):
        plans.setdefault((sum(map(mul, k, steps)), sum(map(mul, m, steps))), []).append(term)
    return {(Fraction(mu, q), Fraction(nu, q)): series._sum(plan, z)
            for (mu, nu), plan in plans.items()}


def antiholomorphic_part(series: TaylorSeries) -> TaylorSeries:
    """Sub-series of all terms with m != 0; the input is unchanged."""
    kept = {key: a for key, a in series.terms().items() if key[1].order > 0}
    return TaylorSeries(series.dim, kept)


def holomorphic_part(series: TaylorSeries) -> TaylorSeries:
    """Sub-series of all terms with m == 0."""
    kept = {key: a for key, a in series.terms().items() if key[1].order == 0}
    return TaylorSeries(series.dim, kept)


def wirtinger_F_derivative(series: TaylorSeries, alpha: Sequence[complex]) -> TaylorSeries:
    """Exact derivative along the conjugated linear field (a1 z1, ..., aN zN).

    For the jet this is  sum_j (d/dzbar_j) phi * conj(alpha_j) * zbar_j,
    computed term by term: each zbar_j-derivative is re-multiplied by
    zbar_j, so a term a z^k zbar^m maps to (sum_j m_j conj(alpha_j)) a z^k zbar^m.
    """
    avec = tuple(complex(a) for a in alpha)
    if len(avec) != series.dim:
        raise ValueError(f"field has dimension {len(avec)}, series has {series.dim}")
    out: dict = {}
    for (k, m), a in series.terms().items():
        mult = sum(mj * aj.conjugate() for mj, aj in zip(m, avec))
        if mult != 0:
            out[(k, m)] = mult * a
    return TaylorSeries(series.dim, out)


@functools.lru_cache(maxsize=32)
def _direction_set(dim: int) -> np.ndarray:
    # the all-ones direction first, then random phase vectors drawn with seed
    # DIRECTION_SEED; a pure function of dim, so one read-only array is shared
    rng = np.random.default_rng(DIRECTION_SEED)
    dirs = [tuple(1 + 0j for _ in range(dim))]
    for _ in range(N_DIRECTIONS - 1):
        phases = rng.uniform(0.0, 2.0 * math.pi, size=dim)
        dirs.append(tuple(complex(math.cos(p), math.sin(p)) for p in phases))
    out = np.array(dirs)
    out.flags.writeable = False
    return out


def taylor_remainder_check(
    oracle: Callable[[Point], complex],
    series: TaylorSeries,
    n: int,
    radii: Sequence[float],
    *,
    tol: float = 1e-8,
) -> DecayReport:
    """Check |oracle(z) - partial sum through degree n| = o(|z|^n): a one-rung ladder."""
    return remainder_ladder(oracle, series, [(n, radii)], tol=tol)[0]


def remainder_ladder(oracle, series: TaylorSeries, ladder, *,
                     tol: float = 1e-8) -> list[DecayReport]:
    """One remainder report per rung (n, radii) of ladder, from one oracle read.

    Points are sampled with every coordinate of modulus r, so |z| = r in the
    max norm.  The ratio residual / r^n is computed in the log domain (the
    counterexample oracles underflow r^n long before the ratio is resolved).
    Pass is decided by the ``remainder_trend`` rule.  Every rung's points go
    to one :func:`sampling.evaluate_prefix` call; if the read stops inside
    rung i, that rung is INCONCLUSIVE and the rungs after it are read again
    by a fresh ladder call, so each report is that of a one-rung call.
    """
    rungs = [(n, [float(r) for r in radii]) for n, radii in ladder]
    for n, radii in rungs:
        if any(r <= 0 for r in radii) or any(a <= b for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be positive and strictly decreasing")
        if n < 0:
            raise ValueError("order n must be >= 0")
    # n may exceed the stored degree: the check then asserts the function has
    # no terms between the stored degree and order n (caller's claim to test)
    if not rungs:
        return []
    points = (np.array([r for _n, radii in rungs for r in radii])[:, None, None]
              * _direction_set(series.dim)).reshape(-1, series.dim)
    values, exc = evaluate_prefix(oracle, points)
    reports, start = [], 0
    for i, (n, radii) in enumerate(rungs):
        stop = start + len(radii) * N_DIRECTIONS
        read = min(len(values), stop)
        read -= (read - start) % N_DIRECTIONS  # radii read in full
        resids = np.abs(values[start:read] - series.partial_sum(points[start:read], n))
        # a computed zero only certifies |residual| below the smallest subnormal;
        # use that as an honest upper bound on the ratio
        worst = np.maximum(resids.reshape(-1, N_DIRECTIONS).max(axis=1), 5e-324)
        ratios = [clamped_exp(math.log(w) - n * math.log(r))
                  for w, r in zip(worst.tolist(), radii)]
        if len(values) < stop:
            point = tuple(points[len(values)].tolist())
            note = (f"oracle failed: {exc}" if exc is not None
                    else f"non-finite oracle value at {point}")
            reports.append(DecayReport(float(n), tuple(radii), tuple(ratios), tol,
                                       INCONCLUSIVE, "remainder_trend", witness=point, note=note))
            return reports + remainder_ladder(oracle, series, rungs[i + 1:], tol=tol)
        rate = fitted_decay_rate([math.log(r) for r in radii], ratios)
        slope = None if rate is None else -rate
        if all(v <= tol for v in ratios) or monotone_below(ratios, tol):
            verdict = PASS
        elif slope is not None and slope >= 0.25 and ratios[-1] < ratios[0]:
            verdict = PASS
        else:
            verdict = FAIL
        reports.append(DecayReport(float(n), tuple(radii), tuple(ratios), tol, verdict,
                                   "remainder_trend", slope=slope))
        start = stop
    return reports


def parse_term_line(line: str) -> tuple[tuple[int, ...], tuple[int, ...], complex]:
    """Parse one ``k | m | re | im`` line."""
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 4:
        raise ValueError(f"expected 'k | m | re | im', got {line!r}")
    k = tuple(int(tok) for tok in parts[0].split())
    m = tuple(int(tok) for tok in parts[1].split())
    return k, m, complex(float(parts[2]), float(parts[3]))
