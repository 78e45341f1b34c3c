"""Shared random-case generators (all seeded through numpy Generators)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from holoflow import DiagonalField, HolomorphicExpansion, TaylorSeries
from holoflow.sampling import evaluate_prefix


def full_read(oracle, points) -> np.ndarray:
    """The oracle's values at every point, from a read asserted not to stop short."""
    values, note = evaluate_prefix(oracle, points)
    assert note == ""
    return values


def random_multi_index(rng: np.random.Generator, dim: int, max_order: int) -> tuple[int, ...]:
    order = int(rng.integers(0, max_order + 1))
    idx = [0] * dim
    for _ in range(order):
        idx[int(rng.integers(0, dim))] += 1
    return tuple(idx)


def random_coeff(rng: np.random.Generator, lo: float = 0.3, hi: float = 1.0) -> complex:
    r = rng.uniform(lo, hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * complex(math.cos(phi), math.sin(phi))


def random_jet(rng: np.random.Generator, dim: int, degree: int, n_terms: int,
               mixed: bool = True) -> TaylorSeries:
    """Random jet; with mixed=False every term is holomorphic (m = 0)."""
    terms = {}
    for _ in range(n_terms):
        while True:
            k = random_multi_index(rng, dim, degree)
            m = random_multi_index(rng, dim, degree - sum(k)) if mixed else (0,) * dim
            if sum(k) + sum(m) <= degree:
                break
        terms[(k, m)] = terms.get((k, m), 0j) + random_coeff(rng)
    return TaylorSeries(dim, terms)


def random_positive_field(rng: np.random.Generator, dim: int,
                          max_num: int = 4, max_den: int = 4) -> DiagonalField:
    rates = tuple(Fraction(int(rng.integers(1, max_num + 1)),
                           int(rng.integers(1, max_den + 1))) for _ in range(dim))
    return DiagonalField(rates)


def random_interior_point(rng: np.random.Generator, dim: int,
                          r_min: float = 0.3, r_max: float = 0.9) -> tuple[complex, ...]:
    out = []
    for _ in range(dim):
        r = rng.uniform(r_min, r_max)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        out.append(r * complex(math.cos(phi), math.sin(phi)))
    return tuple(out)


def jet_max_level(jet: TaylorSeries, field: DiagonalField) -> Fraction:
    """Exact maximum of (alpha,k)+(alpha,m) over the jet support."""
    best = Fraction(0)
    for (k, m) in jet.terms():
        level = sum((kj * aj for kj, aj in zip(k, field.rates)), Fraction(0)) \
            + sum((mj * aj for mj, aj in zip(m, field.rates)), Fraction(0))
        best = max(best, level)
    return best


def random_expansion_sixths(rng: np.random.Generator, max_terms: int = 8,
                            lam_max: int = 10) -> HolomorphicExpansion:
    """Extraction corpus: distinct multiples of 1/6 up to lam_max (gaps >= 1/6),
    coefficient moduli in [0.1, 1]."""
    n = int(rng.integers(1, max_terms + 1))
    ks = rng.choice(6 * lam_max + 1, size=n, replace=False)
    levels = sorted(Fraction(int(k), 6) for k in ks)
    return HolomorphicExpansion(
        [(lam, random_coeff(rng, 0.1, 1.0)) for lam in levels])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
