"""Diagonal linear fields z' = A z, their curves, spectrum, and level grid.

A field is its exact rational rates r_j, the eigenvalues alpha_j.  Only the
ratios r_j / r_k enter the paper's hypothesis, and a common unit tau changes
no complex integral curve (zeta -> tau zeta), so the field carries none.
Keeping the rates rational makes the spectrum class and the decay-level grid
{lambda_j} exact: level coincidences are set equality on fractions, never a
floating point tie-break.

Curve convention: the canonical curve through c is
``s_c(zeta) = (c_1 e^(-alpha_1 zeta), ..., c_N e^(-alpha_N zeta))``,
so with positive rates the curves contract into the polydisk as
Re zeta -> +infinity, and the right half-plane is the common domain for all
expansions.  Fields written with negative rates are the same curves under
zeta -> -zeta; :func:`normalize_time` records the sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

#: most multiples of 1/q a level grid may span, so the most levels (plus one) it holds
MAX_LATTICE = 2**18


class SpectrumError(ValueError):
    """Raised when an operation needs a spectrum class the field lacks."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):  # every grid level comes through here: no copy
        return value
    if isinstance(value, float):
        raise TypeError("must be exact (int, Fraction, or 'p/q' string), not float")
    return Fraction(value)


@dataclass(frozen=True)
class DiagonalField:
    """Diagonal field z' = diag(r) z with exact rational rates r_j.

    ``eigenvalues`` (the rates as complex doubles) is derived once, and takes
    no part in equality, hash or repr.
    """

    rates: tuple
    eigenvalues: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rates = tuple(_as_fraction(r) for r in self.rates)
        if len(rates) == 0:
            raise ValueError("field needs at least one rate")
        if any(r == 0 for r in rates):
            raise ValueError("all rates must be nonzero")
        try:
            eigenvalues = tuple(complex(r) for r in rates)
        except OverflowError:  # a rate beyond double range
            raise ValueError("rates must lie within double range") from None
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def dim(self) -> int:
        return len(self.rates)


class SpectrumClass(Enum):
    POSITIVE_RATIOS = "positive_ratios"
    MIXED = "mixed"


@dataclass(frozen=True)
class BasePoint:
    """Initial point of a curve, strictly inside the unit polydisk."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(complex(c) for c in self.coords)
        if len(coords) == 0:
            raise ValueError("base point needs at least one coordinate")
        if not all(abs(c) < 1.0 for c in coords):  # a NaN coordinate fails too
            raise ValueError("base point coordinates must satisfy |c_j| < 1")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)


def _coords(c) -> tuple[complex, ...]:
    if isinstance(c, BasePoint):
        return c.coords
    return tuple(complex(v) for v in c)


def classify_spectrum(field: DiagonalField) -> SpectrumClass:
    """Classify a field by the signs of its rational rates, exactly.

    POSITIVE_RATIOS: every ratio r_j/r_k is positive, i.e. all rates share
    one sign.  MIXED: otherwise.
    """
    positive = {r > 0 for r in field.rates}
    return SpectrumClass.POSITIVE_RATIOS if len(positive) == 1 else SpectrumClass.MIXED


def integral_curve(field: DiagonalField, c, zeta):
    """The curve s_c(zeta) with components c_j e^(-alpha_j zeta).

    c is one base point (a BasePoint or N coordinates) or an array of shape
    (..., N), broadcast against zeta.shape + (N,).  One base point and a
    scalar zeta give a tuple of N complex coordinates, anything else an array.
    """
    base = np.asarray(c.coords if isinstance(c, BasePoint) else c, dtype=complex)
    if base.shape[-1:] != (field.dim,):
        raise ValueError(f"base point has dimension {base.shape[-1]}, field has {field.dim}")
    points = base * np.exp(-np.multiply.outer(zeta, field.eigenvalues))
    return tuple(points.tolist()) if points.ndim == 1 else points


def _lattice(rates) -> tuple[int, tuple[int, ...]]:
    """(q, s): q the lcm of the rate denominators and the integers s_j = r_j q."""
    rates = tuple(_as_fraction(r) for r in rates)
    q = math.lcm(*(r.denominator for r in rates))
    return q, tuple(r.numerator * (q // r.denominator) for r in rates)


def level_of(index, rates) -> Fraction:
    """The exact level (alpha, index) = sum_j index_j * rate_j."""
    return sum((kj * rj for kj, rj in zip(index, rates)), Fraction(0))


@dataclass(frozen=True)
class LevelGrid:
    """All decay levels (alpha,k)+(alpha,m) up to a cutoff, exactly enumerated.

    ``q``, the lcm of the level denominators, and the read-only int64 ``steps``
    = levels * q are derived once, and take no part in equality, hash or repr.
    """

    rates: tuple
    lambda_max: Fraction
    levels: tuple
    q: int = dataclass_field(init=False, repr=False, compare=False)
    steps: np.ndarray = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        levels = tuple(v if type(v) is Fraction else Fraction(v) for v in self.levels)
        q = math.lcm(1, *(v.denominator for v in levels))
        steps = np.array([v.numerator * (q // v.denominator) for v in levels], dtype=np.int64)
        steps.flags.writeable = False
        object.__setattr__(self, "rates", tuple(Fraction(r) for r in self.rates))
        object.__setattr__(self, "lambda_max", Fraction(self.lambda_max))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.levels)

    def __contains__(self, value) -> bool:
        step = Fraction(value) * self.q
        return step.denominator == 1 and step.numerator in self.steps


@functools.lru_cache(maxsize=8, typed=True)
def level_grid(field: DiagonalField, lambda_max) -> LevelGrid:
    """Enumerate every value  sum_j n_j |r_j| <= lambda_max  (n_j >= 0 integers).

    Because (alpha,k)+(alpha,m) depends only on k+m, enumerating single
    multi-indices n is exhaustive.  The sums are multiples of 1/q (q the lcm of
    the rate denominators); a table over 0..lambda_max q marks them, or-ing in
    its own shifts by 1, 2, 4, ... steps of each rate (N log2(lambda_max q)
    passes).  Requires a positive-ratio spectrum and lambda_max q <= MAX_LATTICE.

    Memoized per process: equal ``(field, lambda_max)`` arguments return one
    shared grid, which is safe because a LevelGrid is frozen, its levels a
    tuple and its ``steps`` read-only.  ``typed=True`` keeps ``lambda_max = 3``
    and ``3.0`` apart, so a float cutoff still raises TypeError after the int
    one is cached; raised errors are never cached.  At most 8 grids are kept:
    a MAX_LATTICE grid (2^18 + 1 levels, one Fraction each) holds about
    32 MiB and takes about 0.7 s to build on a shared 2-vCPU host, so the
    worst case stays near 256 MiB.
    """
    lam_max = _as_fraction(lambda_max)
    if lam_max <= 0:
        raise ValueError("lambda_max must be > 0")
    if classify_spectrum(field) is not SpectrumClass.POSITIVE_RATIOS:
        raise SpectrumError("level grid requires a positive-ratio spectrum "
                            "(mixed spectra have no well-ordered levels)")
    rates = tuple(abs(r) for r in field.rates)
    q, steps = _lattice(rates)
    top = math.floor(lam_max * q)
    if top > MAX_LATTICE:
        raise ValueError(f"level grid spans {top} multiples of 1/{q}; MAX_LATTICE = {MAX_LATTICE}")
    reach = np.zeros(top + 1, dtype=bool)
    reach[0] = True
    for shift in steps:
        while shift <= top:
            reach[shift:] |= reach[:-shift]
            shift *= 2
    levels = tuple(Fraction(int(j), q) for j in np.flatnonzero(reach))
    return LevelGrid(rates=rates, lambda_max=lam_max, levels=levels)


class NormalizedField(NamedTuple):
    field: DiagonalField
    factor: int


def normalize_time(field: DiagonalField) -> NormalizedField:
    """Flip the sign of time, if need be, so all rates are positive.

    Returns the canonical field and the sign sigma = +-1 with
    old_rate_j = new_rate_j * sigma, i.e. the canonical curve parameter is
    zeta' = sigma * zeta.  Levels keep their units.
    """
    if classify_spectrum(field) is not SpectrumClass.POSITIVE_RATIOS:
        raise SpectrumError("cannot normalize a field without positive ratios")
    sign = 1 if field.rates[0] > 0 else -1
    return NormalizedField(DiagonalField(tuple(sign * r for r in field.rates)), sign)
