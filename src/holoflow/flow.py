"""Diagonal linear fields z' = A z, their curves, spectrum, and level grid.

Rates are exact rationals and the shared time unit tau has modulus one, so
the eigenvalues are alpha_j = r_j * tau.  Keeping the rates rational makes
the decay-level grid {lambda_j} exact: level coincidences are set equality
on fractions, never a floating point tie-break.

Curve convention: the canonical curve through c is
``s_c(zeta) = (c_1 e^(-alpha_1 zeta), ..., c_N e^(-alpha_N zeta))``,
so with positive rates and unit time the curves contract into the
polydisk as Re zeta -> +infinity, and the right half-plane is the common
domain for all expansions.  Fields written with the opposite sign are the
same curves under zeta -> -zeta; :func:`normalize_time` records the
rescale factor.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

_TAU_TOL = 1e-12
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
    """Diagonal field with rational rates and a unit-modulus time factor.

    ``eigenvalues`` (alpha_j = r_j * tau as complex doubles) is derived from
    the other two fields once, and takes no part in equality, hash or repr.
    """

    rates: tuple
    time_unit: complex = 1 + 0j
    eigenvalues: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rates = tuple(_as_fraction(r) for r in self.rates)
        if len(rates) == 0:
            raise ValueError("field needs at least one rate")
        if any(r == 0 for r in rates):
            raise ValueError("all rates must be nonzero")
        tau = complex(self.time_unit)
        if not abs(abs(tau) - 1.0) <= _TAU_TOL:  # NaN fails this test too
            raise ValueError(f"time unit must have modulus 1, got |tau| = {abs(tau)}")
        try:
            eigenvalues = tuple(complex(r) * tau for r in rates)
        except OverflowError:  # a rate beyond double range
            raise ValueError("rates must lie within double range") from None
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "time_unit", tau)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def dim(self) -> int:
        return len(self.rates)


class SpectrumClass(Enum):
    POSITIVE_RATIOS = "positive_ratios"
    COMMON_HALF_PLANE = "common_half_plane"
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


def classify_spectrum(field) -> SpectrumClass:
    """Classify a field (or a raw eigenvalue sequence) by its ratio structure.

    POSITIVE_RATIOS: every pairwise ratio alpha_j/alpha_k is a positive real.
    COMMON_HALF_PLANE: some unit w makes every Re(alpha_j * w) < 0.
    MIXED: neither.

    A field's eigenvalues r_j * tau all lie on one line through 0, so its
    class is decided exactly by the signs of the rational rates.  Raw
    eigenvalues share an open half-plane iff the largest cyclic gap between
    their sorted arguments exceeds pi.
    """
    if isinstance(field, DiagonalField):
        positive = {r > 0 for r in field.rates}
        return SpectrumClass.POSITIVE_RATIOS if len(positive) == 1 else SpectrumClass.MIXED
    eigs = tuple(complex(a) for a in field)
    if any(a == 0 for a in eigs):
        raise ValueError("eigenvalues must be nonzero")

    base = eigs[0]
    ratios = [a / base for a in eigs]
    if all(abs(r.imag) <= 1e-12 * abs(r) and r.real > 0 for r in ratios):
        return SpectrumClass.POSITIVE_RATIOS

    args = sorted(cmath.phase(a) for a in eigs)
    gaps = [b - a for a, b in zip(args, args[1:])] + [2.0 * math.pi - (args[-1] - args[0])]
    if max(gaps) > math.pi:
        return SpectrumClass.COMMON_HALF_PLANE
    return SpectrumClass.MIXED


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
    factor: complex


def normalize_time(field: DiagonalField) -> NormalizedField:
    """Rescale time so tau = 1 and all rates are positive.

    Returns the canonical field and the factor sigma with
    old_alpha_j = new_rate_j * sigma, i.e. the canonical curve parameter is
    zeta' = sigma * zeta.
    """
    if classify_spectrum(field) is not SpectrumClass.POSITIVE_RATIOS:
        raise SpectrumError("cannot normalize a field without positive ratios")
    sign = 1 if field.rates[0] > 0 else -1
    factor = sign * field.time_unit
    new_field = DiagonalField(tuple(sign * r for r in field.rates), 1 + 0j)
    return NormalizedField(new_field, factor)
