"""Deterministic sample generators and the one oracle calling convention.

Oracles are called with a batch of points and return one value per point:
points of shape (n,) for half-plane oracles, (n, N) for polydisk oracles,
values of shape (n,).  :func:`evaluate` and :func:`evaluate_prefix` are the
only places that call them.
"""

from __future__ import annotations

import math
import warnings

import numpy as np


def polydisk_points(rng: np.random.Generator, dim: int, n: int,
                    r_min: float = 0.05, r_max: float = 0.95) -> np.ndarray:
    """Random points with every coordinate modulus in [r_min, r_max], shape (n, dim).

    The draws are one block, in the order a point-by-point loop takes them
    (the dim radii of a point, then its dim phases), and ``uniform`` is
    ``low + (high - low) * random()``, so the points and the generator's
    state afterwards are those of that loop.  The dtype is complex128.
    """
    u = rng.random((n, 2, dim))
    radii = r_min + (r_max - r_min) * u[:, 0]
    phases = 2.0 * math.pi * u[:, 1]
    z = np.empty((n, dim), dtype=complex)
    z.real = radii * np.cos(phases)
    z.imag = radii * np.sin(phases)
    return z


def halfplane_points(rng: np.random.Generator, n: int,
                     x_range: tuple[float, float] = (0.1, 3.0),
                     y_range: tuple[float, float] = (-3.0, 3.0)) -> np.ndarray:
    """Random points in a rectangle of the right half-plane, shape (n,)."""
    z = np.empty(n, dtype=complex)
    z.real = rng.uniform(*x_range, size=n)
    z.imag = rng.uniform(*y_range, size=n)
    return z


def _one_by_one(points: np.ndarray):
    """The points as an oracle for one point takes them: complex or tuple of complex."""
    return map(tuple, points.tolist()) if points.ndim == 2 else points.tolist()


def _values(oracle, points) -> tuple[np.ndarray, Exception | None]:
    """Oracle values up to its first failing point, and that point's exception.

    One batched call is made.  Only if it raises or returns the wrong shape
    is a RuntimeWarning emitted and the oracle called point by point, with
    a ``complex`` for a half-plane point and a tuple of ``complex`` for a
    polydisk point.  An (N, N) batch is sent with its first point repeated,
    as N + 1 rows: a batched oracle returns N + 1 values, and the first N
    are kept, while an oracle written for one tuple returns N, one per
    coordinate, so it is called point by point.  If a point-by-point
    call raises at point i, the values of points 0..i-1 are returned with
    that exception; otherwise all values are returned with None.  The
    returned array is the caller's to modify.
    """
    points = np.asarray(points, dtype=complex)
    n = len(points)
    square = points.ndim == 2 and n == points.shape[1]
    sent = np.concatenate([points, points[:1]]) if square else points
    try:
        values = np.array(oracle(sent), dtype=complex)
        reason = f"values of shape {values.shape}"
    except Exception as exc:  # any failure of the batched call means: retry per point
        values, reason = None, type(exc).__name__
    if values is not None and values.shape == (len(sent),):
        return values[:n], None
    warnings.warn(f"oracle rejected a batch ({reason}); evaluating point by point, "
                  "as a single-point oracle", RuntimeWarning)
    found: list[complex] = []
    for point in _one_by_one(points):
        try:
            found.append(complex(oracle(point)))
        except Exception as exc:  # handed to the caller, which reports the point
            return np.array(found, dtype=complex), exc
    return np.array(found, dtype=complex), None


def evaluate_prefix(oracle, points) -> tuple[np.ndarray, Exception | None]:
    """Oracle values before the first point where it fails or returns a
    non-finite value, and the exception if it failed there (else None).

    A short read, with fewer values than points, stopped at
    ``points[len(values)]``.  The oracle is called as by :func:`evaluate`;
    the returned array is the caller's to modify.
    """
    values, exc = _values(oracle, points)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        return values[: bad[0]], None
    return values, exc


def evaluate(oracle, points) -> np.ndarray:
    """Oracle values at every point, non-finite or not; a point-by-point failure propagates."""
    values, exc = _values(oracle, points)
    if exc is not None:
        raise exc
    return values
