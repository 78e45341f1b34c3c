"""Deterministic sample generators and the one oracle calling convention.

Oracles are called with a batch of points and return one value per point:
points of shape (n,) for half-plane oracles, (n, N) for polydisk oracles,
values of shape (n,).  :func:`evaluate_prefix` is the one place that calls
them; what an oracle raises ends the read with a note, and is never raised.
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


def evaluate_prefix(oracle, points) -> tuple[np.ndarray, str]:
    """Oracle values before the first point where it fails or returns a
    non-finite value, and the note of that stop ("" after a full read).

    The program's one oracle read; a short read is never a pass.  It stopped
    at ``points[len(values)]``, and its note is ``oracle failed: <exc>`` or
    ``non-finite oracle value at <point>``, the point as :func:`_one_by_one`
    gives it.  One batched call is made.  Only if it raises or returns the
    wrong shape is a RuntimeWarning emitted and the oracle called point by
    point, with a ``complex`` for a half-plane point and a tuple of
    ``complex`` for a polydisk point.  An (N, N) batch is sent with its
    first point repeated, as N + 1 rows: a batched oracle returns N + 1
    values, and the first N are kept, while an oracle written for one tuple
    returns N, one per coordinate, so it is called point by point.  The
    returned array is the caller's to modify.  The whole read runs under one
    ``np.errstate(all="ignore")``, so a numpy overflow inside the oracle is a
    non-finite value, not an exception, under any warnings filter.
    """
    points = np.asarray(points, dtype=complex)
    square = points.ndim == 2 and len(points) == points.shape[1]
    sent = np.concatenate([points, points[:1]]) if square else points
    with np.errstate(all="ignore"):
        try:
            values = np.array(oracle(sent), dtype=complex)
            reason = f"values of shape {values.shape}"
        except Exception as exc:  # any failure of the batched call means: retry per point
            values, reason = None, type(exc).__name__
        if values is not None and values.shape == (len(sent),):
            values, note = values[: len(points)], ""
        else:
            warnings.warn(f"oracle rejected a batch ({reason}); evaluating point by point, "
                          "as a single-point oracle", RuntimeWarning)
            found, note = [], ""
            for point in _one_by_one(points):
                try:
                    found.append(complex(oracle(point)))
                except Exception as exc:  # the read stops here, and its note says why
                    note = f"oracle failed: {exc}"
                    break
            values = np.array(found, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        point, = _one_by_one(points[bad[0]: bad[0] + 1])
        return values[: bad[0]], f"non-finite oracle value at {point}"
    return values, note
