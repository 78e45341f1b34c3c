"""Report types shared by the decay and bound checks.

Every claim of the shape "this quantity tends to zero as the abscissa
grows" or "this bound holds on the sampled set" is reduced to a
:class:`DecayReport`: the sampled abscissas, the measured values, and a
verdict computed by one of a small set of named rules.  The rule used is
recorded in the report so a reader can tell *which* finite protocol stood
in for the limit statement.

Verdict rules
-------------
``monotone_below_tol``
    The measured values are non-increasing on the last three abscissas and
    the final value is at or below the tolerance.  Used for weighted-tail
    checks where the abscissa is Re z and the limit is Re z -> infinity.
``remainder_trend``
    Pass if all values are already below tolerance, or if they satisfy the
    monotone rule, or if the fit of :func:`fitted_decay_rate` at x = log r
    shows a positive slope (value ~ r^s with s >= 0.25) while the
    sequence actually decreased.  Used for o(|z|^n) remainder checks where
    the abscissa is a radius shrinking to 0.
``bound_margin``
    Pass iff the worst sampled ratio value/bound stays below 1 + tol.

The tail, remainder, max-principle and curve checks read the oracle up to
its first failure or non-finite value (:func:`sampling.evaluate_prefix`); a
short read, whatever the oracle raised, is INCONCLUSIVE with that read's note.
The weighted ones score ``clamped_exp(log|residual| + log weight)``.  Values
may be 0.0 (a zero residual; the remainder check scores it as the smallest
subnormal, all a computed zero certifies) or inf (clamped overflow); the
rules treat both directions conservatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DecayReport:
    """Outcome of a sampled decay/bound check."""

    claimed_rate: float
    abscissas: tuple
    values: tuple
    tolerance: float
    verdict: str
    rule: str
    slope: float | None = None
    witness: object = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json_dict(self) -> dict:
        out = {
            "claimed_rate": float(self.claimed_rate),
            "abscissas": [float(a) for a in self.abscissas],
            "values": [float(v) for v in self.values],
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "rule": self.rule,
            "slope": self.slope,
            "note": self.note,
        }
        if self.witness is not None:
            out["witness"] = repr(self.witness)
        return out


def monotone_below(values: Sequence[float], tol: float) -> bool:
    """Non-increasing on the last three samples and final value <= tol."""
    if not values:
        return False
    tail = list(values[-3:])
    ok = all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1))
    return ok and tail[-1] <= tol


def fitted_decay_rate(abscissas: Sequence[float], values: Sequence[float]) -> float | None:
    """Least-squares decay rate: values ~ C e^(-rate x).  None if underdetermined.

    Non-positive and non-finite values are ignored; None if fewer than two
    remain or their abscissas span < 1e-12.  At x = log r it is -s for r^s.
    Closed-form least squares from centred sums (``np.polyfit``'s to rounding).
    """
    pairs = [(float(x), math.log(v)) for x, v in zip(abscissas, values)
             if v > 0 and math.isfinite(v)]
    if len(pairs) < 2:
        return None
    xs, ys = zip(*pairs)
    if max(xs) - min(xs) < 1e-12:
        return None
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    return -sum(dx * (y - y_mean) for dx, y in zip(dxs, ys)) / sum(dx * dx for dx in dxs)


def clamped_exp(log_value: float) -> float:
    """exp() that saturates instead of raising on over/underflow."""
    if log_value > 700.0:
        return math.inf
    if log_value < -745.0:
        return 0.0
    return math.exp(log_value)
