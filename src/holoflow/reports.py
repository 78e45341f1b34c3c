"""The check record shared by every sampled verdict.

Each sampled claim is reduced to one finite protocol, its *rule*, that
turns samples into a *score* held below or above (the ``sense``) a pass
*level*.  A :class:`Check` records the rule, score, level, sense, verdict
(PASS, FAIL or INCONCLUSIVE), witness and note, and a table of the named
numbers the rule read, which read as attributes too (``check.max_residual``).

``margin`` is in signed decades, positive on the passing side:
log10(level / score) below and log10(score / level) above, so a check
passes iff its margin is positive.  A zero or infinite score gives an
infinite margin, a NaN score fails with margin -inf, and an INCONCLUSIVE
check has none.  The sector rule's score is a margin in radians against
level 0 and keeps that unit.  A pass names no witness.

The decay rules; their table (:func:`decay_table`) holds the claimed rate,
abscissas, values, tolerance and fitted slope, and ``branch`` the deciding branch:

``monotone_below_tol``
    Non-increasing on the last three abscissas (else branch ``rise``: the
    largest step up against 1) and the final value below the tolerance
    (``final``).  Weighted tails, where the abscissa is Re z -> infinity.
``remainder_trend``
    The first branch that passes: ``below_tol``, every value below the
    tolerance; the monotone rule; or ``slope``, the fit of
    :func:`fitted_decay_rate` at x = log r showing value ~ r^s with s above
    0.25 while the sequence decreased.  A failure reports the monotone
    rule's branch.  o(|z|^n) remainders, where the abscissa is a radius -> 0.
``bound_margin``
    The worst sampled ratio value/bound below 1 + tol.

The tail, remainder, max-principle and curve checks read the oracle up to
its first failure or non-finite value (:func:`sampling.evaluate_prefix`); a
short read, whatever the oracle raised, is INCONCLUSIVE with that read's
note and scores what it read.  The weighted ones score
``clamped_exp(log|residual| + log weight)``.  Values may be 0.0 (a zero
residual; the remainder check scores it as the smallest subnormal, all a
computed zero certifies) or inf (clamped overflow); the rules treat both
directions conservatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
BELOW = "below"
ABOVE = "above"


@dataclass(frozen=True)
class Check:
    """One rule's score against its pass level; verdict None is PASS iff the margin is > 0."""

    rule: str
    score: float
    level: float
    sense: str = BELOW
    verdict: str | None = None
    witness: object = None
    note: str = ""
    table: dict = field(default_factory=dict)
    unit: str = "decades"

    def __post_init__(self):
        if self.verdict is None:
            object.__setattr__(self, "verdict", PASS if self.margin > 0 else FAIL)
        if self.verdict == PASS:
            object.__setattr__(self, "witness", None)

    def __getattr__(self, name):  # a table entry reads as an attribute
        try:
            return self.__dict__["table"][name]
        except KeyError:
            raise AttributeError(f"{type(self).__name__} has no attribute {name!r}") from None

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    @property
    def inconclusive(self) -> bool:
        return self.verdict == INCONCLUSIVE

    @property
    def margin(self) -> float | None:
        if self.inconclusive:
            return None
        if math.isnan(self.score):
            return -math.inf
        big, small = (self.score, self.level) if self.sense == ABOVE else (self.level, self.score)
        if self.unit != "decades":
            return big - small
        if small <= 0:
            return math.inf
        return math.log10(big) - math.log10(small) if big > 0 else -math.inf

    def to_json_dict(self) -> dict:
        out = {"rule": self.rule, "score": self.score, "level": self.level,
               "sense": self.sense, "verdict": self.verdict, "passed": self.passed,
               "margin": self.margin, "note": self.note, **self.table}
        if self.witness is not None:
            out["witness"] = repr(self.witness)
        return out


def decay_table(claimed_rate, abscissas, values, tolerance, slope=None, **entries) -> dict:
    """The table of a decay check, with any further entries."""
    return {"claimed_rate": float(claimed_rate), "abscissas": tuple(abscissas),
            "values": tuple(values), "tolerance": tolerance, "slope": slope, **entries}


def monotone_below(values: Sequence[float], tol: float) -> tuple[str, float, float]:
    """The deciding branch of the monotone rule as (branch, score, level).

    ``rise``: the largest ratio by which one of the last three values exceeds
    the one before it, against 1, if one does (or does not compare); else
    ``final``: the last value against tol.
    """
    tail = list(values[-3:]) or [math.nan]
    rises = [b / a if a else math.inf for a, b in zip(tail, tail[1:]) if not a >= b]
    return ("rise", max(rises), 1.0) if rises else ("final", tail[-1], tol)


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
