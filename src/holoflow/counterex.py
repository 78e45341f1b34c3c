"""Executable counterexamples: smooth, curve-holomorphic, never holomorphic.

Two constructions on the bidisk, both vanishing to infinite order on
{z1 z2 = 0}, plus the rigid-rotation example conj(z1) conj(z2):

* resonant pair (1, -t):  phi = exp(-1 / (|z1|^t |z2|)), constant along
  every curve of the field (the product |z1|^t |z2| is a first integral);
* spiral pair (alpha, t conj(alpha)) with non-real ratio:
  phi = exp(xi^b) for xi = gamma log|z1| + (conj(gamma)/t) log|z2| with
  gamma = 1/(2 Re alpha) - i/(2 Im alpha).  Along a curve xi moves by
  exactly the curve time (the time identity), so the restriction is an
  entire function of the parameter.

The branch data (b, k) for xi^b is found by search: xi ranges over the
cone spanned by -gamma and -conj(gamma) (an angle < pi in the *right*
half-plane: Re(r gamma + s conj(gamma)) = (r+s)/(2 Re alpha) > 0 for
r, s < 0), and we need b(arg xi + 2 pi k) to land where the cosine is
negative, making Re(xi^b) < 0 and |phi| decay faster than any power of
|z_j|.  Among admissible branches the search keeps the smallest shift k
and then the largest containment margin: pushing k up lets b shrink
toward 1, and a decay exponent c u^b with b near 1 cannot outpace u^n at
any radius representable in double precision, so those branches would be
uncheckable even though they exist mathematically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import partial

import numpy as np

from .flow import DiagonalField, integral_curve
from .forelli import (FD_STEP, HYPOTHESIS_VIOLATED, ForelliConfig, JetOracle, curve_check,
                      forelli_pipeline)
from .sampling import evaluate, polydisk_points
from .series import TaylorSeries, antiholomorphic_part, remainder_ladder
from .wirtinger import CIRCLE, dbar_circle

TWO_PI = 2.0 * math.pi
#: largest resonant t the suite supports: its curve samples have Re zeta in
#: [0.02, 0.6 / t], an empty range beyond t = 30
RESONANT_T_MAX = 30


class BranchSearchError(RuntimeError):
    """No admissible branch exponent in the search range."""


@dataclass(frozen=True)
class ResonantExample:
    """phi = exp(-1/(|z1|^t |z2|)), extended by 0 across {z1 z2 = 0}; calling
    the example evaluates :func:`phi_resonant`, so it is its own oracle."""

    t: float = 1.0

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("t must be positive")

    def __call__(self, z):
        return phi_resonant(self, z)


def phi_resonant(ex: ResonantExample, z):
    """phi at one point (2,) (a float) or at a batch (n, 2) (an array)."""
    z = np.asarray(z, dtype=complex)
    denom = np.abs(z[..., 0]) ** ex.t * np.abs(z[..., 1])
    with np.errstate(divide="ignore"):
        value = np.exp(-1.0 / denom)  # exp(-inf) = 0 on {z1 z2 = 0}
    return float(value) if value.ndim == 0 else value


def sector_angles(alpha: complex) -> tuple[float, float]:
    """Argument range of the cone {r gamma + s conj(gamma): r, s < 0}."""
    alpha = complex(alpha)
    if not (alpha.real < 0 and alpha.imag > 0):
        raise ValueError("need Re alpha < 0 and Im alpha > 0")
    gamma = 1.0 / (2.0 * alpha.real) - 1j / (2.0 * alpha.imag)
    th1 = math.atan2((-gamma).imag, (-gamma).real)
    th2 = math.atan2((-gamma.conjugate()).imag, (-gamma.conjugate()).real)
    lo, hi = min(th1, th2), max(th1, th2)
    if hi - lo >= math.pi - 1e-12:
        raise BranchSearchError(f"sector spans {hi - lo:.6f} rad, not < pi")
    return lo, hi


def choose_branch_exponent(alpha: complex) -> tuple[float, int]:
    """Search (b, k) with b (arg-range + 2 pi k) inside a cosine-negative band.

    Scans k = 0..3 and b on a 1e-3 grid in (1, 4]; returns for the smallest
    admissible k the b maximizing the containment margin.  The field's t does
    not move the cone (it only rescales one generator's coefficient).
    """
    lo0, hi0 = sector_angles(alpha)
    bs = 1.0 + np.arange(1, 3001) * 1e-3
    for k in range(4):
        lo, hi = bs * (lo0 + TWO_PI * k), bs * (hi0 + TWO_PI * k)
        below_pi = np.logical_and.accumulate(hi - lo < math.pi)  # the scan stops at pi
        j = np.round(((lo + hi) / 2.0 - math.pi) / TWO_PI)
        margin = np.minimum(lo - (0.5 * math.pi + TWO_PI * j),
                            (1.5 * math.pi + TWO_PI * j) - hi)
        margin = np.where(below_pi & (margin > 0), margin, 0.0)
        if margin.max(initial=0.0) > 0:
            return float(bs[np.argmax(margin)]), k  # the first b of largest margin
    raise BranchSearchError(
        f"no (b, k) with b <= 4.0, k <= 3 for sector [{lo0:.6f}, {hi0:.6f}]")


@dataclass(frozen=True)
class SpiralExample:
    """phi = exp(xi^b) for the field (alpha, t conj(alpha)) with branch data;
    calling the example evaluates :func:`phi_spiral`."""

    alpha: complex
    t: float
    b: float
    branch_offset: int

    def __post_init__(self):
        alpha = complex(self.alpha)
        if not (alpha.real < 0 and alpha.imag > 0):
            raise ValueError("need Re alpha < 0 and Im alpha > 0")
        if not self.t > 0:
            raise ValueError("t must be positive")
        if not self.b > 1:
            raise ValueError("branch exponent must exceed 1")
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def create(cls, alpha: complex, t: float = 1.0) -> "SpiralExample":
        b, k = choose_branch_exponent(alpha)
        ex = cls(alpha=complex(alpha), t=float(t), b=b, branch_offset=k)
        ident = verify_time_identity(ex, [complex(1, 0), complex(0.3, -2.1), complex(-1.7, 0.9)])
        if not ident.passed:
            raise ValueError(f"time identity failed at {ident.witness}: {ident.max_error}")
        xis = sector_samples(ex, np.random.default_rng(20240901), 1000)
        positive = branch_power(ex, xis).real >= 0
        if np.any(positive):
            raise ValueError(f"Re(xi^b) >= 0 at sector point {xis[np.argmax(positive)]}")
        return ex

    def __call__(self, z):
        return phi_spiral(self, z)

    @property
    def gamma(self) -> complex:
        return 1.0 / (2.0 * self.alpha.real) - 1j / (2.0 * self.alpha.imag)

    @property
    def beta(self) -> complex:
        return self.t * self.alpha.conjugate()


def branch_power(ex: SpiralExample, xi):
    """xi^b on the branch  log xi = log|xi| + i (Arg xi + 2 pi k); elementwise."""
    xi = np.asarray(xi, dtype=complex)
    if np.any(xi == 0):
        raise ValueError("branch power undefined at 0")
    ang = np.arctan2(xi.imag, xi.real) + TWO_PI * ex.branch_offset
    w = np.exp(ex.b * (np.log(np.abs(xi)) + 1j * ang))
    return complex(w) if w.ndim == 0 else w


def phi_spiral(ex: SpiralExample, z):
    """phi at one point (2,) (a complex) or at a batch (n, 2) (an array)."""
    z = np.asarray(z, dtype=complex)
    value = np.zeros(z.shape[:-1], dtype=complex)
    live = (z[..., 0] != 0) & (z[..., 1] != 0)
    zl = z[live]
    xi = ex.gamma * np.log(np.abs(zl[:, 0])) \
        + (ex.gamma.conjugate() / ex.t) * np.log(np.abs(zl[:, 1]))
    w = branch_power(ex, xi)
    if np.any(w.real > 700.0):
        where = tuple(zl[np.argmax(w.real > 700.0)].tolist())
        raise ValueError(f"exp overflow at z = {where}: point outside the decay regime")
    value[live] = np.exp(w)
    return complex(value) if value.ndim == 0 else value


def phi_remark(z):
    """conj(z1) conj(z2) at one point (2,) or at a batch (n, 2)."""
    z = np.asarray(z, dtype=complex)
    return np.conj(z[..., 0] * z[..., 1])


def spiral_curve(ex: SpiralExample, C, zeta):
    """Curve (C1 e^(alpha zeta), C2 e^(beta zeta)) of the non-real-ratio field.

    Broadcasts like :func:`flow.integral_curve`: C is one base point or an
    array of shape (..., 2); one base point and a scalar zeta give a tuple.
    """
    points = np.asarray(C, dtype=complex) * np.exp(np.multiply.outer(zeta, (ex.alpha, ex.beta)))
    return tuple(points.tolist()) if points.ndim == 1 else points


def sector_samples(ex: SpiralExample, rng: np.random.Generator, n: int) -> np.ndarray:
    """Random points of the cone, log-uniform over several magnitude decades."""
    rs = -np.exp(rng.uniform(-3.0, 3.0, size=n))
    ss = -np.exp(rng.uniform(-3.0, 3.0, size=n))
    g = ex.gamma
    return rs * g + ss * g.conjugate()


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    max_error: float
    witness: complex | None = None


def verify_time_identity(ex: SpiralExample, zetas, tol: float = 1e-12) -> IdentityReport:
    """Check  gamma Re(alpha zeta) + (conj(gamma)/t) Re(beta zeta) = zeta  pointwise.

    The witness is the first zeta of largest nonzero error, if that is >= tol.
    """
    zetas = np.asarray(zetas, dtype=complex).ravel()
    g = ex.gamma
    errors = np.abs(g * (ex.alpha * zetas).real
                    + (g.conjugate() / ex.t) * (ex.beta * zetas).real - zetas)
    worst = float(errors.max(initial=0.0))
    witness = complex(zetas[np.argmax(errors)]) if worst >= tol and worst > 0 else None
    return IdentityReport(worst < tol, worst, witness)


def _zero_jet_radii(log_ratio, n: int, tol: float) -> list[float]:
    """Five radii exp(-v), v <= 640, on which  residual / r^n  visibly drops below tol.

    log_ratio(v, n) is the log of the ratio along the diagonal direction at
    radius e^(-v); beyond its hump it is strictly decreasing, so bisection
    finds where it crosses +5 (grid start) and log(tol) - 5 (grid end).
    """
    target_end = math.log(tol) - 5.0

    def bisect(target: float, v_lo: float, v_hi: float) -> float:
        for _ in range(80):
            mid = 0.5 * (v_lo + v_hi)
            if mid == v_lo or mid == v_hi:  # a fixed point: no step changes the bracket now
                break
            if log_ratio(mid, n) > target:
                v_lo = mid
            else:
                v_hi = mid
        return v_hi

    # walk out to find the decreasing regime and a bracket for the end target;
    # best and end_value are log_ratio at v and v_end_hi, each point read once
    step = 0.25
    v = step
    best = log_ratio(v, n)
    while v < 640.0 and (ahead := log_ratio(v + step, n)) >= best:
        v += step
        best = ahead
        step *= 1.3
    v_hump = v
    v_end_hi, end_value = v_hump, best
    while v_end_hi < 640.0 and end_value > target_end:
        v_end_hi = min(640.0, v_end_hi * 1.5 + 0.5)
        end_value = log_ratio(v_end_hi, n)
    if end_value > target_end:
        raise ValueError(
            f"order-{n} remainder cannot be certified within double range")
    v_end = bisect(target_end, v_hump, v_end_hi)
    if best <= 5.0:
        v_start = v_hump
    else:
        v_start = bisect(5.0, v_hump, v_end)
    v_end = max(v_end, 1.2 * v_start + 0.5)  # keep the radius grid non-degenerate
    vs = np.linspace(v_start, v_end, 5)
    return [math.exp(-v) for v in vs]


@dataclass(frozen=True)
class SuiteReport:
    """Aggregated sub-check outcomes for one counterexample."""

    which: str
    params: dict
    checks: dict
    decay_reports: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "which": self.which,
            "params": {k: str(v) for k, v in self.params.items()},
            "passed": self.passed,
            "checks": self.checks,
        }


def _witness_check(oracle) -> dict:
    """max_j |d phi / d zbar_j| at (0.5, 0.5), from one call on the coordinate circles."""
    point = np.array([0.5, 0.5], dtype=complex)
    circles = point + FD_STEP * CIRCLE[:, None] * np.eye(2)[:, None, :]  # (2, 4, 2)
    values = evaluate(oracle, circles.reshape(-1, 2)).reshape(2, len(CIRCLE))
    residual = float(np.abs(dbar_circle(values, FD_STEP)[1]).max())
    return {"passed": residual > 1e-3, "residual": residual, "point": "(0.5, 0.5)"}


def _zero_jet_check(oracle, log_ratio, decay: dict) -> dict:
    """Remainders of the zero jet at orders 1..8, each on the radii of
    :func:`_zero_jet_radii`, from one :func:`remainder_ladder` read; each
    order's report goes into decay."""
    ladder = [(n, _zero_jet_radii(log_ratio, n, 1e-8)) for n in range(1, 9)]
    reports = remainder_ladder(oracle, TaylorSeries.zero(2), ladder)
    decay.update((f"zero_jet_order_{n}", rep) for (n, _radii), rep in zip(ladder, reports))
    return {"passed": all(rep.passed for rep in reports), "orders": 8}


def _field_curve_check(oracle, field: DiagonalField, rng: np.random.Generator,
                       x_hi: float) -> dict:
    """Curve check along 10 integral curves of field at 40 shared samples zeta."""
    curves = polydisk_points(rng, 2, 10, r_min=0.15, r_max=0.5)
    zetas = rng.uniform(0.02, x_hi, 40) + 1j * rng.uniform(-2.0, 2.0, 40)
    rep = curve_check(oracle, partial(integral_curve, field), curves, zetas, tol=1e-8)
    return {"passed": rep.passed, "max_residual": rep.max_residual}


def counterexample_suite(which: str, *, t=1, alpha: complex = -1 + 1j,
                         seed: int = 0) -> SuiteReport:
    """Run every verifiable property of the named example and bundle reports.

    which: 'resonant' (field (1, -t), t exact rational in
    (0, RESONANT_T_MAX]), 'spiral' (field (alpha, t conj(alpha))), or
    'remark' (conj(z1) conj(z2) on the field (1, -1), documenting that mixed
    real ratios break reconstruction while curve-holomorphy survives).
    """
    rng = np.random.default_rng(seed)
    if which == "resonant":
        if not 0 < t <= RESONANT_T_MAX:
            raise ValueError(f"resonant t must be in (0, {RESONANT_T_MAX}], got {t}")
        return _resonant_suite(Fraction(t), rng)
    if which == "spiral":
        return _spiral_suite(complex(alpha), float(t), rng)
    if which == "remark":
        return _remark_suite(rng)
    raise ValueError(f"unknown counterexample {which!r}")


def _resonant_suite(t: Fraction, rng: np.random.Generator) -> SuiteReport:
    ex = ResonantExample(float(t))
    field = DiagonalField((Fraction(1), -t))
    x_hi = 0.6 / max(1.0, ex.t)
    checks = {"curve_holomorphy": _field_curve_check(ex, field, rng, x_hi),
              "non_holomorphy_witness": _witness_check(ex)}

    def log_ratio(v: float, n: int) -> float:
        e = v * (ex.t + 1.0)
        return n * v - (math.exp(e) if e < 700.0 else math.inf)

    decay: dict = {}
    checks["zero_jet_remainder"] = _zero_jet_check(ex, log_ratio, decay)

    def invariant(z):  # |z1|^t |z2|, a first integral of the field
        return np.abs(z[:, 0]) ** ex.t * np.abs(z[:, 1])

    base = polydisk_points(rng, 2, 100, r_min=0.1, r_max=0.5)
    zetas = rng.uniform(0.0, x_hi, 100) + 1j * rng.uniform(-3.0, 3.0, 100)
    moved = base * integral_curve(field, (1, 1), zetas)  # (1, 1) gives e^(-alpha_j zeta)
    worst = float(np.max(np.abs(invariant(moved) - invariant(base))))
    checks["first_integral_constancy"] = {"passed": worst < 1e-12, "max_drift": worst}
    return SuiteReport("resonant", {"t": t}, checks, decay)


def _spiral_suite(alpha: complex, t: float, rng: np.random.Generator) -> SuiteReport:
    ex = SpiralExample.create(alpha, t)
    reach = 0.6 / (abs(ex.alpha) * max(1.0, t))
    curves = polydisk_points(rng, 2, 10, r_min=0.15, r_max=0.4)
    # ten samples per curve in the disk |zeta| <= reach, drawn curve by curve
    zetas = polydisk_points(rng, 1, 10 * len(curves), r_min=0.0, r_max=reach).reshape(-1, 10)
    curve_rep = curve_check(ex, partial(spiral_curve, ex), curves, zetas, tol=1e-6)
    checks = {"curve_holomorphy": {"passed": curve_rep.passed,
                                   "max_residual": curve_rep.max_residual},
              "non_holomorphy_witness": _witness_check(ex)}

    ident = verify_time_identity(ex, rng.uniform(-10, 10, 100) + 1j * rng.uniform(-10, 10, 100))
    checks["time_identity"] = {"passed": ident.passed, "max_error": ident.max_error}

    sector_ok = bool(np.all(branch_power(ex, sector_samples(ex, rng, 10_000)).real < 0))
    checks["sector_negativity"] = {"passed": sector_ok, "samples": 10_000}

    # decay constant along the all-equal-moduli direction used by the radius grid
    g_dir = -(ex.gamma + ex.gamma.conjugate() / ex.t)
    ang = math.atan2(g_dir.imag, g_dir.real) + TWO_PI * ex.branch_offset
    c_dir = -math.cos(ex.b * ang) * abs(g_dir) ** ex.b
    decay: dict = {}
    checks["zero_jet_remainder"] = _zero_jet_check(
        ex, lambda v, n: -c_dir * v ** ex.b + n * v, decay)
    return SuiteReport("spiral", {"alpha": alpha, "t": t, "b": ex.b,
                                  "branch_offset": ex.branch_offset}, checks, decay)


def _remark_suite(rng: np.random.Generator) -> SuiteReport:
    jet = TaylorSeries.monomial(2, (0, 0), (1, 1))
    field = DiagonalField((Fraction(1), Fraction(-1)))
    checks = {"curve_holomorphy": _field_curve_check(phi_remark, field, rng, 0.6),
              "non_holomorphy_witness": _witness_check(phi_remark),
              "jet_antiholomorphic": {
                  "passed": bool(antiholomorphic_part(jet)),
                  "note": "the jet itself is anti-holomorphic; the ratio hypothesis is necessary",
              }}
    verdict = forelli_pipeline(JetOracle(phi_remark, jet, bound=1.0), field,
                               ForelliConfig(seed=int(rng.integers(2**31))))
    checks["pipeline_verdict"] = {"passed": verdict.tag == HYPOTHESIS_VIOLATED,
                                  "tag": verdict.tag}
    return SuiteReport("remark", {}, checks)
