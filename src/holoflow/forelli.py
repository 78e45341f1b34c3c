"""Reconstruction of holomorphic functions from curve-holomorphy plus a jet.

The pipeline takes a function on the polydisk together with its asserted
Taylor jet and a diagonal field, and decides whether the data force the
function to be holomorphic near the origin.  It folds five stages, in this
order, each named by its diagnostics key:

1. spectrum: the field must have positive eigenvalue ratios;
2. f_holomorphy: the circle-rule dbar of the restriction to sampled
   integral curves must vanish; the curve exponentials are computed once per
   zeta sample and broadcast over the curves, and the function is called
   once on the array of every circle point;
3. vanishing: every anti-holomorphic jet coefficient must vanish.
   The monomials c^k conj(c)^m are independent, so the restriction to every
   curve has no e^(-nu conj(zeta)) term with nu > 0 exactly when no
   coefficient with m != 0 is left; this is decided on the coefficient map;
4. reconstruction: the m = 0 part of the jet is the candidate, and its level
   polynomials and coefficients are audited against the sampled sup bound;
5. comparison: the candidate is compared with the function on a batch of
   interior points, and agreement is the holomorphic verdict.

The fold has one exit: the first stage that gives a verdict ends the run,
and the verdict carries the diagnostics of every stage run so far.  Every
failure maps to a tagged verdict carrying the witness; nothing is silent.
Verdicts are deterministic given the config seed.  ForelliConfig takes
n_curves >= 1 and n_zeta >= 1, so the curve check always has samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable, ClassVar, Sequence

import numpy as np

from .flow import (DiagonalField, SpectrumClass, _coords, classify_spectrum,
                   integral_curve, level_of, normalize_time)
from .reports import clamped_exp
from .sampling import evaluate_prefix, halfplane_points, polydisk_points
from .series import (TaylorSeries, antiholomorphic_part, eval_taylor,
                     holomorphic_part, level_sums, remainder_ladder)
from .wirtinger import CIRCLE, circles, dbar_circle

HOLOMORPHIC = "holomorphic"
HYPOTHESIS_VIOLATED = "hypothesis_violated"
NOT_F_HOLOMORPHIC = "not_f_holomorphic"
ANTIHOLOMORPHIC_OBSTRUCTION = "antiholomorphic_obstruction"
#: every verdict tag
TAGS = (HOLOMORPHIC, HYPOTHESIS_VIOLATED, NOT_F_HOLOMORPHIC, ANTIHOLOMORPHIC_OBSTRUCTION)

#: pass level of every curve check: Forelli stage 2 and the counterexample suites
FD_TOL = 1e-6
#: pass level of the remainder ladder that validate_jet reads
JET_TOL = 1e-6
#: polydisk radius of the final comparison
COMPARE_RADIUS = 0.5
#: slack, torus points and torus radius of the reconstruction bound audit
CERT_SLACK = 0.05
CERT_POINTS = 512
CERT_RADIUS = 0.999


@dataclass(frozen=True)
class JetOracle:
    """A function on the polydisk, its asserted jet, and a sampled sup bound.

    The oracle follows the batched convention of :func:`sampling.evaluate_prefix`.
    """

    oracle: Callable
    jet: TaylorSeries
    bound: float

    def __post_init__(self):
        if not 0 <= self.bound < math.inf:  # a NaN or infinite bound makes no threshold
            raise ValueError(f"bound must be finite and >= 0, got {self.bound}")

    def validate_jet(self, radii=(0.3, 0.2, 0.12, 0.08, 0.05)):
        """Remainder reports at JET_TOL for every order up to the jet degree, from one
        ladder read."""
        return remainder_ladder(self.oracle, self.jet,
                                [(n, radii) for n in range(self.jet.degree + 1)], tol=JET_TOL)


@dataclass(frozen=True)
class ForelliConfig:
    seed: int = 0
    n_curves: int = 12
    n_zeta: int = 24
    compare_tol: float = 1e-10
    compare_points: int = 200
    #: the curve-check threshold, readable as part of the run's settings
    fd_tol: ClassVar[float] = FD_TOL

    def __post_init__(self):
        for name, least in (("n_curves", 1), ("n_zeta", 1), ("compare_points", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0 < self.compare_tol < math.inf:  # a NaN threshold passes every comparison
            raise ValueError(f"compare_tol must be finite and > 0, got {self.compare_tol}")


@dataclass(frozen=True)
class ForelliVerdict:
    """Tagged outcome of the pipeline with per-stage diagnostics."""

    tag: str
    psi: TaylorSeries | None = None
    reason: str = ""
    witness: object = None
    level: object = None
    diagnostics: dict = dataclass_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"tag": self.tag, "reason": self.reason, "diagnostics": self.diagnostics}
        if self.level is not None:
            out["level"] = str(self.level)
        if self.witness is not None:
            out["witness"] = repr(self.witness)
        if self.psi is not None:
            out["psi_terms"] = [
                [list(k), list(m), a.real, a.imag] for (k, m), a in sorted(self.psi.terms().items())
            ]
        return out


@dataclass(frozen=True)
class CurveCheckReport:
    passed: bool
    max_residual: float
    witness: object = None
    inconclusive: bool = False
    note: str = ""


def curve_check(oracle: Callable, curve: Callable, curves: Sequence,
                zeta_samples) -> CurveCheckReport:
    """Sampled dbar residual of  zeta -> oracle(curve(c, zeta))  over the curves.

    Each sample zeta is replaced by its circle, :func:`wirtinger.circles`, and
    its residual is |dbar| / (1 + |circle mean|) by :func:`dbar_circle`; a
    non-finite residual or circle mean makes the check inconclusive there.
    curves is a (C, N) array or a sequence of base points, zeta_samples (Z,)
    (shared) or (C, Z).  curve broadcasts like :func:`flow.integral_curve` and
    is called once, on base points (C, 1, 1, N) and circles (Z, 4) or
    (C, Z, 4): shared samples' exponentials are computed once per zeta and
    broadcast over the curves.  Passes iff every residual is below FD_TOL; no
    curves pass with residual 0.  All circle points must stay inside the unit
    polydisk.  The oracle is called once on every circle point; its first
    failure or non-finite value (:func:`sampling.evaluate_prefix`) makes the
    check inconclusive at that sample, the first in curve-major order.
    """
    if not len(curves):
        return CurveCheckReport(True, 0.0)
    base = (np.asarray(curves, dtype=complex) if isinstance(curves, np.ndarray)
            else np.array([_coords(c) for c in curves]))
    zetas = np.asarray(zeta_samples, dtype=complex)
    ring = circles(zetas)
    points = curve(base[:, None, None, :], ring)
    zetas = np.broadcast_to(zetas, (len(base), zetas.shape[-1]))
    width = len(CIRCLE)
    flat = points.reshape(-1, points.shape[-1])
    w = flat.ravel()  # |w|^2 near 1 picks the coordinates that the exact |w| >= 1 reads
    near = np.flatnonzero(w.real ** 2 + w.imag ** 2 >= 1 - 1e-12)
    outside = near[np.abs(w[near]) >= 1.0] // flat.shape[1]
    reach = outside[0] if len(outside) else len(flat)

    def sample(i):
        c, j = divmod(int(i), zetas.shape[1])
        return tuple(base[c].tolist()), complex(zetas[c, j])

    values, note = evaluate_prefix(oracle, flat[:reach])
    done = len(values) // width
    with np.errstate(all="ignore"):  # as in the read: an overflowing circle scores non-finite
        mean, dbar = dbar_circle(values[: done * width].reshape(done, width))
        scaled = np.abs(dbar) / (1.0 + np.abs(mean))
    bad = np.flatnonzero(~(np.isfinite(scaled) & np.isfinite(mean)))  # an inf mean scores 0
    scored = scaled[: bad[0] if len(bad) else done]
    worst, witness = 0.0, None
    if len(scored) and scored.max() > 0.0:
        i = int(np.argmax(scored))
        worst, witness = float(scored[i]), sample(i)
    if len(bad) or note:  # a non-finite residual comes before the read's stop
        stop, note = (bad[0], "non-finite residual") if len(bad) else (done, note)
        return CurveCheckReport(False, worst, sample(stop), inconclusive=True, note=note)
    if reach < len(flat):
        c = sample(reach // width)[0]
        at = np.broadcast_to(ring, points.shape[:-1]).flat[reach]
        raise ValueError(f"curve through {c} leaves the polydisk at zeta = {complex(at)}")
    passed = worst < FD_TOL
    return CurveCheckReport(passed, worst, witness=None if passed else witness)


def f_holomorphy_check(jo: JetOracle, field: DiagonalField, curves: Sequence,
                       zeta_samples: Sequence[complex]) -> CurveCheckReport:
    """:func:`curve_check` of the function along the integral curves of the field."""
    return curve_check(jo.oracle, lambda c, w: integral_curve(field, c, w), curves, zeta_samples)


def antiholomorphic_vanishing(series: TaylorSeries, field: DiagonalField) -> list:
    """The jet's terms with m != 0 as (level, (k, m), a), lowest level first.

    level is (alpha,k) + (alpha,m) on the normalized rates.  Along a curve of
    the field such a term contributes to e^(-mu zeta - nu conj(zeta)) with
    nu = (alpha,m) > 0, and the monomials c^k conj(c)^m are independent, so
    the anti-holomorphic data vanish exactly when the list is empty.
    """
    nfield, _ = normalize_time(field)  # raises SpectrumError without positive ratios
    return sorted((level_of(k, nfield.rates) + level_of(m, nfield.rates), (k, m), a)
                  for (k, m), a in antiholomorphic_part(series).terms().items())


@dataclass(frozen=True)
class ReconstructionReport:
    passed: bool
    worst_level_ratio: float
    worst_coeff_ratio: float
    note: str = ""


def reconstruct(
    jo: JetOracle,
    field: DiagonalField,
    *,
    seed: int = 0,
) -> tuple[TaylorSeries, ReconstructionReport]:
    """Candidate  psi = sum a_{k0} z^k  plus a bound audit.

    The audit checks, for each decay level, the sampled sup of the level
    polynomial  sum_{(alpha,k)=lambda} a_{k0} c^k  on the torus of radius
    CERT_RADIUS against the bound, and each coefficient against the
    sampled-radius Cauchy estimate |a_k| <= M / CERT_RADIUS^|k|.  Sampled
    sups undershoot true sups, so the comparison carries the slack
    CERT_SLACK; only violations beyond it are reported as an inconsistency
    of jet and bound.
    """
    psi = holomorphic_part(jo.jet)
    if jo.bound == 0:
        passed = not psi
        return psi, ReconstructionReport(passed, math.inf if psi else 0.0,
                                         math.inf if psi else 0.0,
                                         note="zero bound admits only the zero jet")
    nfield, _ = normalize_time(field)

    rng = np.random.default_rng(seed)
    points = polydisk_points(rng, psi.dim, CERT_POINTS, r_min=CERT_RADIUS, r_max=CERT_RADIUS)
    worst_level = 0.0
    for values in level_sums(psi, nfield.rates, points).values():
        sup = float(np.max(np.abs(values)))
        worst_level = max(worst_level, sup / jo.bound)

    worst_coeff = 0.0
    for (k, _m), a in psi.terms().items():
        power = CERT_RADIUS ** k.order  # 0.0 from |k| near 744 700 on, scored in logs
        ratio = abs(a) / (jo.bound / power) if power else clamped_exp(
            math.log(abs(a)) + k.order * math.log(CERT_RADIUS) - math.log(jo.bound))
        worst_coeff = max(worst_coeff, ratio)

    passed = worst_level <= 1.0 + CERT_SLACK and worst_coeff <= 1.0 + CERT_SLACK
    return psi, ReconstructionReport(passed, worst_level, worst_coeff)


def _stages(jo: JetOracle, field: DiagonalField, config: ForelliConfig):
    """Each stage in turn as (diagnostics key, entry, verdict or None); the last
    always gives a verdict.  The curves, the zetas and the comparison points
    are drawn in that order from one generator seeded with config.seed.
    """
    spectrum = classify_spectrum(field)
    verdict = None
    if spectrum is not SpectrumClass.POSITIVE_RATIOS:
        verdict = ForelliVerdict(HYPOTHESIS_VIOLATED, reason=f"spectrum class is {spectrum.value}; "
                                                            "positive eigenvalue ratios required")
    yield "spectrum", spectrum.value, verdict

    nfield, _ = normalize_time(field)
    rng = np.random.default_rng(config.seed)
    curves = polydisk_points(rng, nfield.dim, config.n_curves, r_min=0.15, r_max=0.7)
    # no circle point leaves the polydisk: every rate r_j is positive, |c_j| <= 0.7
    # and Re zeta >= 0.1 - FD_STEP > 0 on every circle, so |c_j| e^(-r_j Re zeta) < 0.7
    zetas = halfplane_points(rng, config.n_zeta, x_range=(0.1, 2.0), y_range=(-2.0, 2.0))
    report = f_holomorphy_check(jo, nfield, curves, zetas)
    verdict = None
    if report.inconclusive:  # an inconclusive report also has passed False
        verdict = ForelliVerdict(HYPOTHESIS_VIOLATED, witness=report.witness,
                                 reason=f"curve check inconclusive: {report.note}")
    elif not report.passed:
        verdict = ForelliVerdict(NOT_F_HOLOMORPHIC, witness=report.witness,
                                 reason="restriction to a sampled curve is not holomorphic")
    yield "f_holomorphy", {"passed": report.passed, "max_residual": report.max_residual,
                           "curves": len(curves)}, verdict

    terms = antiholomorphic_vanishing(jo.jet, nfield)  # (level, (k, m), a), lowest level first
    verdict = None
    if terms:
        level, key, a = terms[0]
        verdict = ForelliVerdict(ANTIHOLOMORPHIC_OBSTRUCTION, level=level, witness=(key, a),
                                 reason="anti-holomorphic jet data does not vanish")
    yield "vanishing", {"passed": not terms, "terms": len(terms)}, verdict

    psi, recon = reconstruct(jo, nfield, seed=config.seed)
    verdict = None
    if not recon.passed:
        verdict = ForelliVerdict(HYPOTHESIS_VIOLATED,
                                 reason="jet is inconsistent with the claimed sup bound")
    yield "reconstruction", {"passed": recon.passed, "worst_level_ratio": recon.worst_level_ratio,
                             "worst_coeff_ratio": recon.worst_coeff_ratio}, verdict

    points = polydisk_points(rng, psi.dim, config.compare_points,
                             r_min=0.0, r_max=COMPARE_RADIUS)
    values, note = evaluate_prefix(jo.oracle, points)
    with np.errstate(all="ignore"):
        diffs = np.abs(values - eval_taylor(psi, points[: len(values)]))
    diffs[~np.isfinite(diffs)] = math.inf  # a NaN difference is no agreement
    max_diff = float(diffs.max(initial=0.0))
    worst_point = tuple(points[int(np.argmax(diffs))].tolist()) if max_diff > 0.0 else None
    threshold = config.compare_tol * jo.bound
    verdict = ForelliVerdict(HOLOMORPHIC, psi=psi)
    if note:  # as in stage 2, a short read is no agreement, and its stop is the witness
        verdict = ForelliVerdict(HYPOTHESIS_VIOLATED, witness=tuple(points[len(values)].tolist()),
                                 reason=f"comparison inconclusive: {note}")
    elif max_diff > threshold:
        verdict = ForelliVerdict(HYPOTHESIS_VIOLATED, witness=worst_point,
                                 reason=f"reconstructed sum differs from the function "
                                        f"by {max_diff:.3e} (allowed {threshold:.3e})")
    yield "comparison", {"max_diff": max_diff, "points": len(points),
                         "radius": COMPARE_RADIUS}, verdict


def forelli_pipeline(jo: JetOracle, field: DiagonalField,
                     config: ForelliConfig = ForelliConfig()) -> ForelliVerdict:
    """Fold :func:`_stages` into a verdict: each stage's entry goes into the
    diagnostics under its key, and the first verdict ends the run, carrying
    the diagnostics of every stage run so far.
    """
    diag: dict = {}
    for key, entry, verdict in _stages(jo, field, config):
        diag[key] = entry
        if verdict is not None:
            return replace(verdict, diagnostics=diag)
