"""Correctness checks against the benchmark's own references.

No check trusts a report's ``passed`` field.  Recovered coefficients are
compared with the generated source, verdict tags with the tag fixed when the
input was built, pushforward expansions are re-evaluated with numpy against
the jet along the curve, and counterexample and bounds runs are checked on
their exit code and on named numeric report fields.

A check returns an :class:`Outcome`.  Jobs with a numeric reference also
carry ``error`` and ``tol``; the accuracy margin is ``log10(tol / error)``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

import gen

#: coefficient recovery tolerance (the CLI's extraction default)
EXTRACT_TOL = 1e-8
#: pushforward re-evaluation tolerance (the CLI's pushforward default)
PUSHFORWARD_TOL = 1e-10
#: zeta samples per pushforward re-evaluation
PUSHFORWARD_ZETAS = 64
#: an exact zero error is counted as this, so margins stay finite
ERROR_FLOOR = 1e-300


class Outcome(NamedTuple):
    ok: bool
    note: str = ""
    error: float | None = None
    tol: float | None = None

    @property
    def margin(self) -> float | None:
        if self.error is None:
            return None
        return math.log10(self.tol / max(self.error, ERROR_FLOOR))


def _fail(note: str) -> Outcome:
    return Outcome(False, note)


def _coefficient_error(source_terms, recovered) -> float:
    """Max |recovered - source| over the recovered levels (source 0 off-support)."""
    source = {Fraction(lam): complex(re, im) for lam, re, im in source_terms}
    return max((abs(complex(c) - source.get(Fraction(lam), 0j)) for lam, c in recovered),
               default=math.inf)


def check_extract(spec: dict, result: dict) -> Outcome:
    levels = gen.grid_levels(spec["rates"], spec["lambda_max"])
    if [Fraction(v) for v in result["levels"]] != levels:
        return _fail(f"level grid has {len(result['levels'])} levels, expected {len(levels)}")
    recovered = result["recovered"]
    if [Fraction(lam) for lam, _c in recovered] != levels:
        return _fail("recovered levels differ from the grid")
    error = _coefficient_error(spec["terms"], recovered)
    if not error <= EXTRACT_TOL:
        return Outcome(False, f"coefficient error {error:.3e}", error, EXTRACT_TOL)
    # a window mean of f e^(lambda z) at x = 1e-9 is bounded by the sup there,
    # and the sup is bounded by the sum of the moduli
    mods = [(float(Fraction(lam)), math.hypot(re, im)) for lam, re, im in spec["terms"]]
    lower = max(m * math.exp(-lam * 1e-9) for lam, m in mods) * (1 - 1e-9)
    upper = sum(m for _lam, m in mods) * (1 + 1e-12)
    sup = result["sup"]
    if not lower <= sup <= upper:
        return _fail(f"sampled sup {sup!r} outside [{lower!r}, {upper!r}]")
    ratio = max(abs(complex(c)) for _lam, c in recovered) / sup
    if not (abs(result["max_ratio"] - ratio) <= 1e-12 * ratio and ratio <= 1 + 1e-6):
        return _fail(f"Cauchy ratio {result['max_ratio']!r}, expected {ratio!r} <= 1")
    return Outcome(True, error=error, tol=EXTRACT_TOL)


def _dbar_outcome(diagnostics: dict, fd_tol: float) -> Outcome:
    """The curve-check residual of a holomorphic input, whose exact value is 0."""
    residual = diagnostics.get("f_holomorphy", {}).get("max_residual")
    if residual is None:
        return Outcome(True)
    return Outcome(True, error=float(residual), tol=fd_tol)


def check_forelli(spec: dict, result: dict) -> Outcome:
    if result["tag"] != spec["expect"]:
        return _fail(f"verdict {result['tag']!r}, expected {spec['expect']!r}")
    if spec["expect"] != gen.HOLOMORPHIC:
        return Outcome(True)
    expected: dict = {}
    for k, m, re, im in spec["terms"]:
        if not any(m):  # repeated multi-indices add up, as in the jet
            key = (tuple(k), tuple(m))
            expected[key] = expected.get(key, 0j) + complex(re, im)
    psi = {(tuple(k), tuple(m)): a for (k, m), a in result["psi"].items()}
    if psi.keys() != expected.keys() or any(
            abs(psi[key] - a) > 1e-12 * abs(a) for key, a in expected.items()):
        return _fail("reconstructed jet differs from the holomorphic part of the input")
    return _dbar_outcome(result["diagnostics"], result["fd_tol"])


def _jet_along_curve(spec: dict, zetas: np.ndarray) -> np.ndarray:
    rates = np.array([float(Fraction(r)) for r in spec["rates"]])
    base = np.array([complex(re, im) for re, im in spec["base_point"]])
    z = base[None, :] * np.exp(-rates[None, :] * zetas[:, None])
    total = np.zeros(len(zetas), dtype=complex)
    for k, m, re, im in spec["jet"]:
        total += complex(re, im) * np.prod(z ** np.array(k) * np.conj(z) ** np.array(m), axis=1)
    return total


def _check_pushforward(spec: dict, report: dict) -> Outcome:
    rng = np.random.default_rng(spec["seed"])
    zetas = rng.uniform(0.0, 5.0, PUSHFORWARD_ZETAS) + 1j * rng.uniform(-4.0, 4.0, PUSHFORWARD_ZETAS)
    expansion = np.zeros(len(zetas), dtype=complex)
    for mu, nu, (re, im) in report["expansion"]:
        expansion += complex(re, im) * np.exp(-float(Fraction(mu)) * zetas
                                              - float(Fraction(nu)) * np.conj(zetas))
    error = float(np.max(np.abs(expansion - _jet_along_curve(spec, zetas))))
    return Outcome(error <= PUSHFORWARD_TOL, f"re-evaluation error {error:.3e}",
                   error, PUSHFORWARD_TOL)


def _check_extraction(spec: dict, report: dict) -> Outcome:
    recovered = [(lam, complex(*c)) for lam, c in report["recovered"]]
    levels = gen.grid_levels(spec["rates"], spec["lambda_max"])
    if [Fraction(lam) for lam, _c in recovered] != levels:
        return _fail("recovered levels differ from the grid")
    error = _coefficient_error(spec["terms"], recovered)
    tol = spec["expect"]["tolerance"]
    return Outcome(error <= tol, f"coefficient error {error:.3e}", error, tol)


def _check_forelli_report(spec: dict, report: dict) -> Outcome:
    verdict = report["verdict"]
    if verdict["tag"] != spec["expect"]["tag"]:
        return _fail(f"verdict {verdict['tag']!r}, expected {spec['expect']['tag']!r}")
    if verdict["tag"] != gen.HOLOMORPHIC:
        return Outcome(True)
    # holoflow run uses the default ForelliConfig, whose fd_tol is 1e-6
    return _dbar_outcome(verdict["diagnostics"], 1e-6)


def _check_bounds(spec: dict, report: dict) -> Outcome:
    mp, tail = report["max_principle"], report["tail"]
    worst = max(mp["values"])
    if not worst <= 1.0 + mp["tolerance"]:
        return _fail(f"max-principle ratio {worst!r} above 1 + tol")
    if not tail["values"][-1] <= tail["tolerance"]:
        return _fail(f"weighted tail {tail['values'][-1]!r} above tolerance")
    return Outcome(True)


#: named numeric fields of each counterexample suite and the limit each must meet
_COUNTEREXAMPLE_FIELDS = {
    "resonant": {("curve_holomorphy", "max_residual"): ("<", 1e-8),
                 ("non_holomorphy_witness", "residual"): (">", 1e-3),
                 ("first_integral_constancy", "max_drift"): ("<", 1e-12)},
    "spiral": {("curve_holomorphy", "max_residual"): ("<", 1e-6),
               ("non_holomorphy_witness", "residual"): (">", 1e-3),
               ("time_identity", "max_error"): ("<", 1e-12)},
    "remark": {("curve_holomorphy", "max_residual"): ("<", 1e-8),
               ("non_holomorphy_witness", "residual"): (">", 1e-3)},
}
_COUNTEREXAMPLE_FLAGS = {
    "resonant": ("zero_jet_remainder",),
    "spiral": ("zero_jet_remainder", "sector_negativity"),
    "remark": ("jet_antiholomorphic",),
}


def _check_counterexample(spec: dict, report: dict) -> Outcome:
    which = spec["expect"]["which"]
    checks = report["checks"]
    for (name, field), (op, limit) in _COUNTEREXAMPLE_FIELDS[which].items():
        value = checks[name][field]
        if not (value < limit if op == "<" else value > limit):
            return _fail(f"{name}.{field} = {value!r}, expected {op} {limit}")
    for name in _COUNTEREXAMPLE_FLAGS[which]:
        if checks[name]["passed"] is not True:
            return _fail(f"{name} did not pass")
    if which == "remark" and checks["pipeline_verdict"]["tag"] != gen.HYPOTHESIS_VIOLATED:
        return _fail(f"remark pipeline verdict {checks['pipeline_verdict']['tag']!r}")
    return Outcome(True)


_SCENARIO_CHECKS = {
    "pushforward": _check_pushforward,
    "extraction": _check_extraction,
    "forelli": _check_forelli_report,
    "bounds": _check_bounds,
    "counterexample": _check_counterexample,
}


def check_scenario(spec: dict, result: dict) -> Outcome:
    if result["exit"] != spec["expect"]["exit"]:
        return _fail(f"exit code {result['exit']}, expected {spec['expect']['exit']}")
    payload = json.loads((result["out"] / "report.json").read_text())
    if payload["kind"] != spec["kind"]:
        return _fail(f"report kind {payload['kind']!r}, expected {spec['kind']!r}")
    return _SCENARIO_CHECKS[spec["kind"]](spec, payload["report"])


def check_job(kind: str, spec: dict, result: dict) -> Outcome:
    if kind == "extract":
        return check_extract(spec, result)
    if kind == "forelli":
        return check_forelli(spec, result)
    return check_scenario(spec, result)
