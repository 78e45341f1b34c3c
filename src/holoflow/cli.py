"""Scenario runner: every verification pipeline as a command.

Usage::

    holoflow run scenario.txt [--out DIR] [--seed N]

Scenario files are UTF-8 ``key = value`` text; ``#`` starts a comment.
``KEYS`` lists the keys each kind reads; any other key, or a key given
twice other than the accumulating ``term`` and ``exp_term`` lines, is a
configuration error.  ``--seed`` overrides the ``seed`` key; the file sets
every other value.  Rates and levels are exact fractions ``p/q``; complex
values use ``a+bi``.  The oracle catalog is closed: polynomial jets
(``term`` lines), finite holomorphic expansions (``exp_term`` lines), and
the named counterexamples.

Output: ``report.json`` in the output directory, the one file a run
writes; a run that writes no report makes no directory.  Exit status 0 iff
every required check passed; 2 on configuration errors; 1 otherwise, which
includes a job that cannot finish and an output directory that cannot be
written.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _STR
from pathlib import Path

import numpy as np

from . import counterex as cx
from .asympt import MAX_PRINCIPLE_TOL, HolomorphicExpansion, eval_expansion, \
    max_principle_bound, pushforward, tail_bound_check
from .extract import ExtractionParams, extract_coefficients, sampled_sup, \
    verify_cauchy_bound
from .flow import (BasePoint, DiagonalField, SpectrumError, integral_curve, level_grid,
                   level_of, normalize_time)
from .forelli import CERT_POINTS, CERT_RADIUS, TAGS, ForelliConfig, JetOracle, forelli_pipeline
from .sampling import evaluate_prefix, halfplane_points, polydisk_points
from .series import MultiIndex, TaylorSeries, eval_taylor, parse_term_line


#: the keys each kind reads besides ``kind`` and ``seed``
KEYS = {
    "pushforward": ("rates", "term", "base_point", "lambda_max", "tolerance"),
    "extraction": ("grid_rates", "lambda_max", "exp_term", "tolerance"),
    "forelli": ("rates", "term", "oracle", "t", "alpha", "bound", "expect", "tolerance"),
    "counterexample": ("which", "t", "alpha"),
    "bounds": ("exp_term", "claimed_rate", "x_lo", "bound", "tolerance"),
}
#: which of ``t`` and ``alpha`` each oracle and counterexample reads; the oracle catalog
READS = {"jet": (), "resonant": ("t",), "spiral": ("t", "alpha"), "remark": ()}
#: the keys whose lines accumulate
REPEATABLE = ("term", "exp_term")


class ScenarioError(Exception):
    def __init__(self, path, line: int | None, message: str):
        self.path, self.line, self.message = path, line, message
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


def parse_complex(token: str) -> complex:
    token = token.strip()  # only a trailing i is the unit: "inf" stays infinity
    return complex(token[:-1] + "j" if token.endswith("i") else token)


def _fraction(token: str) -> Fraction:
    value = Fraction(token)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"{token!r} is beyond double range")
    return value


#: default of Scenario.value for a required key
REQUIRED = object()
#: what a value read by each parser must be, for error messages
_WHAT = {int: "an integer", float: "a number",
         _fraction: "an exact fraction p/q within double range",
         parse_complex: "a complex number like 1+2i"}


class Scenario:
    """Parsed key/value file; values keep their line numbers for diagnostics."""

    def __init__(self, path):
        self.path = Path(path)
        self.entries: dict[str, list[tuple[int, str]]] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(path, None, f"cannot read scenario: {exc}")
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(self.path, lineno, "expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in self.entries and key not in REPEATABLE:
                raise ScenarioError(self.path, lineno, f"{key} given twice (first at "
                                                       f"line {self.entries[key][0][0]})")
            self.entries.setdefault(key, []).append((lineno, value))

    def error(self, key: str, message: str):
        """Reject key at its line; a key the file lacks has none."""
        line = self.entries[key][0][0] if key in self.entries else None
        raise ScenarioError(self.path, line, message)

    def value(self, key: str, parse=str, default=REQUIRED, many: bool = False):
        """The file value of key parsed by parse (a list of every whitespace
        token parsed, if many), else default."""
        if key not in self.entries:
            if default is REQUIRED:
                raise ScenarioError(self.path, None, f"missing required key {key!r}")
            return default
        text = self.entries[key][0][1]
        values = []
        for token in text.split() if many else [text]:
            try:
                values.append(parse(token))
            except (ValueError, ZeroDivisionError):
                self.error(key, f"{key} must be {_WHAT[parse]}, got {token!r}")
        return values if many else values[0]

    def check(self, key: str, ok: bool, rule: str) -> None:
        """Reject the value of key, at its line, unless ok; rule is what it must be."""
        if not ok:
            self.error(key, f"{key} must be {rule}, got {self.value(key, default=None)!r}")

    def get_all(self, key: str) -> list[tuple[int, str]]:
        return self.entries.get(key, [])


def _parse_jet(sc: Scenario) -> TaylorSeries:
    term_lines = sc.get_all("term")
    if not term_lines:
        raise ScenarioError(sc.path, None, "at least one 'term' line is required")
    terms = []
    dim = None
    for lineno, text in term_lines:
        try:
            k, m, a = parse_term_line(text)
            k, m = MultiIndex(k), MultiIndex(m)
        except ValueError as exc:
            raise ScenarioError(sc.path, lineno, str(exc))
        if not np.isfinite(a):
            raise ScenarioError(sc.path, lineno, f"the coefficient must be finite, "
                                                 f"got {text.split('|', 2)[2].strip()}")
        if dim is None:
            dim = len(k)
        if len(k) != dim or len(m) != dim:
            raise ScenarioError(sc.path, lineno, f"exponent length mismatch: dim={dim} "
                                                 f"(from the first term), k={k}, m={m}")
        terms.append(((k, m), a))
    return TaylorSeries(dim, terms)


def _parse_expansion(sc: Scenario) -> HolomorphicExpansion:
    lines = sc.get_all("exp_term")
    if not lines:
        raise ScenarioError(sc.path, None, "at least one 'exp_term' line is required")
    pairs, first = [], {}  # first: the line of each level
    for lineno, text in lines:
        parts = [p.strip() for p in text.split("|")]
        if len(parts) != 3:
            raise ScenarioError(sc.path, lineno, "expected 'lambda | re | im'")
        try:
            lam, c = _fraction(parts[0]), complex(float(parts[1]), float(parts[2]))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(sc.path, lineno, str(exc))
        if not np.isfinite(c):
            raise ScenarioError(sc.path, lineno, f"the coefficient must be finite, "
                                                 f"got {parts[1]} | {parts[2]}")
        if lam < 0:
            raise ScenarioError(sc.path, lineno, "levels must be >= 0")
        if lam in first:
            raise ScenarioError(sc.path, lineno,
                                f"level {lam} given twice (first at line {first[lam]})")
        first[lam] = lineno
        pairs.append((lam, c))
    return HolomorphicExpansion(sorted(pairs, key=lambda p: p[0]))


def _field(sc: Scenario) -> DiagonalField:
    rates = sc.value("rates", _fraction, many=True)
    try:
        return DiagonalField(tuple(rates))
    except ValueError as exc:
        sc.error("rates", str(exc))


def _json_complex(c: complex) -> list[float]:
    return [c.real, c.imag]


def _run_pushforward(sc: Scenario, seed: int) -> tuple[dict, bool]:
    field = _field(sc)
    jet = _parse_jet(sc)
    c = sc.value("base_point", parse_complex, many=True)
    if not (len(c) == jet.dim == field.dim):
        sc.error("base_point", f"dimension mismatch: {len(c)} base coordinates, "
                               f"jet dim {jet.dim}, field dim {field.dim}")
    try:
        c = BasePoint(c)
    except ValueError as exc:
        sc.error("base_point", str(exc))
    tol = sc.value("tolerance", float, 1e-10)
    try:
        nfield, _ = normalize_time(field)
    except SpectrumError as exc:
        sc.error("rates", str(exc))
    lam_max = sc.value("lambda_max", _fraction, None)
    if lam_max is None:
        lam_max = max((level_of(k, nfield.rates) + level_of(m, nfield.rates)
                       for (k, m) in jet.terms()), default=Fraction(0))
        lam_max = max(lam_max, Fraction(1))
    expansion = pushforward(jet, nfield, c, lam_max)

    rng = np.random.default_rng(seed)
    zetas = halfplane_points(rng, 100, x_range=(0.0, 5.0), y_range=(-4.0, 4.0))
    with np.errstate(all="ignore"):  # a sum beyond double range is a non-finite error
        errors = np.abs(eval_taylor(jet, integral_curve(nfield, c, zetas))
                        - eval_expansion(expansion, zetas))
    max_err = float(np.max(errors))
    passed = max_err <= tol

    report = {
        "expansion": [[str(mu), str(nu), _json_complex(p)]
                      for mu, nu, p in expansion.all_terms()],
        "lambda_max": str(lam_max),
        "exactness": {"max_error": max_err, "tolerance": tol, "passed": passed,
                      "zeta_samples": len(zetas)},
    }
    return report, passed


def _run_extraction(sc: Scenario, seed: int) -> tuple[dict, bool]:
    source = _parse_expansion(sc)
    grid_rates = sc.value("grid_rates", _fraction, many=True)
    lam_max = sc.value("lambda_max", _fraction)
    try:
        field = DiagonalField(tuple(grid_rates))
    except ValueError as exc:
        sc.error("grid_rates", str(exc))
    try:  # MAX_LATTICE stays a plain ValueError: a job too large, exit 1
        grid = level_grid(field, lam_max)
    except SpectrumError as exc:
        sc.error("grid_rates", str(exc))
    missing = [str(lam) for lam in source.levels if lam not in grid]
    if missing:
        sc.error("exp_term", f"oracle levels {missing} are off the grid")
    try:  # the one rule a grid can fail: a finite weight e^(lambda_max X0), past 709.78
        params = ExtractionParams(grid)
    except ValueError:
        sc.check("lambda_max", False, "small enough that the weight e^(lambda_max x0) is finite")
    compare_tol = sc.value("tolerance", float, 1e-8)

    trace: list = []
    recovered = extract_coefficients(source, params, trace=trace)
    expected = dict(source.pairs())
    max_err = max(abs(c - expected.get(lam, 0)) for lam, c in recovered.pairs())
    bound = sampled_sup(source, params)
    cauchy = verify_cauchy_bound(recovered, source, bound)
    passed = max_err <= compare_tol and cauchy.passed

    report = {
        "recovered": [[str(lam), _json_complex(c)] for lam, c in recovered.pairs()],
        "residual_norms": [norm for _lam, _c, norm in trace],
        "max_error": max_err,
        "tolerance": compare_tol,
        "sampled_sup": bound,
        "cauchy_bound": cauchy.to_json_dict(),
        "grid_levels": [str(lam) for lam in grid.levels],
    }
    return report, passed


def _exponent_t(sc: Scenario) -> Fraction:
    t = sc.value("t", _fraction, Fraction(1))
    sc.check("t", float(t) > 0, "> 0")  # a t that rounds to 0.0 is no exponent either
    return t


def _spiral_alpha(sc: Scenario) -> complex:
    alpha = sc.value("alpha", parse_complex, -1 + 1j)
    sc.check("alpha", np.isfinite(alpha) and alpha.real < 0 and alpha.imag > 0,
             "a finite complex with Re < 0 and Im > 0")
    return alpha


def _check_reads(sc: Scenario, what: str, name: str) -> None:
    """Reject, at its line, a t or alpha that the oracle or counterexample name does not read."""
    for key in sc.entries:
        if key in ("t", "alpha") and key not in READS[name]:
            sc.error(key, f"{what} {name} does not read {key!r}")


def _named_oracle(sc: Scenario, name: str, jet: TaylorSeries, dim: int):
    if name not in READS:
        sc.error("oracle", f"unknown oracle {name!r} (catalog: {', '.join(READS)})")
    if name != "jet" and dim != 2:
        sc.error("oracle", f"oracle {name} is a function on C^2, the field has dimension {dim}")
    _check_reads(sc, "oracle", name)
    if name == "jet":
        return lambda z: eval_taylor(jet, z)
    if name == "resonant":
        return cx.ResonantExample(float(_exponent_t(sc)))
    if name == "spiral":
        return cx.SpiralExample.create(_spiral_alpha(sc), float(_exponent_t(sc)))
    return cx.phi_remark


def _sampled_bound(oracle, points, where: str) -> float:
    """max |oracle| on the points; a short read is a job error naming the sample set."""
    values, note = evaluate_prefix(oracle, points)
    if note:
        raise ValueError(f"the sampled bound on {where}: {note}")
    with np.errstate(all="ignore"):  # a modulus beyond double range is an infinite bound
        return float(np.max(np.abs(values)))


def _run_forelli(sc: Scenario, seed: int) -> tuple[dict, bool]:
    field = _field(sc)
    jet = _parse_jet(sc)
    if jet.dim != field.dim:
        sc.error("rates", f"dimension mismatch: {field.dim} rates, jet dim {jet.dim}")
    oracle_name = sc.value("oracle", default="jet")
    oracle = _named_oracle(sc, oracle_name, jet, field.dim)
    bound = sc.value("bound", float, None)
    sc.check("bound", bound is None or 0 <= bound < np.inf, "finite and >= 0")
    expect = sc.value("expect", default="holomorphic")
    sc.check("expect", expect in TAGS, "one of " + ", ".join(TAGS))
    if bound is None:  # sampled on the torus where reconstruct audits the level sups
        rng = np.random.default_rng(seed + 1)
        pts = polydisk_points(rng, jet.dim, CERT_POINTS, r_min=CERT_RADIUS, r_max=CERT_RADIUS)
        bound = max(_sampled_bound(oracle, pts, f"the torus |z_j| = {CERT_RADIUS}"), 1e-12)
    config = ForelliConfig(seed=seed,
                           compare_tol=sc.value("tolerance", float, ForelliConfig.compare_tol))
    verdict = forelli_pipeline(JetOracle(oracle, jet, bound), field, config)
    passed = verdict.tag == expect
    report = {
        "verdict": verdict.to_json_dict(),
        "expected": expect,
        "bound": bound,
        "oracle": oracle_name,
        "tolerance": config.compare_tol,
    }
    return report, passed


def _run_counterexample(sc: Scenario, seed: int) -> tuple[dict, bool]:
    which = sc.value("which")
    kwargs: dict = {"seed": seed}
    if which == "resonant":
        kwargs["t"] = _exponent_t(sc)
        sc.check("t", kwargs["t"] <= cx.RESONANT_T_MAX, f"in (0, {cx.RESONANT_T_MAX}]")
    elif which == "spiral":
        kwargs["alpha"] = _spiral_alpha(sc)
        kwargs["t"] = float(_exponent_t(sc))
    elif which != "remark":
        sc.error("which", f"unknown counterexample {which!r}")
    _check_reads(sc, "counterexample", which)
    suite = cx.counterexample_suite(which, **kwargs)
    return suite.to_json_dict(), suite.passed


def _run_bounds(sc: Scenario, seed: int) -> tuple[dict, bool]:
    source = _parse_expansion(sc)
    lam = sc.value("claimed_rate", _fraction)
    sc.check("claimed_rate", lam >= 0, ">= 0")
    x_lo, x_hi = sc.value("x_lo", float, 0.01), 10.0  # x_hi: right edge of the samples
    sc.check("x_lo", 0 < x_lo < x_hi, f"> 0 and < {x_hi}")
    tol = sc.value("tolerance", float, MAX_PRINCIPLE_TOL)
    bound = sc.value("bound", float, None)
    sc.check("bound", bound is None or 0 < bound < np.inf, "finite and > 0")
    if bound is None:
        ys = np.linspace(-40.0, 40.0, 4001)
        bound = _sampled_bound(source, x_lo + 1j * ys, f"Re z = {x_lo}")
        if bound == 0:
            sc.error("exp_term", f"the sampled bound on Re z = {x_lo} is 0; give 'bound'")
    rng = np.random.default_rng(seed)
    samples = halfplane_points(rng, 400, x_range=(x_lo, x_hi), y_range=(-20.0, 20.0))
    mp_report = max_principle_bound(source, bound, lam, samples, x_lo=x_lo, tol=tol)
    tail_report = tail_bound_check(source, source.to_expansion(),
                                   n=len(source.to_expansion().levels) - 1)
    report = {"bound": bound, "max_principle": mp_report.to_json_dict(),
              "tail": tail_report.to_json_dict()}
    return report, mp_report.passed and tail_report.passed


_RUNNERS = {
    "pushforward": _run_pushforward,
    "extraction": _run_extraction,
    "forelli": _run_forelli,
    "counterexample": _run_counterexample,
    "bounds": _run_bounds,
}


def _report_text(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True, allow_nan=False) in one pass,
    with each non-finite float as the string "inf", "-inf" or "nan", which float()
    reads back, so report.json stays strict JSON.  Dict keys must be strings;
    what json cannot encode raises TypeError."""
    if isinstance(value, str):
        return _STR(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else _STR(str(float(value)))
    if not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, dict):
        return "{" + inner + sep.join(f"{_STR(key)}: {_report_text(item, inner)}"
                                      for key, item in sorted(value.items())) + newline + "}"
    encode = _STR if isinstance(value[0], str) else float.__repr__
    try:  # a flat list of strings or of floats is one join
        body = sep.join(map(encode, value))
    except TypeError:  # a mixed list, or a list of containers
        body = None
    if body is None or encode is float.__repr__ and "n" in body:  # a finite repr has no "n"
        body = sep.join(_report_text(item, inner) for item in value)
    return "[" + inner + body + newline + "]"


def run_scenario(path, out_dir, seed=None) -> int:
    sc = Scenario(path)
    kind = sc.value("kind")
    if kind not in _RUNNERS:
        sc.error("kind", f"unknown kind {kind!r} (one of {sorted(_RUNNERS)})")
    unread = [key for key in sc.entries if key not in ("kind", "seed", *KEYS[kind])]
    if unread:
        sc.error(unread[0], f"{kind} scenarios do not read {unread[0]!r} "
                            f"(keys: kind, seed, {', '.join(KEYS[kind])})")
    if seed is None:
        seed = sc.value("seed", int, 0)
        sc.check("seed", seed >= 0, ">= 0")
    elif seed < 0:  # the flag's fault: no line of the file is to blame
        raise ScenarioError(sc.path, None, f"--seed must be >= 0, got {seed}")
    if "tolerance" in KEYS[kind]:  # checked here for every kind that reads it
        tol = sc.value("tolerance", float, None)
        sc.check("tolerance", tol is None or 0 < tol < np.inf, "finite and > 0")
    if "lambda_max" in KEYS[kind]:  # likewise
        lam_max = sc.value("lambda_max", _fraction, None)
        sc.check("lambda_max", lam_max is None or lam_max > 0, "> 0")
    report, passed = _RUNNERS[kind](sc, seed)
    payload = {
        "kind": kind,
        "scenario": str(path),
        "seed": seed,
        "passed": passed,
        "report": report,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(_report_text(payload) + "\n")
    print(f"{kind}: {'pass' if passed else 'FAIL'} -> {out / 'report.json'}")
    return 0 if passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call to main, not at import; argparse reads sys.stderr
    # and the terminal width when it prints, so one parser serves every call
    parser = argparse.ArgumentParser(prog="holoflow", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="path to the scenario file")
    run_p.add_argument("--out", default="reports", help="output directory")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return run_scenario(args.scenario, args.out, args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
