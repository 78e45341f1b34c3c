"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import cmath
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from holoflow import (ANTIHOLOMORPHIC_OBSTRUCTION, HOLOMORPHIC,
                      HYPOTHESIS_VIOLATED, NOT_F_HOLOMORPHIC,
                      AntiHolomorphicTermError, AsymptoticExpansion,
                      BasePoint, DiagonalField, ExtractionParams, JetOracle,
                      TaylorSeries, counterexample_suite, equals,
                      eval_expansion, eval_taylor, extract_coefficients,
                      f_holomorphy_check, forelli_pipeline, integral_curve,
                      level_grid, normalize_time, pushforward, residual,
                      restrict_holomorphic, sampled_sup, shift_difference,
                      verify_cauchy_bound)
from holoflow.cli import run_scenario
from holoflow.extract import quadrature_nodes
from holoflow.reports import fitted_decay_rate

from conftest import (jet_max_level, random_coeff, random_expansion_sixths,
                      random_interior_point, random_jet, random_positive_field)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SIXTH_GRID = level_grid(DiagonalField((Fraction(1, 6),)), 10)
PARAMS = ExtractionParams(grid=SIXTH_GRID)


def report(n: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n:02d} {status}: {label}{suffix}")
    return ok


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(424242)
    return [random_expansion_sixths(rng) for _ in range(100)]


@pytest.fixture(scope="module")
def recovered(corpus):
    return [extract_coefficients(src, PARAMS) for src in corpus]


def test_criterion_01_pushforward_exactness():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        jet = random_jet(rng, dim, 6, int(rng.integers(3, 10)))
        if not any(m.order > 0 for _, m in jet.terms()):
            jet = jet + TaylorSeries.monomial(dim, (0,) * dim,
                                              (1,) + (0,) * (dim - 1),
                                              random_coeff(rng))
        field = random_positive_field(rng, dim)
        c = random_interior_point(rng, dim)
        e = pushforward(jet, field, c, jet_max_level(jet, field))
        nfield, _ = normalize_time(field)
        for _ in range(100):
            zeta = complex(rng.uniform(0.0, 5.0), rng.uniform(-4.0, 4.0))
            lhs = eval_taylor(jet, integral_curve(nfield, c, zeta))
            rhs = eval_expansion(e, zeta) if len(e) else 0j
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10
    assert report(1, "pushforward exact on finite jets", ok, f"max err {worst:.2e}")


def test_criterion_02_canonical_form_uniqueness():
    rng = np.random.default_rng(2)
    failures = 0
    for _ in range(100):
        terms = []
        for _ in range(int(rng.integers(1, 9))):
            mu = Fraction(int(rng.integers(0, 13)), int(rng.integers(1, 5)))
            nu = Fraction(int(rng.integers(0, 13)), int(rng.integers(1, 5)))
            terms.append((mu, nu, random_coeff(rng)))
        original = AsymptoticExpansion(terms)
        recoded = [terms[i] for i in rng.permutation(len(terms))]
        for _ in range(3):  # zero-pad at fresh levels
            recoded.append((Fraction(int(rng.integers(13, 20))), Fraction(0), 0.0))
        if not equals(original, AsymptoticExpansion(recoded)):
            failures += 1
    assert report(2, "permuted/zero-padded re-encodings equal the original",
                  failures == 0, f"{failures} mismatches")


def test_criterion_03_holomorphic_restriction_classification():
    rng = np.random.default_rng(3)
    correct = 0
    for i in range(200):
        dim = int(rng.integers(1, 4))
        field = random_positive_field(rng, dim)
        c = random_interior_point(rng, dim, 0.3, 0.9)  # nonzero coordinates
        holo = random_jet(rng, dim, 6, int(rng.integers(2, 7)), mixed=False)
        if i % 2 == 0:
            e = pushforward(holo, field, c, jet_max_level(holo, field))
            try:
                restrict_holomorphic(e)
                correct += 1
            except AntiHolomorphicTermError:
                pass
        else:
            m = (0,) * dim
            m = m[:dim - 1] + (int(rng.integers(1, 4)),)
            k = tuple(int(rng.integers(0, 3)) for _ in range(dim))
            jet = holo + TaylorSeries.monomial(dim, k, m, random_coeff(rng))
            e = pushforward(jet, field, c, jet_max_level(jet, field))
            try:
                restrict_holomorphic(e)
            except AntiHolomorphicTermError:
                correct += 1
    assert report(3, "restriction accepts holomorphic, rejects anti-holomorphic",
                  correct == 200, f"{correct}/200 correct")


def test_criterion_04_extraction_round_trip(corpus, recovered):
    worst = 0.0
    for src, rec in zip(corpus, recovered):
        err = max(abs(rec.coefficient(lam) - src.coefficient(lam))
                  for lam in SIXTH_GRID.levels)
        worst = max(worst, err)
    ok = worst < 1e-6
    assert report(4, "extraction round-trip on 100 synthesized expansions", ok,
                  f"max coeff err {worst:.2e}")


def test_criterion_05_cauchy_coefficient_bound(corpus, recovered):
    worst_ratio = 0.0
    ok = True
    for src, rec in zip(corpus, recovered):
        M = sampled_sup(src, PARAMS)
        rep = verify_cauchy_bound(rec, src, M, tol=1e-6)
        worst_ratio = max(worst_ratio, rep.max_ratio)
        ok = ok and rep.passed
    assert report(5, "every coefficient bounded by the sampled sup", ok,
                  f"worst |c|/M {worst_ratio:.6f}")


def test_criterion_06_shift_trick(corpus):
    rng = np.random.default_rng(6)
    worst = 0.0
    for src in corpus[:20]:
        a = float(rng.uniform(0.0, 2.0 * math.pi))
        rec = extract_coefficients(shift_difference(src, a), PARAMS)
        for lam, c in src.nonzero_pairs():
            expected = (cmath.exp(-1j * a * float(lam)) - 1.0) * c
            worst = max(worst, abs(rec.coefficient(lam) - expected))
    ok_general = worst < 1e-6

    worst_exact = 0.0
    for src in corpus[:10]:
        lam_star, c_star = max(src.nonzero_pairs(), key=lambda p: abs(p[1]))
        if lam_star == 0:
            continue
        a = math.pi / float(lam_star)
        rec = extract_coefficients(shift_difference(src, a), PARAMS)
        worst_exact = max(worst_exact, abs(rec.coefficient(lam_star) + 2.0 * c_star))
    ok_exact = worst_exact < 1e-12
    assert report(6, "shift difference multiplies coefficients by e^(-ia lambda)-1",
                  ok_general and ok_exact,
                  f"general {worst:.2e}, factor -2 err {worst_exact:.2e}")


def test_criterion_07_residual_decay_rates(corpus):
    y = quadrature_nodes(PARAMS)
    ok = True
    worst_gap = 0.0
    for src in corpus[:30]:
        pairs = src.nonzero_pairs()
        for j in range(len(pairs) - 1):
            lam_next = float(pairs[j + 1][0])
            f_j = residual(src, src, j)
            xs = np.linspace(1.0, min(3.0, 22.0 / max(lam_next, 1.0)), 5)
            sups = [float(np.max(np.abs(f_j(x + 1j * y)))) for x in xs]
            rate = fitted_decay_rate(xs, sups)
            if rate is None:
                ok = False
                continue
            worst_gap = max(worst_gap, lam_next - rate)
            ok = ok and rate >= lam_next - 0.05
    assert report(7, "level-j residual decays at >= lambda_{j+1} - 0.05", ok,
                  f"worst shortfall {worst_gap:.3f}")


def test_criterion_08_forelli_positive():
    rng = np.random.default_rng(8)
    ok = True
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        jet = random_jet(rng, dim, 6, int(rng.integers(2, 8)), mixed=False)
        field = random_positive_field(rng, dim)
        bound = sum(abs(a) for a in jet.terms().values()) or 1.0
        jo = JetOracle(lambda z, s=jet: eval_taylor(s, z), jet, bound)
        verdict = forelli_pipeline(jo, field)
        ok = ok and verdict.tag == HOLOMORPHIC
        if verdict.tag == HOLOMORPHIC:
            worst = max(worst, verdict.diagnostics["comparison"]["max_diff"])
        else:
            ok = False
    ok = ok and worst < 1e-10
    assert report(8, "50 holomorphic jets reconstruct with residual < 1e-10", ok,
                  f"max comparison residual {worst:.2e}")


def test_criterion_09_forelli_negative_controls():
    # (a) the rigid-rotation example: curve-holomorphic but hypothesis violated
    jet_a = TaylorSeries.monomial(2, (0, 0), (1, 1))
    oracle_a = lambda z: (complex(z[0]) * complex(z[1])).conjugate()
    field_a = DiagonalField((1, -1))
    verdict_a = forelli_pipeline(JetOracle(oracle_a, jet_a, 1.0), field_a)
    rng = np.random.default_rng(9)
    curves = [BasePoint((0.4 * cmath.exp(1j * rng.uniform(0, 6.28)),
                         0.4 * cmath.exp(1j * rng.uniform(0, 6.28))))
              for _ in range(8)]
    zetas = [complex(x, y) for x, y in zip(rng.uniform(0.02, 0.6, 30),
                                           rng.uniform(-2.0, 2.0, 30))]
    curve_rep = f_holomorphy_check(JetOracle(oracle_a, jet_a, 1.0), field_a, curves, zetas)
    ok_a = (verdict_a.tag == HYPOTHESIS_VIOLATED and curve_rep.passed
            and curve_rep.max_residual < 1e-8)

    # (b) conj(z1) against a positive-ratio field is caught at stage 2 or 3
    jet_b = TaylorSeries.monomial(2, (0, 0), (1, 0))
    verdict_b = forelli_pipeline(
        JetOracle(lambda z: complex(z[0]).conjugate(), jet_b, 1.0),
        DiagonalField((1, 1)))
    ok_b = verdict_b.tag in (NOT_F_HOLOMORPHIC, ANTIHOLOMORPHIC_OBSTRUCTION)
    assert report(9, "negative controls reach the right verdicts",
                  ok_a and ok_b,
                  f"(a) {verdict_a.tag}, residual {curve_rep.max_residual:.2e}; "
                  f"(b) {verdict_b.tag}")


def test_criterion_10_resonant_counterexample():
    suite = counterexample_suite("resonant", t=1, seed=10)
    checks = suite.checks
    ok = (checks["first_integral_constancy"]["passed"]
          and checks["first_integral_constancy"]["max_drift"] < 1e-12
          and checks["non_holomorphy_witness"]["residual"] > 1e-3
          and checks["zero_jet_remainder"]["passed"]
          and checks["curve_holomorphy"]["passed"])
    assert report(10, "resonant example: constant on curves, flat, not holomorphic",
                  ok, f"drift {checks['first_integral_constancy']['max_drift']:.1e}, "
                      f"witness {checks['non_holomorphy_witness']['residual']:.2e}")


def test_criterion_11_spiral_counterexample():
    suite = counterexample_suite("spiral", alpha=-1 + 1j, t=1.0, seed=11)
    checks = suite.checks
    ok = (checks["time_identity"]["passed"]
          and checks["time_identity"]["max_error"] < 1e-12
          and checks["sector_negativity"]["passed"]
          and checks["curve_holomorphy"]["max_residual"] < 1e-6
          and checks["zero_jet_remainder"]["passed"]
          and checks["non_holomorphy_witness"]["residual"] > 1e-3)
    assert report(11, "spiral example: time identity, sector decay, flatness", ok,
                  f"identity {checks['time_identity']['max_error']:.1e}, "
                  f"CR {checks['curve_holomorphy']['max_residual']:.1e}")


def test_criterion_12_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    scenario = SCENARIOS / "extraction_demo.txt"
    assert run_scenario(scenario, out1, seed=31415) == 0
    assert run_scenario(scenario, out2, seed=31415) == 0
    lines1 = [l for l in (out1 / "report.json").read_text().splitlines()
              if '"timestamp"' not in l]
    lines2 = [l for l in (out2 / "report.json").read_text().splitlines()
              if '"timestamp"' not in l]
    ok = lines1 == lines2
    assert report(12, "repeated CLI runs are identical modulo timestamp", ok)
