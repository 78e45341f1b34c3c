"""The check record: its margin convention, its branching rules, and the
checks of every shipped report."""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from holoflow import counterex
from holoflow.asympt import AsymptoticExpansion, tail_bound_check
from holoflow.cli import main
from holoflow.reports import ABOVE, FAIL, INCONCLUSIVE, PASS, Check
from holoflow.series import TaylorSeries, remainder_ladder

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
#: the rules the shipped scenarios exercise at seeds 0 to 7
SHIPPED_RULES = {"agreement", "bound_audit", "bound_margin", "cauchy_ratio", "curve_dbar",
                 "expansion_error", "first_integral_drift", "monotone_below_tol",
                 "remainder_trend", "sector_band", "time_identity", "witness_dbar"}


def test_the_margin_is_in_signed_decades_on_the_passing_side():
    assert Check("r", 1e-8, 1e-6).margin == pytest.approx(2.0)
    assert Check("r", 1e-4, 1e-6).margin == pytest.approx(-2.0)
    assert Check("r", 1e-2, 1e-3, ABOVE).margin == pytest.approx(1.0)
    assert Check("r", 1e-4, 1e-3, ABOVE).margin == pytest.approx(-1.0)
    assert [Check("r", s, 1e-6).verdict for s in (1e-8, 1e-4)] == [PASS, FAIL]
    assert [Check("r", s, 1e-3, ABOVE).verdict for s in (1e-2, 1e-4)] == [PASS, FAIL]


def test_zero_infinite_and_nan_scores():
    assert Check("r", 0.0, 1e-6).margin == math.inf
    assert Check("r", 0.0, 0.0).margin == math.inf  # a zero level passes only a zero score
    assert Check("r", 1e-300, 0.0).margin == -math.inf
    assert Check("r", math.inf, 1e-6).margin == -math.inf
    assert Check("r", math.inf, 1.0, ABOVE).margin == math.inf
    assert Check("r", 0.0, 1.0, ABOVE).margin == -math.inf
    assert Check("r", -0.5, 0.25, ABOVE).margin == -math.inf  # a negative slope
    for sense in ("below", ABOVE):
        nan = Check("r", math.nan, 1.0, sense)
        assert nan.verdict == FAIL and nan.margin == -math.inf


def test_an_inconclusive_check_has_no_margin():
    check = Check("r", 0.0, 1e-6, verdict=INCONCLUSIVE, witness=(0.5,), note="short read")
    assert check.inconclusive and not check.passed and check.margin is None
    assert check.to_json_dict()["margin"] is None
    assert check.to_json_dict()["witness"] == "(0.5,)"


def test_a_pass_names_no_witness_and_the_table_reads_as_attributes():
    check = Check("r", 1e-9, 1e-6, witness=(0.5,), table={"max_residual": 1e-9})
    assert check.passed and check.witness is None and check.max_residual == 1e-9
    assert check.to_json_dict()["max_residual"] == 1e-9 and "witness" not in check.to_json_dict()
    with pytest.raises(AttributeError, match="max_ratio"):
        check.max_ratio


def test_a_margin_in_radians_is_the_signed_difference():
    assert Check("r", 0.3, 0.0, ABOVE, unit="rad").margin == 0.3
    assert Check("r", -0.002, 0.0, ABOVE, unit="rad").verdict == FAIL


def test_a_remainder_trend_pass_on_its_slope_branch_names_it():
    # |z1^2| / r = r: above the tolerance throughout, but falling like r^1
    radii = (0.3, 0.2, 0.12, 0.08, 0.05)
    check, = remainder_ladder(lambda z: z[:, 0] ** 2, TaylorSeries.zero(2), [(1, radii)])
    assert check.rule == "remainder_trend" and check.passed
    assert check.branch == "slope" and check.sense == ABOVE and check.level == 0.25
    assert check.slope == pytest.approx(1.0)
    assert check.margin == pytest.approx(math.log10(check.slope / 0.25))


def test_a_remainder_trend_failure_names_the_monotone_branch():
    # |z1| / r = 1 at every radius: flat, and eight decades above the tolerance
    check, = remainder_ladder(lambda z: z[:, 0], TaylorSeries.zero(2), [(1, (0.3, 0.2, 0.1))])
    assert not check.passed and check.branch == "final"
    assert check.margin == pytest.approx(-8.0)


def test_a_non_monotone_tail_fails_on_its_rise_branch():
    # the weighted tail 1e-12 e^(x/2) stays below TAIL_TOL but rises by e^2 per step
    tail = tail_bound_check(lambda z: np.exp(-z) + 1e-12 * np.exp(-0.5 * z),
                            AsymptoticExpansion([(1, 0, 1.0)]), 0)
    assert tail.rule == "monotone_below_tol" and tail.verdict == FAIL
    assert max(tail.values) < tail.tolerance
    assert tail.branch == "rise" and tail.level == 1.0
    assert tail.margin == pytest.approx(-2.0 / math.log(10.0), rel=1e-6)


def test_the_known_false_holomorphic_passes_its_comparison_by_a_tenth_of_a_decade(tmp_path):
    # resonant t = 3 along (1, 2) at seed 81 reads holomorphic; its comparison
    # reports how narrowly that verdict passed
    scenario = tmp_path / "resonant_t3.txt"
    scenario.write_text("kind = forelli\nrates = 1/1 2/1\nterm = 0 0 | 0 0 | 0.0 | 0.0\n"
                        "oracle = resonant\nt = 3\n")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["run", str(scenario), "--seed", "81", "--out", str(tmp_path / "out")])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    comparison = report["report"]["verdict"]["diagnostics"]["comparison"]
    assert comparison["rule"] == "agreement" and comparison["passed"]
    assert 0.05 < comparison["margin"] < 0.15


def checks_of(value):
    """Every entry of a report that names a rule."""
    if isinstance(value, dict):
        if "rule" in value:
            yield value
        for item in value.values():
            yield from checks_of(item)
    elif isinstance(value, list):
        for item in value:
            yield from checks_of(item)


def sector_margin(params: dict) -> float:
    """The band margin, in radians, of the spiral example a report's params name."""
    lo0, hi0 = counterex.sector_angles(complex(params["alpha"]))
    shift = counterex.TWO_PI * int(params["branch_offset"])
    return float(counterex._band_margin(float(params["b"]), lo0 + shift, hi0 + shift))


def test_every_shipped_check_has_a_margin_positive_exactly_when_it_passed(tmp_path):
    rules = set()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        for path in sorted(SCENARIOS.glob("*.txt")):
            for seed in range(8):
                out = tmp_path / f"{path.stem}_{seed}"
                main(["run", str(path), "--seed", str(seed), "--out", str(out)])
                report = json.loads((out / "report.json").read_text())["report"]
                for check in checks_of(report):
                    rules.add(check["rule"])
                    where = (path.name, seed, check["rule"])
                    if check["verdict"] == INCONCLUSIVE:
                        assert check["margin"] is None, where
                        continue
                    assert (float(check["margin"]) > 0) == check["passed"], where
                    if check["rule"] == "sector_band":
                        assert check["margin"] == sector_margin(report["params"]), where
    assert rules == SHIPPED_RULES
