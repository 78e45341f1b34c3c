"""Scenario parsing, report emission, exit codes, and determinism."""

import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoflow import cli
from holoflow.cli import main, parse_complex
from holoflow.reports import DecayReport, write_decay_csv

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_cli(args):
    return main(list(args))


def test_parse_complex_forms():
    assert parse_complex("1") == 1
    assert parse_complex("-2.5") == -2.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-1+1i") == -1 + 1j
    assert parse_complex("0.5i") == 0.5j
    assert parse_complex("inf") == complex(math.inf, 0)  # only a trailing i is the unit
    assert parse_complex("-1e400+1i") == complex(-math.inf, 1)


def test_forelli_scenario_exits_zero(tmp_path):
    code = run_cli(["run", str(SCENARIOS / "forelli_quadratic.txt"),
                    "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["verdict"]["tag"] == "holomorphic"


def test_resonant_scenario_exits_zero(tmp_path):
    code = run_cli(["run", str(SCENARIOS / "counterexample_resonant.txt"),
                    "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["passed"]
    assert (tmp_path / "decay_zero_jet_order_8.csv").exists()


def test_extraction_scenario_recovers_within_tolerance(tmp_path):
    code = run_cli(["run", str(SCENARIOS / "extraction_demo.txt"),
                    "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["max_error"] < 1e-8
    recovered = {lam: complex(re, im) for lam, (re, im) in report["report"]["recovered"]}
    assert abs(recovered["1"] - 3.0) < 1e-8
    assert abs(recovered["5/2"] - (1 + 1j)) < 1e-8
    assert (tmp_path / "extraction_trace.csv").exists()


def test_pushforward_and_bounds_scenarios(tmp_path):
    assert run_cli(["run", str(SCENARIOS / "pushforward_mixed.txt"),
                    "--out", str(tmp_path / "p")]) == 0
    assert run_cli(["run", str(SCENARIOS / "bounds_demo.txt"),
                    "--out", str(tmp_path / "b")]) == 0
    push = json.loads((tmp_path / "p" / "report.json").read_text())
    assert push["report"]["expansion"] == [["1", "2", [0.8 * 0.7, 0.0]]]


def reject_constant(token):
    raise ValueError(f"report.json holds the non-JSON constant {token}")


@pytest.mark.parametrize("line, replacement", [
    ("claimed_rate = 1/1", "claimed_rate = 100"),
    ("claimed_rate = 1/1", "claimed_rate = 1000000"),
    ("x_lo = 0.01", "x_lo = 0.01\nbound = 1e-320"),
], ids=["steep-rate", "steeper-rate", "subnormal-bound"])
def test_bound_weight_beyond_double_range_fails_the_max_principle(tmp_path, line, replacement):
    # M e^(-lambda (x - x_lo)) underflows to 0 here; the ratio is formed in the log domain
    scenario = tmp_path / "bounds.txt"
    scenario.write_text((SCENARIOS / "bounds_demo.txt").read_text().replace(line, replacement))
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 1
    # strict JSON: a saturated value is written as the string "inf", never as Infinity
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=reject_constant)["report"]
    assert report["max_principle"]["verdict"] == "fail"
    assert report["max_principle"]["witness"] is not None
    assert all(float(v) >= 0 for v in report["max_principle"]["values"])


def test_failing_expectation_exits_one(tmp_path):
    scenario = tmp_path / "bad_expect.txt"
    scenario.write_text(
        "kind = forelli\n"
        "rates = 1/1 1/1\n"
        "term = 0 0 | 1 0 | 1.0 | 0.0\n"   # conj(z1): not curve-holomorphic
        "expect = holomorphic\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 1


def test_monomial_jet_is_holomorphic_under_the_default_bound(tmp_path):
    # the default bound is sampled on the torus where reconstruct audits the
    # level sups; sampled inside |z_j| <= 0.95 it read hypothesis_violated
    scenario = tmp_path / "z1.txt"
    scenario.write_text("kind = forelli\nrates = 1/1 2/1\nterm = 1 0 | 0 0 | 1.0 | 0.0\n")
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["report"]["verdict"]["tag"] == "holomorphic"


def test_forelli_tolerance_key_and_flag_reach_the_pipeline(tmp_path, monkeypatch):
    seen = []
    pipeline = cli.forelli_pipeline
    monkeypatch.setattr(cli, "forelli_pipeline", lambda jo, field, config: (
        seen.append(config.compare_tol) or pipeline(jo, field, config)))
    scenario = tmp_path / "tol.txt"
    scenario.write_text((SCENARIOS / "forelli_quadratic.txt").read_text() + "tolerance = 1e-7\n")
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "a")]) == 0
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "b"),
                    "--tolerance", "1e-9"]) == 0
    assert seen == [1e-7, 1e-9]


def test_expected_negative_verdict_exits_zero(tmp_path):
    scenario = tmp_path / "expect_not_fholo.txt"
    scenario.write_text(
        "kind = forelli\n"
        "rates = 1/1 1/1\n"
        "term = 0 0 | 1 0 | 1.0 | 0.0\n"
        "expect = not_f_holomorphic\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0


def test_parse_error_is_line_anchored(tmp_path, capsys):
    scenario = tmp_path / "broken.txt"
    scenario.write_text("kind = pushforward\nrates 1/1\n")
    code = run_cli(["run", str(scenario), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "broken.txt:2" in err


def test_bad_fraction_reports_key_line(tmp_path, capsys):
    scenario = tmp_path / "badfrac.txt"
    scenario.write_text(
        "kind = pushforward\n"
        "rates = 1/0 2\n"
        "term = 1 0 | 0 0 | 1.0 | 0.0\n"
        "base_point = 0.5 0.5\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "badfrac.txt:2" in capsys.readouterr().err


def test_unknown_kind_rejected(tmp_path):
    scenario = tmp_path / "odd.txt"
    scenario.write_text("kind = interpolation\n")
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2


def test_missing_file_rejected(tmp_path):
    assert run_cli(["run", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 2


def test_off_grid_oracle_level_rejected(tmp_path, capsys):
    scenario = tmp_path / "offgrid.txt"
    scenario.write_text(
        "kind = extraction\n"
        "grid_rates = 1/1\n"
        "lambda_max = 3/1\n"
        "exp_term = 1/3 | 1.0 | 0.0\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "off the grid" in capsys.readouterr().err


def test_seed_flag_overrides_scenario(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = SCENARIOS / "forelli_quadratic.txt"
    assert run_cli(["run", str(base), "--out", str(out1), "--seed", "99"]) == 0
    assert run_cli(["run", str(base), "--out", str(out2), "--seed", "99"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["seed"] == 99 and r2["seed"] == 99


def _strip_timestamp(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("timestamp")
    return payload


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.txt")))
def test_repeated_runs_identical_modulo_timestamp(tmp_path, name):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli(["run", str(SCENARIOS / name), "--out", str(out1)]) == 0
    assert run_cli(["run", str(SCENARIOS / name), "--out", str(out2)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert _strip_timestamp(r1) == _strip_timestamp(r2)
    # byte identity after removing the timestamp line
    t1 = [l for l in (out1 / "report.json").read_text().splitlines()
          if '"timestamp"' not in l]
    t2 = [l for l in (out2 / "report.json").read_text().splitlines()
          if '"timestamp"' not in l]
    assert t1 == t2


def finite_json(value):
    """Reference for cli._report_text: value with each non-finite float as the
    string "inf", "-inf" or "nan", the walk that ran before json.dumps."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite_json(item) for item in value]
    return value


def stdlib_report_text(value) -> str:
    return json.dumps(finite_json(value), indent=2, sort_keys=True, allow_nan=False)


FLOATS = st.floats() | st.sampled_from([-0.0, math.inf, -math.inf, math.nan]) \
    | st.floats().map(np.float64)
SCALARS = st.none() | st.booleans() | st.integers(-2**200, 2**200) | FLOATS | st.text()
FLAT = st.lists(FLOATS, max_size=6) | st.lists(st.text(), max_size=4) \
    | st.lists(st.tuples(st.text(max_size=3), st.lists(st.floats(), min_size=2, max_size=2)),
               max_size=4)
REPORT_VALUES = st.recursive(
    SCALARS | FLAT,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(REPORT_VALUES)
@example({"values": [0.5, math.inf, -math.inf, math.nan, -0.0, np.float64(1e300)],
          "pairs": [["1/2", [0.25, -0.0]]], "empty": {}, "none": [], "tuple": (),
          "\u00e9\u2603": ["\u00e9", "\U0001f600", "\n\"\\"], "big": -2**100, "ok": True})
def test_report_text_equals_json_dumps_of_the_finite_form(value):
    assert cli._report_text(value) == stdlib_report_text(value)


@pytest.mark.parametrize("value", [{"a": object()}, [1.0, {2.0}], ["a", b"b"], 1j,
                                   {"n": np.int64(3)}, [np.bool_(True)]])
def test_report_text_refuses_what_json_cannot_encode(value):
    with pytest.raises(TypeError):
        stdlib_report_text(value)
    with pytest.raises(TypeError):
        cli._report_text(value)


def per_row_decay_csv(path, report: DecayReport, label: str) -> None:
    """Reference for reports.write_decay_csv: one writerow per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "abscissa", "weighted_residual", "verdict"])
        for a, v in zip(report.abscissas, report.values):
            writer.writerow([label, repr(float(a)), repr(float(v)), report.verdict])


def test_decay_csv_equals_the_per_row_writer(tmp_path):
    report = DecayReport(2.0, (0.1, np.float64(3.0), 1e308, 4.0),
                         (math.inf, 5e-324, -math.inf), 1e-6, "fail", "bound_margin")
    for label in ["tail", "a,b", 'say "x"', "two\nlines", "car\rriage", ""]:
        texts = write_decay_csv(tmp_path / "batched.csv", report, label=label)
        per_row_decay_csv(tmp_path / "per_row.csv", report, label=label)
        assert (tmp_path / "batched.csv").read_bytes() \
            == (tmp_path / "per_row.csv").read_bytes(), label
        # every abscissa's text, also the one a short read left without a row
        assert texts == (["0.1", "3.0", "1e+308", "4.0"], ["inf", "5e-324", "-inf"])


def test_bounds_report_of_saturated_ratios_is_canonical_strict_json(tmp_path):
    # at claimed_rate 10^6 every max-principle ratio saturates: 400 "inf" texts
    text = (SCENARIOS / "bounds_demo.txt").read_text()
    scenario = tmp_path / "steep.txt"
    scenario.write_text(text.replace("claimed_rate = 1/1", "claimed_rate = 1000000"))
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 1
    report_text = (tmp_path / "out" / "report.json").read_text()

    def refuse(constant):
        raise AssertionError(f"non-JSON constant {constant}")

    payload = json.loads(report_text, parse_constant=refuse)
    assert report_text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["report"]["max_principle"]["values"] == ["inf"] * 400


def test_parser_is_built_once_and_survives_a_failed_parse(tmp_path, capsys, monkeypatch):
    built = []

    class CountingParser(cli.argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli.argparse, "ArgumentParser", CountingParser)
    scenario = str(SCENARIOS / "bounds_demo.txt")
    assert run_cli(["run", scenario, "--out", str(tmp_path / "run1")]) == 0
    count = len(built)  # 0 if an earlier test built the cached parser
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", scenario, "--out", str(tmp_path / "bad"), "--max-level", "0"])
    assert exc.value.code == 2
    assert "--max-level" in capsys.readouterr().err
    assert run_cli(["run", scenario, "--out", str(tmp_path / "run3")]) == 0
    assert len(built) == count
    r1, r3 = (json.loads((tmp_path / run / "report.json").read_text())
              for run in ("run1", "run3"))
    assert _strip_timestamp(r1) == _strip_timestamp(r3)


def test_console_entry_point_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "holoflow.cli", "run",
         str(SCENARIOS / "pushforward_mixed.txt"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pushforward: pass" in proc.stdout


def test_max_level_flag_truncates_pushforward(tmp_path):
    scenario = tmp_path / "trunc.txt"
    scenario.write_text(
        "kind = pushforward\n"
        "rates = 1/1 1/1\n"
        "term = 1 0 | 0 0 | 1.0 | 0.0\n"
        "term = 0 4 | 0 0 | 1.0 | 0.0\n"
        "base_point = 0.5 0.5\n"
        "tolerance = 1.0\n"        # exactness not expected after truncation
    )
    out = tmp_path / "out"
    assert run_cli(["run", str(scenario), "--out", str(out), "--max-level", "2/1"]) == 0
    report = json.loads((out / "report.json").read_text())
    levels = [lam for lam, _, _ in report["report"]["expansion"]]
    assert levels == ["1"]


def test_dimension_mismatch_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "dims.txt"
    scenario.write_text(
        "kind = pushforward\n"
        "rates = 1/1 2/1\n"
        "term = 1 0 | 0 0 | 1.0 | 0.0\n"
        "base_point = 0.5\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "dimension mismatch" in capsys.readouterr().err


def test_forelli_rates_and_jet_of_different_dimension_exit_two(tmp_path, capsys):
    scenario = tmp_path / "forelli_dims.txt"
    scenario.write_text(
        "kind = forelli\n"
        "rates = 1/1 2/1 3/1\n"
        "term = 1 0 | 0 0 | 1.0 | 0.0\n"
        "term = 0 2 | 0 0 | 1.0 | 0.0\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "forelli_dims.txt:2" in err and "dimension mismatch" in err


def test_term_lines_of_mixed_dimension_are_line_anchored(tmp_path, capsys):
    scenario = tmp_path / "mixed.txt"
    scenario.write_text(
        "kind = pushforward\n"
        "rates = 1/1 1/1\n"
        "term = 1 0 | 0 0 | 1.0 | 0.0\n"
        "term = 1 0 0 | 0 0 0 | 1.0 | 0.0\n"
        "base_point = 0.5 0.5\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "mixed.txt:4" in err and "exponent length mismatch" in err


def test_base_point_outside_polydisk_is_config_error(tmp_path, capsys):
    scenario = tmp_path / "outside.txt"
    for point in ("1.5 0.5", "nan+0i 0.2+0.1i", "0.5 1e400", "0.5 inf"):
        scenario.write_text(
            "kind = pushforward\n"
            "rates = 1/1 1/1\n"
            "term = 1 0 | 0 0 | 1.0 | 0.0\n"
            f"base_point = {point}\n"
        )
        assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "outside.txt:4" in err and "|c_j| < 1" in err


@pytest.mark.parametrize("value", ["0", "-1", "1/0", "1e400"])
def test_bad_max_level_exits_two(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", str(SCENARIOS / "extraction_demo.txt"), "--out", str(tmp_path),
                 "--max-level", value])
    assert exc.value.code == 2
    assert "--max-level" in capsys.readouterr().err


@pytest.mark.parametrize("rates, message", [
    ("0 1/2", "all rates must be nonzero"),
    ("1/2 -1/3", "positive-ratio spectrum"),
])
def test_bad_grid_rates_are_line_anchored(tmp_path, capsys, rates, message):
    scenario = tmp_path / "grid.txt"
    scenario.write_text(
        "kind = extraction\n"
        "lambda_max = 3/1\n"
        f"grid_rates = {rates}\n"
        "exp_term = 1/1 | 1.0 | 0.0\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "grid.txt:3" in err and message in err


def test_pushforward_rates_without_positive_ratios_exit_two_at_their_line(tmp_path, capsys):
    scenario = tmp_path / "push.txt"
    scenario.write_text(
        "kind = pushforward\n"
        "rates = 1/1 -1/1\n"
        "term = 1 0 | 0 0 | 1.0 | 0.0\n"
        "base_point = 0.5 0.5\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "push.txt:2: cannot normalize a field without positive ratios" in err


def test_exp_term_level_beyond_double_range_exits_two_at_its_line(tmp_path, capsys):
    scenario = tmp_path / "level.txt"
    scenario.write_text("kind = bounds\nexp_term = 1e400 | 0.5 | 0.0\nclaimed_rate = 1/1\n")
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "level.txt:2: '1e400' is beyond double range" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_sampled_bound_is_a_job_error(tmp_path, capsys):
    # 1e308 (1 + z1) overflows on the torus, so the sampled default bound is
    # infinite; JetOracle refuses it
    scenario = tmp_path / "inf_bound.txt"
    scenario.write_text("kind = forelli\nrates = 1/1 2/1\nterm = 0 0 | 0 0 | 1e308 | 0.0\n"
                        "term = 1 0 | 0 0 | 1e308 | 0.0\n")
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert "error: bound must be finite and >= 0, got inf" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_non_finite_sampled_bound_is_a_job_error_under_error_warnings(tmp_path):
    # numpy's overflow warning, raised as an error by the filter, was read as
    # a refused batch, and the point-by-point warning ended in a traceback
    scenario = tmp_path / "inf_bound.txt"
    scenario.write_text("kind = forelli\nrates = 1/1 2/1\nterm = 0 0 | 0 0 | 1e308 | 0.0\n"
                        "term = 1 0 | 0 0 | 1e308 | 0.0\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "holoflow.cli", "run",
         str(scenario), "--out", str(tmp_path / "out")], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: bound must be finite and >= 0, got inf")
    assert "Traceback" not in proc.stderr


def test_nonpositive_lambda_max_is_line_anchored(tmp_path, capsys):
    scenario = tmp_path / "lam.txt"
    scenario.write_text(
        "kind = extraction\n"
        "grid_rates = 1/2\n"
        "lambda_max = 0\n"
        "exp_term = 1/1 | 1.0 | 0.0\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "lam.txt:3" in capsys.readouterr().err


def test_oversized_lattice_is_a_job_error_not_a_config_error(tmp_path, capsys):
    scenario = tmp_path / "huge.txt"
    scenario.write_text(
        "kind = extraction\n"
        "grid_rates = 1/101 1/103 1/107\n"
        "lambda_max = 3/1\n"
        "exp_term = 0 | 1.0 | 0.0\n"
    )
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 1
    assert "MAX_LATTICE" in capsys.readouterr().err


_FORELLI = "kind = forelli\nrates = 1/1 2/1\nterm = 0 0 | 0 0 | 0.0 | 0.0\n"
_BOUNDS = "kind = bounds\nexp_term = 1/1 | 0.5 | 0.0\n"
_EXTRACTION = "kind = extraction\ngrid_rates = 1/2\nlambda_max = 3\nexp_term = 1 | 1.0 | 0.0\n"
OUT_OF_MODEL_BASES = {
    "forelli-spiral": _FORELLI + "oracle = spiral\n",
    "forelli-resonant": _FORELLI + "oracle = resonant\n",
    "forelli": _FORELLI,
    "counterexample-spiral": "kind = counterexample\nwhich = spiral\n",
    "counterexample-resonant": "kind = counterexample\nwhich = resonant\n",
    "bounds": _BOUNDS + "claimed_rate = 1/1\n",
    "bounds-no-rate": _BOUNDS,
    "extraction": _EXTRACTION,
    "forelli-no-rates": "kind = forelli\nterm = 0 0 | 0 0 | 0.0 | 0.0\n",
    "pushforward-no-rates": "kind = pushforward\nterm = 1 0 | 0 0 | 1.0 | 0.0\n"
                            "base_point = 0.5 0.5\n",
    "extraction-no-grid": "kind = extraction\nlambda_max = 3\nexp_term = 1 | 1.0 | 0.0\n",
}


@pytest.mark.parametrize("base, bad", [
    ("forelli-spiral", "alpha = 0.5+1i"),
    ("forelli-spiral", "alpha = -1-1i"),
    ("counterexample-spiral", "alpha = 1+1i"),
    ("counterexample-spiral", "alpha = -1+0i"),
    ("forelli-resonant", "t = 0"),
    ("forelli-spiral", "t = -1"),
    ("counterexample-resonant", "t = 0"),
    ("counterexample-spiral", "t = -0.5"),
    ("forelli", "bound = -1"),
    ("bounds", "bound = 0"),
    ("bounds-no-rate", "claimed_rate = -1"),
    ("extraction", "x0 = 0"),
    ("extraction", "window = -64"),
    ("extraction", "nodes = 1"),
    ("extraction", "snap_tol = 0"),
    ("forelli", "expect = holomorphc"),
    ("bounds", "seed = -3"),
    ("bounds", "tolerance = 0"),
    ("extraction", "tolerance = -1e-8"),
    ("forelli", "tolerance = nan"),
    ("extraction", "window = inf"),
    ("extraction", "x0 = inf"),
    ("extraction", "snap_tol = inf"),
    ("forelli", "bound = inf"),
    ("bounds", "bound = inf"),
    ("bounds", "x_lo = nan"),
    ("bounds", "x_lo = inf"),
    ("bounds", "x_lo = 20"),
    ("bounds", "x_lo = 10"),
    ("bounds", "x_lo = 0"),
    ("bounds", "x_lo = -1"),
    ("forelli-resonant", "t = inf"),
    ("forelli-resonant", "t = 1e400"),
    ("counterexample-resonant", "t = 1e400"),
    ("counterexample-resonant", "t = 31"),
    ("counterexample-resonant", "t = 1e300"),
    ("counterexample-spiral", "t = 1e400"),
    ("counterexample-spiral", "alpha = -1e400+1i"),
    ("forelli-spiral", "alpha = -1e400+1i"),
    ("pushforward-no-rates", "rates = 1e400 1/2"),
    ("forelli-no-rates", "rates = 1e400 1/2"),
    ("extraction-no-grid", "grid_rates = 1e400"),
    ("bounds-no-rate", "claimed_rate = 1e400"),
    ("extraction", "x0 = 300"),
])
def test_out_of_model_parameters_exit_two_at_their_line(tmp_path, capsys, base, bad):
    body = OUT_OF_MODEL_BASES[base]
    scenario = tmp_path / "model.txt"
    scenario.write_text(body + bad + "\n")
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    key = bad.split("=")[0].strip()
    line = body.count("\n") + 1
    assert f"model.txt:{line}: {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("base, extra, line, message", [
    ("counterexample-resonant", "tolerance = 1e-6", 3,
     "counterexample scenarios do not read 'tolerance'"),
    ("forelli", "lambda_max = 3", 4, "forelli scenarios do not read 'lambda_max'"),
    ("bounds", "rates = 1/1", 4, "bounds scenarios do not read 'rates'"),
    ("extraction", "x0 = 1.0\nx0 = 2.0", 6, "x0 given twice (first at line 5)"),
    ("counterexample-resonant", "seed = 1\nseed = 2", 4, "seed given twice (first at line 3)"),
], ids=["unread-tolerance", "unread-lambda_max", "unread-rates", "repeated-x0",
        "repeated-seed"])
def test_unread_and_repeated_keys_exit_two_at_their_line(tmp_path, capsys, base, extra,
                                                        line, message):
    scenario = tmp_path / "keys.txt"
    scenario.write_text(OUT_OF_MODEL_BASES[base] + extra + "\n")
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert f"keys.txt:{line}: {message}" in capsys.readouterr().err


# a bad flag value is the flag's fault: the message names the flag, not the line
# of the file value it overrides (bounds_demo.txt has its own seed on line 7)
@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "bounds_demo.txt: --seed must be >= 0, got -1"),
    (["--tolerance", "nan"], "bounds_demo.txt: --tolerance must be finite and > 0, got nan"),
    (["--tolerance", "inf"], "bounds_demo.txt: --tolerance must be finite and > 0, got inf"),
    (["--tolerance", "-1"], "bounds_demo.txt: --tolerance must be finite and > 0, got -1.0"),
], ids=["seed-negative", "tolerance-nan", "tolerance-inf", "tolerance-negative"])
def test_out_of_model_flags_exit_two(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert run_cli(["run", str(SCENARIOS / "bounds_demo.txt"), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_a_bad_tolerance_flag_is_not_blamed_on_the_tolerance_line(tmp_path, capsys):
    scenario = tmp_path / "own.txt"
    scenario.write_text(_BOUNDS + "claimed_rate = 1/1\ntolerance = 1e-6\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(scenario), "--out", str(out), "--tolerance", "-1"]) == 2
    err = capsys.readouterr().err
    assert "own.txt: --tolerance must be finite and > 0, got -1.0" in err
    assert "own.txt:4" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("name", ["resonant", "spiral", "remark"])
@pytest.mark.parametrize("dim", [1, 3])
def test_a_named_oracle_on_a_field_not_of_dimension_two_exits_two(tmp_path, capsys, name,
                                                                  dim):
    scenario = tmp_path / "dims.txt"
    zeros = " ".join(["0"] * dim)
    scenario.write_text(f"kind = forelli\nrates = {' '.join(['1/1'] * dim)}\n"
                        f"term = {zeros} | {zeros} | 0.0 | 0.0\noracle = {name}\nt = 0.5\n")
    out = tmp_path / "out"
    assert run_cli(["run", str(scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"dims.txt:4: oracle {name} is a function on C^2, the field has dimension {dim}"
            in err)
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("body, message", [
    (_BOUNDS + "exp_term = -1/2 | 0.5 | 0.0\nclaimed_rate = 1/1\n",
     "levels.txt:3: levels must be >= 0"),
    ("kind = bounds\nclaimed_rate = 1/1\nx_lo = 0.01\nexp_term = 1/1 | 0.5 | 0.0\n"
     "exp_term = 2/1 | 0.5 | 0.0\nexp_term = 1 | 0.25 | 0.0\n",
     "levels.txt:6: level 1 given twice (first at line 4)"),
], ids=["negative", "repeated"])
def test_a_bad_exp_term_level_exits_two_at_its_own_line(tmp_path, capsys, body, message):
    scenario = tmp_path / "levels.txt"
    scenario.write_text(body)
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["bounds", "extraction"])
@pytest.mark.parametrize("coefficient", ["inf | 0", "1 | nan", "-1e400 | 0.0"])
def test_a_non_finite_exp_term_coefficient_exits_two_at_its_line(tmp_path, capsys, kind,
                                                                 coefficient):
    keys = {"bounds": "claimed_rate = 1/1\n", "extraction": "grid_rates = 1/1\nlambda_max = 2\n"}
    scenario = tmp_path / "coeff.txt"
    scenario.write_text(f"kind = {kind}\nexp_term = 0 | 0.5 | 0.0\n"
                        f"exp_term = 1 | {coefficient}\n" + keys[kind])
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert (f"coeff.txt:3: the coefficient must be finite, got {coefficient}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "report.json").exists()


#: what a jet scenario needs besides kind, rates and its term lines
_JET_KEYS = {"forelli": "", "pushforward": "base_point = 0.5 0.5\n"}


@pytest.mark.parametrize("kind", _JET_KEYS)
@pytest.mark.parametrize("coefficient", ["nan | 0.0", "1 | inf", "1e400 | 0.0"])
def test_a_non_finite_term_coefficient_exits_two_at_its_line(tmp_path, capsys, kind,
                                                             coefficient):
    scenario = tmp_path / "coeff.txt"
    scenario.write_text(f"kind = {kind}\nrates = 1/1 2/1\nterm = 1 0 | 0 0 | 1.0 | 0.0\n"
                        f"term = 1 0 | 0 1 | {coefficient}\n" + _JET_KEYS[kind])
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert (f"coeff.txt:4: the coefficient must be finite, got {coefficient}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("kind", _JET_KEYS)
@pytest.mark.parametrize("tau", ["nan", "2", "1+1i", "nan+1i"])
def test_a_time_unit_not_of_modulus_one_exits_two_at_the_tau_line(tmp_path, capsys, kind,
                                                                  tau):
    # a NaN tau once passed the modulus test, and normalize_time dropped it
    scenario = tmp_path / "tau.txt"
    scenario.write_text(f"kind = {kind}\nrates = 1/1 2/1\ntau = {tau}\n"
                        f"term = 1 0 | 0 0 | 1.0 | 0.0\n" + _JET_KEYS[kind])
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "tau.txt:3: tau must be of modulus 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_a_bounds_scenario_of_zero_coefficients_needs_a_bound(tmp_path, capsys):
    scenario = tmp_path / "zero.txt"
    body = "kind = bounds\nexp_term = 1 | 0 | 0\nclaimed_rate = 1/1\n"
    scenario.write_text(body)
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert ("zero.txt:2: the sampled bound on Re z = 0.01 is 0; give 'bound'"
            in capsys.readouterr().err)
    scenario.write_text(body + "bound = 1\n")
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "given")]) == 0


def test_a_malformed_term_line_exits_two_at_its_line(tmp_path, capsys):
    scenario = tmp_path / "term.txt"
    scenario.write_text("kind = pushforward\nrates = 1/1\nterm = 1 | 0 | 1.0\n"
                        "base_point = 0.5\n")
    assert run_cli(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    assert "term.txt:3: expected 'k | m | re | im'" in capsys.readouterr().err


def test_tolerance_flag_is_ignored_by_a_kind_that_never_reads_it(tmp_path):
    assert run_cli(["run", str(SCENARIOS / "counterexample_remark.txt"),
                    "--out", str(tmp_path / "out"), "--tolerance", "nan"]) == 0
