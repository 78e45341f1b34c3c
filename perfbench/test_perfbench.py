"""Tests of the benchmark's own parts.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(workload):
    first = gen.spec_bytes(gen.round_jobs(workload, 11, 3))
    assert first == gen.spec_bytes(gen.round_jobs(workload, 11, 3))
    assert first != gen.spec_bytes(gen.round_jobs(workload, 12, 3))


def test_scenario_files_are_byte_identical_for_a_seed():
    texts = [spec["text"] for _kind, spec in gen.round_jobs("scenario_mix", 5, 0)]
    again = [spec["text"] for _kind, spec in gen.round_jobs("scenario_mix", 5, 0)]
    assert texts == again
    assert {spec["kind"] for _kind, spec in gen.round_jobs("scenario_mix", 5, 0)} == {
        "pushforward", "extraction", "forelli", "bounds", "counterexample"}


def test_grid_levels_match_the_measured_rungs():
    sizes = [len(gen.grid_levels(rates, lam)) for rates, lam, _n, _s in gen.EXTRACT_RUNGS]
    assert sizes == [7, 61, 129, 356, 387, 663]


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        (0, 2, 1, "a", 1.0, 4.0),
        (0, 3, 2, "c", 2.0, 3.0),
        (0, 4, 1, "b", 5.0, 9.0),
        (0, 1, None, "root", 0.0, 10.0),
        (1, 5, None, "a", 0.0, 0.5),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        {"root": 3.0, "a": 2.5, "b": 4.0, "c": 1.0})


def _exact_extract_result(spec):
    levels = gen.grid_levels(spec["rates"], spec["lambda_max"])
    source = {Fraction(lam): complex(re, im) for lam, re, im in spec["terms"]}
    recovered = [(lam, source.get(lam, 0j)) for lam in levels]
    sup = sum(abs(c) for c in source.values())
    return {"levels": levels, "recovered": recovered, "sup": sup,
            "max_ratio": max(abs(c) for c in source.values()) / sup}


def test_check_rejects_a_perturbed_coefficient():
    _kind, spec = gen.round_jobs("extract_ladder", 3, 0)[0]
    result = _exact_extract_result(spec)
    assert checks.check_extract(spec, result).ok
    lam, c = next((lam, c) for lam, c in result["recovered"] if c != 0)
    result["recovered"] = [(l, v + 1e-7 if l == lam else v) for l, v in result["recovered"]]
    outcome = checks.check_extract(spec, result)
    assert not outcome.ok and "coefficient error" in outcome.note


def test_check_rejects_a_wrong_verdict_tag():
    spec = next(spec for _kind, spec in gen.round_jobs("forelli_ladder", 3, 0)
                if spec["expect"] == gen.NOT_F_HOLOMORPHIC)
    result = {"tag": gen.HOLOMORPHIC, "psi": None, "diagnostics": {}, "fd_tol": 1e-6}
    assert not checks.check_forelli(spec, result).ok
    result["tag"] = gen.NOT_F_HOLOMORPHIC
    assert checks.check_forelli(spec, result).ok


def test_real_job_passes_and_tracer_counts_the_scalar_fallback(tmp_path):
    import jobs
    from holoflow import extract, flow, forelli

    spec = next(spec for _kind, spec in gen.round_jobs("extract_ladder", 4, 0)
                if spec["scalar"])
    curve, extract_fn = flow.integral_curve, extract.extract_coefficients
    with tracing.Tracer() as tracer:
        # a name is replaced in every module that imported it
        assert forelli.integral_curve is not curve
        assert extract.extract_coefficients is not extract_fn
        result = jobs.run_job("extract", spec, tmp_path)
    assert forelli.integral_curve is curve and extract.extract_coefficients is extract_fn
    assert checks.check_extract(spec, result).ok
    # one vector attempt per sampled line (1 for the extraction, 8 for the sup),
    # each followed by scalar calls
    assert tracer.counts["extract.vector_attempts"] == 9
    assert tracer.counts["extract.oracle_retries"] == 9
    names = {rec[3] for rec in tracer.spans}
    assert {"flow.level_grid", "extract.extract_coefficients", "extract.sampled_sup"} <= names


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_a_job_past_its_deadline_fails_without_hanging(tmp_path, monkeypatch):
    import signal
    import time

    import jobs

    monkeypatch.setattr(run, "DEADLINE_S", 1)
    monkeypatch.setattr(jobs, "run_job", lambda *_args: time.sleep(5))
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        record = run.run_one("extract", {}, tmp_path / "job")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not record.completed and not record.outcome.ok
    assert "deadline" in record.outcome.note and record.seconds < 3


def test_job_times_are_scaled_by_the_reference_around_them():
    outcome = checks.Outcome(True)
    records = [run.Record(1.0, True, outcome, t + 0.5) for t in range(3)]
    nominal = run.REF_NOMINAL_S
    # the machine runs at half speed throughout: every job counts half its time
    scaled = run.at_reference_speed(records, [(t, 2 * nominal) for t in range(4)])
    assert [r.seconds for r in scaled] == pytest.approx([0.5] * 3)
    # one slow sample among many is outvoted by the median of the window
    refs = [(t, nominal) for t in range(20)]
    refs[10] = (10, 5 * nominal)
    scaled = run.at_reference_speed([run.Record(1.0, True, outcome, 9.5)], refs)
    assert scaled[0].seconds == pytest.approx(1.0)
    # the speed is taken from the samples near the job, not from the whole run
    refs = [(t, nominal if t < 10 else 2 * nominal) for t in range(20)]
    late = run.at_reference_speed([run.Record(1.0, True, outcome, 15.5)], refs)
    assert late[0].seconds == pytest.approx(0.5)
