"""Seeded samples against the point-by-point loops they are drawn like, and the oracle read."""

import contextlib
import math
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from holoflow import (HYPOTHESIS_VIOLATED, DiagonalField, ExtractionError, ExtractionParams,
                      HolomorphicExpansion, JetOracle, TaylorSeries, extract_coefficients,
                      forelli_pipeline, integral_curve, level_grid, max_principle_bound,
                      tail_bound_check)
from holoflow.counterex import _witness_check
from holoflow.forelli import curve_check
from holoflow.reports import INCONCLUSIVE
from holoflow.sampling import evaluate_prefix, halfplane_points, polydisk_points
from holoflow.series import remainder_ladder


def loop_points(rng, dim, n, r_min=0.05, r_max=0.95):
    """Reference: for each point in turn, dim radii and then dim phases."""
    points = []
    for _ in range(n):
        radii = rng.uniform(r_min, r_max, size=dim)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=dim)
        points.append(tuple(r * complex(math.cos(p), math.sin(p))
                            for r, p in zip(radii, phases)))
    return points


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("r_min, r_max", [(0.05, 0.95), (0.0, 0.95), (0.999, 0.999)])
def test_block_draws_equal_the_per_point_loop(dim, r_min, r_max):
    block_rng = np.random.default_rng(2027 + dim)
    loop_rng = np.random.default_rng(2027 + dim)
    block = polydisk_points(block_rng, dim, 37, r_min=r_min, r_max=r_max)
    loop = loop_points(loop_rng, dim, 37, r_min, r_max)
    assert block.dtype == np.complex128 and block.shape == (37, dim)
    assert np.array_equal(block, np.array(loop, dtype=complex))
    # the generator is left where the loop leaves it
    assert block_rng.random() == loop_rng.random()


def test_equal_radii_put_every_coordinate_on_the_torus():
    points = polydisk_points(np.random.default_rng(5), 3, 64, r_min=0.4, r_max=0.4)
    assert points.shape == (64, 3)
    assert np.allclose(np.abs(points), 0.4, rtol=1e-15, atol=0.0)


def test_no_points_draw_nothing():
    for dim in (1, 2, 5):
        rng, fresh = np.random.default_rng(8), np.random.default_rng(8)
        points = polydisk_points(rng, dim, 0)
        assert points.dtype == np.complex128 and points.shape == (0, dim)
        assert rng.random() == fresh.random()


def test_halfplane_draws_equal_the_per_point_pairs():
    rng, loop_rng = np.random.default_rng(11), np.random.default_rng(11)
    points = halfplane_points(rng, 50, x_range=(0.1, 2.0), y_range=(-2.0, 2.0))
    xs, ys = loop_rng.uniform(0.1, 2.0, 50), loop_rng.uniform(-2.0, 2.0, 50)
    assert points.dtype == np.complex128 and points.shape == (50,)
    assert np.array_equal(points, np.array([complex(x, y) for x, y in zip(xs, ys)]))
    assert rng.random() == loop_rng.random()


def test_an_overflow_in_a_batched_oracle_is_a_value_under_an_error_filter():
    # numpy's overflow warning, raised as an error, was read as a refused
    # batch, and the oracle was called again point by point
    calls = []

    def oracle(z):
        calls.append(len(z))
        return 1e308 * (1 + 2 * np.abs(z[:, 0]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, note = evaluate_prefix(oracle, np.full((3, 2), 0.5 + 0j))
    assert calls == [3]
    assert len(values) == 0 and note == "non-finite oracle value at ((0.5+0j), (0.5+0j))"


#: a residual that overflows: the constant -1.5e308 against an expansion or jet of 1.5e308
OVERFLOWING_RESIDUALS = {
    "tail": lambda: tail_bound_check(
        lambda z: -1.5e308 + 0 * z,
        HolomorphicExpansion([(Fraction(0), 1.5e308 + 0j)]).to_expansion(), 0),
    "remainder": lambda: remainder_ladder(
        lambda z: np.full(len(z), -1.5e308 + 0j),
        TaylorSeries(2, [(((0, 0), (0, 0)), 1.5e308 + 0j)]), [(1, [0.5, 0.25, 0.125])])[0],
}


@pytest.mark.parametrize("check", OVERFLOWING_RESIDUALS)
def test_an_overflowing_residual_fails_the_check_under_an_error_filter(check):
    # the subtraction from the read ran outside its error state, and raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = OVERFLOWING_RESIDUALS[check]()
    assert report.verdict == "fail"
    assert report.values[-1] == math.inf


class FailingOracle:
    """1 at every point but one: the middle point of the first batch it is given,
    where it raises ValueError ("value_error") or KeyError ("key_error"), or
    returns NaN ("nan").  With "runtime_error" it raises RuntimeError everywhere."""

    ERRORS = {"value_error": ValueError, "key_error": KeyError}

    def __init__(self, how):
        self.how, self.bad = how, None

    def __call__(self, z):
        if self.how == "runtime_error":
            raise RuntimeError("sensor gap")
        z = np.asarray(z, dtype=complex)
        if self.bad is None:  # the first call is the reader's batch
            self.bad = z[len(z) // 2]
        hit = np.all(z == self.bad, axis=-1) if self.bad.ndim else z == self.bad
        if self.how in self.ERRORS and np.any(hit):
            raise self.ERRORS[self.how]("no data here")
        return np.where(hit, np.nan, 1.0)

    def note(self):
        if self.how == "runtime_error":
            return "oracle failed: sensor gap"
        if self.how in self.ERRORS:
            return f"oracle failed: {self.ERRORS[self.how]('no data here')}"
        point = tuple(self.bad.tolist()) if self.bad.ndim else complex(self.bad)
        return f"non-finite oracle value at {point}"


def _inconclusive_note(report):
    assert report.verdict == INCONCLUSIVE
    return report.note


def _curve_note(oracle):
    rng = np.random.default_rng(3)
    report = curve_check(oracle, partial(integral_curve, DiagonalField((1, 2))),
                         polydisk_points(rng, 2, 3, r_min=0.15, r_max=0.7),
                         halfplane_points(rng, 5, x_range=(0.1, 2.0), y_range=(-2.0, 2.0)))
    assert report.inconclusive and not report.passed
    return report.note


def _pipeline_note(oracle):
    verdict = forelli_pipeline(JetOracle(oracle, TaylorSeries.zero(2), 1.0), DiagonalField((1, 2)))
    assert verdict.tag == HYPOTHESIS_VIOLATED
    head, note = verdict.reason.split(": ", 1)
    assert head == "curve check inconclusive"
    return note


def _comparison_note(oracle):
    """The note of a pipeline whose curve check reads 1 everywhere, so that the
    comparison's batch is the first the oracle is given; the read's stop point
    is the witness."""
    calls = []

    def after_the_curve_check(z):
        calls.append(len(z))
        return np.ones(len(z)) if len(calls) == 1 else oracle(z)

    one = TaylorSeries.monomial(2, (0, 0), (0, 0))
    verdict = forelli_pipeline(JetOracle(after_the_curve_check, one, 1.0), DiagonalField((1, 2)))
    assert verdict.tag == HYPOTHESIS_VIOLATED
    assert type(verdict.witness) is tuple and all(type(c) is complex for c in verdict.witness)
    if oracle.bad is not None:
        assert verdict.witness == tuple(oracle.bad.tolist())
    head, note = verdict.reason.split(": ", 1)
    assert head == "comparison inconclusive"
    return note


def _witness_note(oracle):
    check = _witness_check(oracle)
    assert check["passed"] is False
    return check["note"]


def _extraction_note(oracle):
    params = ExtractionParams(level_grid(DiagonalField((Fraction(1),)), 2))
    with pytest.raises(ExtractionError) as info:
        extract_coefficients(oracle, params)
    return str(info.value)


SOURCE = HolomorphicExpansion([(Fraction(1), 1 + 0j)])
#: each sampled check that reads an oracle, mapped to the note it reports for a short read
READERS = {
    "tail": lambda oracle: _inconclusive_note(tail_bound_check(oracle, SOURCE.to_expansion(), 0)),
    "max_principle": lambda oracle: _inconclusive_note(max_principle_bound(
        oracle, 1.0, 1, halfplane_points(np.random.default_rng(4), 40, x_range=(0.5, 3.0)),
        x_lo=0.5)),
    "remainder": lambda oracle: _inconclusive_note(
        remainder_ladder(oracle, TaylorSeries.zero(2), [(1, (0.3, 0.2, 0.1))])[0]),
    "curve_check": _curve_note,
    "pipeline": _pipeline_note,
    "comparison": _comparison_note,
    "witness": _witness_note,
    "extraction": _extraction_note,
}


@pytest.mark.parametrize("how", ["value_error", "key_error", "runtime_error", "nan"])
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_reports_a_short_read_with_the_note_of_the_read(reader, how):
    oracle = FailingOracle(how)
    # a raising batch is read again point by point, with a warning
    refused = pytest.warns(RuntimeWarning, match="point by point")
    with refused if how != "nan" else contextlib.nullcontext():
        note = READERS[reader](oracle)
    assert note == oracle.note()
