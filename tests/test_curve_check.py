"""curve_check against the per-(curve, zeta) construction it replaces.

The reference below builds the circles the direct way: the shared zetas are
broadcast to one row per curve before the curve is called, so every curve
computes its own exponentials; every base point goes through ``_coords``;
and every circle point is tested with |w| >= 1.  curve_check must give an
equal report (or the same ValueError text) on every input.
"""

from functools import partial

import numpy as np
import pytest

from holoflow import BasePoint, DiagonalField, eval_taylor, integral_curve
from holoflow.counterex import ResonantExample
from holoflow.flow import _coords
from holoflow.forelli import FD_TOL, CurveCheckReport, curve_check
from holoflow.sampling import evaluate_prefix, halfplane_points, polydisk_points
from holoflow.wirtinger import CIRCLE, FD_STEP, dbar_circle

from conftest import random_jet, random_positive_field


def reference_curve_check(oracle, curve, curves, zeta_samples, *, tol=FD_TOL):
    if not len(curves):
        return CurveCheckReport(True, 0.0)
    base = np.array([_coords(c) for c in curves])
    zetas = np.asarray(zeta_samples, dtype=complex)
    zetas = np.broadcast_to(zetas, (len(base), zetas.shape[-1]))
    circles = curve(base[:, None, None, :], zetas[:, :, None] + FD_STEP * CIRCLE)
    width = len(CIRCLE)
    flat = circles.reshape(-1, circles.shape[-1])
    outside = np.flatnonzero(np.any(np.abs(flat) >= 1.0, axis=1))
    reach = outside[0] if len(outside) else len(flat)

    def sample(i):
        c, j = divmod(int(i), zetas.shape[1])
        return tuple(base[c].tolist()), complex(zetas[c, j])

    values, note = evaluate_prefix(oracle, flat[:reach])
    done = len(values) // width
    mean, dbar = dbar_circle(values[: done * width].reshape(done, width))
    scaled = np.abs(dbar) / (1.0 + np.abs(mean))
    bad = np.flatnonzero(~np.isfinite(scaled))
    scored = scaled[: bad[0] if len(bad) else done]
    worst, witness = 0.0, None
    if len(scored) and scored.max() > 0.0:
        i = int(np.argmax(scored))
        worst, witness = float(scored[i]), sample(i)
    if len(bad):
        return CurveCheckReport(False, worst, witness=sample(bad[0]),
                                inconclusive=True, note="non-finite residual")
    if len(values) < reach:
        return CurveCheckReport(False, worst, sample(done), inconclusive=True, note=note)
    if reach < len(flat):
        (c, zeta), offset = sample(reach // width), CIRCLE[reach % width]
        raise ValueError(f"curve through {c} leaves the polydisk at zeta = "
                         f"{complex(zeta + FD_STEP * offset)}")
    passed = worst < tol
    return CurveCheckReport(passed, worst, witness=None if passed else witness)


def assert_same(oracle, curve, curves, zetas):
    """curve_check's report (or ValueError text), asserted equal to the reference's."""
    out = []
    for check in (curve_check, reference_curve_check):
        try:
            out.append(check(oracle, curve, curves, zetas))
        except ValueError as exc:
            out.append(f"ValueError: {exc}")
    assert out[0] == out[1]
    return out[0]


def curve_sets(rng, dim, n):
    """The same base points as an array, a list of BasePoints and a list of tuples."""
    base = polydisk_points(rng, dim, n, r_min=0.15, r_max=0.7)
    return base, [BasePoint(c) for c in base.tolist()], [tuple(c) for c in base.tolist()]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_random_fields_and_jets_give_the_reference_report(rng, dim):
    seen = set()
    for _ in range(6):
        field = random_positive_field(rng, dim)
        curve = partial(integral_curve, field)
        shared = halfplane_points(rng, 7, x_range=(0.1, 2.0), y_range=(-2.0, 2.0))
        for mixed in (False, True):
            jet = random_jet(rng, dim, 4, 5, mixed=mixed)
            oracle = lambda z, s=jet: eval_taylor(s, z)
            for curves in curve_sets(rng, dim, 5):
                per_curve = halfplane_points(rng, 5 * 6, x_range=(0.1, 2.0)).reshape(5, 6)
                for zetas in (shared, per_curve):
                    report = assert_same(oracle, curve, curves, zetas)
                    seen.add(report.passed)
    assert seen == {True, False}


def test_resonant_oracle_gives_the_reference_report(rng):
    field = DiagonalField((1, 2))
    for curves in curve_sets(rng, 2, 8):
        zetas = halfplane_points(rng, 12, x_range=(0.1, 2.0))
        report = assert_same(ResonantExample(1.0), partial(integral_curve, field), curves, zetas)
        assert report.max_residual > 0.0


def test_no_curves_give_the_reference_report():
    field = DiagonalField((1, 2))
    new = assert_same(np.conj, partial(integral_curve, field), [], [0.5 + 0j])
    assert new == CurveCheckReport(True, 0.0)


@pytest.mark.parametrize("row", [0, 7, 101, 383])
def test_a_nan_value_gives_the_reference_note_and_witness(rng, row):
    jet = random_jet(rng, 2, 3, 4, mixed=False)

    def oracle(z):
        values = eval_taylor(jet, z)
        values[row] = np.nan
        return values

    curve = partial(integral_curve, DiagonalField((1, 2)))
    base, points, _ = curve_sets(rng, 2, 4)
    for curves in (base, points):
        report = assert_same(oracle, curve, curves, halfplane_points(rng, 24))
        assert report.inconclusive and report.note.startswith("non-finite oracle value at (")


def test_an_overflowing_residual_gives_the_reference_report(rng):
    curve = partial(integral_curve, DiagonalField((1, 1)))
    # finite values of modulus 1.5e308 whose phase turns fast: circle sums overflow
    report = assert_same(lambda z: 1.5e308 * np.exp(1e6j * z[:, 0].real), curve,
                         curve_sets(rng, 2, 3)[0], halfplane_points(rng, 5))
    assert report.inconclusive and report.note == "non-finite residual"


def test_a_failing_oracle_gives_the_reference_report(rng):
    def oracle(z):
        raise RuntimeError("sensor gap")

    curve = partial(integral_curve, DiagonalField((1, 1)))
    with pytest.warns(RuntimeWarning):
        report = assert_same(oracle, curve, curve_sets(rng, 2, 3)[1], halfplane_points(rng, 5))
    assert report.note == "oracle failed: sensor gap"


@pytest.mark.parametrize("rates", [(-1,), (1, -1), (2, 1, -1), (1, -1, 2, -3)])
def test_an_escaping_curve_gives_the_reference_error(rng, rates):
    curve = partial(integral_curve, DiagonalField(rates))  # negative rates grow with Re zeta
    dim = len(rates)
    jet = random_jet(rng, dim, 3, 4, mixed=False)
    oracle = lambda z: eval_taylor(jet, z)
    messages = set()
    for _ in range(10):
        for curves in curve_sets(rng, dim, 6):
            zetas = halfplane_points(rng, 9, x_range=(0.0, 1.5))
            new = assert_same(oracle, curve, curves, zetas)
            if isinstance(new, str):
                assert "leaves the polydisk at zeta = " in new
                messages.add(new)
    assert len(messages) > 1


def rotation(c, w):
    """Points c_j e^(i Re w): only rounding moves their moduli."""
    return c * np.exp(1j * np.multiply.outer(w.real, np.ones(c.shape[-1])))


@pytest.mark.parametrize("ulps", [0, 1, 2, 3, 4, 8])
def test_points_within_a_few_ulp_of_the_unit_circle(rng, ulps):
    # |c| = 1 - ulps * 2^-53 rotated: some circle points round to |w| >= 1,
    # others stay below 1 with |w|^2 inside the prefilter's 1e-12 margin
    modulus = 1.0 - ulps * 2.0**-53
    outcomes = set()
    for _ in range(20):
        phases = rng.uniform(0.0, 2.0 * np.pi, (3, 2))
        base = np.array([[modulus, 0.3]]) * np.exp(1j * phases)
        zetas = halfplane_points(rng, 5)
        for curves in (base, [tuple(c) for c in base.tolist()]):
            new = assert_same(lambda z: z[:, 0] * z[:, 1], rotation, curves, zetas)
            outcomes.add(isinstance(new, str))
    if ulps == 0:
        assert outcomes == {True}
    elif ulps >= 4:
        assert outcomes == {False}
