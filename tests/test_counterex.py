"""The two flat counterexamples and the rigid-rotation example."""

import cmath
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow import counterex
from holoflow import (BranchSearchError, ResonantExample, SpiralExample,
                      branch_power, choose_branch_exponent,
                      counterexample_suite, phi_resonant, phi_spiral,
                      sector_angles, spiral_curve, verify_time_identity)
from holoflow.counterex import sector_samples
from holoflow.forelli import FD_STEP
from holoflow.sampling import polydisk_points
from holoflow.series import (N_DIRECTIONS, TaylorSeries, _direction_set, remainder_ladder,
                             taylor_remainder_check)
from holoflow.wirtinger import CIRCLE, dbar_fd


def test_phi_resonant_zero_extension():
    ex = ResonantExample(1.0)
    assert phi_resonant(ex, (0.0, 0.5 + 0.2j)) == 0.0
    assert phi_resonant(ex, (0.3, 0.0)) == 0.0


def test_phi_resonant_direct_value():
    ex = ResonantExample(1.0)
    r = 1.0 / math.e
    assert phi_resonant(ex, (r, r)) == pytest.approx(math.exp(-math.e ** 2))


def test_phi_resonant_depends_only_on_moduli():
    ex = ResonantExample(0.7)
    a = phi_resonant(ex, (0.4, 0.3))
    b = phi_resonant(ex, (0.4 * cmath.exp(2j), 0.3 * cmath.exp(-0.5j)))
    assert a == pytest.approx(b)


def test_resonant_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        ResonantExample(0.0)


def test_sector_angles_reference_case():
    lo, hi = sector_angles(-1 + 1j)
    assert lo == pytest.approx(-math.pi / 4)
    assert hi == pytest.approx(math.pi / 4)


def test_choose_branch_reference_case():
    b, k = choose_branch_exponent(-1 + 1j)
    assert k == 1
    assert b == pytest.approx(1.5, abs=2e-3)


def test_choose_branch_rejects_bad_alpha():
    with pytest.raises(ValueError):
        choose_branch_exponent(1 + 1j)
    with pytest.raises(ValueError):
        choose_branch_exponent(-1 + 0j)


def test_branch_power_negative_on_sector(rng):
    ex = SpiralExample.create(-1 + 1j, 1.0)
    for xi in sector_samples(ex, rng, 10_000):
        assert branch_power(ex, xi).real < 0


def test_branch_power_respects_offset():
    ex = SpiralExample.create(-1 + 1j, 1.0)
    xi = 2.0 + 0j  # on the sector axis: arg 0, shifted by 2 pi k
    expected = (2.0 ** ex.b) * cmath.exp(1j * ex.b * 2 * math.pi * ex.branch_offset)
    assert branch_power(ex, xi) == pytest.approx(expected)


def test_time_identity_examples():
    ex = SpiralExample.create(-1 + 1j, 1.0)
    assert verify_time_identity(ex, [0.0]).passed
    assert verify_time_identity(ex, [1.0]).passed
    rng = np.random.default_rng(7)
    zetas = [complex(x, y) for x, y in zip(rng.uniform(-10, 10, 100),
                                           rng.uniform(-10, 10, 100))]
    report = verify_time_identity(ex, zetas)
    assert report.passed and report.max_error < 1e-12


def test_time_identity_other_parameters():
    ex = SpiralExample.create(-2 + 0.5j, 3.0)
    rng = np.random.default_rng(8)
    zetas = [complex(x, y) for x, y in zip(rng.uniform(-5, 5, 50),
                                           rng.uniform(-5, 5, 50))]
    assert verify_time_identity(ex, zetas).passed


def test_phi_spiral_zero_extension_and_smallness():
    ex = SpiralExample.create(-1 + 1j, 1.0)
    assert phi_spiral(ex, (0.0, 0.4)) == 0
    value = phi_spiral(ex, (0.5, 0.5))
    assert 0 < abs(value) < 1


def test_phi_spiral_argument_moves_by_curve_time():
    # phi on the curve equals exp((zeta + xi_C)^b) on the fixed branch
    ex = SpiralExample.create(-1 + 1j, 1.0)
    C = (0.3, 0.25)
    xi_c = ex.gamma * math.log(abs(C[0])) + (ex.gamma.conjugate() / ex.t) * math.log(abs(C[1]))
    for zeta in (0.0j, 0.2 + 0.1j, -0.15 - 0.2j):
        z = spiral_curve(ex, C, zeta)
        direct = phi_spiral(ex, z)
        via_identity = cmath.exp(branch_power(ex, xi_c + zeta))
        assert direct == pytest.approx(via_identity, rel=1e-9)


def test_spiral_curve_restriction_is_holomorphic(rng):
    ex = SpiralExample.create(-1 + 1j, 1.0)
    worst = 0.0
    for _ in range(100):
        C = (rng.uniform(0.15, 0.4) * cmath.exp(2j * math.pi * rng.uniform()),
             rng.uniform(0.15, 0.4) * cmath.exp(2j * math.pi * rng.uniform()))
        r = rng.uniform(0.0, 0.4)
        th = rng.uniform(0.0, 2 * math.pi)
        zeta = r * cmath.exp(1j * th)

        def along(w):
            return phi_spiral(ex, spiral_curve(ex, C, w))

        value = along(zeta)
        worst = max(worst, abs(dbar_fd(along, zeta)) / (1 + abs(value)))
    assert worst < 1e-6


def test_spiral_curve_broadcasts_like_the_per_curve_calls(rng):
    ex = SpiralExample.create(-1 + 1j, 1.0)
    base = polydisk_points(rng, 2, 10, r_min=0.15, r_max=0.4)
    zetas = rng.uniform(-0.4, 0.4, (10, 10)) + 1j * rng.uniform(-0.4, 0.4, (10, 10))
    circles = zetas[:, :, None] + FD_STEP * CIRCLE
    broadcast = spiral_curve(ex, base[:, None, None, :], circles)
    per_curve = np.stack([spiral_curve(ex, tuple(c), row) for c, row in zip(base, circles)])
    assert broadcast.shape == (10, 10, len(CIRCLE), 2)
    assert np.array_equal(broadcast, per_curve)
    # one base point, as a tuple or a row, and a scalar zeta give a tuple
    assert spiral_curve(ex, base[0], 0.1j) == spiral_curve(ex, tuple(base[0]), 0.1j)
    assert isinstance(spiral_curve(ex, base[0], 0.1j), tuple)


def test_spiral_is_not_holomorphic_in_z():
    ex = SpiralExample.create(-1 + 1j, 1.0)

    def slice_z1(w):
        return phi_spiral(ex, (w, 0.5))

    assert abs(dbar_fd(slice_z1, 0.5 + 0j)) > 1e-3


@pytest.mark.parametrize("which", ["resonant", "spiral", "remark"])
def test_suite_bundles_pass(which):
    report = counterexample_suite(which, seed=11)
    assert report.passed, report.checks
    assert all(c["passed"] for c in report.checks.values())


def test_suite_resonant_checks_present():
    report = counterexample_suite("resonant", t=1, seed=2)
    assert set(report.checks) == {"curve_holomorphy", "non_holomorphy_witness",
                                  "zero_jet_remainder", "first_integral_constancy"}
    assert report.checks["non_holomorphy_witness"]["residual"] > 1e-3


def test_suite_resonant_other_t():
    report = counterexample_suite("resonant", t=Fraction(1, 2), seed=4)
    assert report.passed


def test_resonant_suite_reports_equal_across_runs_of_one_process():
    # the second run reads the cached remainder direction sets of the first
    first = counterexample_suite("resonant").to_json_dict()
    assert counterexample_suite("resonant").to_json_dict() == first


def test_suite_spiral_reports_branch_data():
    report = counterexample_suite("spiral", seed=1)
    assert float(report.params["b"]) > 1
    assert report.checks["time_identity"]["max_error"] < 1e-12
    assert report.checks["sector_negativity"]["samples"] == 10_000


def test_suite_remark_documents_necessity():
    report = counterexample_suite("remark", seed=9)
    assert report.checks["jet_antiholomorphic"]["passed"]
    assert report.checks["pipeline_verdict"]["tag"] == "hypothesis_violated"


def test_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        counterexample_suite("moebius")


@pytest.mark.parametrize("t", [0, 31, Fraction(61, 2), 1e300, math.inf, math.nan])
def test_resonant_suite_rejects_t_beyond_its_sampling_window(t):
    # Re zeta of the curve samples runs over [0.02, 0.6 / t], empty beyond t = 30
    with pytest.raises(ValueError, match=r"resonant t must be in \(0, 30\]"):
        counterexample_suite("resonant", t=t)


def test_suite_zero_jet_decay_reports_cover_orders():
    report = counterexample_suite("spiral", seed=5)
    for n in range(1, 9):
        rep = report.decay_reports[f"zero_jet_order_{n}"]
        assert rep.passed
        assert rep.values[-1] <= 1e-8


ZERO_JET_SUITES = [("resonant", {"t": Fraction(1, 2)}), ("spiral", {"alpha": -0.6 + 1.2j})]


def zero_jet_ladder(monkeypatch, which, kwargs):
    """The oracle and the eight rungs that the named suite's zero-jet check reads."""
    real, seen = counterex.remainder_ladder, []
    monkeypatch.setattr(counterex, "remainder_ladder", lambda oracle, series, ladder, **kw:
                        seen.append((oracle, ladder)) or real(oracle, series, ladder, **kw))
    counterexample_suite(which, **kwargs)
    monkeypatch.undo()
    [(oracle, ladder)] = seen
    assert [n for n, _radii in ladder] == list(range(1, 9))
    return oracle, ladder


@pytest.mark.parametrize("which, kwargs", ZERO_JET_SUITES)
def test_zero_jet_ladder_equals_one_check_per_order(monkeypatch, which, kwargs):
    oracle, ladder = zero_jet_ladder(monkeypatch, which, kwargs)
    zero = TaylorSeries.zero(2)
    reports = remainder_ladder(oracle, zero, ladder)
    assert reports == [taylor_remainder_check(oracle, zero, n, radii) for n, radii in ladder]
    assert all(rep.passed for rep in reports)


@pytest.mark.filterwarnings("ignore:oracle rejected a batch")
@pytest.mark.parametrize("failure", ["raises", "nan"])
def test_a_read_stopped_in_rung_three_gives_the_reports_of_separate_checks(monkeypatch,
                                                                          failure):
    example, ladder = zero_jet_ladder(monkeypatch, *ZERO_JET_SUITES[0])
    bad = tuple((ladder[2][1][2] * _direction_set(2)[3]).tolist())  # rung 3, radius 3

    def value(point):  # one point at a time, so a batch and a point-by-point read agree
        if point == bad:
            if failure == "raises":
                raise RuntimeError("no data here")
            return math.nan
        return example(point)

    def oracle(z):
        return value(z) if isinstance(z, tuple) else np.array([value(p) for p in
                                                               map(tuple, z.tolist())])

    zero = TaylorSeries.zero(2)
    reports = remainder_ladder(oracle, zero, ladder)
    assert reports == [taylor_remainder_check(oracle, zero, n, radii) for n, radii in ladder]
    assert [rep.verdict for rep in reports] == ["pass"] * 2 + ["inconclusive"] + ["pass"] * 5
    assert reports[2].witness == bad and len(reports[2].values) == 2
    assert reports[2].note == ("oracle failed: no data here" if failure == "raises"
                               else f"non-finite oracle value at {bad}")


def test_zero_jet_check_reads_its_oracle_once():
    ex, calls = ResonantExample(0.5), []

    def oracle(z):
        calls.append(len(z))
        return ex(z)

    def log_ratio(v, n):  # the resonant suite's, at t = 1/2
        e = v * 1.5
        return n * v - (math.exp(e) if e < 700.0 else math.inf)

    decay = {}
    assert counterex._zero_jet_check(oracle, log_ratio, decay)["passed"]
    assert calls == [8 * 5 * N_DIRECTIONS] == [240]
    assert sorted(decay) == [f"zero_jet_order_{n}" for n in range(1, 9)]


def reference_zero_jet_radii(log_ratio, n, tol, v_cap=640.0, points=5):
    """counterex._zero_jet_radii with all 80 halvings in each bisection, however
    many of them move the bracket."""
    target_end = math.log(tol) - 5.0

    def bisect(target, v_lo, v_hi):
        for _ in range(80):
            mid = 0.5 * (v_lo + v_hi)
            if log_ratio(mid, n) > target:
                v_lo = mid
            else:
                v_hi = mid
        return v_hi

    step = 0.25
    v = step
    best = log_ratio(v, n)
    while v < v_cap and log_ratio(v + step, n) >= best:
        v += step
        best = log_ratio(v, n)
        step *= 1.3
    v_hump = v
    v_end_hi = v_hump
    while v_end_hi < v_cap and log_ratio(v_end_hi, n) > target_end:
        v_end_hi = min(v_cap, v_end_hi * 1.5 + 0.5)
    if log_ratio(v_end_hi, n) > target_end:
        raise ValueError(f"order-{n} remainder cannot be certified within double range")
    v_end = bisect(target_end, v_hump, v_end_hi)
    v_start = v_hump if log_ratio(v_hump, n) <= 5.0 else bisect(5.0, v_hump, v_end)
    v_end = max(v_end, 1.2 * v_start + 0.5)
    return [math.exp(-v) for v in np.linspace(v_start, v_end, points)]


def counting(log_ratio, counter):
    def counted_log_ratio(v, n):
        counter.append(v)
        return log_ratio(v, n)
    return counted_log_ratio


@pytest.mark.parametrize("which, kwargs", [("resonant", {"t": Fraction(3, 2)}),
                                           ("spiral", {"alpha": -0.5 + 2j, "t": 0.5}),
                                           ("spiral", {}),
                                           ("resonant", {"t": 1})])
def test_zero_jet_radii_equal_those_of_the_80_step_bisection(monkeypatch, which, kwargs):
    real, calls = counterex._zero_jet_radii, []
    monkeypatch.setattr(counterex, "_zero_jet_radii",
                        lambda log_ratio, n, tol: calls.append((log_ratio, n, tol))
                        or real(log_ratio, n, tol))
    counterexample_suite(which, **kwargs)
    assert [n for _, n, _ in calls] == list(range(1, 9))
    early, full = 0, 0
    for log_ratio, n, tol in calls:
        order_early, order_full = [], []
        assert real(counting(log_ratio, order_early), n, tol) \
            == reference_zero_jet_radii(counting(log_ratio, order_full), n, tol)
        assert len(set(order_early)) == len(order_early)  # no point is read twice
        early, full = early + len(order_early), full + len(order_full)
    assert early < full


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(1e-3, 1e3), st.floats(0.0, 50.0),
       st.floats(-20.0, 60.0), st.sampled_from([1e-12, 1e-8, 1e-3]), st.booleans())
def test_zero_jet_radii_equal_the_80_step_ones_on_monotone_functions(power, scale, rise,
                                                                    offset, tol, steps):
    def log_ratio(v, n):  # a hump, then decreasing in v; floor makes plateaus
        value = offset + rise * math.log1p(v) - scale * v ** power + n
        return math.floor(value) if steps else value

    try:
        expected = reference_zero_jet_radii(log_ratio, 3, tol)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            counterex._zero_jet_radii(log_ratio, 3, tol)
    else:
        assert counterex._zero_jet_radii(log_ratio, 3, tol) == expected


def test_infinite_order_vanishing_on_fixed_slice_resonant():
    # z2 pinned, z1 -> 0: the fitted decay exponent exceeds every n <= 8
    ex = ResonantExample(1.0)
    rs = np.array([0.2, 0.15, 0.1, 0.08, 0.05])
    vals = np.array([phi_resonant(ex, (r, 0.5)) for r in rs])
    slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
    assert slope > 8.0


def test_infinite_order_vanishing_on_fixed_slice_spiral():
    # along z2 = const the decay constant comes from the sector edge, so the
    # exponent grows like u^(b-1) but only reaches ~4-5 before |phi|
    # underflows; certify growth and the largest honestly reachable order
    # (the diagonal slice, used by the zero-jet checks, reaches order 8)
    ex = SpiralExample.create(-1 + 1j, 1.0)
    exponents = []
    for u_lo, u_hi in ((20, 50), (60, 100), (120, 200)):
        us = np.linspace(u_lo, u_hi, 5)
        vals = [abs(phi_spiral(ex, (math.exp(-u), 0.5))) for u in us]
        assert all(v > 0 for v in vals)  # stay above underflow for honesty
        exponents.append(np.polyfit([-u for u in us], np.log(vals), 1)[0])
    assert exponents[0] < exponents[1] < exponents[2]
    assert exponents[2] > 4.0


def test_branch_search_fails_for_nearly_degenerate_sector():
    # Im alpha tiny relative to Re alpha: the cone width approaches pi and no
    # exponent above 1 keeps its image inside a half-turn
    with pytest.raises(BranchSearchError):
        choose_branch_exponent(-1 + 0.001j)


@pytest.mark.parametrize("make, phi", [
    (lambda: ResonantExample(0.7), phi_resonant),
    (lambda: SpiralExample.create(-1 + 1j, 1.0), phi_spiral),
], ids=["resonant", "spiral"])
def test_example_is_its_own_oracle(rng, make, phi):
    ex = make()
    point = (0.4 + 0.1j, 0.3 - 0.2j)
    assert ex(point) == phi(ex, point)
    batch = np.array(point) * rng.uniform(0.5, 1.5, size=(7, 2))
    batch[3, 0] = 0.0  # a point of the zero extension
    values = ex(batch)
    assert values.shape == (7,)
    np.testing.assert_array_equal(values, phi(ex, batch))


def _scalar_branch_scan(alpha, b_step=1e-3, b_max=4.0, k_max=3):
    """The point-by-point scan that choose_branch_exponent vectorizes."""
    lo0, hi0 = sector_angles(alpha)
    n_steps = int(round((b_max - 1.0) / b_step))
    for k in range(k_max + 1):
        lo_k, hi_k = lo0 + 2 * math.pi * k, hi0 + 2 * math.pi * k
        best = None
        for i in range(1, n_steps + 1):
            b = 1.0 + i * b_step
            lo, hi = b * lo_k, b * hi_k
            if hi - lo >= math.pi:
                break
            j = round(((lo + hi) / 2.0 - math.pi) / (2 * math.pi))
            margin = min(lo - (0.5 * math.pi + 2 * math.pi * j),
                         (1.5 * math.pi + 2 * math.pi * j) - hi)
            if margin > 0 and (best is None or margin > best[0]):
                best = (margin, b)
        if best is not None:
            return best[1], k
    raise BranchSearchError("no branch")


def test_branch_search_matches_the_scalar_scan():
    outcomes = set()
    for re in np.linspace(-3.0, -0.05, 13):
        for im in np.linspace(0.02, 3.0, 13):
            alpha = complex(re, im)
            try:
                expected = _scalar_branch_scan(alpha)
            except BranchSearchError:
                with pytest.raises(BranchSearchError):
                    choose_branch_exponent(alpha)
                outcomes.add("error")
                continue
            assert choose_branch_exponent(alpha) == expected, alpha
            outcomes.add(expected[1])
    assert "error" in outcomes and len(outcomes) >= 3  # errors and several shifts k


def test_time_identity_takes_an_array_and_names_the_worst_zeta():
    ex = SpiralExample.create(-2 + 0.5j, 3.0)
    rng = np.random.default_rng(3)
    zetas = rng.uniform(-10, 10, 50) + 1j * rng.uniform(-10, 10, 50)
    assert verify_time_identity(ex, zetas).passed
    assert verify_time_identity(ex, np.zeros(3), tol=0.0).witness is None
    # a wrong gamma breaks the identity by O(1): the witness is the scalar argmax
    broken = SimpleNamespace(alpha=ex.alpha, beta=ex.beta, t=ex.t, gamma=1.1 * ex.gamma)
    g = broken.gamma
    errors = [abs(g * (ex.alpha * z).real + (g.conjugate() / ex.t) * (ex.beta * z).real - z)
              for z in zetas.tolist()]
    report = verify_time_identity(broken, zetas, tol=0.0)
    assert not report.passed and report.witness == zetas[int(np.argmax(errors))]
    assert report.max_error == pytest.approx(max(errors), rel=1e-12)
