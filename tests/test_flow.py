"""Fields, curves, spectrum classification, and the exact level grid."""

import cmath
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoflow import (BasePoint, DiagonalField, ExtractionParams,
                      HolomorphicExpansion, SpectrumClass, SpectrumError,
                      classify_spectrum, extract_coefficients, integral_curve,
                      level_grid, normalize_time)
from holoflow.cli import main
from holoflow.flow import LevelGrid
from holoflow.sampling import halfplane_points, polydisk_points
from holoflow.wirtinger import CIRCLE, FD_STEP

from conftest import random_interior_point, random_positive_field


def test_field_validation():
    with pytest.raises(ValueError):
        DiagonalField(())
    with pytest.raises(ValueError):
        DiagonalField((Fraction(0), Fraction(1)))
    with pytest.raises(TypeError):
        DiagonalField((0.5,))  # floats are not exact rates
    with pytest.raises(ValueError, match="double range"):
        DiagonalField((Fraction(10**400), Fraction(1, 2)))  # its eigenvalue would overflow


def test_field_accepts_fraction_strings():
    f = DiagonalField(("1/2", "-3/4"))
    assert f.rates == (Fraction(1, 2), Fraction(-3, 4))


def test_field_eigenvalues_are_kept_out_of_equality_hash_and_repr():
    f = DiagonalField(("-1/2", -3, Fraction(2, 3)))
    assert f.eigenvalues == (-0.5 + 0j, -3 + 0j, complex(2 / 3))
    assert f == DiagonalField((Fraction(-1, 2), Fraction(-3), Fraction(2, 3)))
    assert f != DiagonalField(tuple(-r for r in f.rates))
    assert hash(f) == hash((f.rates,))
    assert repr(f) == ("DiagonalField(rates=(Fraction(-1, 2), Fraction(-3, 1), "
                       "Fraction(2, 3)))")
    # replacing the rates rebuilds the eigenvalues
    assert dataclasses.replace(f, rates=(1, 3)).eigenvalues == (1 + 0j, 3 + 0j)


def test_base_point_validation():
    BasePoint((0.5, -0.5j))
    for coords in ((1.5, 0.0), (math.nan, 0.2), (0.1, complex(0.0, math.inf))):
        with pytest.raises(ValueError):
            BasePoint(coords)


def test_classify_positive_and_mixed():
    assert classify_spectrum(DiagonalField((1, 2, 3))) is SpectrumClass.POSITIVE_RATIOS
    assert classify_spectrum(DiagonalField((-1, -2))) is SpectrumClass.POSITIVE_RATIOS
    assert classify_spectrum(DiagonalField((1, -1))) is SpectrumClass.MIXED


def test_classify_is_exact_on_rates_below_double_resolution():
    # 1e-400 is 0.0 as a double, but its sign is the rate's
    tiny = Fraction(1, 10**400)
    assert classify_spectrum(DiagonalField((tiny, 1))) is SpectrumClass.POSITIVE_RATIOS
    assert classify_spectrum(DiagonalField((-tiny, 1))) is SpectrumClass.MIXED
    assert classify_spectrum(DiagonalField((-tiny, -1))) is SpectrumClass.POSITIVE_RATIOS


def test_integral_curve_on_an_array_of_times_matches_scalar_calls(rng):
    f = DiagonalField((Fraction(1, 2), Fraction(3), Fraction(-2)))
    c = random_interior_point(rng, 3)
    zetas = rng.uniform(0, 2, (4, 5)) + 1j * rng.uniform(-2, 2, (4, 5))
    points = integral_curve(f, c, zetas)
    assert points.shape == (4, 5, 3)
    for idx in np.ndindex(zetas.shape):
        assert points[idx] == pytest.approx(integral_curve(f, c, zetas[idx]), rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_broadcast_circles_equal_the_per_curve_calls(dim):
    # the (C, Z, M) circles of curve_check, in one call and in one call per curve
    rng = np.random.default_rng(400 + dim)
    f = DiagonalField(tuple(Fraction(int(r), 2) for r in rng.integers(1, 7, dim)))
    base = polydisk_points(rng, dim, 6, r_min=0.15, r_max=0.7)
    circles = halfplane_points(rng, 30).reshape(6, 5)[:, :, None] + FD_STEP * CIRCLE
    broadcast = integral_curve(f, base[:, None, None, :], circles)
    per_curve = np.stack([integral_curve(f, tuple(c), row) for c, row in zip(base, circles)])
    assert broadcast.shape == (6, 5, len(CIRCLE), dim)
    assert np.array_equal(broadcast, per_curve)


def test_integral_curve_rejects_a_base_of_the_wrong_dimension():
    f = DiagonalField((1, 2))
    for base, zeta in (((0.1, 0.2, 0.3), 0.5), (np.full((4, 1, 3), 0.1 + 0j), np.ones((4, 5)))):
        with pytest.raises(ValueError, match="base point has dimension 3, field has 2"):
            integral_curve(f, base, zeta)


def test_integral_curve_at_zero_time_is_base_point():
    f = DiagonalField((1, 2))
    c = (0.3 + 0.1j, -0.2)
    assert integral_curve(f, c, 0) == c


def test_integral_curve_exponential_arithmetic():
    f = DiagonalField((1, 2))
    z = integral_curve(f, (1, 1), math.log(2))
    assert z[0] == pytest.approx(0.5)
    assert z[1] == pytest.approx(0.25)


def test_integral_curve_mixed_signs():
    f = DiagonalField((1, -1))
    c = (0.5, 0.25j)
    zeta = 0.3 + 0.7j
    z = integral_curve(f, c, zeta)
    assert z[0] == pytest.approx(0.5 * cmath.exp(-zeta))
    assert z[1] == pytest.approx(0.25j * cmath.exp(zeta))


@settings(max_examples=50, deadline=None)
@given(st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False))
def test_flow_property(zeta1, zeta2):
    # s_c(zeta1 + zeta2) = s_{s_c(zeta1)}(zeta2)
    zeta1 = complex(zeta1.real % 3.0, zeta1.imag)
    zeta2 = complex(zeta2.real % 3.0, zeta2.imag)
    f = DiagonalField((Fraction(1, 2), Fraction(3)))
    c = (0.4 - 0.2j, 0.65)
    direct = integral_curve(f, c, zeta1 + zeta2)
    stepped = integral_curve(f, integral_curve(f, c, zeta1), zeta2)
    assert all(abs(a - b) < 1e-12 for a, b in zip(direct, stepped))


def test_curve_satisfies_field_equation(rng):
    f = DiagonalField((Fraction(2, 3), Fraction(5, 4)))
    h = 1e-6
    for _ in range(25):
        c = random_interior_point(rng, 2, 0.2, 0.8)
        zeta = complex(rng.uniform(0, 2), rng.uniform(-2, 2))
        plus = integral_curve(f, c, zeta + h)
        minus = integral_curve(f, c, zeta - h)
        here = integral_curve(f, c, zeta)
        for j, alpha in enumerate(f.eigenvalues):
            deriv = (plus[j] - minus[j]) / (2 * h)
            assert abs(deriv + alpha * here[j]) < 1e-6


def test_level_grid_integer_rates():
    g = level_grid(DiagonalField((1, 1)), 2)
    assert g.levels == (Fraction(0), Fraction(1), Fraction(2))


def test_level_grid_mixed_integer_rates():
    g = level_grid(DiagonalField((1, 2)), 3)
    assert g.levels == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))


def test_level_grid_fractional_rates():
    g = level_grid(DiagonalField((Fraction(2, 3), 1)), 2)
    expected = (Fraction(0), Fraction(2, 3), Fraction(1), Fraction(4, 3),
                Fraction(5, 3), Fraction(2))
    assert g.levels == expected


def test_level_grid_rejects_mixed_spectrum():
    with pytest.raises(SpectrumError):
        level_grid(DiagonalField((1, -1)), 2)


def test_level_grid_is_closed_under_addition(rng):
    for _ in range(10):
        field = random_positive_field(rng, int(rng.integers(1, 4)))
        g = level_grid(field, 4)
        members = set(g.levels)
        for a in g.levels:
            for b in g.levels:
                if a + b <= g.lambda_max:
                    assert a + b in members


def brute_force_levels(rates, lam_max) -> tuple:
    found = set()

    def walk(j, acc):
        if j == len(rates):
            found.add(acc)
            return
        while acc <= lam_max:
            walk(j + 1, acc)
            acc += rates[j]

    walk(0, Fraction(0))
    return tuple(sorted(found))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(Fraction(1, 4), 4, max_denominator=4), min_size=1, max_size=3),
       st.fractions(Fraction(1, 6), 5, max_denominator=6))
@example([Fraction(2, 3), Fraction(3, 2)], Fraction(4))
@example([Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)], Fraction(3))
@example([Fraction(3, 2), Fraction(2)], Fraction(1))
def test_level_grid_matches_brute_force(rates, lam_max):
    assert level_grid(DiagonalField(tuple(rates)), lam_max).levels == \
        brute_force_levels(rates, lam_max)


def test_level_grid_carries_its_lattice():
    levels = (Fraction(0), Fraction(2, 3), Fraction(1), Fraction(4, 3))
    g = LevelGrid(rates=(Fraction(2, 3), 1), lambda_max="4/3", levels=levels)
    assert all(a is b for a, b in zip(g.levels, levels))  # Fractions are kept, not re-wrapped
    assert g.q == 3 and g.steps.tolist() == [0, 2, 3, 4] and g.steps.dtype == np.int64
    assert not g.steps.flags.writeable
    assert g == LevelGrid((Fraction(2, 3), Fraction(1)), Fraction(4, 3), ("0", "2/3", 1, "4/3"))
    assert hash(g) == hash((g.rates, g.lambda_max, g.levels))
    assert "steps" not in repr(g) and "q=" not in repr(g)
    assert LevelGrid((1,), 1, ()).q == 1 and LevelGrid((1,), 1, ()).steps.tolist() == []


def _lookup_value(value, form):
    """The Fraction ``value`` as an int, a 'p/q' string, a float or itself."""
    if form == "int" and value.denominator == 1:
        return int(value)
    if form == "str":
        return f"{value.numerator}/{value.denominator}"
    if form == "float" and value.denominator & (value.denominator - 1) == 0:
        return float(value)  # dyadic, so exact: 0.5, 0.25, 3.0
    return value


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(Fraction(1, 13), 3, max_denominator=13), min_size=1, max_size=3),
       st.fractions(Fraction(1, 12), 4, max_denominator=12),
       st.lists(st.tuples(st.fractions(-2, 6, max_denominator=30),
                          st.sampled_from(["fraction", "int", "str", "float"])),
                min_size=1, max_size=20))
@example([Fraction(1, 2)], Fraction(3), [(Fraction(1, 2), "float"), (Fraction(7, 2), "str"),
                                          (Fraction(-1, 2), "float"), (Fraction(1, 3), "str"),
                                          (Fraction(3), "int"), (Fraction(4), "int")])
def test_grid_membership_equals_the_set_answer(rates, lam_max, values):
    g = level_grid(DiagonalField(tuple(rates)), lam_max)
    members = set(g.levels)
    on_grid = [(lvl, "fraction") for lvl in g.levels[:5] + g.levels[-5:]]
    for value, form in values + on_grid:
        value = _lookup_value(value, form)
        assert (value in g) == (Fraction(value) in members), value


def test_grid_membership_rejects_what_fraction_rejects():
    g = level_grid(DiagonalField((Fraction(1, 2),)), 3)
    assert 0.5 in g and "3/2" in g and 3 in g and "1/3" not in g and 0.1 not in g
    for bad, error in (("x", ValueError), (math.nan, ValueError), (math.inf, OverflowError),
                       (1 + 0j, TypeError)):
        with pytest.raises(error):
            bad in g  # noqa: B015


def test_level_grid_refuses_an_oversized_lattice():
    field = DiagonalField((Fraction(1, 101), Fraction(1, 103), Fraction(1, 107)))
    with pytest.raises(ValueError, match="MAX_LATTICE"):
        level_grid(field, 3)


def test_equal_arguments_share_one_grid_equal_to_a_fresh_build():
    level_grid.cache_clear()
    g = level_grid(DiagonalField((Fraction(2, 3), 1)), 4)
    assert level_grid(DiagonalField(("2/3", "1")), 4) is g  # an equal field, built again
    assert level_grid.cache_info()[:2] == (1, 1)  # hits, misses
    fresh = level_grid.__wrapped__(DiagonalField((Fraction(2, 3), 1)), 4)
    assert fresh is not g
    for f in dataclasses.fields(LevelGrid):
        mine, theirs = getattr(g, f.name), getattr(fresh, f.name)
        if f.name == "steps":
            assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist()
        else:
            assert type(mine) is type(theirs) and mine == theirs, f.name


def test_shared_grid_cannot_be_changed():
    level_grid.cache_clear()
    g = level_grid(DiagonalField((Fraction(1, 2),)), 3)
    for f in dataclasses.fields(LevelGrid):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, f.name, getattr(g, f.name))
    with pytest.raises(ValueError, match="read-only"):
        g.steps[0] = 1
    assert level_grid(DiagonalField((Fraction(1, 2),)), 3).steps.tolist() == list(range(7))


def test_a_cached_int_cutoff_does_not_answer_a_float_one():
    level_grid.cache_clear()
    field = DiagonalField((1, 2))
    grid = level_grid(field, 3)
    with pytest.raises(TypeError, match="not float"):
        level_grid(field, 3.0)  # 3.0 == 3 and hashes alike: an untyped cache would answer it
    assert level_grid(field, 3) is grid and level_grid.cache_info().currsize == 1


@pytest.mark.parametrize("rates, lam_max, error, match", [
    ((1, -1), 2, SpectrumError, "positive-ratio"),
    ((Fraction(1, 101), Fraction(1, 103), Fraction(1, 107)), 3, ValueError, "MAX_LATTICE"),
])
def test_level_grid_errors_are_raised_again_not_cached(rates, lam_max, error, match):
    level_grid.cache_clear()
    for _ in range(2):
        with pytest.raises(error, match=match):
            level_grid(DiagonalField(rates), lam_max)
    assert level_grid.cache_info().currsize == 0


def test_extraction_on_the_shared_grid_equals_extraction_on_a_fresh_one(rng):
    level_grid.cache_clear()
    field = DiagonalField((Fraction(1, 2), Fraction(1, 3)))
    shared = level_grid(field, 3)
    assert level_grid(field, 3) is shared
    fresh = level_grid.__wrapped__(field, 3)
    source = HolomorphicExpansion([(lvl, complex(*rng.normal(size=2)))
                                   for lvl in shared.levels[::2]])
    a = extract_coefficients(source, ExtractionParams(grid=shared)).pairs()
    b = extract_coefficients(source, ExtractionParams(grid=fresh)).pairs()
    assert [(lvl, c.real.hex(), c.imag.hex()) for lvl, c in a] == \
        [(lvl, c.real.hex(), c.imag.hex()) for lvl, c in b]


def test_two_cli_runs_in_one_process_build_the_extraction_grid_once(tmp_path):
    level_grid.cache_clear()
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "extraction_demo.txt"
    reports = []
    for run in ("first", "second"):
        assert main(["run", str(scenario), "--out", str(tmp_path / run)]) == 0
        text = (tmp_path / run / "report.json").read_text()
        reports.append([line for line in text.splitlines() if '"timestamp"' not in line])
    info = level_grid.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert reports[0] == reports[1]


def test_normalize_time_sign_flip():
    nf, factor = normalize_time(DiagonalField((-1, -2)))
    assert nf == DiagonalField((1, 2))
    assert factor == -1


def test_normalize_time_identity():
    f = DiagonalField((Fraction(1, 2), Fraction(3, 2)))
    nf, factor = normalize_time(f)
    assert nf == f
    assert factor == 1


def test_normalize_time_rejects_mixed():
    with pytest.raises(SpectrumError):
        normalize_time(DiagonalField((1, -1)))


def test_normalized_field_classifies_positive(rng):
    for _ in range(10):
        f = random_positive_field(rng, 2)
        flipped = DiagonalField(tuple(-r for r in f.rates))
        nf, _ = normalize_time(flipped)
        assert classify_spectrum(nf) is SpectrumClass.POSITIVE_RATIOS
        assert nf == f


def test_normalize_factor_maps_curves(rng):
    # old curve at zeta equals canonical curve at factor * zeta
    f = DiagonalField((-2, -3))
    nf, factor = normalize_time(f)
    assert factor == -1
    for _ in range(10):
        c = random_interior_point(rng, 2, 0.2, 0.8)
        zeta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        old = integral_curve(f, c, zeta)
        new = integral_curve(nf, c, factor * zeta)
        assert all(abs(a - b) < 1e-12 for a, b in zip(old, new))
