"""Jet arithmetic, Wirtinger derivative, and remainder checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow import (MultiIndex, TaylorSeries, antiholomorphic_part,
                      eval_taylor, holomorphic_part, taylor_remainder_check,
                      wirtinger_F_derivative)
from holoflow.flow import level_of
from holoflow.reports import fitted_decay_rate
from holoflow.series import DIRECTION_SEED, N_DIRECTIONS, _direction_set, level_sums
from holoflow.wirtinger import CIRCLE, dbar_circle, dbar_fd

from conftest import random_interior_point, random_jet, random_positive_field


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_eval_on_a_batch_matches_single_points(rng, dim):
    for _ in range(5):
        s = random_jet(rng, dim, 5, 6)
        points = np.array([random_interior_point(rng, dim) for _ in range(9)])
        batch = eval_taylor(s, points)
        assert batch.shape == (9,)
        for z, value in zip(points, batch):
            single = eval_taylor(s, tuple(z))
            direct = sum(a * math.prod(complex(zj) ** kj * complex(zj).conjugate() ** mj
                                       for zj, kj, mj in zip(z, k, m))
                         for (k, m), a in s.terms().items())
            assert isinstance(single, complex)
            assert value == pytest.approx(single, rel=1e-12, abs=1e-14)
            assert value == pytest.approx(direct, rel=1e-12, abs=1e-14)


def term_by_term(s, z, order):
    """Reference partial sum over the coefficient map, in the kernel's product order."""
    zs = np.asarray(z, dtype=complex)
    cols = zs.tolist() if zs.ndim == 1 else list(zs.T)
    total = 0j if zs.ndim == 1 else np.zeros(len(zs), dtype=complex)
    for (k, m), a in s.terms().items():
        if k.order + m.order <= order:
            value = 1 + 0j
            for zj, kj, mj in zip(cols, k, m):
                if kj:
                    value = value * zj ** kj
                if mj:
                    value = value * zj.conjugate() ** mj
            total = total + a * value
    return total


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_partial_sum_equals_the_term_by_term_sum_at_every_order(rng, dim):
    # exponents 3 and 4 in both k and m: powers that numpy computes with npy_cpow
    rest = (0,) * (dim - 1)
    high = TaylorSeries(dim, {((3,) + rest, rest + (4,)): 0.5 - 0.25j,
                              (rest + (4,), (3,) + rest): -0.75j,
                              ((1,) + rest, (1,) + rest): 0.25})
    for trial in range(4):
        s = random_jet(rng, dim, 5, 8) + (high if trial % 2 else TaylorSeries.zero(dim))
        for n in (0, 1, dim, 7):
            points = np.array([random_interior_point(rng, dim) for _ in range(n)]).reshape(n, dim)
            for order in range(s.degree + 2):
                assert np.array_equal(s.partial_sum(points, order),
                                      term_by_term(s, points, order))
                for z in points:
                    assert s.partial_sum(tuple(z), order) == term_by_term(s, tuple(z), order)


# signed zeros and subnormals included; bounded so that no product overflows
_COORD = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False, allow_subnormal=True)
_POINT = st.builds(complex, _COORD, _COORD)


@st.composite
def jet_and_points(draw):
    dim = draw(st.integers(1, 3))
    index = st.lists(st.integers(0, 4), min_size=dim, max_size=dim)
    terms = draw(st.lists(st.tuples(index, index, _POINT.filter(lambda a: a != 0)),
                          min_size=1, max_size=6))
    points = draw(st.lists(st.lists(_POINT, min_size=dim, max_size=dim), max_size=8))
    return TaylorSeries(dim, [((k, m), a) for k, m, a in terms]), points


@settings(max_examples=200, deadline=None)
@given(jet_and_points())
def test_first_factor_start_equals_the_one_started_product(case):
    # term_by_term starts every term at 1 + 0j; on finite values == is equality of
    # bits with -0.0 read as +0.0
    s, points = case
    batch = np.array(points, dtype=complex).reshape(len(points), s.dim)
    assert np.array_equal(eval_taylor(s, batch), term_by_term(s, batch, s.degree))
    for z in points:
        assert eval_taylor(s, tuple(z)) == term_by_term(s, tuple(z), s.degree)


def test_a_non_finite_coordinate_meets_one_multiply_fewer():
    # z1 at inf + 0j: only the coefficient's multiply (1 + 0j)(inf + 0j) = inf + nan j is
    # left; the 1 + 0j start added a second one, which made the real part NaN too
    z1 = TaylorSeries.monomial(1, (1,), (0,))
    inf = complex(math.inf, 0.0)
    with np.errstate(invalid="ignore"):
        values = [eval_taylor(z1, (inf,)), eval_taylor(z1, np.array([[inf]]))[0]]
    for value in values:
        assert value.real == math.inf and math.isnan(value.imag)
    constant = TaylorSeries(1, {((0,), (0,)): inf})
    assert eval_taylor(constant, (0.5,)) == inf  # its coefficient, not that times 1 + 0j


def level_groups(s, rates) -> dict:
    """Reference: the sub-series of the terms at each ((alpha,k), (alpha,m))."""
    groups: dict = {}
    for (k, m), a in s.terms().items():
        groups.setdefault((level_of(k, rates), level_of(m, rates)), {})[(k, m)] = a
    return {key: TaylorSeries(s.dim, terms) for key, terms in groups.items()}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_level_sums_equal_eval_taylor_of_each_level_part(rng, dim):
    merged = 0
    for trial in range(6):
        s = random_jet(rng, dim, 5, 16)
        # small rates make levels collide; equal rates group the terms by |k| and |m|
        rates = random_positive_field(rng, dim, max_num=2, max_den=2).rates if trial % 2 \
            else (1,) * dim
        parts = level_groups(s, rates)
        points = np.array([random_interior_point(rng, dim) for _ in range(9)])
        sums = level_sums(s, rates, points)
        assert list(sums) == list(parts)
        for key, part in parts.items():
            assert np.array_equal(sums[key], eval_taylor(part, points))
            merged += len(part) > 2  # three terms or more: the order of the sum shows
        point = tuple(points[0])
        assert level_sums(s, rates, point) == {key: eval_taylor(part, point)
                                               for key, part in parts.items()}
    assert merged or dim == 1  # in one variable each term has its own pair
    assert level_sums(TaylorSeries.zero(dim), (1,) * dim, points) == {}


@pytest.mark.parametrize("rates", [(Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), 3),
                                   ("1/2", "2/3", "5/7", "3"),
                                   (1, "-2/3", 5, Fraction(3, 7))])
def test_level_sums_keys_are_the_exact_levels_in_term_order(rng, rates):
    exact = tuple(Fraction(r) for r in rates)
    # at rates 1/2, 2/3, 5/7, 3 the indices (6, 0, 0, 0) and (0, 0, 0, 1) share level 3
    pinned = TaylorSeries(4, {((6, 0, 0, 0), (0, 0, 0, 0)): 1, ((0, 0, 0, 1), (0, 0, 0, 0)): 2,
                              ((0, 0, 0, 0), (6, 0, 0, 0)): 3, ((0, 0, 0, 0), (0, 0, 0, 1)): 4})
    point = random_interior_point(rng, 4)
    for trial in range(6):
        s = random_jet(rng, 4, 6, 12) + (pinned if trial % 2 else TaylorSeries.zero(4))
        keys = list(level_sums(s, rates, point))
        assert keys == list(dict.fromkeys((level_of(k, exact), level_of(m, exact))
                                          for k, m in s.terms()))
        assert all(type(mu) is Fraction and type(nu) is Fraction for mu, nu in keys)
    with pytest.raises(TypeError, match="exact"):
        level_sums(s, exact[:3] + (3.0,), point)


def test_degree_is_zero_for_the_zero_jet_and_for_a_cancelled_sum(rng):
    assert TaylorSeries.zero(3).degree == 0
    s = random_jet(rng, 3, 5, 6)
    assert s.degree == max(k.order + m.order for k, m in s.terms())
    cancelled = s + s.scale(-1)
    assert not cancelled and cancelled.degree == 0


def test_dbar_circle_with_four_points_is_the_central_difference(rng):
    assert CIRCLE.tolist() == [1, 1j, -1, -1j]
    h = 1e-5
    values = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
    f_xp, f_yp, f_xm, f_ym = values.T  # f at z + h, z + ih, z - h, z - ih
    central = 0.5 * ((f_xp - f_xm) / (2 * h) + 1j * (f_yp - f_ym) / (2 * h))
    mean, dbar = dbar_circle(values, h)
    assert np.abs(dbar - central).max() <= 1e-14 * np.abs(values).max() / h
    assert np.array_equal(mean, values.mean(axis=1))


def test_dbar_fd_is_elementwise_on_arrays():
    f = lambda w: w ** 3 + 2.0 * np.conj(w) * w  # dbar f = 2 w
    zetas = np.array([[0.3 + 0.1j, -0.5j], [1.2, 0.7 - 0.4j]])
    values = dbar_fd(f, zetas)
    assert values.shape == zetas.shape
    for zeta, value in zip(zetas.ravel(), values.ravel()):
        assert value == pytest.approx(dbar_fd(f, complex(zeta)), abs=1e-9)
        assert value == pytest.approx(2.0 * zeta, abs=1e-8)


def test_multi_index_validation():
    assert MultiIndex((1, 0, 2)).order == 3
    with pytest.raises(ValueError):
        MultiIndex(())
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


def test_series_prunes_zero_coefficients():
    s = TaylorSeries(2, {((1, 0), (0, 0)): 1.0, ((0, 1), (0, 0)): 0.0})
    assert len(s) == 1
    assert s == TaylorSeries(2, {((1, 0), (0, 0)): 1.0})


def test_series_rejects_degenerate_dimension():
    with pytest.raises(ValueError):
        TaylorSeries(0)


def test_series_rejects_wrong_exponent_length():
    with pytest.raises(ValueError):
        TaylorSeries(2, {((1,), (0,)): 1.0})


def test_eval_empty_series_is_zero():
    assert eval_taylor(TaylorSeries.zero(2), (0.3, -0.7j)) == 0


def test_eval_single_monomials():
    s = TaylorSeries.monomial(2, (1, 0), (0, 1))
    assert eval_taylor(s, (2, 1j)) == pytest.approx(-2j)
    s2 = TaylorSeries.monomial(2, (0, 0), (1, 1))
    assert eval_taylor(s2, (1 + 1j, 1 - 1j)) == pytest.approx(2)


def test_eval_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_taylor(TaylorSeries.zero(2), (1.0,))


def test_antiholomorphic_part_examples():
    holo = TaylorSeries(2, {((2, 0), (0, 0)): 1.0, ((0, 1), (0, 0)): 3.0})
    assert not antiholomorphic_part(holo)
    zbar = TaylorSeries.monomial(2, (0, 0), (1, 1))
    assert antiholomorphic_part(zbar) == zbar
    mixed = TaylorSeries(2, {((1, 0), (0, 0)): 1.0, ((1, 0), (0, 1)): 2.0})
    assert antiholomorphic_part(mixed) == TaylorSeries.monomial(2, (1, 0), (0, 1), 2.0)


def test_split_reconstructs_series(rng):
    for _ in range(20):
        s = random_jet(rng, 2, 5, 8)
        anti = antiholomorphic_part(s)
        assert anti + (s - anti) == s
        assert holomorphic_part(s) + anti == s


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False))
def test_eval_is_linear_in_coefficients(z1, z2):
    s1 = TaylorSeries(2, {((1, 0), (0, 0)): 1 + 2j, ((0, 0), (1, 1)): -0.5})
    s2 = TaylorSeries(2, {((1, 0), (0, 0)): -1j, ((0, 2), (1, 0)): 2.0})
    z = (z1, z2)
    total = eval_taylor(s1 + s2, z)
    assert total == pytest.approx(eval_taylor(s1, z) + eval_taylor(s2, z), abs=1e-12)


def test_wirtinger_holomorphic_is_zero():
    s = TaylorSeries(2, {((3, 1), (0, 0)): 2.0, ((0, 2), (0, 0)): -1j})
    assert not wirtinger_F_derivative(s, (1.0, -2.0))


def test_wirtinger_resonant_cancellation():
    # conj(z1) conj(z2) along the (1, -1) field: multipliers cancel exactly
    s = TaylorSeries.monomial(2, (0, 0), (1, 1))
    assert not wirtinger_F_derivative(s, (1.0, -1.0))


def test_wirtinger_single_antiholomorphic_term():
    s = TaylorSeries.monomial(2, (0, 0), (1, 0))
    out = wirtinger_F_derivative(s, (1.0, 1.0))
    assert out == s


def test_wirtinger_dimension_mismatch():
    with pytest.raises(ValueError):
        wirtinger_F_derivative(TaylorSeries.zero(2), (1.0,))


def test_wirtinger_zero_iff_multiplier_zero(rng):
    alphas = (1 + 1j, 0.5 - 2j, -3.0)
    for _ in range(30):
        s = random_jet(rng, 3, 4, 5)
        out = wirtinger_F_derivative(s, alphas)
        for (k, m), a in s.terms().items():
            mult = sum(mj * complex(aj).conjugate() for mj, aj in zip(m, alphas))
            if mult == 0:
                assert (k, m) not in out.terms()
            else:
                assert out.coefficient(k, m) == pytest.approx(mult * a)


def test_wirtinger_matches_finite_differences(rng):
    alphas = (1.0, -1.5 + 0.5j)
    for _ in range(50):
        s = random_jet(rng, 2, 4, 6)
        deriv = wirtinger_F_derivative(s, alphas)
        z = random_interior_point(rng, 2, 0.2, 0.7)
        circles = np.array(z) + 1e-5 * CIRCLE[:, None] * np.eye(2)[:, None, :]
        partials = dbar_circle(eval_taylor(s, circles.reshape(-1, 2)).reshape(2, -1), 1e-5)[1]
        fd = sum(p * complex(aj).conjugate() * complex(zj).conjugate()
                 for p, aj, zj in zip(partials, alphas, z))
        assert abs(fd - eval_taylor(deriv, z)) < 1e-6


def test_remainder_polynomial_is_its_own_series():
    s = TaylorSeries(1, {((2,), (0,)): 1.5, ((0,), (1,)): -2j})
    report = taylor_remainder_check(lambda z: eval_taylor(s, z), s, 2,
                                    (0.1, 0.05, 0.02, 0.01))
    assert report.passed
    # exact zeros are reported as the honest subnormal upper bound
    assert all(v < 1e-300 for v in report.values)


def test_remainder_flat_function_beats_every_order():
    def oracle(z):
        prod = abs(z[0]) * abs(z[1])
        return 0.0 if prod == 0 else math.exp(-1.0 / prod)

    zero = TaylorSeries.zero(2)
    for n in (1, 4, 8):
        report = taylor_remainder_check(oracle, zero, n, (0.5, 0.4, 0.3, 0.2, 0.15))
        assert report.passed, (n, report.values)


def test_remainder_detects_exact_order():
    # oracle = z1 + |z1|^3: o(|z|^2) holds, o(|z|^3) fails
    s = TaylorSeries.monomial(1, (1,), (0,))
    oracle = lambda z: complex(z[0]) + abs(z[0]) ** 3
    radii = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)
    assert taylor_remainder_check(oracle, s, 2, radii).passed
    assert not taylor_remainder_check(oracle, s, 3, radii).passed


def test_remainder_oracle_failure_is_inconclusive():
    def oracle(z):
        raise RuntimeError("no data here")

    report = taylor_remainder_check(oracle, TaylorSeries.zero(1), 1, (0.1, 0.05))
    assert report.verdict == "inconclusive"
    assert not report.passed


def test_remainder_nan_sample_is_inconclusive_at_its_point():
    s = TaylorSeries.monomial(1, (1,), (0,))
    radii = (0.1, 0.05, 0.02)
    oracle = lambda z: np.where(z[:, 0] == 0.05, np.nan, z[:, 0])
    report = taylor_remainder_check(oracle, s, 1, radii)
    assert report.verdict == "inconclusive"
    assert report.note == f"non-finite oracle value at {((0.05 + 0j),)}"
    assert report.witness == ((0.05 + 0j),)
    assert len(report.values) == 1  # the radius read in full before it


def test_remainder_order_beyond_degree_asserts_no_higher_terms():
    # a stored jet of lower degree may be checked at higher order; it passes
    # exactly when the function really has nothing in between
    s = TaylorSeries.monomial(1, (1,), (0,))
    radii = (0.1, 0.05, 0.02, 0.01)
    ok = taylor_remainder_check(lambda z: complex(z[0]), s, 5, radii)
    assert ok.passed
    bad = taylor_remainder_check(lambda z: complex(z[0]) + abs(z[0]) ** 3, s, 5, radii)
    assert not bad.passed


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_remainder_direction_set_is_one_cached_read_only_draw(dim):
    dirs = _direction_set(dim)
    assert _direction_set(dim) is dirs
    assert not dirs.flags.writeable
    fresh = _direction_set.__wrapped__(dim)
    assert fresh is not dirs and np.array_equal(fresh, dirs)
    # written out: the all-ones direction, then unit phases drawn in order
    rng = np.random.default_rng(DIRECTION_SEED)
    drawn = [[complex(math.cos(p), math.sin(p)) for p in rng.uniform(0.0, 2.0 * math.pi, dim)]
             for _ in range(N_DIRECTIONS - 1)]
    assert dirs.shape == (N_DIRECTIONS, dim) and dirs.dtype == complex
    assert np.array_equal(dirs, np.array([[1 + 0j] * dim] + drawn))


@pytest.mark.parametrize("seed", range(4))
def test_fitted_decay_rate_is_the_least_squares_slope_of_polyfit(seed):
    # five radii and values ~ C r^s as the remainder fits see them; |s| >= 0.25
    # keeps the slope away from 0, where relative error means nothing
    rng = np.random.default_rng(seed)
    for _ in range(500):
        xs = np.log(np.sort(rng.uniform(1e-6, 0.9, 5))[::-1])
        s = rng.choice([-1, 1]) * rng.uniform(0.25, 40.0)
        values = np.exp(s * xs + rng.normal(0.0, 3.0) + rng.normal(0.0, 0.5, 5)).tolist()
        expected = np.polyfit(xs, [math.log(v) for v in values], 1)[0]
        rate = fitted_decay_rate(xs.tolist(), values)
        assert abs(-rate - expected) <= 1e-12 * abs(expected)


def test_fitted_decay_rate_is_none_when_underdetermined():
    assert fitted_decay_rate([0.0, 1.0, 2.0], [1.0, 0.0, -1.0]) is None  # one positive value
    assert fitted_decay_rate([0.0, 1.0, 2.0], [1.0, math.inf, math.nan]) is None
    assert fitted_decay_rate([], []) is None
    assert fitted_decay_rate([1.0, 1.0 + 1e-13, 1.0], [1.0, 2.0, 3.0]) is None  # span < 1e-12
    assert fitted_decay_rate([0.0, 1.0, 5.0], [1.0, math.e ** -2, 0.0]) == 2.0


def test_remainder_rejects_bad_radii():
    with pytest.raises(ValueError):
        taylor_remainder_check(lambda z: 0j, TaylorSeries.zero(1), 1, (0.1, 0.2))
