"""Expansion canonical form, pushforward, tail bounds, and the max principle."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from holoflow import (AntiHolomorphicTermError, AsymptoticExpansion,
                      DiagonalField, HolomorphicExpansion, SpectrumError,
                      TaylorSeries, equals, eval_expansion, eval_taylor,
                      integral_curve, level_grid, max_principle_bound,
                      normalize_time, pushforward, residual,
                      restrict_holomorphic, tail_bound_check)

from conftest import (jet_max_level, random_interior_point, random_jet,
                      random_positive_field)


def _random_expansion_terms(rng, n_terms=6):
    terms = []
    for _ in range(n_terms):
        mu = Fraction(int(rng.integers(0, 13)), int(rng.integers(1, 4)))
        nu = Fraction(int(rng.integers(0, 13)), int(rng.integers(1, 4)))
        r, phi = rng.uniform(0.2, 1.0), rng.uniform(0, 2 * math.pi)
        terms.append((mu, nu, r * complex(math.cos(phi), math.sin(phi))))
    return terms


def test_construction_merges_and_prunes():
    e = AsymptoticExpansion([(1, 0, 1.0), (1, 0, -1.0), (2, 0, 3.0)])
    assert e.levels == (Fraction(2),)
    assert e.all_terms() == ((Fraction(2), Fraction(0), 3 + 0j),)


def test_construction_rejects_negative_exponents():
    with pytest.raises(ValueError):
        AsymptoticExpansion([(-1, 0, 1.0)])


def test_construction_rejects_floats():
    with pytest.raises(TypeError):
        AsymptoticExpansion([(0.5, 0, 1.0)])


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1.0), ("-1/3", 1.0)], "levels must be >= 0"),
    ([(Fraction(-2), 1.0)], "levels must be >= 0"),
    ([("1/2", 1.0), (Fraction(1, 2), 2.0)], "levels must be strictly increasing"),
    ([(Fraction(2, 6), 1.0), ("1/3", 2.0), (1, 0.5)], "levels must be strictly increasing"),
    ([(1, 1.0), ("7/8", 1.0)], "levels must be strictly increasing"),
    ([("1/7", 1.0), (Fraction(1, 11), 1.0), (2, 1.0)], "levels must be strictly increasing"),
])
def test_holomorphic_expansion_rejects_negative_and_unordered_levels(pairs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        HolomorphicExpansion(pairs)


def test_holomorphic_expansion_accepts_mixed_exact_levels_and_rejects_floats():
    e = HolomorphicExpansion([(0, 1.0), ("1/13", 2.0), (Fraction(1, 7), 3.0), (1, 4.0)])
    assert e.levels == (Fraction(0), Fraction(1, 13), Fraction(1, 7), Fraction(1))
    with pytest.raises(TypeError, match=r"^must be exact \(int, Fraction, or 'p/q' string\), "
                                        "not float$"):
        HolomorphicExpansion([(0, 1.0), (0.5, 1.0)])


def test_equals_ignores_input_order(rng):
    for _ in range(30):
        terms = _random_expansion_terms(rng)
        e1 = AsymptoticExpansion(terms)
        perm = [terms[i] for i in rng.permutation(len(terms))]
        assert equals(e1, AsymptoticExpansion(perm))


def test_equals_ignores_explicit_zero_terms():
    e1 = AsymptoticExpansion([(1, 0, 1.0)])
    e2 = AsymptoticExpansion([(1, 0, 1.0), (Fraction(7, 2), 0, 0.0)])
    assert equals(e1, e2)


def test_equals_is_exact_on_coefficients():
    e1 = AsymptoticExpansion([(1, 0, 1.0)])
    e2 = AsymptoticExpansion([(1, 0, 1.0 + 1e-9)])
    assert not equals(e1, e2)


def test_pushforward_single_mixed_monomial():
    s = TaylorSeries.monomial(2, (1, 0), (0, 1))
    e = pushforward(s, DiagonalField((1, 2)), (1, 1), 5)
    assert e.all_terms() == ((Fraction(1), Fraction(2), 1 + 0j),)


def test_pushforward_constant_term():
    s = TaylorSeries.monomial(1, (0,), (0,), 5.0)
    e = pushforward(s, DiagonalField((1,)), (0.5,), 2)
    assert e.all_terms() == ((Fraction(0), Fraction(0), 5 + 0j),)


def test_pushforward_holomorphic_polynomial():
    s = TaylorSeries(2, {((1, 0), (0, 0)): 1.0, ((0, 2), (0, 0)): 1.0})
    c = (0.5, 0.25j)
    e = pushforward(s, DiagonalField((1, 1)), c, 4)
    assert e.all_terms() == (
        (Fraction(1), Fraction(0), 0.5 + 0j),
        (Fraction(2), Fraction(0), (0.25j) ** 2),
    )


def test_pushforward_respects_level_cutoff():
    s = TaylorSeries(1, {((1,), (0,)): 1.0, ((5,), (0,)): 1.0})
    e = pushforward(s, DiagonalField((1,)), (0.5,), 3)
    assert e.levels == (Fraction(1),)


def test_pushforward_rejects_mixed_spectrum():
    with pytest.raises(SpectrumError):
        pushforward(TaylorSeries.zero(2), DiagonalField((1, -1)), (0.5, 0.5), 2)


def test_pushforward_matches_curve_values(rng):
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        field = random_positive_field(rng, dim)
        jet = random_jet(rng, dim, 6, 8)
        c = random_interior_point(rng, dim)
        e = pushforward(jet, field, c, jet_max_level(jet, field))
        nfield, _ = normalize_time(field)
        for _ in range(10):
            zeta = complex(rng.uniform(0, 5), rng.uniform(-4, 4))
            lhs = eval_taylor(jet, integral_curve(nfield, c, zeta))
            rhs = eval_expansion(e, zeta) if len(e) else 0j
            assert abs(lhs - rhs) < 1e-10


def test_pushforward_levels_lie_on_grid(rng):
    for _ in range(15):
        dim = int(rng.integers(1, 4))
        field = random_positive_field(rng, dim)
        jet = random_jet(rng, dim, 5, 6)
        lam_max = jet_max_level(jet, field)
        if lam_max == 0:
            continue
        e = pushforward(jet, field, random_interior_point(rng, dim), lam_max)
        grid = level_grid(field, lam_max)
        for mu, nu, _ in e.all_terms():
            assert mu + nu in grid


def test_eval_expansion_examples():
    assert eval_expansion(AsymptoticExpansion(), 1.0 + 2j) == 0
    const = AsymptoticExpansion([(0, 0, 3 - 1j)])
    assert eval_expansion(const, 0.7 + 0.1j) == 3 - 1j
    e = AsymptoticExpansion([(1, 2, 1.0)])
    x = 0.8
    assert eval_expansion(e, x) == pytest.approx(math.exp(-3 * x))


def test_eval_expansion_partial_level_indexing():
    e = AsymptoticExpansion([(1, 0, 1.0), (2, 0, 1.0)])
    z = 0.5
    assert e.partial(z, 0) == pytest.approx(cmath.exp(-0.5))
    with pytest.raises(ValueError):
        e.partial(z, 2)


@pytest.mark.parametrize("expansion", [
    AsymptoticExpansion([(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)]),
    HolomorphicExpansion([(1, 1.0), (2, 1.0), (3, 1.0)]),
])
def test_partial_sum_rejects_level_index_below_minus_one(expansion):
    assert expansion.partial(0.5, -1) == 0  # the empty sum
    with pytest.raises(ValueError, match="out of range"):
        expansion.partial(0.5, -2)


def test_tail_bound_rejects_negative_level_index():
    # n = -1 used to index the last level and report its rate
    e = AsymptoticExpansion([(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0)])
    with pytest.raises(ValueError, match="out of range"):
        tail_bound_check(lambda z: e.partial(z), e, n=-1)


def test_tail_bound_exact_expansion_passes():
    e = AsymptoticExpansion([(1, 0, 1.0), (3, 0, -2j)])
    report = tail_bound_check(lambda z: e.partial(z), e, n=1)
    assert report.passed
    assert all(v == 0 for v in report.values)


def test_tail_bound_detects_true_gap():
    oracle = lambda z: cmath.exp(-z) + cmath.exp(-5 * z)
    e = AsymptoticExpansion([(1, 0, 1.0)])
    report = tail_bound_check(oracle, e, n=0)
    assert report.passed  # residual e^{-5x} weighted by e^{x} still vanishes


def test_tail_bound_oracle_failure_inconclusive():
    def oracle(z):
        raise ValueError("detector offline")

    report = tail_bound_check(oracle, AsymptoticExpansion([(1, 0, 1.0)]), n=0)
    assert report.verdict == "inconclusive"


@pytest.mark.parametrize("check", ["tail", "max_principle"])
def test_a_nan_sample_makes_the_decay_check_inconclusive_at_its_point(check):
    # max(0.0, nan) is 0.0, so a NaN ratio once scored 0 and the bound passed
    nan_point = complex(4.0, 2.9)
    oracle = lambda z: np.where(z == nan_point, np.nan, np.exp(-z))
    if check == "tail":
        report = tail_bound_check(oracle, AsymptoticExpansion([(1, 0, 1.0)]), n=0)
    else:
        samples = [complex(x, y) for x in (1.0, 2.0, 4.0, 8.0) for y in (0.0, 2.9)]
        report = max_principle_bound(oracle, math.exp(-1.0), 1, samples, x_lo=1.0)
    assert report.verdict == "inconclusive"
    assert report.note == f"non-finite oracle value at {nan_point}"


def test_tail_bound_epsilon_weight_beyond_double_range_saturates():
    # a level-80 term next to level 1: it is lost in the rounding of the sum, so
    # the level-0 residual reads 0 and the weighted values stay finite
    e = AsymptoticExpansion([(1, 0, 1.0), (80, 0, 1.0)])
    report = tail_bound_check(lambda z: e.partial(z), e, n=0)
    assert report.passed


def test_zero_expansion_tail_bounds_the_oracle_itself():
    # all-zero expansion: a passing tail check at level 0 certifies that the
    # oracle itself is below tolerance on the grid
    oracle = lambda z: 1e-10 * cmath.exp(-3 * z)
    report = tail_bound_check(oracle, AsymptoticExpansion(), n=0)
    assert report.passed
    assert max(report.values) < 1e-8


def test_restrict_holomorphic_accepts_and_orders():
    e = AsymptoticExpansion([(2, 0, 2j), (Fraction(1, 2), 0, 1.0)])
    h = restrict_holomorphic(e)
    assert h.levels == (Fraction(1, 2), Fraction(2))
    assert h.coeffs == (1 + 0j, 2j)


def test_restrict_holomorphic_empty():
    assert len(restrict_holomorphic(AsymptoticExpansion())) == 0


def test_restrict_holomorphic_rejects_antiholomorphic_pushforward():
    s = TaylorSeries.monomial(2, (0, 0), (1, 0))
    e = pushforward(s, DiagonalField((1, 1)), (0.5, 0.0), 2)
    with pytest.raises(AntiHolomorphicTermError) as err:
        restrict_holomorphic(e)
    assert err.value.level == Fraction(1)
    assert err.value.nu == Fraction(1)


def test_max_principle_pure_exponential_has_unit_margin():
    x_lo = 0.5
    samples = [complex(x, 0.0) for x in (0.5, 1.0, 2.0, 4.0)]
    report = max_principle_bound(lambda z: cmath.exp(-z), math.exp(-x_lo), 1,
                                 samples, x_lo=x_lo)
    assert report.passed
    assert max(report.values) == pytest.approx(1.0)


def test_max_principle_scaled_rate_three():
    x_lo = 0.25
    rng = np.random.default_rng(5)
    samples = [complex(x, y) for x, y in zip(rng.uniform(x_lo, 6, 60),
                                             rng.uniform(-5, 5, 60))]
    report = max_principle_bound(lambda z: 2 * cmath.exp(-3 * z),
                                 2 * math.exp(-3 * x_lo), 3, samples, x_lo=x_lo)
    assert report.passed


def test_max_principle_constant_at_rate_zero():
    samples = [complex(x, 0) for x in (0.1, 1.0, 5.0)]
    report = max_principle_bound(lambda z: 1j - 0.5, abs(1j - 0.5), 0,
                                 samples, x_lo=0.1)
    assert report.passed


def test_max_principle_violation_reports_witness():
    samples = [complex(1.0, 0.0), complex(2.0, 0.0)]
    report = max_principle_bound(lambda z: cmath.exp(-0.5 * z), math.exp(-1.0), 1,
                                 samples, x_lo=1.0)
    assert not report.passed
    assert report.witness == complex(2.0, 0.0)


def test_max_principle_overflowing_weight_fails_under_an_error_filter():
    # lambda (Re z - x_lo) overflowed outside an error state, and raised under the filter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = max_principle_bound(lambda z: np.exp(-z), 1.0, 1e308,
                                     [complex(0.5, 0.0), complex(2.0, 1.0)], x_lo=0.01)
    assert report.verdict == "fail" and report.values == (math.inf, math.inf)
    # a zero value scores 0 under any weight: 0 times an overflowing weight was NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = max_principle_bound(lambda z: 0 * z, 1.0, 1e308,
                                     [complex(0.5, 0.0), complex(2.0, 1.0)], x_lo=0.01)
    assert report.verdict == "pass" and report.values == (0.0, 0.0)


def test_residual_closed_form():
    e = HolomorphicExpansion([(Fraction(1), 1.0)])
    oracle = lambda z: cmath.exp(-z) + cmath.exp(-2 * z)
    f0 = residual(oracle, e, 0)
    for x in (0.5, 1.0, 3.0):
        assert f0(x) == pytest.approx(cmath.exp(-2 * x))


def test_residual_of_own_eval_is_zero():
    e = HolomorphicExpansion([(Fraction(1), 1.0), (Fraction(2), -1j)])
    f = residual(lambda z: e.partial(z), e, 1)
    assert f(0.7 + 0.3j) == pytest.approx(0)


def test_residual_rejects_negative_index():
    e = HolomorphicExpansion([(Fraction(1), 1.0)])
    with pytest.raises(ValueError):
        residual(lambda z: 0j, e, -1)


def test_residual_composes_with_max_principle(rng):
    # the level-n residual obeys the max principle at the next level's rate
    e = HolomorphicExpansion([(Fraction(0), 0.5), (Fraction(1), 1.0),
                              (Fraction(3), -0.25j)])
    oracle = lambda z: e.partial(z)
    x_lo = 0.2
    f1 = residual(oracle, e, 1)
    ys = np.linspace(-20, 20, 801)
    M1 = max(abs(f1(complex(x_lo, y))) for y in ys)
    # stay shallow enough that the subtraction-based residual is well above
    # float cancellation noise at rate 3
    samples = [complex(x, y) for x, y in zip(rng.uniform(x_lo, 6, 100),
                                             rng.uniform(-10, 10, 100))]
    report = max_principle_bound(f1, M1, 3, samples, x_lo=x_lo, tol=1e-6)
    assert report.passed


def test_pushforward_normalizes_noncanonical_fields(rng):
    # a sign-flipped field produces the same canonical expansion
    jet = TaylorSeries(2, {((2, 0), (0, 1)): 1.5 - 0.5j, ((0, 1), (0, 0)): 1j})
    c = (0.4 + 0.2j, -0.55)
    canonical = DiagonalField((1, 2))
    flipped = DiagonalField((-1, -2))
    assert equals(pushforward(jet, canonical, c, 6),
                  pushforward(jet, flipped, c, 6))
