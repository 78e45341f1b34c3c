"""Round-trip coefficient recovery, the shift trick, and the sup bound."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoflow import (DiagonalField, ExtractionError, ExtractionParams,
                      HolomorphicExpansion, extract_coefficients, level_grid,
                      residual, sampled_sup, shift_difference,
                      verify_cauchy_bound)
from holoflow.extract import (HALF_WIDTH, MAX_NODES, MIN_NODES, NODES_PER_PERIOD, SUP_X,
                              TOL, X0, CauchyBoundReport, _five_smooth, _window,
                              quadrature_nodes)
from holoflow.reports import fitted_decay_rate
from holoflow.sampling import evaluate_prefix
from holoflow.wirtinger import CIRCLE, FD_STEP, dbar_circle

from conftest import full_read, random_coeff, random_expansion_sixths

SIXTH_GRID = level_grid(DiagonalField((Fraction(1, 6),)), 10)


def default_params(grid=SIXTH_GRID) -> ExtractionParams:
    return ExtractionParams(grid=grid)


def sequential_sweep(oracle, params):
    """Reference: trace rows of the window mean of the running residual, level by level."""
    z = X0 + 1j * quadrature_nodes(params)
    vals = full_read(oracle, z)
    rows = []
    for lam in params.grid.levels:
        c = complex(np.mean(vals * np.exp(float(lam) * z)))
        c = 0j if abs(c) < TOL else c
        vals = vals - c * np.exp(-float(lam) * z)
        rows.append((float(lam), c, float(np.max(np.abs(vals)))))
    return rows


def random_source(rng, grid, n_terms=6) -> HolomorphicExpansion:
    picks = sorted(rng.choice(len(grid), size=n_terms, replace=False))
    return HolomorphicExpansion([(grid.levels[i], random_coeff(rng, 0.1, 1.0)) for i in picks])


def never_called(z):
    raise AssertionError("the oracle must not be sampled")


# -- the Fraction-based derivation that extraction on the grid lattice replaces

def reference_five_smooth(n: int) -> int:
    odd = [3**b * 5**c for b in range(16) for c in range(11)]
    return min(p << (-(-n // p) - 1).bit_length() for p in odd)


def reference_window(params):
    """(L, q, K, Q), the bins and the float levels, derived from the Fraction levels."""
    levels = params.grid.levels
    q = math.lcm(1, *(lam.denominator for lam in levels))
    K = max(1, round(HALF_WIDTH / (math.pi * q)))
    periods = (float(levels[-1]) if levels else 0.0) * q * K
    Q = max(MIN_NODES, int(math.ceil(NODES_PER_PERIOD * periods)) + 1)
    bins = [lam.numerator * (q // lam.denominator) * K for lam in levels]
    return (math.pi * q * K, q, K, reference_five_smooth(Q)), bins, [float(v) for v in levels]


def reference_first_pass(oracle, params):
    """y, z, the line samples, float levels, bins, weights and unsnapped first-pass bins."""
    (L, q, K, Q), bins, lam = reference_window(params)
    y = -L + (2.0 * L / Q) * np.arange(Q)
    z = X0 + 1j * y
    vals = full_read(oracle, z)
    lam, bins = np.array(lam), np.array(bins, dtype=np.int64)
    weight = np.exp(lam * X0) * np.where(bins % 2, -1.0, 1.0)
    bins %= Q
    return y, z, vals, lam, bins, weight, weight * np.fft.ifft(vals)[bins]


def reference_extract(oracle, params):
    """The pairs and trace rows of extract_coefficients, and sampled_sup."""
    y, z, vals, lam, bins, weight, first = reference_first_pass(oracle, params)
    first[np.abs(first) < TOL] = 0
    for i in np.flatnonzero(first):
        vals -= first[i] * np.exp(-lam[i] * z)
    coeffs = first + weight * np.fft.ifft(vals)[bins]
    coeffs[np.abs(coeffs) < TOL] = 0
    spectrum = np.zeros_like(vals)
    spectrum[bins] = (coeffs - first) / weight
    vals -= np.fft.fft(spectrum)
    norm = float(np.max(np.abs(vals)))
    rows = []
    for i in reversed(range(len(lam))):
        rows.append((float(lam[i]), complex(coeffs[i]), norm))
        if coeffs[i] != 0:
            vals += coeffs[i] * np.exp(-lam[i] * z)
            norm = float(np.max(np.abs(vals)))
    sup = float(np.max(np.abs(full_read(oracle, SUP_X + 1j * y))))
    return tuple(zip(params.grid.levels, coeffs.tolist())), rows[::-1], sup


def reference_cauchy(pairs, M, tol=1e-6) -> CauchyBoundReport:
    ratios, worst, worst_level = [], 0.0, None
    for lam, c in pairs:
        ratio = abs(c) / M
        ratios.append((float(lam), ratio))
        if ratio > worst:
            worst, worst_level = ratio, float(lam)
    return CauchyBoundReport(worst <= 1.0 + tol, worst, worst_level, M, tuple(ratios))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(Fraction(1, 13), 3, max_denominator=13), min_size=1, max_size=3),
       st.fractions(Fraction(1, 12), 2, max_denominator=12),
       st.integers(0, 2**32 - 1))
@example([Fraction(1, 7), Fraction(1, 11), Fraction(1, 13)], Fraction(3, 2), 0)
@example([Fraction(1, 6)], Fraction(10), 1)
@example([Fraction(1, 3**34)], Fraction(100, 3**34), 2)  # q beyond 2^53
def test_lattice_extraction_equals_the_fraction_derivation(rates, lam_max, seed):
    grid = level_grid(DiagonalField(tuple(rates)), lam_max)
    params = ExtractionParams(grid=grid)
    (L, q, K, Q), bins, lam = reference_window(params)
    y, window_K = _window(grid)
    assert (-y[0], window_K) == (L, K) and grid.q == q
    assert len(quadrature_nodes(params)) == Q == _five_smooth(Q)
    assert (grid.steps * K).tolist() == bins
    if q <= 2**53:
        assert (grid.steps / q).tolist() == lam

    src = random_source(np.random.default_rng(seed), grid, n_terms=min(6, len(grid)))
    trace = []
    rec = extract_coefficients(src, params, trace=trace)
    pairs, rows, sup = reference_extract(src, params)
    assert rec.pairs() == pairs and trace == rows
    assert sampled_sup(src, params) == sup
    assert verify_cauchy_bound(rec, src, sup) == reference_cauchy(pairs, sup)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**23))
@example(1)
@example(MAX_NODES)
@example(MAX_NODES + 1)
def test_five_smooth_equals_the_candidate_definition(n):
    assert _five_smooth(n) == reference_five_smooth(n)


def test_params_validation():
    # the top level weight e^(lambda_max X0) must be finite: e^710 overflows
    unit = DiagonalField((Fraction(1),))
    with pytest.raises(ValueError, match=r"^lambda_max must be small enough that "
                                         r"e\^\(lambda_max X0\) is finite"):
        ExtractionParams(grid=level_grid(unit, 710))
    ExtractionParams(grid=level_grid(unit, 709))
    # the grid fixes the discretization: the old settings are no fields
    for name in ("x0", "half_width", "nodes", "tol"):
        with pytest.raises(TypeError):
            ExtractionParams(grid=SIXTH_GRID, **{name: 1.0})
    grid = level_grid(DiagonalField((Fraction(1, 2),)), 3)
    on_grid = HolomorphicExpansion([(Fraction(0), 1.0), (Fraction(1), 0.5)])
    with pytest.raises(ExtractionError, match="inconsistent"):
        extract_coefficients(lambda z: on_grid(z) + 0.3 * np.exp(-0.7 * z),
                             ExtractionParams(grid=grid))


def test_window_is_common_period_multiple():
    y, K = _window(SIXTH_GRID)
    L, q = -y[0], SIXTH_GRID.q
    assert q == 6
    assert L == pytest.approx(math.pi * q * K)
    # every pair of grid frequencies completes whole periods: L * (1/q) multiple of pi
    assert (L / math.pi) % 1 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("rates, lam_max, expected", [
    (("1/6",), 10, 4096),                     # the floor MIN_NODES, 2^12
    (("1/7", "1/11"), 5, 7776),               # 7701 nodes needed; 7776 = 2^5 3^5
    (("1/7", "1/11", "1/13"), "3/2", 30375),  # 30021 = 3 * 10007 needed; 30375 = 3^5 5^3
])
def test_node_count_is_the_next_five_smooth_length(rates, lam_max, expected):
    grid = level_grid(DiagonalField(tuple(Fraction(r) for r in rates)), Fraction(lam_max))
    assert len(quadrature_nodes(default_params(grid))) == expected


def test_zero_oracle_recovers_all_zeros():
    rec = extract_coefficients(lambda z: np.zeros_like(z), default_params())
    assert all(c == 0 for c in rec.coeffs)


def test_synthesis_example_recovers_exact_coefficients():
    src = HolomorphicExpansion([(Fraction(1), 3.0), (Fraction(5, 2), 1 + 1j)])
    grid = level_grid(DiagonalField((Fraction(1, 2),)), 3)
    rec = extract_coefficients(src, default_params(grid))
    assert rec.coefficient(Fraction(0)) == 0
    assert rec.coefficient(Fraction(2)) == 0
    assert abs(rec.coefficient(Fraction(1)) - 3.0) < 1e-8
    assert abs(rec.coefficient(Fraction(5, 2)) - (1 + 1j)) < 1e-8


def test_square_of_exponential_lands_on_level_two():
    oracle = lambda z: np.exp(-z) * np.exp(-z)
    grid = level_grid(DiagonalField((Fraction(1),)), 2)
    rec = extract_coefficients(oracle, default_params(grid))
    assert [rec.coefficient(lam) for lam in grid.levels] == [0, 0, pytest.approx(1.0)]


def test_round_trip_random_corpus(rng):
    for _ in range(30):
        src = random_expansion_sixths(rng)
        rec = extract_coefficients(src, default_params())
        err = max(abs(rec.coefficient(lam) - src.coefficient(lam))
                  for lam in SIXTH_GRID.levels)
        assert err < 1e-6, err


def test_trace_rows_match_levels():
    src = HolomorphicExpansion([(Fraction(1), 1.0)])
    grid = level_grid(DiagonalField((Fraction(1),)), 3)
    trace = []
    extract_coefficients(src, default_params(grid), trace=trace)
    assert [row[0] for row in trace] == [0.0, 1.0, 2.0, 3.0]
    # residual norm collapses once the only term is removed
    assert trace[0][2] > 0.1 and trace[1][2] < 1e-12


def test_traced_extraction_keeps_the_coefficients_and_the_reference_rows(rng):
    grid = level_grid(DiagonalField((Fraction(1, 2),)), 3)  # the 7 levels of extraction_demo
    params = default_params(grid)

    def source(c):
        return HolomorphicExpansion([(Fraction(0), 100.0), (Fraction(1, 2), 0.3),
                                     (Fraction(1), c), (Fraction(3), -0.7j)])

    # a term near TOL whose first-pass bin snaps to zero while the second pass keeps
    # it: the passes differ by about 1e-17, so the sweep steps by 1e-17 in modulus
    sweep = (phase * TOL * (1 + d) for phase in (1, 1j, -1, -1j)
             for d in np.linspace(-1e-9, 1e-9, 201))
    snapped = next(src for src in map(source, sweep)
                   if abs(reference_first_pass(src, params)[-1][2]) < TOL
                   and dict(reference_extract(src, params)[0])[Fraction(1)] != 0)
    for oracle in [random_source(rng, grid, n_terms=4), source(1.006e-6), snapped]:
        rows = []
        recovered = extract_coefficients(oracle, params, trace=rows)
        pairs, reference_rows, _ = reference_extract(oracle, params)
        assert recovered.pairs() == extract_coefficients(oracle, params).pairs() == pairs
        assert rows == reference_rows


@pytest.mark.parametrize("rates, lam_max, terms, nodes", [
    # scenarios/extraction_demo.txt and scenarios/extraction_large.txt; the second
    # window is past the 16 384 nodes from which numpy elides temporaries
    (("1/2",), "3", [("1", 3.0), ("5/2", 1 + 1j)], 4096),
    (("1/7", "1/11", "1/13"), "3/2", [("0", 0.5), ("1/7", 1 - 0.5j), ("18/77", 0.25 + 0.75j),
                                      ("3/13", -0.4 + 0.2j), ("10/7", 0.3 + 0.3j)], 30375),
], ids=["extraction_demo", "extraction_large"])
def test_trace_rows_equal_a_walk_that_recomputes_every_exponential(rng, rates, lam_max,
                                                                   terms, nodes):
    grid = level_grid(DiagonalField(tuple(Fraction(r) for r in rates)), Fraction(lam_max))
    params = default_params(grid)
    assert len(quadrature_nodes(params)) == nodes
    shipped = HolomorphicExpansion(sorted((Fraction(lam), c) for lam, c in terms))
    for oracle in (shipped, random_source(rng, grid, n_terms=6)):
        rows = []
        recovered = extract_coefficients(oracle, params, trace=rows)
        pairs, reference_rows, _ = reference_extract(oracle, params)
        assert recovered.pairs() == pairs
        assert repr(rows) == repr(reference_rows)  # bit for bit, signed zeros included


@pytest.mark.parametrize("rates, lam_max, n_sources",
                         [(("1/6",), 10, 20), (("1/5", "1/7", "1/9"), 2, 3)])
def test_transform_matches_sequential_sweep(rng, rates, lam_max, n_sources):
    grid = level_grid(DiagonalField(tuple(Fraction(r) for r in rates)), lam_max)
    params = default_params(grid)
    for _ in range(n_sources):
        src = random_expansion_sixths(rng) if len(rates) == 1 else random_source(rng, grid)
        trace = []
        rec = extract_coefficients(src, params, trace=trace)
        reference = sequential_sweep(src, params)
        assert [row[0] for row in trace] == [row[0] for row in reference]
        assert max(abs(c - ref[1]) for c, ref in zip(rec.coeffs, reference)) <= 1e-12
        assert max(abs(row[2] - ref[2]) for row, ref in zip(trace, reference)) <= 1e-12


def test_exact_deflation_keeps_the_sixth_grid_at_rounding_level(rng):
    # the benchmark's lowest-margin rung: rate 1/6 up to level 10, so the window
    # mean multiplies rounding noise by up to e^10.  Deflating the first pass
    # with exactly the oracle's exponentials keeps the worst error near 2e-14
    # on these 60 sources; synthesizing that deflation by an FFT gives 3e-13.
    worst = 0.0
    for _ in range(60):
        src = random_source(rng, SIXTH_GRID)
        expected = dict(src.pairs())
        rec = extract_coefficients(src, default_params())
        worst = max(worst, max(abs(c - expected.get(lam, 0)) for lam, c in rec.pairs()))
    assert worst <= 1e-13, worst


def test_second_pass_absorbs_the_deflation_rounding_of_a_large_window(rng):
    # from 16 384 nodes on, the oracle's terms and the deflation's differ in the
    # last bits; on this 30 375-node window the unsnapped first pass is off by up
    # to 1.5e-13 on these 20 sources, and the second pass by 3.5e-18
    grid = level_grid(DiagonalField((Fraction(1, 7), Fraction(1, 11), Fraction(1, 13))),
                      Fraction(3, 2))
    params = default_params(grid)
    assert len(grid) == 663 and len(quadrature_nodes(params)) >= 16384
    worst = worst_first = 0.0
    for _ in range(20):
        src = random_source(rng, grid)
        expected = np.array([src.coefficient(lam) for lam in grid.levels])
        rec = extract_coefficients(src, params)
        worst = max(worst, np.max(np.abs(np.array(rec.coeffs) - expected)))
        first = reference_first_pass(src, params)[-1]
        worst_first = max(worst_first, np.max(np.abs(first - expected)))
    assert worst <= 1e-15 < worst_first, (worst, worst_first)


def test_four_rate_grid_recovers_its_source(rng):
    grid = level_grid(DiagonalField((Fraction(1, 7), Fraction(1, 11), Fraction(1, 13),
                                     Fraction(1, 17))), 2)
    src = random_source(rng, grid)
    rec = extract_coefficients(src, default_params(grid))
    expected = dict(src.pairs())
    assert max(abs(c - expected.get(lam, 0)) for lam, c in rec.pairs()) <= 1e-8


@pytest.mark.parametrize("params", [
    ExtractionParams(grid=level_grid(DiagonalField((Fraction(1, 101), Fraction(1, 103),
                                                    Fraction(1, 107))), Fraction(1, 5))),
])
def test_oversized_window_fails_before_sampling(params):
    for run in (extract_coefficients, sampled_sup):
        with pytest.raises(ExtractionError, match=f"Q = .*MAX_NODES = {MAX_NODES}"):
            run(never_called, params)


def test_non_finite_sample_raises_named_point():
    def oracle(z):
        return np.where(np.abs(np.imag(z)) > 50.0, np.nan, np.exp(-z))

    grid = level_grid(DiagonalField((Fraction(1),)), 2)
    with pytest.raises(ExtractionError, match="non-finite"):
        extract_coefficients(oracle, default_params(grid))


@pytest.mark.parametrize("warning_filter", ["default", "error"])
def test_an_overflowing_transform_raises_naming_the_coefficient(warning_filter):
    # past about 1.8e308 / Q the ifft sum overflows; a NaN coefficient was returned,
    # and a NaN residual norm passed the final check, since nan > allowance is False
    src = HolomorphicExpansion([(Fraction(0), 1e305), (Fraction(1), 1e305)])
    grid = level_grid(DiagonalField((Fraction(1),)), 2)
    with warnings.catch_warnings():
        warnings.simplefilter(warning_filter, RuntimeWarning)
        with pytest.raises(ExtractionError, match=r"non-finite coefficient .* at level 0"):
            extract_coefficients(src, default_params(grid), trace=[])


def test_inconsistent_oracle_rejected_by_final_residual():
    oracle = lambda z: np.exp(+0.5 * z)  # growing: not a sum of grid decays
    grid = level_grid(DiagonalField((Fraction(1),)), 4)
    with pytest.raises(ExtractionError, match="inconsistent"):
        extract_coefficients(oracle, default_params(grid))


def test_off_grid_frequency_rejected():
    oracle = lambda z: np.exp(-0.5 * z)  # decays, but off the integer grid
    grid = level_grid(DiagonalField((Fraction(1),)), 4)
    with pytest.raises(ExtractionError, match="inconsistent"):
        extract_coefficients(oracle, default_params(grid))


def test_shift_difference_closed_forms():
    f = lambda z: np.exp(-z)
    g = shift_difference(f, math.pi)
    for x in (0.5, 1.0, 2.5):
        assert g(x) == pytest.approx(-2.0 * math.exp(-x))
    const = shift_difference(lambda z: 3.5 + 0j, 1.234)
    assert const(1.0) == 0
    f2 = lambda z: np.exp(-2 * z)
    g2 = shift_difference(f2, math.pi / 2)
    assert g2(1.0) == pytest.approx(-2.0 * math.exp(-2.0))


def test_shift_consistency_random(rng):
    for _ in range(10):
        src = random_expansion_sixths(rng, max_terms=5)
        a = float(rng.uniform(0.0, 2 * math.pi))
        rec = extract_coefficients(shift_difference(src, a), default_params())
        for lam, c in src.nonzero_pairs():
            expected = (cmath.exp(-1j * a * float(lam)) - 1.0) * c
            assert abs(rec.coefficient(lam) - expected) < 1e-6


def test_shift_pi_over_lambda_gives_exact_minus_two():
    src = HolomorphicExpansion([(Fraction(1), 0.3 - 0.4j), (Fraction(3), 0.8j)])
    lam = Fraction(3)
    a = math.pi / float(lam)
    rec = extract_coefficients(shift_difference(src, a), default_params())
    assert abs(rec.coefficient(lam) - (-2.0) * src.coefficient(lam)) < 1e-12


def test_sampled_sup_dominates_every_coefficient(rng):
    for _ in range(10):
        src = random_expansion_sixths(rng)
        M = sampled_sup(src, default_params())
        report = verify_cauchy_bound(src, src, M)
        assert report.passed, (report.max_ratio, report.worst_level)
        # |f| <= sum |c_j| e^(-lambda_j x) on the half-plane
        assert M <= sum(abs(c) for _, c in src.pairs()) * (1 + 1e-12)


def test_sampled_sup_is_one_batched_call_on_one_line():
    src = HolomorphicExpansion([(Fraction(1, 3), 1.0), (Fraction(5, 2), 0.5j)])
    lines = []

    def counting(z):
        lines.append(np.unique(np.real(z)))
        return src(z)

    params = default_params()
    assert sampled_sup(counting, params) == sampled_sup(src, params)
    assert len(lines) == 1
    assert lines[0].tolist() == [SUP_X]


def test_cauchy_bound_never_evaluates_the_oracle():
    e = HolomorphicExpansion([(Fraction(1), 0.5), (Fraction(2), -0.5)])
    report = verify_cauchy_bound(e, never_called, 1.0)
    assert report.passed and report.max_ratio == pytest.approx(0.5)


def test_cauchy_bound_flags_oversized_coefficient():
    e = HolomorphicExpansion([(Fraction(2), 3.0)])
    report = verify_cauchy_bound(e, e, 1.0)
    assert not report.passed
    assert report.max_ratio == pytest.approx(3.0)
    assert report.worst_level == 2.0


def test_cauchy_bound_nan_coefficient_fails_at_its_level():
    e = HolomorphicExpansion([(1, complex(math.nan)), (2, 0.5)])
    report = verify_cauchy_bound(e, never_called, 1.0)
    assert not report.passed
    assert math.isnan(report.max_ratio)
    assert report.worst_level == 1.0


@pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_cauchy_bound_rejects_a_bound_that_is_not_finite_and_positive(M):
    e = HolomorphicExpansion([(1, 0.5)])
    with pytest.raises(ValueError, match="bound M must be positive and finite"):
        verify_cauchy_bound(e, never_called, M)


def test_cauchy_bound_single_exponential_attains_one():
    e = HolomorphicExpansion([(Fraction(1), 1.0)])
    report = verify_cauchy_bound(e, e, 1.0)
    assert report.passed
    assert report.max_ratio == pytest.approx(1.0)


def test_residual_decay_rate_after_each_level(rng):
    # removing j levels leaves a residual decaying at the next level's rate
    for _ in range(8):
        src = random_expansion_sixths(rng, max_terms=5)
        pairs = src.nonzero_pairs()
        if len(pairs) < 2:
            continue
        y = quadrature_nodes(default_params())
        for j in range(len(pairs) - 1):
            lam_next = float(pairs[j + 1][0])
            f_j = residual(src, src, j)
            xs = np.linspace(1.0, min(3.0, 22.0 / max(lam_next, 1.0)), 5)
            sups = [float(np.max(np.abs(f_j(x + 1j * y)))) for x in xs]
            rate = fitted_decay_rate(xs, sups)
            assert rate is not None
            assert rate >= lam_next - 0.05


def test_cauchy_bound_two_term_difference():
    # both coefficients 1/2; the boundary-segment sup exceeds them
    e = HolomorphicExpansion([(Fraction(1), 0.5), (Fraction(2), -0.5)])
    grid = level_grid(DiagonalField((Fraction(1),)), 3)
    M = sampled_sup(e, default_params(grid))
    report = verify_cauchy_bound(e, e, M)
    assert report.passed
    assert report.max_ratio <= 1.0


def test_scalar_only_oracle_warns_once_and_matches_batched():
    z = np.linspace(0.1, 2.0, 7) + 1j * np.linspace(-1.0, 1.0, 7)
    batched = full_read(lambda w: np.exp(-w) + w ** 2, z)
    with pytest.warns(RuntimeWarning, match="point by point") as record:
        scalar = full_read(lambda w: cmath.exp(-complex(w)) + complex(w) ** 2, z)
    assert len(record) == 1
    assert scalar == pytest.approx(batched, rel=1e-15)


def test_point_by_point_failure_keeps_the_values_before_it():
    def oracle(z):
        if complex(z[0]).real > 0.5:
            raise RuntimeError("no data here")
        return complex(z[0]) * complex(z[1])

    points = np.array([[0.1, 0.2], [0.3, 0.4], [0.6, 0.1], [0.2, 0.2]])
    with pytest.warns(RuntimeWarning):
        values, note = evaluate_prefix(oracle, points)
    assert values.tolist() == [0.1 * 0.2 + 0j, 0.3 * 0.4 + 0j]
    assert note == "oracle failed: no data here"


def dbar_z2(oracle, z):
    """d oracle / d zbar_2 at z from one full read of the 4 x 4 circle batch."""
    points = np.tile(np.asarray(z, dtype=complex), (len(CIRCLE), 1))
    points[:, 1] += FD_STEP * CIRCLE
    return dbar_circle(full_read(oracle, points))[1]


def test_square_batch_of_a_single_point_oracle_is_not_misread():
    # with N = 4 the four circle samples form a 4 x 4 batch, and z[0] * z[1]
    # of that batch has the right shape but multiplies rows, not coordinates
    z = (0.1 + 0.2j, 0.3 - 0.1j, -0.2 + 0.1j, 0.4j)
    with pytest.warns(RuntimeWarning, match="single-point"):
        assert abs(dbar_z2(lambda w: w[0] * w[1], z)) < 1e-8
    with pytest.warns(RuntimeWarning, match="single-point"):
        assert dbar_z2(lambda w: w[0] * np.conj(w[1]), z) == pytest.approx(z[0], abs=1e-8)


def test_square_batch_of_a_batched_oracle_is_accepted():
    z = (0.1 + 0.2j, 0.3 - 0.1j, -0.2 + 0.1j, 0.4j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch_only = dbar_z2(lambda w: w[:, 0] * np.conj(w[:, 1]), z)
        either = dbar_z2(lambda w: np.asarray(w)[..., 0] * np.conj(np.asarray(w)[..., 1]), z)
    assert batch_only == pytest.approx(z[0], abs=1e-8)
    assert either == pytest.approx(z[0], abs=1e-8)


def test_square_batch_of_a_batched_oracle_is_read_in_one_call():
    # the batch goes once with its first point repeated, and a batched oracle returns
    # N + 1 values; one that also takes single points gets no per-point call either
    shapes = []

    def oracle(w):
        shapes.append(np.shape(w))
        w = np.asarray(w)
        return w[..., 0] * np.conj(w[..., 1])

    points = (0.1 + 0.05j) * np.arange(16).reshape(4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = full_read(oracle, points)
    assert shapes == [(5, 4)]
    assert np.array_equal(values, points[:, 0] * np.conj(points[:, 1]))
