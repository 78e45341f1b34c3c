"""Pipeline stages: curve checks, vanishing, reconstruction, verdict logic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holoflow import (ANTIHOLOMORPHIC_OBSTRUCTION, HOLOMORPHIC,
                      HYPOTHESIS_VIOLATED, NOT_F_HOLOMORPHIC, BasePoint,
                      DiagonalField, ForelliConfig, JetOracle, SpectrumError,
                      TaylorSeries, antiholomorphic_vanishing, eval_taylor,
                      antiholomorphic_part, f_holomorphy_check,
                      forelli_pipeline, integral_curve, normalize_time,
                      reconstruct)
from holoflow import forelli
from holoflow.counterex import ResonantExample
from holoflow.flow import level_of
from holoflow.series import N_DIRECTIONS, taylor_remainder_check

from conftest import random_jet, random_positive_field


def jet_oracle(jet: TaylorSeries, bound: float | None = None) -> JetOracle:
    if bound is None:
        # crude coefficient-sum bound, always >= sup on the polydisk
        bound = sum(abs(a) for a in jet.terms().values()) or 1.0
    return JetOracle(lambda z: eval_taylor(jet, z), jet, bound)


CURVES = [BasePoint((0.4, 0.3)), BasePoint((0.25 - 0.3j, 0.5j)), BasePoint((0.6, 0.1))]
ZETAS = [0.2 + 0.0j, 0.5 + 0.7j, 1.0 - 0.4j, 1.5 + 1.1j]


@pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0])
def test_jet_oracle_rejects_a_bound_that_is_not_finite_and_nonnegative(bound):
    # a NaN or infinite bound made the comparison threshold compare_tol * bound
    # NaN or inf, so z1 + z2 against the jet z1 read holomorphic
    jet = TaylorSeries.monomial(2, (1, 0), (0, 0))
    oracle = lambda z: z[:, 0] + z[:, 1]
    verdict = forelli_pipeline(JetOracle(oracle, jet, 1.0), DiagonalField((1, 2)))
    assert verdict.tag == HYPOTHESIS_VIOLATED
    with pytest.raises(ValueError, match="bound must be finite and >= 0"):
        JetOracle(oracle, jet, bound)


@pytest.mark.parametrize("compare_tol", [math.nan, math.inf, 0.0, -1e-10])
def test_forelli_config_rejects_a_compare_tol_that_is_not_finite_and_positive(compare_tol):
    # a NaN or infinite compare_tol made the threshold compare_tol * bound NaN or inf,
    # so exp(z1 + z2) against its degree-1 jet read holomorphic
    jet = TaylorSeries(2, {((0, 0), (0, 0)): 1, ((1, 0), (0, 0)): 1, ((0, 1), (0, 0)): 1})
    oracle = lambda z: np.exp(z[:, 0] + z[:, 1])
    verdict = forelli_pipeline(JetOracle(oracle, jet, math.e ** 2), DiagonalField((1, 2)))
    assert verdict.tag == HYPOTHESIS_VIOLATED
    with pytest.raises(ValueError, match="compare_tol must be finite and > 0"):
        ForelliConfig(compare_tol=compare_tol)


def test_curve_check_passes_for_holomorphic_function():
    jo = jet_oracle(TaylorSeries.monomial(2, (2, 0), (0, 0)))
    report = f_holomorphy_check(jo, DiagonalField((1, 2)), CURVES, ZETAS)
    assert report.passed
    assert report.max_residual < 1e-8


def test_curve_check_makes_one_call_of_four_points_per_sample():
    jet = TaylorSeries.monomial(2, (2, 0), (0, 0))
    sizes = []

    def oracle(z):
        sizes.append(len(z))
        return eval_taylor(jet, z)

    report = f_holomorphy_check(JetOracle(oracle, jet, 1.0), DiagonalField((1, 2)),
                                CURVES, ZETAS)
    assert report.passed
    assert sizes == [4 * len(CURVES) * len(ZETAS)]


def test_curve_check_makes_one_curve_call_per_check(monkeypatch):
    calls = []

    def counted(field, c, zeta):
        calls.append((np.shape(c), np.shape(zeta)))
        return integral_curve(field, c, zeta)

    monkeypatch.setattr(forelli, "integral_curve", counted)
    jet = TaylorSeries.monomial(2, (2, 0), (0, 0))
    verdict = forelli_pipeline(jet_oracle(jet), DiagonalField((1, 2)),
                               ForelliConfig(n_curves=24, n_zeta=48))
    assert verdict.tag == HOLOMORPHIC
    assert calls == [((24, 1, 1, 2), (48, 4))]  # shared zetas: broadcast over the curves


def test_curve_check_passes_for_resonant_invariant():
    def oracle(z):
        prod = abs(z[0]) * abs(z[1])
        return 0.0 if prod == 0 else math.exp(-1.0 / prod)

    jo = JetOracle(oracle, TaylorSeries.zero(2), 1.0)
    field = DiagonalField((1, -1))
    zetas = [0.1 + 0.3j, 0.3 - 0.8j, 0.5 + 0.2j]  # shallow: keep curves in the bidisk
    report = f_holomorphy_check(jo, field, CURVES, zetas)
    assert report.passed


def test_curve_check_fails_for_conjugate_coordinate():
    jo = JetOracle(lambda z: complex(z[0]).conjugate(),
                   TaylorSeries.monomial(2, (0, 0), (1, 0)), 1.0)
    report = f_holomorphy_check(jo, DiagonalField((1, 1)), CURVES, ZETAS)
    assert not report.passed
    assert report.witness is not None


def test_curve_check_rejects_escaping_curve():
    jo = jet_oracle(TaylorSeries.monomial(2, (1, 0), (0, 0)))
    field = DiagonalField((1, -1))  # second coordinate grows with Re zeta
    with pytest.raises(ValueError, match="leaves the polydisk"):
        f_holomorphy_check(jo, field, [BasePoint((0.3, 0.9))], [2.0 + 0j])


def test_curve_check_oracle_failure_is_inconclusive():
    def oracle(z):
        raise RuntimeError("sensor gap")

    jo = JetOracle(oracle, TaylorSeries.zero(2), 1.0)
    report = f_holomorphy_check(jo, DiagonalField((1, 1)), CURVES, ZETAS)
    assert report.inconclusive and not report.passed


def test_curve_check_nan_value_is_inconclusive_at_its_point():
    jet = TaylorSeries.monomial(2, (2, 0), (0, 0))
    field = DiagonalField((1, 2))
    nan_point = integral_curve(field, CURVES[1].coords, ZETAS[2] + forelli.FD_STEP * 1j)

    def oracle(z):
        return np.where(np.all(z == nan_point, axis=1), np.nan, eval_taylor(jet, z))

    report = f_holomorphy_check(JetOracle(oracle, jet, 1.0), field, CURVES, ZETAS)
    assert report.inconclusive and not report.passed
    assert report.note == f"non-finite oracle value at {nan_point}"
    assert report.witness == (CURVES[1].coords, ZETAS[2])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_curve_check_infinite_circle_mean_is_inconclusive_not_a_pass():
    # the circle mean overflows while dbar stays finite: |dbar| / (1 + inf) read 0
    def oracle(scale):
        return lambda z: scale * np.conj(z[:, 0]) + scale

    base, zetas = [BasePoint((0.4, 0.3))], [0.5 + 0.2j, 1 + 1j]
    args = (DiagonalField((1, 1)), base, zetas)
    report = f_holomorphy_check(JetOracle(oracle(1e308), TaylorSeries.zero(2), 1.0), *args)
    assert report.inconclusive and not report.passed
    assert report.note == "non-finite residual"
    assert report.witness == ((0.4, 0.3), 0.5 + 0.2j)
    finite = f_holomorphy_check(JetOracle(oracle(1e300), TaylorSeries.zero(2), 1.0), *args)
    assert not finite.passed and not finite.inconclusive and finite.max_residual > 0.1


def test_pipeline_with_a_nan_on_a_curve_is_hypothesis_violated():
    jet = TaylorSeries.monomial(2, (2, 0), (0, 0))
    calls = []

    def oracle(z):
        calls.append(len(z))
        values = eval_taylor(jet, z)
        if len(calls) == 1:  # the curve check's one call
            values[7] = np.nan
        return values

    verdict = forelli_pipeline(JetOracle(oracle, jet, 1.0), DiagonalField((1, 2)))
    assert verdict.tag == HYPOTHESIS_VIOLATED
    assert verdict.reason.startswith("curve check inconclusive: non-finite oracle value at (")


def test_vanishing_passes_for_holomorphic_jet(rng):
    jet = random_jet(rng, 2, 5, 6, mixed=False)
    assert antiholomorphic_vanishing(jet, DiagonalField((1, 2))) == []


def test_vanishing_fails_with_witness_value():
    jet = TaylorSeries.monomial(2, (0, 0), (1, 1))
    assert antiholomorphic_vanishing(jet, DiagonalField((1, 1))) == [
        (Fraction(2), ((0, 0), (1, 1)), 1)]
    verdict = forelli_pipeline(JetOracle(lambda z: 0 * z[:, 0], jet, 1.0),
                               DiagonalField((1, 1)))
    assert verdict.tag == ANTIHOLOMORPHIC_OBSTRUCTION
    assert verdict.level == 2 and verdict.witness == (((0, 0), (1, 1)), 1)
    assert verdict.diagnostics["vanishing"] == {"passed": False, "terms": 1}


def test_vanishing_requires_positive_ratios():
    jet = TaylorSeries.monomial(2, (0, 0), (1, 1))
    with pytest.raises(SpectrumError):
        antiholomorphic_vanishing(jet, DiagonalField((1, -1)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_vanishing_exact_and_randomized_agree(seed, dim, mixed):
    # the list is the anti-holomorphic part, sorted by the level on the normalized rates
    rng = np.random.default_rng(seed)
    jet = random_jet(rng, dim, 4, 5, mixed=mixed)
    field = random_positive_field(rng, dim)
    if rng.integers(0, 2):  # the same field with tau = -1 normalizes to it
        field = DiagonalField(tuple(-r for r in field.rates), -1)
    terms = antiholomorphic_vanishing(jet, field)
    assert (terms == []) == (not antiholomorphic_part(jet))
    assert {key: a for _level, key, a in terms} == antiholomorphic_part(jet).terms()
    levels = [level for level, _key, _a in terms]
    rates = normalize_time(field)[0].rates
    assert levels == sorted(levels)
    assert levels == [level_of(k, rates) + level_of(m, rates) for _level, (k, m), _a in terms]


def test_reconstruct_returns_holomorphic_part():
    jet = TaylorSeries(2, {((1, 0), (0, 0)): 0.5, ((0, 0), (0, 1)): 0.25})
    psi, report = reconstruct(jet_oracle(jet), DiagonalField((1, 1)))
    assert psi == TaylorSeries.monomial(2, (1, 0), (0, 0), 0.5)
    assert report.passed


def test_reconstruct_accepts_extremal_coefficient():
    jet = TaylorSeries.monomial(2, (1, 0), (0, 0))
    psi, report = reconstruct(JetOracle(lambda z: eval_taylor(jet, z), jet, 1.0),
                              DiagonalField((1, 1)))
    assert psi == jet
    assert report.passed  # |a| = 1 <= M = 1 within the sampling slack


def test_reconstruct_flags_jet_bound_inconsistency():
    jet = TaylorSeries.monomial(2, (1, 0), (0, 0), 2.0)
    _, report = reconstruct(JetOracle(lambda z: eval_taylor(jet, z), jet, 1.0),
                            DiagonalField((1, 1)))
    assert not report.passed
    assert report.worst_level_ratio > 1.5


def test_pipeline_positive_quadratic():
    jet = TaylorSeries(2, {((1, 0), (0, 0)): 1.0, ((0, 2), (0, 0)): 1.0})
    verdict = forelli_pipeline(jet_oracle(jet), DiagonalField((1, 2)))
    assert verdict.tag == HOLOMORPHIC
    assert verdict.psi == jet
    assert verdict.diagnostics["comparison"]["max_diff"] < 1e-10


STAGES = ("spectrum", "f_holomorphy", "vanishing", "reconstruction", "comparison")
Z1 = TaylorSeries.monomial(2, (1, 0), (0, 0))


def test_a_holomorphic_run_folds_every_stage_in_order():
    verdict = forelli_pipeline(jet_oracle(Z1), DiagonalField((1, 2)))
    assert verdict.tag == HOLOMORPHIC
    assert tuple(verdict.diagnostics) == STAGES


#: the degree-4 jet of exp(z1 + z2); the remainder is about 1e-2 at radius 0.5
EXP_JET = TaylorSeries(2, {((i, j), (0, 0)): 1 / (math.factorial(i) * math.factorial(j))
                           for i in range(5) for j in range(5 - i)})
#: the jet of the oracle z1 plus 1e-3 conj(z1) z2
MIXED_JET = Z1 + TaylorSeries.monomial(2, (0, 1), (1, 0), 1e-3)
#: inputs that each end at their own stage: (oracle, rates, stage, tag)
EXITS = {
    "mixed-field": (jet_oracle(Z1), (1, -1), "spectrum", HYPOTHESIS_VIOLATED),
    "resonant": (JetOracle(ResonantExample(1.0), TaylorSeries.zero(2), 1.0), (1, 2),
                 "f_holomorphy", NOT_F_HOLOMORPHIC),
    "mixed-jet": (JetOracle(lambda z: z[:, 0], MIXED_JET, 1.0), (1, 2),
                  "vanishing", ANTIHOLOMORPHIC_OBSTRUCTION),
    "small-bound": (jet_oracle(Z1, 0.1), (1, 2), "reconstruction", HYPOTHESIS_VIOLATED),
    "truncated-exp": (JetOracle(lambda z: np.exp(z[:, 0] + z[:, 1]), EXP_JET, math.e ** 2),
                      (1, 2), "comparison", HYPOTHESIS_VIOLATED),
}


@pytest.mark.parametrize("case", EXITS)
def test_each_stage_ends_the_run_with_the_diagnostics_so_far(case):
    jo, rates, stage, tag = EXITS[case]
    verdict = forelli_pipeline(jo, DiagonalField(rates))
    assert verdict.tag == tag
    assert tuple(verdict.diagnostics) == STAGES[: STAGES.index(stage) + 1]


def test_pipeline_hypothesis_violated_on_mixed_field():
    jet = TaylorSeries.monomial(2, (0, 0), (1, 1))
    jo = JetOracle(lambda z: (complex(z[0]) * complex(z[1])).conjugate(), jet, 1.0)
    verdict = forelli_pipeline(jo, DiagonalField((1, -1)))
    assert verdict.tag == HYPOTHESIS_VIOLATED
    assert verdict.diagnostics["spectrum"] == "mixed"


def test_pipeline_not_f_holomorphic_for_conjugate():
    jet = TaylorSeries.monomial(2, (0, 0), (1, 0))
    jo = JetOracle(lambda z: complex(z[0]).conjugate(), jet, 1.0)
    verdict = forelli_pipeline(jo, DiagonalField((1, 1)))
    assert verdict.tag in (NOT_F_HOLOMORPHIC, ANTIHOLOMORPHIC_OBSTRUCTION)


def test_pipeline_resonant_oracle_forced_onto_positive_field():
    # the resonant function is curve-holomorphic only for the mixed field;
    # forcing rates (1, 1) must fail the curve stage
    def oracle(z):
        prod = abs(z[0]) * abs(z[1])
        return 0.0 if prod == 0 else math.exp(-1.0 / prod)

    jo = JetOracle(oracle, TaylorSeries.zero(2), 1.0)
    verdict = forelli_pipeline(jo, DiagonalField((1, 1)))
    assert verdict.tag == NOT_F_HOLOMORPHIC


def test_pipeline_catches_antiholomorphic_perturbation(rng):
    for eps in (1e-4, 1e-2):
        jet = random_jet(rng, 2, 4, 4, mixed=False)
        spoiled = jet + TaylorSeries.monomial(2, (0, 0), (2, 0), eps)
        jo = JetOracle(lambda z, s=spoiled: eval_taylor(s, z), spoiled,
                       sum(abs(a) for a in spoiled.terms().values()))
        verdict = forelli_pipeline(jo, DiagonalField((1, 1)))
        assert verdict.tag in (NOT_F_HOLOMORPHIC, ANTIHOLOMORPHIC_OBSTRUCTION)


def test_pipeline_random_holomorphic_jets(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        jet = random_jet(rng, dim, 6, 6, mixed=False)
        rates = tuple(int(rng.integers(1, 4)) for _ in range(dim))
        verdict = forelli_pipeline(jet_oracle(jet), DiagonalField(rates))
        assert verdict.tag == HOLOMORPHIC
        assert verdict.diagnostics["comparison"]["max_diff"] < 1e-10


def test_pipeline_deterministic_given_seed():
    jet = TaylorSeries(2, {((2, 1), (0, 0)): 0.3 - 0.7j, ((1, 0), (0, 0)): 1j})
    jo = jet_oracle(jet)
    field = DiagonalField((2, 3))
    v1 = forelli_pipeline(jo, field, ForelliConfig(seed=123))
    v2 = forelli_pipeline(jo, field, ForelliConfig(seed=123))
    assert v1.to_json_dict() == v2.to_json_dict()


def test_verdict_json_round_trips_through_repr():
    jet = TaylorSeries.monomial(1, (1,), (0,))
    verdict = forelli_pipeline(jet_oracle(jet), DiagonalField((1,)))
    payload = verdict.to_json_dict()
    assert payload["tag"] == HOLOMORPHIC
    assert payload["psi_terms"] == [[[1], [0], 1.0, 0.0]]


def test_jet_oracle_validates_its_own_remainders():
    jet = TaylorSeries(2, {((1, 0), (0, 0)): 1.0, ((0, 2), (0, 0)): -0.5j})
    jo = jet_oracle(jet)
    reports = jo.validate_jet()
    assert len(reports) == jet.degree + 1
    assert all(r.passed for r in reports)


def test_jet_oracle_validation_reads_its_oracle_once():
    jet = TaylorSeries(2, {((1, 0), (0, 0)): 1.0, ((0, 2), (0, 1)): -0.5j})
    calls = []

    def oracle(z):
        calls.append(len(z))
        return eval_taylor(jet, z)

    jo = JetOracle(oracle, jet, 1.0)
    radii = (0.3, 0.2, 0.12, 0.08, 0.05)
    reports = jo.validate_jet(radii)
    assert calls == [(jet.degree + 1) * len(radii) * N_DIRECTIONS]
    assert reports == [taylor_remainder_check(jo.oracle, jet, n, radii, tol=1e-6)
                       for n in range(jet.degree + 1)]
    assert all(r.passed for r in reports)


def test_jet_oracle_validation_flags_wrong_jet():
    lying_jet = TaylorSeries.monomial(2, (1, 0), (0, 0), 2.0)  # claims 2 z1
    jo = JetOracle(lambda z: complex(z[0]), lying_jet, 1.0)    # function is z1
    reports = jo.validate_jet()
    assert not all(r.passed for r in reports)


def test_pipeline_resonant_oracle_on_its_own_field_is_hypothesis_violated():
    def oracle(z):
        prod = abs(z[0]) * abs(z[1])
        return 0.0 if prod == 0 else math.exp(-1.0 / prod)

    jo = JetOracle(oracle, TaylorSeries.zero(2), 1.0)
    verdict = forelli_pipeline(jo, DiagonalField((1, -1)))
    assert verdict.tag == HYPOTHESIS_VIOLATED
    assert verdict.diagnostics["spectrum"] == "mixed"


def test_vanishing_bilinear_sum_documented_value():
    # z1 conj(z2) + conj(z1) conj(z2)^2 along (1, 2): levels 1 + 2 = 3 and 1 + 4 = 5
    jet = TaylorSeries(2, {((1, 0), (0, 1)): 0.5, ((0, 0), (1, 2)): 0.25j})
    assert antiholomorphic_vanishing(jet, DiagonalField((1, 2))) == [
        (Fraction(3), ((1, 0), (0, 1)), 0.5), (Fraction(5), ((0, 0), (1, 2)), 0.25j)]


def test_obstruction_below_any_sampling_threshold_names_its_level():
    # the oracle is z1 and the jet adds 1e-12 conj(z1) conj(z2): a coefficient
    # that small is still anti-holomorphic data, at level 1 + 1 = 2
    jet = TaylorSeries(2, {((1, 0), (0, 0)): 1.0, ((0, 0), (1, 1)): 1e-12})
    verdict = forelli_pipeline(JetOracle(lambda z: z[:, 0], jet, 1.0), DiagonalField((1, 1)))
    assert verdict.tag == ANTIHOLOMORPHIC_OBSTRUCTION
    assert verdict.level == 2 and verdict.witness == (((0, 0), (1, 1)), 1e-12)
    assert verdict.to_json_dict()["level"] == "2"


def test_curve_check_without_curves_passes():
    jo = jet_oracle(TaylorSeries.monomial(2, (1, 0), (0, 0)))
    report = f_holomorphy_check(jo, DiagonalField((1, 1)), [], ZETAS)
    assert report.passed and report.max_residual == 0.0


def test_config_rejects_a_zero_sample_count_by_name():
    # zero samples gave max_residual 0.0 and read holomorphic; then the run
    # ended mid-pipeline, with no f_holomorphy entry
    for name in ("n_curves", "n_zeta"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            ForelliConfig(**{name: 0})


@pytest.mark.parametrize("name", ["n_curves", "n_zeta", "compare_points"])
def test_config_rejects_a_negative_count_by_name(name):
    # each ended in numpy's "negative dimensions are not allowed" mid-pipeline
    least = 0 if name == "compare_points" else 1
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got -1$"):
        ForelliConfig(**{name: -1})


def test_comparison_without_points_passes():
    jo = jet_oracle(TaylorSeries.monomial(2, (1, 0), (0, 0)))
    verdict = forelli_pipeline(jo, DiagonalField((1, 1)), ForelliConfig(compare_points=0))
    assert verdict.tag == HOLOMORPHIC
    assert verdict.diagnostics["comparison"]["max_diff"] == 0.0


def test_comparison_fails_on_a_nan_value():
    # curves keep |z_1| >= 0.15 e^{-2}, so only comparison points reach the
    # band |z_1| < 0.02: NaN below 0.01, off by 1 between 0.01 and 0.02
    jet = TaylorSeries.monomial(2, (1, 1), (0, 0))

    def oracle(z):
        r = np.abs(z[..., 0])
        values = eval_taylor(jet, z)
        return np.where(r < 0.01, np.nan, np.where(r < 0.02, values + 1.0, values))

    config = ForelliConfig(compare_points=2000)
    verdict = forelli_pipeline(JetOracle(oracle, jet, 1.0), DiagonalField((1, 1)), config)
    assert verdict.tag == HYPOTHESIS_VIOLATED
    assert abs(verdict.witness[0]) < 0.01


def test_pipeline_witnesses_are_tuples_of_coordinates():
    # the vanishing failure names ((k, m), a); the comparison failure a point
    holo = TaylorSeries.monomial(2, (1, 0), (0, 0))
    spoiled = holo + TaylorSeries.monomial(2, (0, 0), (1, 1), 0.5)
    vanish = forelli_pipeline(JetOracle(lambda z: eval_taylor(holo, z), spoiled, 1.0),
                              DiagonalField((1, 1)))
    assert vanish.tag == ANTIHOLOMORPHIC_OBSTRUCTION
    (k, m), a = vanish.witness
    assert (k, m, a) == ((0, 0), (1, 1), 0.5) and type(a) is complex
    assert vanish.to_json_dict()["witness"] == "(((0, 0), (1, 1)), (0.5+0j))"

    def off(z):
        return eval_taylor(holo, z) + 1e-6 * np.asarray(z)[..., 0] ** 3

    compare = forelli_pipeline(JetOracle(off, holo, 1.0), DiagonalField((1, 1)))
    assert compare.tag == HYPOTHESIS_VIOLATED and "differs" in compare.reason
    assert type(compare.witness) is tuple
    assert [type(c) for c in compare.witness] == [complex] * 2


def test_witness_strings_hold_plain_numbers():
    # the comparison witness was written as "(np.complex128(...), ...)"
    z1 = TaylorSeries.monomial(2, (1, 0), (0, 0))
    field = DiagonalField((1, 2))
    cases = {
        "comparison": JetOracle(lambda z: z[:, 0] + 1e-3 * z[:, 0] ** 5, z1, 1.0),
        "curve": JetOracle(lambda z: np.conj(z[:, 0]), z1, 1.0),
        "nan": JetOracle(lambda z: np.where(np.abs(z[:, 0]) > 0.3, np.nan, z[:, 0]), z1, 1.0),
        "obstruction": JetOracle(lambda z: z[:, 0],
                                 z1 + TaylorSeries.monomial(2, (0, 0), (1, 0)), 1.0),
    }
    for case, jo in cases.items():
        witness = forelli_pipeline(jo, field).to_json_dict()["witness"]
        assert "np." not in witness, case
    assert "differs" in forelli_pipeline(cases["comparison"], field).reason


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(Fraction(1, 8), 8, max_denominator=8), min_size=1, max_size=5),
       st.integers(0, 2**32 - 1))
def test_pipeline_keeps_every_drawn_curve(rates, seed):
    # base moduli <= 0.7, Re zeta >= 0.1 beyond the circle radius and positive
    # rates keep every circle point inside the polydisk
    dim = len(rates)
    jet = TaylorSeries.monomial(dim, (1,) + (0,) * (dim - 1), (0,) * dim)
    config = ForelliConfig(seed=seed)
    verdict = forelli_pipeline(jet_oracle(jet), DiagonalField(tuple(rates)), config)
    assert verdict.diagnostics["f_holomorphy"]["curves"] == config.n_curves
