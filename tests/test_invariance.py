"""Verdicts under maps that the Forelli-type theorem does not see.

The hypothesis and the conclusion of the theorem are unchanged by (a) a
positive rescaling of the field, (b) a permutation of the coordinates, (c) a
diagonal rotation z_j -> e^(i theta_j) z_j, (d) a dilation phi(rho z) and
(e) an amplitude s phi.  Each row maps an input and asserts that
``forelli_pipeline`` gives the mapped input the tag of the input, seed by
seed.  Rows that fail on the current pipeline are strict xfails naming the
ROADMAP item that fixes them; a row whose outcome depends on the seed is left
out, with a comment where it would stand.
"""

from fractions import Fraction

import numpy as np
import pytest

from holoflow import (DiagonalField, ForelliConfig, JetOracle, TaylorSeries, eval_taylor,
                      forelli_pipeline)
from holoflow.counterex import ResonantExample, phi_remark
from holoflow.forelli import CERT_POINTS, CERT_RADIUS
from holoflow.sampling import polydisk_points

from conftest import full_read, random_jet

SEEDS = range(10)
RATES = (Fraction(1), Fraction(2))
THETA = np.array([0.7, -1.9])
RESONANT = ResonantExample(1.0)
ZERO_JET = TaylorSeries.zero(2)


def sampled_bound(oracle, seed):
    """The sup bound as ``holoflow run`` samples it, on the CERT_RADIUS torus."""
    points = polydisk_points(np.random.default_rng(seed + 1), 2, CERT_POINTS,
                             r_min=CERT_RADIUS, r_max=CERT_RADIUS)
    return max(float(np.max(np.abs(full_read(oracle, points)))), 1e-12)


def jet_case(seed, mixed):
    """A random holomorphic degree-3 jet, plus 1e-3 conj(z1) z2 if mixed, as its own oracle."""
    jet = random_jet(np.random.default_rng(1000 + seed), 2, 3, 4, mixed=False)
    if mixed:
        jet = jet + TaylorSeries.monomial(2, (0, 1), (1, 0), 1e-3)
    oracle = lambda z: eval_taylor(jet, z)
    return oracle, jet, RATES, sampled_bound(oracle, seed)


def resonant_case(seed):
    return RESONANT, ZERO_JET, RATES, 1.0


def remark_case(seed):
    """conj(z1 z2) and its jet, on the rates of the other families."""
    return phi_remark, TaylorSeries.monomial(2, (0, 0), (1, 1)), RATES, 1.0


CASES = {
    "holomorphic-jet": lambda seed: jet_case(seed, mixed=False),
    "mixed-jet": lambda seed: jet_case(seed, mixed=True),
    "resonant": resonant_case,
    "remark": remark_case,
}


def swap(oracle, jet, rates, bound):
    """(b): w = (z2, z1); the sup is unchanged."""
    terms = {(k[::-1], m[::-1]): a for (k, m), a in jet.terms().items()}
    return (lambda w: oracle(np.asarray(w)[:, ::-1]), TaylorSeries(2, terms), rates[::-1],
            bound)


def rotate(oracle, jet, rates, bound):
    """(c): w_j = e^(i theta_j) z_j, so a z^k conj(z)^m has coefficient
    a e^(-i theta.(k - m)) in w; the sup is unchanged."""
    unit = np.exp(1j * THETA)
    terms = {(k, m): a * complex(np.prod(unit.conjugate() ** np.array(k) * unit ** np.array(m)))
             for (k, m), a in jet.terms().items()}
    return (lambda w: oracle(np.asarray(w) * unit.conjugate()), TaylorSeries(2, terms), rates,
            bound)


def tag(oracle, jet, rates, bound, seed):
    jo = JetOracle(oracle, jet, bound)
    return forelli_pipeline(jo, DiagonalField(rates), ForelliConfig(seed=seed)).tag


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("mapping", [swap, rotate], ids=["b-swap", "c-rotation"])
def test_a_permutation_or_rotation_keeps_the_verdict(case, mapping):
    for seed in SEEDS:
        data = CASES[case](seed)
        assert tag(*mapping(*data), seed) == tag(*data, seed), seed


def scale(c):
    """(a): the field c F, c > 0, with the same oracle, jet and bound."""
    def mapping(oracle, jet, rates, bound):
        return oracle, jet, tuple(c * r for r in rates), bound
    return mapping


ITEM_11 = pytest.mark.xfail(strict=True, reason="ROADMAP item 11: zeta is drawn in fixed units, "
                                                "so from rates (10, 20) on phi is below 1e-14 "
                                                "on every curve")


# the resonant row at c = 3 is left out: it fails on 42 of seeds 0 to 199
@pytest.mark.parametrize("case, c", [
    *(("holomorphic-jet", c) for c in ("1/10", "1/3", "3", "10", "100")),
    ("resonant", "1/10"),
    ("resonant", "1/3"),
])
def test_a_rate_scale_keeps_the_verdict(case, c):
    for seed in SEEDS:
        data = CASES[case](seed)
        assert tag(*scale(Fraction(c))(*data), seed) == tag(*data, seed), seed


@ITEM_11
@pytest.mark.parametrize("seed", SEEDS)
def test_a_rate_scale_keeps_the_resonant_verdict(seed, c=10):
    data = resonant_case(seed)
    assert tag(*scale(c)(*data), seed) == tag(*data, seed)


@ITEM_11
@pytest.mark.parametrize("seed", SEEDS)
def test_a_hundredfold_rate_scale_keeps_the_resonant_verdict(seed):
    test_a_rate_scale_keeps_the_resonant_verdict(seed, c=100)


def dilated(seed):
    """(d): phi(0.3 z), with its bound sampled again."""
    oracle = lambda z: RESONANT(0.3 * np.asarray(z))
    return oracle, ZERO_JET, RATES, sampled_bound(oracle, seed)


def scaled(seed):
    """(e): 1e-7 phi, with its bound sampled again."""
    oracle = lambda z: 1e-7 * RESONANT(z)
    return oracle, ZERO_JET, RATES, sampled_bound(oracle, seed)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the curve check's score is absolute, "
                                       "not relative to the circle's sup")
@pytest.mark.parametrize("mapping", [dilated, scaled], ids=["d-dilation", "e-amplitude"])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_dilation_or_amplitude_keeps_the_resonant_verdict(mapping, seed):
    assert tag(*mapping(seed), seed) == tag(*resonant_case(seed), seed)
