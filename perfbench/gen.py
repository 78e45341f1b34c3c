"""Seeded job generators for the three benchmark workloads.

A job is plain data: a kind and a JSON-serialisable spec.  Nothing here
imports holoflow, so the inputs the program receives are fixed by the seed
alone and can be compared byte for byte (see :func:`spec_bytes`).

Every parameter is drawn from a range where the expected outcome holds by
construction; the reason is given next to each range.  Round ``r`` of a
workload is drawn from its own stream ``default_rng([seed, r])``, so a round
can be regenerated without replaying the rounds before it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

WORKLOADS = ("extract_ladder", "forelli_ladder", "scenario_mix")

# Extraction rungs: (rates, lambda_max, jobs per round, scalar-only jobs per
# round).  Levels and nodes per rung: 7/4096, 61/4096, 129/4096, 356/7701,
# 387/12601, 663/30021.  Of the 27 jobs of a round, 9 are faster than the
# vector jobs of the 129-level rung and 9 slower, so the median falls in the
# middle of those 9; the 90th percentile falls inside the three 387-level
# jobs.  Neither sits on a boundary between rungs.  Scalar-only jobs go on
# the 4096-node rungs only: the per-point fallback costs about 0.1 s there
# and would take seconds on the larger grids.
EXTRACT_RUNGS = (
    (("1/2",), "3", 6, 1),
    (("1/6",), "10", 5, 1),
    (("1/5", "1/7"), "4", 10, 1),
    (("1/7", "1/11"), "5", 2, 0),
    (("1/5", "1/7", "1/9"), "2", 3, 0),
    (("1/7", "1/11", "1/13"), "3/2", 1, 0),
)
#: nonzero coefficients per extraction source
EXTRACT_TERMS = 6

FORELLI_DIMS = (2, 3, 4, 5)
#: rates of the canonical fields; moderate so the finite-difference noise
#: floor (about 1e-9) stays three decades under the 1e-6 curve tolerance
RATE_CHOICES = ("1", "2", "3", "1/2", "3/2")

# Counterexample parameters.  Outside these ranges the suites fail on this
# code: resonant t = 3 fails its zero-jet remainder check, and the spiral
# suite fails for most alpha with Re alpha <= -1 (remainder radii outside
# double range, or no branch exponent when Im alpha is small).
RESONANT_T = ("1/2", "2/3", "1", "3/2", "2")
# Exponent t of exp(-1/(|z1|^t |z2|)) in the resonant Forelli scenario.  With
# t = 1 the default curve check (12 curves x 24 zetas) passes this function,
# which is not holomorphic along the curves, on about 1 seed in 1000 and the
# verdict comes out hypothesis_violated (scenario seed 808140174 shows it).
# At t = 0.5 the smallest residual over 3000 seeds is 10^-3.2, three decades
# above the 1e-6 tolerance.
FORELLI_RESONANT_T = "0.5"
SPIRAL_RE = (-0.75, -0.5)
SPIRAL_IM = (0.6, 2.0)
SPIRAL_T = (0.5, 1.5)

HOLOMORPHIC = "holomorphic"
NOT_F_HOLOMORPHIC = "not_f_holomorphic"
HYPOTHESIS_VIOLATED = "hypothesis_violated"


def grid_levels(rates, lambda_max) -> list[Fraction]:
    """Every sum_j n_j r_j <= lambda_max, by the benchmark's own enumeration."""
    lam = Fraction(lambda_max)
    levels = {Fraction(0)}
    for r in (Fraction(x) for x in rates):
        levels = {base + n * r for base in levels
                  for n in range(int((lam - base) / r) + 1)}
    return sorted(levels)


def _complex(rng, lo: float, hi: float) -> list[float]:
    """[re, im] of a complex number with modulus uniform in [lo, hi]."""
    mod = rng.uniform(lo, hi)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return [float(mod * math.cos(phase)), float(mod * math.sin(phase))]


def _multi_index(rng, dim: int, order: int) -> list[int]:
    k = [0] * dim
    for _ in range(order):
        k[int(rng.integers(dim))] += 1
    return k


def holomorphic_jet(rng, dim: int) -> list:
    """Terms [k, m, re, im] of a jet the Forelli pipeline calls holomorphic.

    A constant term c0 with |c0| in [1, 2] plus five terms of order 1..3
    whose moduli sum to s |c0|, s in [0.5, 0.9].  Any sample where the
    non-constant part points along c0 then gives a sampled bound >= |c0|,
    and every level polynomial has sup <= s |c0| on the unit torus, so the
    reconstruction audit passes for any sample set that is not degenerate.
    """
    c0 = _complex(rng, 1.0, 2.0)
    total = math.hypot(*c0) * rng.uniform(0.5, 0.9)
    weights = rng.uniform(0.1, 1.0, size=5)
    weights *= total / weights.sum()
    zero = [0] * dim
    terms = [[zero, zero, c0[0], c0[1]]]
    for w in weights:
        k = _multi_index(rng, dim, int(rng.integers(1, 4)))
        phase = rng.uniform(0.0, 2.0 * math.pi)
        terms.append([k, zero, float(w * math.cos(phase)), float(w * math.sin(phase))])
    return terms


def anti_term(rng, dim: int) -> list:
    """One z_i conj(z_j) term: its restriction to any curve is not holomorphic."""
    k, m = [0] * dim, [0] * dim
    k[int(rng.integers(dim))] = 1
    m[int(rng.integers(dim))] = 1
    return [k, m] + _complex(rng, 0.3, 1.0)


def positive_rates(rng, dim: int) -> list[str]:
    return [RATE_CHOICES[int(rng.integers(len(RATE_CHOICES)))] for _ in range(dim)]


def mixed_rates(rng, dim: int) -> list[str]:
    """Rates of both signs: the ratios are not all positive."""
    rates = positive_rates(rng, dim)
    flip = rng.permutation(dim)[: int(rng.integers(1, dim))]
    return [f"-{r}" if j in flip else r for j, r in enumerate(rates)]


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def extract_job(rng, rates, lambda_max, scalar: bool) -> dict:
    levels = grid_levels(rates, lambda_max)
    picks = sorted(rng.choice(len(levels), size=min(EXTRACT_TERMS, len(levels)),
                              replace=False))
    # moduli >= 0.1 keep every source term far above the 1e-6 snap-to-zero
    terms = [[str(levels[i])] + _complex(rng, 0.1, 1.0) for i in picks]
    return {"rates": list(rates), "lambda_max": lambda_max, "terms": terms,
            "levels": len(levels), "scalar": scalar}


def forelli_job(rng, dim: int, variant: str) -> dict:
    seed = _seed(rng)
    if variant == "resonant":
        # exp(-1/(|z1||z2|)) depends on Re zeta along every (1, 2) curve
        return {"rates": ["1", "2"], "terms": [], "dim": 2, "oracle": "resonant",
                "expect": NOT_F_HOLOMORPHIC, "seed": seed}
    terms = holomorphic_jet(rng, dim)
    if variant == "holomorphic":
        rates, expect = positive_rates(rng, dim), HOLOMORPHIC
    elif variant == "anti":
        terms.append(anti_term(rng, dim))
        rates, expect = positive_rates(rng, dim), NOT_F_HOLOMORPHIC
    else:
        rates, expect = mixed_rates(rng, dim), HYPOTHESIS_VIOLATED
    return {"rates": rates, "terms": terms, "dim": dim, "oracle": "jet",
            "expect": expect, "seed": seed}


# -- scenario files ---------------------------------------------------------

def _fmt_complex(re: float, im: float) -> str:
    return f"{re!r}{'-' if math.copysign(1.0, im) < 0 else '+'}{abs(im)!r}i"


def _term_lines(terms) -> list[str]:
    return [f"term = {' '.join(map(str, k))} | {' '.join(map(str, m))} | {re!r} | {im!r}"
            for k, m, re, im in terms]


def _level(k, m, rates) -> Fraction:
    return sum((Fraction(r) * (kj + mj) for r, kj, mj in zip(rates, k, m)), Fraction(0))


def _scenario(kind: str, header: str, body: list[str], seed: int, expect: dict,
              **data) -> dict:
    text = "\n".join([f"# {header}", f"kind = {kind}"] + body + [f"seed = {seed}", ""])
    return {"kind": kind, "text": text, "expect": expect, "seed": seed, **data}


def pushforward_scenario(rng) -> dict:
    """Perturbs pushforward_mixed.txt: a mixed jet pushed along a random curve."""
    dim = int(rng.integers(2, 4))
    rates = positive_rates(rng, dim)
    terms = []
    for _ in range(4):
        order = int(rng.integers(1, 4))
        split = int(rng.integers(order + 1))
        terms.append([_multi_index(rng, dim, split), _multi_index(rng, dim, order - split)]
                     + [float(v) for v in rng.uniform(-1.0, 1.0, 2)])
    # |c_j| <= 0.9 keeps the base point inside the polydisk
    base = [_complex(rng, 0.3, 0.9) for _ in range(dim)]
    lam = max(_level(k, m, rates) for k, m, _re, _im in terms)
    body = [f"rates = {' '.join(rates)}"] + _term_lines(terms) + [
        f"base_point = {' '.join(_fmt_complex(*c) for c in base)}",
        f"lambda_max = {lam}"]
    return _scenario("pushforward", "perturbed pushforward_mixed.txt", body, _seed(rng),
                     {"exit": 0}, rates=rates, jet=terms, base_point=base)


def extraction_scenario(rng) -> dict:
    """Perturbs extraction_demo.txt: three terms on the 7-level grid of rate 1/2."""
    rates, lam = ["1/2"], "3"
    levels = grid_levels(rates, lam)
    picks = sorted(rng.choice(len(levels), size=3, replace=False))
    terms = [[str(levels[i])] + _complex(rng, 0.1, 3.0) for i in picks]
    body = [f"grid_rates = {' '.join(rates)}", f"lambda_max = {lam}"] + [
        f"exp_term = {level} | {re!r} | {im!r}" for level, re, im in terms] + ["tolerance = 1e-8"]
    return _scenario("extraction", "perturbed extraction_demo.txt", body, _seed(rng),
                     {"exit": 0, "tolerance": 1e-8}, rates=rates, lambda_max=lam,
                     terms=terms)


def forelli_scenario(rng, variant: str) -> dict:
    """Perturbs forelli_quadratic.txt with the default pipeline config."""
    if variant == "resonant":
        body = ["rates = 1/1 2/1", "term = 0 0 | 0 0 | 0.0 | 0.0", "oracle = resonant",
                f"t = {FORELLI_RESONANT_T}", f"expect = {NOT_F_HOLOMORPHIC}"]
        return _scenario("forelli", "perturbed forelli_quadratic.txt", body, _seed(rng),
                         {"exit": 0, "tag": NOT_F_HOLOMORPHIC})
    job = forelli_job(rng, int(rng.integers(2, 4)), variant)
    body = [f"rates = {' '.join(job['rates'])}"] + _term_lines(job["terms"]) + [
        "oracle = jet", f"expect = {job['expect']}"]
    return _scenario("forelli", "perturbed forelli_quadratic.txt", body, job["seed"],
                     {"exit": 0, "tag": job["expect"]})


def bounds_scenario(rng) -> dict:
    """Perturbs bounds_demo.txt: two decaying terms, claimed rate = lower level."""
    pool = ("1/2", "1", "3/2", "2", "3")
    lo, hi = sorted(rng.choice(len(pool), size=2, replace=False))
    terms = [[pool[lo]] + _complex(rng, 0.1, 1.0), [pool[hi]] + _complex(rng, 0.1, 1.0)]
    body = [f"exp_term = {level} | {re!r} | {im!r}" for level, re, im in terms] + [
        f"claimed_rate = {pool[lo]}", "x_lo = 0.01"]
    return _scenario("bounds", "perturbed bounds_demo.txt", body, _seed(rng),
                     {"exit": 0})


def counterexample_scenario(rng, which: str) -> dict:
    """Perturbs counterexample_resonant.txt / counterexample_spiral.txt."""
    body = [f"which = {which}"]
    if which == "resonant":
        body.append(f"t = {RESONANT_T[int(rng.integers(len(RESONANT_T)))]}")
    elif which == "spiral":
        alpha = (float(rng.uniform(*SPIRAL_RE)), float(rng.uniform(*SPIRAL_IM)))
        body += [f"alpha = {_fmt_complex(*alpha)}", f"t = {float(rng.uniform(*SPIRAL_T))!r}"]
    return _scenario("counterexample", f"perturbed counterexample ({which})", body,
                     _seed(rng), {"exit": 0, "which": which})


# -- rounds -----------------------------------------------------------------

def round_jobs(workload: str, seed: int, index: int) -> list[tuple[str, dict]]:
    """The jobs of round ``index``: a list of (kind, spec) in execution order."""
    rng = np.random.default_rng([seed, index])
    jobs: list[tuple[str, dict]] = []
    if workload == "extract_ladder":
        for rates, lam, count, scalar in EXTRACT_RUNGS:
            jobs += [("extract", extract_job(rng, rates, lam, i < scalar))
                     for i in range(count)]
    elif workload == "forelli_ladder":
        for dim in FORELLI_DIMS:
            jobs += [("forelli", forelli_job(rng, dim, v))
                     for v in ("holomorphic", "anti", "mixed")]
        jobs.append(("forelli", forelli_job(rng, 2, "resonant")))
    elif workload == "scenario_mix":
        jobs += [("scenario", pushforward_scenario(rng)) for _ in range(3)]
        jobs += [("scenario", extraction_scenario(rng)) for _ in range(2)]
        jobs += [("scenario", forelli_scenario(rng, v))
                 for v in ("holomorphic", "anti", "mixed", "resonant")]
        jobs.append(("scenario", bounds_scenario(rng)))
        jobs += [("scenario", counterexample_scenario(rng, w))
                 for w in ("resonant", "spiral", "remark")]
    else:
        raise ValueError(f"unknown workload {workload!r} (one of {', '.join(WORKLOADS)})")
    return jobs


#: round index of the untimed warm-up round; timed rounds count from 0
WARMUP_ROUND = 2**20


def spec_bytes(jobs) -> bytes:
    """Canonical serialisation of a job list, for byte-identity checks."""
    return json.dumps(jobs, sort_keys=True).encode()
