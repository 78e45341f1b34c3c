"""Run one generated job through holoflow's public API.

Only this module and the tracer call into the program.  Functions are
looked up on their module at call time (``extract.sampled_sup``, not a name
bound at import), so the tracer's patches are seen.
"""

from __future__ import annotations

import cmath
import contextlib
import io
from fractions import Fraction
from pathlib import Path

import numpy as np

from holoflow import asympt, cli, counterex, extract, flow, forelli, sampling, series

#: the raised pipeline settings of the forelli ladder (defaults: 12, 24, 200)
FORELLI_CONFIG = {"n_curves": 24, "n_zeta": 48, "compare_points": 800}


def scalar_only(source: dict):
    """The source sum as a callable that accepts one point at a time.

    ``complex(z)`` raises TypeError on an array of more than one element,
    which is what sends ``_sample_line`` to its per-point fallback.
    """
    pairs = [(float(Fraction(lam)), complex(re, im)) for lam, re, im in source]

    def oracle(z):
        z = complex(z)
        return sum(c * cmath.exp(-lam * z) for lam, c in pairs)

    return oracle


def run_extract(spec: dict) -> dict:
    field = flow.DiagonalField(tuple(Fraction(r) for r in spec["rates"]))
    grid = flow.level_grid(field, Fraction(spec["lambda_max"]))
    source = asympt.HolomorphicExpansion(
        (Fraction(lam), complex(re, im)) for lam, re, im in spec["terms"])
    oracle = scalar_only(spec["terms"]) if spec["scalar"] else source
    params = extract.ExtractionParams(grid=grid)
    recovered = extract.extract_coefficients(oracle, params)
    bound = extract.sampled_sup(oracle, params)
    cauchy = extract.verify_cauchy_bound(recovered, oracle, bound)
    return {"levels": grid.levels, "recovered": recovered.pairs(), "sup": bound,
            "max_ratio": cauchy.max_ratio}


def _forelli_oracle(spec: dict, jet):
    if spec["oracle"] == "resonant":
        example = counterex.ResonantExample(1.0)
        return lambda z: counterex.phi_resonant(example, z)
    return lambda z: series.eval_taylor(jet, z)


def run_forelli(spec: dict) -> dict:
    jet = series.TaylorSeries(spec["dim"], [((k, m), complex(re, im))
                                            for k, m, re, im in spec["terms"]])
    oracle = _forelli_oracle(spec, jet)
    # the bound as `holoflow run` computes it: the sup over 512 polydisk samples
    rng = np.random.default_rng(spec["seed"] + 1)
    points = sampling.polydisk_points(rng, spec["dim"], 512, r_min=0.0, r_max=0.95)
    bound = max(max(abs(complex(oracle(z))) for z in points), 1e-12)
    field = flow.DiagonalField(tuple(Fraction(r) for r in spec["rates"]))
    config = forelli.ForelliConfig(seed=spec["seed"], **FORELLI_CONFIG)
    verdict = forelli.forelli_pipeline(forelli.JetOracle(oracle, jet, bound), field, config)
    return {"tag": verdict.tag, "psi": verdict.psi.terms() if verdict.psi is not None else None,
            "diagnostics": verdict.diagnostics, "fd_tol": config.fd_tol}


def run_scenario(spec: dict, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "scenario.txt"
    out = workdir / "out"
    path.write_text(spec["text"])
    # the runner prints one status line per scenario; keep it off our stdout
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(path), "--out", str(out)])
    return {"exit": code, "out": out}


def run_job(kind: str, spec: dict, workdir: Path) -> dict:
    if kind == "extract":
        return run_extract(spec)
    if kind == "forelli":
        return run_forelli(spec)
    return run_scenario(spec, workdir)
