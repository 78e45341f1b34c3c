"""holoflow: numerical verification of exponential asymptotic expansions,
coefficient bounds, and holomorphy along diagonal linear flows."""

from .asympt import (AntiHolomorphicTermError, AsymptoticExpansion,
                     HolomorphicExpansion, equals, eval_expansion,
                     max_principle_bound, pushforward, residual,
                     restrict_holomorphic, tail_bound_check)
from .counterex import (BranchSearchError, ResonantExample, SpiralExample,
                        branch_power, choose_branch_exponent,
                        counterexample_suite, phi_resonant, phi_spiral,
                        sector_angles, spiral_curve, verify_time_identity)
from .extract import (CauchyBoundReport, ExtractionError, ExtractionParams,
                      extract_coefficients, sampled_sup, shift_difference,
                      verify_cauchy_bound)
from .flow import (BasePoint, DiagonalField, LevelGrid, NormalizedField,
                   SpectrumClass, SpectrumError, classify_spectrum,
                   integral_curve, level_grid, normalize_time)
from .forelli import (ANTIHOLOMORPHIC_OBSTRUCTION, HOLOMORPHIC,
                      HYPOTHESIS_VIOLATED, NOT_F_HOLOMORPHIC, ForelliConfig,
                      ForelliVerdict, JetOracle, antiholomorphic_vanishing,
                      f_holomorphy_check, forelli_pipeline, reconstruct)
from .reports import DecayReport
from .series import (MultiIndex, TaylorSeries, antiholomorphic_part,
                     eval_taylor, holomorphic_part, wirtinger_F_derivative)

__version__ = "0.1.0"

__all__ = [
    "AntiHolomorphicTermError", "AsymptoticExpansion", "BasePoint",
    "BranchSearchError", "CauchyBoundReport", "DecayReport", "DiagonalField",
    "ExtractionError", "ExtractionParams", "ForelliConfig", "ForelliVerdict",
    "HolomorphicExpansion", "JetOracle", "LevelGrid", "MultiIndex",
    "NormalizedField", "ResonantExample", "SpectrumClass", "SpectrumError",
    "SpiralExample", "TaylorSeries", "antiholomorphic_part",
    "antiholomorphic_vanishing", "branch_power", "choose_branch_exponent",
    "classify_spectrum", "counterexample_suite", "equals", "eval_expansion",
    "eval_taylor", "extract_coefficients", "f_holomorphy_check",
    "forelli_pipeline", "holomorphic_part", "integral_curve", "level_grid",
    "max_principle_bound", "normalize_time", "phi_resonant", "phi_spiral",
    "pushforward", "reconstruct", "residual", "restrict_holomorphic",
    "sampled_sup", "sector_angles", "shift_difference", "spiral_curve",
    "tail_bound_check", "verify_cauchy_bound",
    "verify_time_identity", "wirtinger_F_derivative",
    "HOLOMORPHIC", "HYPOTHESIS_VIOLATED", "NOT_F_HOLOMORPHIC",
    "ANTIHOLOMORPHIC_OBSTRUCTION",
]
