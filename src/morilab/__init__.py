"""morilab: stability of relaxation dynamics under Mori-chain perturbations.

Build coefficient chains for chosen decay classes, evolve them, perturb the
coefficients with band-limited seeded noise, and quantify how far the
perturbed dynamics leave their class.
"""

__version__ = "0.1.0"

from .chain import (CorrelationSeries, LanczosChain, PropagationError,
                    dense_correlation, dense_generator, propagate,
                    propagate_many, spectral_width_sum)
from .design import (ContinuationResult, edo_chain, exponential_chain,
                     gaussian_chain, linear_continuation, oscillating_pair,
                     q_ratio)
from .experiment import (EnsembleSummary, Histogram, Scenario, ScenarioConfig,
                         TrialRecord, histogram, run_scenario, summarize)
from .fitting import (FitModel, FitResult, ModelClass, detect_equilibration,
                      epsilon, fit, sigma)
from .perturb import PerturbationDraw, PerturbedChain, apply_draw, draw_noise
from .reverse import (AnalyticCorrelation, QuadratureError, ReverseResult,
                      SpectralDensityInput, fourier_of_correlation,
                      lanczos_from_spectrum)

__all__ = [
    "__version__",
    "CorrelationSeries", "LanczosChain", "PropagationError",
    "dense_correlation", "dense_generator", "propagate", "propagate_many",
    "spectral_width_sum",
    "ContinuationResult", "edo_chain", "exponential_chain", "gaussian_chain",
    "linear_continuation", "oscillating_pair", "q_ratio",
    "EnsembleSummary", "Histogram", "Scenario", "ScenarioConfig", "TrialRecord",
    "histogram", "run_scenario", "summarize",
    "FitModel", "FitResult", "ModelClass", "detect_equilibration", "epsilon",
    "fit", "sigma",
    "PerturbationDraw", "PerturbedChain", "apply_draw", "draw_noise",
    "AnalyticCorrelation", "QuadratureError", "ReverseResult",
    "SpectralDensityInput", "fourier_of_correlation", "lanczos_from_spectrum",
]
