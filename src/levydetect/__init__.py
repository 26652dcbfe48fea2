"""levydetect: quickest change detection for Levy processes.

The package builds the likelihood-ratio machinery of sequential change
detection for Levy processes (Brownian with drift, compound Poisson,
jump-diffusion, gamma subordinator), simulates changed trajectories, runs
CUSUM-type and competing stopping rules, and provides a Monte Carlo harness
for run-length calibration, worst-case delay measurement, and the
lower-bound / nested-grid structure underneath the CUSUM optimality theory.
"""

from .detector import DetectorConfig, StopResult, run_rule
from .families import (
    ExponentialJumps,
    GaussianJumps,
    LevySpec,
    TwoSidedExponentialJumps,
)
from .kernels import backend as kernel_backend
from .likelihood import LLRPath, llr_path
from .model import ChangeModel, DensityRatio, build_change_model
from .paths import SamplePath, sample_changed_path
from .report import EvalReport, Provenance
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "LevySpec",
    "GaussianJumps",
    "ExponentialJumps",
    "TwoSidedExponentialJumps",
    "ChangeModel",
    "DensityRatio",
    "build_change_model",
    "RngStream",
    "SamplePath",
    "sample_changed_path",
    "LLRPath",
    "llr_path",
    "DetectorConfig",
    "StopResult",
    "run_rule",
    "EvalReport",
    "Provenance",
    "kernel_backend",
    "__version__",
]
