"""Simulation of the stochastic heat equation driven by Gaussian space-time
white noise and Poisson jump noise, with exactly coupled multi-resolution
sampling for measuring strong convergence orders.

The package exports the names the README's quick start uses; everything
else is imported from its submodule (`levyheat.noise`, `levyheat.cli`, ...).
"""

# the one version string: cli's manifests and the package metadata read it
__version__ = "0.1.0"

from levyheat.experiments import StudyPlan, run_study
from levyheat.noise import (
    G1Spec,
    MarkModel,
    TwoPointLaw,
    power_profile,
    sample_path,
)
from levyheat.schemes import SchemeConfig, run_scheme_A
from levyheat.spectral import NonlinearitySpec, SpectralState

__all__ = [
    "__version__",
    "G1Spec",
    "MarkModel",
    "NonlinearitySpec",
    "SchemeConfig",
    "SpectralState",
    "StudyPlan",
    "TwoPointLaw",
    "power_profile",
    "run_scheme_A",
    "run_study",
    "sample_path",
]
