"""Desk-scale diffusion sampling lab: analytic Gaussian-mixture denoisers,
vanilla/momentum/adaptive-momentum reverse samplers, and the numerical checks
tying them to their continuous-time limits."""

__version__ = "0.1.0"

from .model import GaussianMixtureModel, NoisePrediction, analytic_eps, log_density_t
from .samplers import ChainState, SamplerConfig, StepPlan, Trajectory, sigma
from .schedule import NoiseSchedule, linear_beta_schedule, respace

__all__ = [
    "GaussianMixtureModel", "NoisePrediction", "analytic_eps", "log_density_t",
    "ChainState", "SamplerConfig", "StepPlan", "Trajectory", "sigma",
    "NoiseSchedule", "linear_beta_schedule", "respace",
    "__version__",
]
