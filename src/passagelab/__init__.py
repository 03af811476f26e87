"""Numerical laboratory for simulated quantum arrival- and passage-time
measurements with absorbing spin detectors.

A particle crossing a detector region evolves under a complex potential; the
lost norm is the detection-time density. Detection resets the packet to the
absorbed component, and a second detector downstream turns the ensemble of
reset states into a passage-time distribution. Discrete-bath and closed-form
references validate the model, and an analytic width budget predicts the
optimal detector parameters.
"""
from .core import (
    CESIUM_MASS,
    HBAR,
    GaussianPacketSpec,
    Moments,
    ParticleSpec,
    SpatialGrid,
    WaveFunction,
    build_grid,
    cesium,
    free_sigma_x,
    gaussian_free_state,
    momentum_amplitudes,
    observables,
)
from .detector import (
    ContinuumRates,
    DetectorSpec,
    DiscreteBathSpec,
    RectangularProfile,
    continuum_rates,
    kappa,
    reset,
)
from .discrete_oracle import (
    ComparisonMetrics,
    DensityProfile,
    DiscreteResetConfig,
    compare_densities,
    continuum_reset_density,
    discrete_reset_density,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    GridError,
    GridTooNarrowError,
    InstabilityError,
    NoDetectionError,
    PassageLabError,
    RegimeWarning,
    ZeroNormError,
    ZeroOverlapError,
)
from .passage import (
    ExperimentConfig,
    PassageDistribution,
    ResetEnsemble,
    arrival_stage,
    classical_passage,
    kijowski_distribution,
    passage_distribution,
)
from .precision import (
    OptimalPlan,
    SweepResult,
    WidthBudget,
    convergence_probe,
    optimal_plan,
    scaling_sweep,
    sweep_point_config,
    width_estimate,
)
from .propagator import (
    ComplexPotentialField,
    DetectionRecord,
    evolve_conditional,
    peak_time,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "CESIUM_MASS",
    "HBAR",
    "GaussianPacketSpec",
    "Moments",
    "ParticleSpec",
    "SpatialGrid",
    "WaveFunction",
    "build_grid",
    "cesium",
    "free_sigma_x",
    "gaussian_free_state",
    "momentum_amplitudes",
    "observables",
    "ContinuumRates",
    "DetectorSpec",
    "DiscreteBathSpec",
    "RectangularProfile",
    "continuum_rates",
    "kappa",
    "reset",
    "ComparisonMetrics",
    "DensityProfile",
    "DiscreteResetConfig",
    "compare_densities",
    "continuum_reset_density",
    "discrete_reset_density",
    "ConfigError",
    "ConvergenceError",
    "GridError",
    "GridTooNarrowError",
    "InstabilityError",
    "NoDetectionError",
    "PassageLabError",
    "RegimeWarning",
    "ZeroNormError",
    "ZeroOverlapError",
    "ExperimentConfig",
    "PassageDistribution",
    "ResetEnsemble",
    "arrival_stage",
    "classical_passage",
    "kijowski_distribution",
    "passage_distribution",
    "OptimalPlan",
    "SweepResult",
    "WidthBudget",
    "convergence_probe",
    "optimal_plan",
    "scaling_sweep",
    "sweep_point_config",
    "width_estimate",
    "ComplexPotentialField",
    "DetectionRecord",
    "evolve_conditional",
    "peak_time",
    "step",
]
