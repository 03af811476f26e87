"""Width budget, optimal detector parameters, and the E^(-3/4) scaling sweep.

The passage-time width is estimated as a three-term budget

    delta_tau = 2/A + dx_reset/v0 + hbar d / (2 m v0^2 dx_reset),

minimized by dx_opt = sqrt(hbar d / 2 m v0) and A_opt = v0 / (2 dx_opt),
which gives delta_tau_opt = sqrt(5 hbar d sqrt(m/2)) * E^(-3/4) with
E = m v0^2 / 2 the kinetic energy.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    GaussianPacketSpec,
    ParticleSpec,
    _check_positive,
    build_grid,
    free_sigma_x,
)
from .detector import DetectorSpec, RectangularProfile
from .exceptions import ConfigError, ConvergenceError
from .passage import (
    ExperimentConfig,
    ResetEnsemble,
    _arrival_pass,
    _edge_crossing_time,
    _moments,
    arrival_stage,
    passage_distribution,
)
from .propagator import DetectionRecord

__all__ = [
    "WidthBudget",
    "OptimalPlan",
    "SweepResult",
    "width_estimate",
    "optimal_plan",
    "sweep_point_config",
    "scaling_sweep",
    "convergence_probe",
]

# G samples per delta_tau_opt at a sweep point: its stage-2 step is
# delta_tau_opt / 56, so A dt2 = sqrt(5) / 56 = 0.040 at every point
_SAMPLES_PER_WIDTH = 56
# largest arrival width drift the convergence probe lets through
_WIDTH_DRIFT_TOL = 1e-3


@dataclass(frozen=True)
class WidthBudget:
    delay_term: float
    reset_x_term: float
    reset_p_term: float

    @property
    def total(self) -> float:
        return self.delay_term + self.reset_x_term + self.reset_p_term


@dataclass(frozen=True)
class OptimalPlan:
    delta_x_opt: float
    a_opt: float
    delta_tau_opt: float
    energy: float
    detection_length_l: float


def width_estimate(
    delta_x_reset: float,
    a: float,
    d: float,
    particle: ParticleSpec,
    v0: float,
) -> WidthBudget:
    """Three-term passage-width budget for given reset width and decay rate."""
    _check_positive(delta_x_reset=delta_x_reset, a=a, d=d, v0=v0)
    m, hb = particle.mass, particle.hbar
    return WidthBudget(
        delay_term=2.0 / a,
        reset_x_term=delta_x_reset / v0,
        reset_p_term=hb * d / (2.0 * m * v0 * v0 * delta_x_reset),
    )


def optimal_plan(
    d: float,
    particle: ParticleSpec,
    v0: float,
    delta_x: float | None = None,
) -> OptimalPlan:
    """Closed-form optimal reset width, decay rate, and attainable width.

    Passing delta_x pins the reset width (for example to the packet width the
    apparatus actually prepares); the rate is then matched to it by
    a = v0 / (2 delta_x) and the width field holds the budget total at that
    operating point instead of the unconstrained closed form.
    """
    _check_positive(d=d, v0=v0)
    m, hb = particle.mass, particle.hbar
    energy = 0.5 * m * v0 * v0
    if delta_x is None:
        dx = np.sqrt(hb * d / (2.0 * m * v0))
        dtau = np.sqrt(5.0 * hb * d * np.sqrt(m / 2.0)) * energy**-0.75
    else:
        _check_positive(delta_x=delta_x)
        dx = delta_x
        dtau = width_estimate(dx, v0 / (2.0 * dx), d, particle, v0).total
    a_opt = v0 / (2.0 * dx)
    return OptimalPlan(
        delta_x_opt=float(dx),
        a_opt=float(a_opt),
        delta_tau_opt=float(dtau),
        energy=float(energy),
        detection_length_l=float(v0 / a_opt),
    )


def sweep_point_config(
    v0: float,
    d: float,
    particle: ParticleSpec,
    n_entry: int = 256,
) -> ExperimentConfig:
    """Per-velocity experiment with optimal packet width, rate, and geometry.

    Detector length is 4 L(v0) so undetected transmission stays small at every
    v0; the grid scales with the packet's wavenumber.

    Both steps come from the plan's own width: stage 2 steps dt2 =
    delta_tau_opt / 56 and samples G at every step (tau_stride = 1), and the
    arrival stage steps dt = dt2 / 10. Since a_opt delta_tau_opt = sqrt(5) for
    every v0, d and particle, A dt2 = sqrt(5) / 56 = 0.040 at every point.
    Strang splitting is exact in the kinetic factor and second order in the
    potential, and stage 2's potential is detector 2's A chi and its
    absorbing layer; halving both steps moves std(G) at the paper's seven
    points by at most 3.0e-4 relative. convergence_probe checks the arrival
    step at dt / 2.
    """
    plan = optimal_plan(d, particle, v0)
    packet = GaussianPacketSpec(
        center_x0=0.0, sigma_x=plan.delta_x_opt, mean_velocity_v0=v0
    )
    # start position after the six-spreading-widths rule, with tail room
    t_start = _edge_crossing_time(packet, particle, 0.0, -1.0)
    sig = free_sigma_x(packet, particle, t_start)
    sigma_v = particle.hbar / (2.0 * particle.mass * plan.delta_x_opt)
    k_need = particle.mass * max(2.0 * v0, v0 + 15.0 * sigma_v) / particle.hbar
    # snap all sharp detector edges onto grid points (and keep them there
    # under 2n refinement) so the sampled geometry, not its aliasing, is
    # what converges; dx divides d exactly and x_lo is a multiple of dx
    dx = d / np.ceil(d * k_need / np.pi)
    det_len = max(1.0, np.round(4.0 * plan.detection_length_l / dx)) * dx
    x_lo = -np.ceil(-(v0 * t_start - 8.0 * sig) / dx) * dx
    span = (d + det_len + 40e-6) - x_lo
    n = max(1024, 2 ** int(np.ceil(np.log2(span / dx))))
    grid = build_grid(x_lo, x_lo + n * dx, n)
    det1 = DetectorSpec(
        profile=RectangularProfile(0.0, det_len), decay_a=plan.a_opt
    )
    det2 = DetectorSpec(
        profile=RectangularProfile(d, d + det_len), decay_a=plan.a_opt
    )
    dt2 = plan.delta_tau_opt / _SAMPLES_PER_WIDTH
    return ExperimentConfig(
        particle=particle,
        packet=packet,
        detector1=det1,
        detector2=det2,
        grid=grid,
        dt=dt2 / 10.0,
        dt2=dt2,
        n_entry=n_entry,
        tau_max=d / v0 + 6.0 * plan.delta_tau_opt,
        tau_stride=1,
    )


def convergence_probe(
    cfg: ExperimentConfig, record: DetectionRecord | None = None
) -> tuple[float, float]:
    """Self-convergence gate on the arrival-stage width.

    Reruns detector-1's w1 with dt halved and n_points doubled and compares the
    first two moments of the detection density, both scaled by the width.
    Raises ConvergenceError when the width drift exceeds 1e-3; the mean drift
    is returned for diagnostics but not gated, because the sampled sharp
    detector edge biases it at first order in dx as a rigid time shift, which
    cancels in entry-relative passage times. Given record, cfg's detector-1
    record from a pass the caller already ran (for example arrival_stage's),
    only the refined pass runs. The probe's own passes are record-only.
    """
    if record is None:
        record, _, _ = _arrival_pass(cfg)
    _, m1, s1 = _moments(record.times, record.density_w1)
    g = cfg.grid
    fine = replace(cfg, grid=build_grid(g.x_min, g.x_max, 2 * g.n_points), dt=cfg.dt / 2.0)
    record, _, _ = _arrival_pass(fine)
    _, m2, s2 = _moments(record.times, record.density_w1)
    drift_mean = abs(m2 - m1) / s1
    drift_std = abs(s2 - s1) / s1
    if drift_std > _WIDTH_DRIFT_TOL:
        raise ConvergenceError(
            f"arrival width drift {drift_std:.2e} exceeds {_WIDTH_DRIFT_TOL:.0e} "
            f"under dt/2 and 2n refinement"
        )
    return drift_mean, drift_std


@dataclass(frozen=True)
class SweepResult:
    v0: np.ndarray
    energy: np.ndarray
    std_tau: np.ndarray
    delta_tau_opt: np.ndarray
    total_probability: np.ndarray
    dt2: np.ndarray  # each point's stage-2 step
    exponent: float


def _sweep_point(point: tuple[ExperimentConfig, ResetEnsemble | None]) -> tuple[float, float]:
    dist = passage_distribution(*point)
    return dist.std_tau, dist.total_probability


def scaling_sweep(
    v0_values: np.ndarray,
    d: float,
    particle: ParticleSpec,
    n_entry: int = 256,
    gate_first: bool = True,
    mapper=map,
) -> SweepResult:
    """Measured std(G) at per-v0 optimal parameters, with a log-log energy fit.

    With gate_first, the slowest point's arrival stage runs first, its record
    must pass convergence_probe before the sweep proceeds, and that point
    reuses the stage's reset ensemble. `mapper` lets a caller supply an
    order-preserving parallel map (for example Executor.map) over (config,
    ensemble or None) pairs; the per-point work touches no shared state.
    """
    v0s = np.sort(np.asarray(v0_values, dtype=float))
    _check_positive(d=d)
    for v0 in v0s:
        _check_positive(v0_values=v0)
    if len(v0s) < 2 or v0s[0] == v0s[-1]:
        raise ConfigError("scaling sweep needs at least two distinct velocities")
    configs = [sweep_point_config(v0, d, particle, n_entry) for v0 in v0s]
    ensembles = [None] * len(configs)
    if gate_first:
        record, ensembles[0] = arrival_stage(configs[0])
        try:
            convergence_probe(configs[0], record)
        except ConvergenceError as exc:
            raise ConvergenceError(f"sweep aborted at v0={v0s[0]}: {exc}") from exc
    plans = [optimal_plan(d, particle, v0) for v0 in v0s]
    points = mapper(_sweep_point, zip(configs, ensembles))
    stds, totals = map(np.array, zip(*points))
    energies = np.array([plan.energy for plan in plans])
    slope, _ = np.polyfit(np.log(energies), np.log(stds), 1)
    return SweepResult(
        v0=v0s,
        energy=energies,
        std_tau=stds,
        delta_tau_opt=np.array([plan.delta_tau_opt for plan in plans]),
        total_probability=totals,
        dt2=np.array([cfg.dt2 for cfg in configs]),
        exponent=float(slope),
    )
