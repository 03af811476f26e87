"""Two-detector experiment: arrival stage, reset ensemble, passage distribution.

The marginal passage-time distribution is

    G(tau) = int dT w1^(2)(tau; psi_reset^T),

with unnormalized reset states psi_reset^T = sqrt(A) chi_1 psi_cond(T), whose
squared norms are w1^(1)(T). Because w1 is quadratic in the state, the entry
quadrature sum_T c_T w1^(2)(tau; psi_T) is evaluated on the singular vectors
of the weighted snapshot matrix sqrt(c_T) psi_T, cut at 1e-6 of its squared
sum: 256 entry times become 4-17 propagated states on the reference grid and
9 at the 3 and 6.46 mm/s sweep points. The reset states vanish outside
detector 1, so the matrix is decomposed on the span of its non-zero columns
only; the zero columns change no singular value or vector.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import erfc
from numbers import Integral
from typing import ClassVar

import numpy as np

from .core import (
    GaussianPacketSpec,
    ParticleSpec,
    SpatialGrid,
    WaveFunction,
    _block_rows,
    _check_count,
    _check_positive,
    free_sigma_x,
    gaussian_free_state,
)
from .detector import DetectorSpec
from .exceptions import ConfigError, GridError, NoDetectionError, RegimeWarning
from .propagator import (
    DetectionRecord,
    _conditional,
    _evolve_rows,
    _Kernel,
    _kernel,
    peak_time,
)

__all__ = [
    "ExperimentConfig",
    "ResetEnsemble",
    "PassageDistribution",
    "arrival_stage",
    "passage_distribution",
    "classical_passage",
    "kijowski_distribution",
]

_CAPTURE_TARGET = 0.999
_MIN_DETECTION = 0.9
# detection-probability quantiles spanned by the entry grid
_ENTRY_WINDOW = (5e-4, 0.9995)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of the two-detector passage experiment.

    Times left as None are derived: t_start places the packet center six
    spreading-widths left of detector 1, t_end1 lets the packet clear
    detector 1, tau_max balances capture against periodic wrap-around.
    dt2 (stage-2 step) defaults to dt.
    """

    particle: ParticleSpec
    packet: GaussianPacketSpec
    detector1: DetectorSpec
    detector2: DetectorSpec
    grid: SpatialGrid
    dt: float
    dt2: float | None = None
    t_start: float | None = None
    t_end1: float | None = None
    n_entry: int = 256
    tau_max: float | None = None
    tau_stride: int = 10
    # stage 2 keeps the singular vectors above this share of their squared sum.
    # The dropped rows only lower G, by at most discarded_power x captured_mass
    # in total (see passage_distribution). At 1e-6 that moves std(G) by at most
    # 3.5e-6 relative on the reference study, 100x below the stage-2 step error
    # and 5 000x below the grid, entry-grid and wrap-around errors, while a cut
    # at rounding level (1e-12) propagates about half as many rows again
    svd_keep: ClassVar[float] = 1e-6

    def __post_init__(self) -> None:
        p1, p2 = self.detector1.profile, self.detector2.profile
        if p2.a <= p1.a:
            raise ConfigError("detector 2 must start downstream of detector 1")
        if p1.b > p2.a:
            raise ConfigError("detector extents must be disjoint")
        for name in ("dt", "dt2", "tau_max"):
            if getattr(self, name) is not None:
                _check_positive(**{name: getattr(self, name)})
        _check_count("tau_stride", self.tau_stride, 1)
        _check_count("n_entry", self.n_entry, 2)

    @property
    def distance_d(self) -> float:
        # between the detectors' starting edges
        return self.detector2.profile.a - self.detector1.profile.a


@dataclass(frozen=True)
class ResetEnsemble:
    """Unnormalized reset states on the entry-time grid, with quadrature weights."""

    entry_times: np.ndarray
    weights: np.ndarray
    states: np.ndarray  # (n_entry, n_points) complex, rows sqrt(A) chi psi_cond(T)
    norms_sq: np.ndarray  # row squared norms = w1^(1)(T)
    captured_mass: float  # sum_T c_T ||psi_T||^2
    p_detected_1: float
    residual_norm_1: float


@dataclass(frozen=True)
class PassageDistribution:
    tau: np.ndarray
    g_tau: np.ndarray
    total_probability: float
    mean_tau: float
    std_tau: float
    # (probability never detected by either stage, mass left on the grid after stage 2)
    leakage_report: tuple[float, float]
    kept_rank: int  # singular vectors propagated in stage 2
    discarded_power: float  # dropped share of the sum of squared singular values


def _edge_crossing_time(
    packet: GaussianPacketSpec, particle: ParticleSpec, edge: float, side: float
) -> float:
    """Time the packet centre is six spreading widths before (side = -1) or
    past (side = +1) edge: the fixed point of t = (edge + side 6 sigma(t) - x0)/v0.
    """
    v0 = packet.mean_velocity_v0
    if v0 <= 0.0:
        raise ConfigError("auto t_start and t_end1 need a positive mean velocity")
    t = (edge + side * 6.0 * packet.sigma_x - packet.center_x0) / v0
    for _ in range(12):
        sig = free_sigma_x(packet, particle, t)
        t = (edge + side * 6.0 * sig - packet.center_x0) / v0
    return t


def _auto_tau_max(cfg: ExperimentConfig) -> float:
    """Capture-oriented horizon, capped below the periodic wrap-around time."""
    v0 = cfg.packet.mean_velocity_v0
    if v0 <= 0.0:
        raise ConfigError("auto tau_max needs a positive mean velocity")
    a2 = cfg.detector2.profile.a
    g = cfg.grid
    want = 2.2 * cfg.distance_d / v0
    if cfg.detector2.decay_a > 0.0:
        want += 10.0 / cfg.detector2.decay_a
    # transmitted mass wraps at x_max and re-approaches detector 2 from x_min
    wrap = 0.9 * ((g.x_max - a2) + (a2 - g.x_min)) / v0
    return min(want, wrap)


def _detector1_start(cfg: ExperimentConfig) -> tuple[_Kernel, WaveFunction, int]:
    """Validate detector 1's window: its step kernel, the start state and the
    number of steps that cross it."""
    det1 = cfg.detector1
    if det1.decay_a == 0.0:
        raise NoDetectionError("detector 1 has A = 0: no detection")
    particle, grid, packet = cfg.particle, cfg.grid, cfg.packet
    t_start, t_end = cfg.t_start, cfg.t_end1
    if t_start is None:
        t_start = min(_edge_crossing_time(packet, particle, det1.profile.a, -1.0), 0.0)
    if t_end is None:
        t_end = _edge_crossing_time(packet, particle, det1.profile.b, 1.0)
    for name, t in (("t_start", t_start), ("t_end1", t_end)):
        if not np.isfinite(t):
            raise ConfigError(f"{name} must be finite, got {t}")
    if t_end <= t_start:
        raise ConfigError(f"t_end1 {t_end} must exceed t_start {t_start}")
    n_steps = int(round((t_end - t_start) / cfg.dt))
    if n_steps < 1:
        raise NoDetectionError(
            f"detection window {t_end - t_start:.3e} s is shorter than one step"
        )
    kernel = _kernel(grid, particle, det1.potential_field(grid), cfg.dt)
    return kernel, gaussian_free_state(packet, particle, t_start, grid), n_steps


def _arrival_pass(
    cfg: ExperimentConfig, hold: bool = False
) -> tuple[DetectionRecord, np.ndarray, slice]:
    """Propagate the packet across detector 1's window once.

    Returns the w1 record, the held conditional states (n_steps + 1, 1, n_held)
    and detector 1's decay support; n_held is the support's length with hold,
    else 0.
    """
    kernel, psi0, n_steps = _detector1_start(cfg)
    _, record, held = _conditional(kernel, psi0, n_steps, cfg.dt, hold)
    p_detected = float(record.cumulative_detected[-1])
    if p_detected <= 0.0:
        raise NoDetectionError("detector 1 accumulated no detection probability")
    if p_detected < _MIN_DETECTION:
        warnings.warn(
            f"detector-1 detection probability {p_detected:.3f} < {_MIN_DETECTION}; "
            f"leakage {float(record.survival_p0[-1]):.3f} is not negligible",
            RegimeWarning,
            stacklevel=3,
        )
    return record, held, kernel.support


def _entry_steps(cfg: ExperimentConfig, record: DetectionRecord) -> tuple[np.ndarray, np.ndarray]:
    """Steps of the entry grid and their times: detection-probability
    quantiles of the record, snapped to steps in (0, n_steps]."""
    times, cum = record.times, record.cumulative_detected
    q = np.linspace(*_ENTRY_WINDOW, cfg.n_entry)
    t_entry = np.interp(q * float(cum[-1]), cum, times)
    idx = np.unique(np.round((t_entry - times[0]) / cfg.dt).astype(int))
    idx = idx[(idx > 0) & (idx <= len(times) - 1)]
    if len(idx) < 2:
        raise NoDetectionError("entry grid collapsed to fewer than two times")
    return idx, times[0] + idx * cfg.dt


def _reset_states(cfg: ExperimentConfig, support: slice, held: np.ndarray) -> np.ndarray:
    """Reset states sqrt(A) chi psi_cond from held (rows, n_support) slices of
    the conditional state on detector 1's decay support; zero off it."""
    states = np.zeros((len(held), cfg.grid.n_points), dtype=complex)
    states[:, support] = cfg.detector1.reset_factor(cfg.grid)[support] * held
    return states


def _reset_row(cfg: ExperimentConfig, at_time: float | None) -> tuple[float, np.ndarray]:
    """(T, sqrt(A) chi psi_cond(T)) at the entry T nearest at_time (default: the
    w1 peak), propagated alone to T's step from the arrival pass's start state.
    Its closed final state has the bits of the ensemble's row at T."""
    record, _, _ = _arrival_pass(cfg)
    steps, entry_times = _entry_steps(cfg, record)
    want = peak_time(record) if at_time is None else at_time
    i = int(np.argmin(np.abs(entry_times - want)))
    kernel, psi0, _ = _detector1_start(cfg)
    step = int(steps[i])
    _, _, final = _evolve_rows(kernel, psi0.amplitudes[None, :], step, step)
    row = _reset_states(cfg, kernel.support, final[:, kernel.support])[0]
    return float(entry_times[i]), row


def arrival_stage(cfg: ExperimentConfig) -> tuple[DetectionRecord, ResetEnsemble]:
    """Detector-1 stage: w1^(1) record plus reset states on the entry grid.

    One pass records w1 and holds the conditional state on detector 1's decay
    support, where sqrt(A) chi is non-zero, at every step; the reset states
    are built from the held slices at the entry grid's steps, which sit on
    detection-probability quantiles of the record. The held stack, dropped
    before the states are allocated, costs n_steps x n_support x 16 B: 54.6 MB
    at dt = 1e-6 on the reference grid (712 of 8192 points on detector 1),
    27.8 MB at the 3 mm/s sweep point, growing as 1/dt. It pays off only when
    every row is needed: a caller that needs the record alone runs
    `_arrival_pass` without hold, and one that needs a single row takes it
    from `_reset_row`, which picks its step with `_entry_steps`, holds no
    stack and builds no ensemble.
    """
    record, held, support = _arrival_pass(cfg, hold=True)
    times, cum = record.times, record.cumulative_detected
    p_detected = float(cum[-1])
    idx, t_entry = _entry_steps(cfg, record)
    rows = held[idx, 0]
    del held
    states = _reset_states(cfg, support, rows)
    norms_sq = np.sum(np.abs(states) ** 2, axis=-1) * cfg.grid.dx
    weights = np.empty(len(t_entry))
    weights[1:-1] = 0.5 * (t_entry[2:] - t_entry[:-2])
    weights[0] = 0.5 * (t_entry[1] - t_entry[0])
    weights[-1] = 0.5 * (t_entry[-1] - t_entry[-2])
    # rescale the coarse trapezoid to the dt-resolved mass over the same
    # window, so a sparse entry grid cannot inflate the captured probability
    coarse = float(np.sum(weights * norms_sq))
    dense = float(
        np.interp(t_entry[-1], times, cum) - np.interp(t_entry[0], times, cum)
    )
    if coarse > 0.0 and dense > 0.0:
        weights *= dense / coarse
    captured = float(np.sum(weights * norms_sq))
    ensemble = ResetEnsemble(
        entry_times=t_entry,
        weights=weights,
        states=states,
        norms_sq=norms_sq,
        captured_mass=captured,
        p_detected_1=p_detected,
        residual_norm_1=float(record.survival_p0[-1]),
    )
    return record, ensemble


def _moments(t: np.ndarray, density: np.ndarray) -> tuple[float, float, float]:
    """Trapezoid total, mean and std of a detection density sampled at times t."""
    total = float(np.trapezoid(density, t))
    if total <= 0.0:
        raise NoDetectionError(f"detection density integrates to {total:.3e}")
    mean = float(np.trapezoid(t * density, t) / total)
    var = float(np.trapezoid((t - mean) ** 2 * density, t) / total)
    return total, mean, float(np.sqrt(max(var, 0.0)))


def passage_distribution(
    cfg: ExperimentConfig, ensemble: ResetEnsemble | None = None
) -> PassageDistribution:
    """Marginal G(tau) with tau counted from each reset; moments over the grid.

    Let U(tau) be stage 2's propagator, detector 2's absorption included, and
    P(tau) = U(tau)^dagger A chi_2 U(tau), which is positive semidefinite. With
    the weighted snapshot matrix's singular values s_i and vectors v_i,

        G(tau) = sum_i s_i^2 <v_i|P(tau)|v_i> dx.

    Only the rows with s_i^2 above `svd_keep` of sum_i s_i^2 are propagated.
    The dropped rows' share, `discarded_power`, changes G by
    dG(tau) = sum_{i dropped} s_i^2 <v_i|P(tau)|v_i> dx >= 0 at every tau, and
    since a unit state is detected with probability at most 1,
    int dG dtau <= discarded_power x captured_mass, up to stage 2's own
    norm-budget residual.
    """
    particle, grid = cfg.particle, cfg.grid
    dt2 = cfg.dt2 if cfg.dt2 is not None else cfg.dt
    tau_max = cfg.tau_max if cfg.tau_max is not None else _auto_tau_max(cfg)
    n_steps = int(round(tau_max / dt2))
    if n_steps < cfg.tau_stride:
        raise ConfigError("tau horizon shorter than one sample stride")
    if ensemble is None:
        _, ensemble = arrival_stage(cfg)
    width = ensemble.states.shape[1]
    if width != grid.n_points:
        raise GridError(
            f"reset ensemble states have {width} points, the grid {grid.n_points}"
        )
    nonzero = np.flatnonzero(np.any(ensemble.states != 0.0, axis=0))
    if len(nonzero) == 0:
        raise NoDetectionError("reset ensemble states are zero at every grid point")

    span = slice(nonzero[0], nonzero[-1] + 1)
    weighted = np.sqrt(ensemble.weights)[:, None] * ensemble.states[:, span]
    _, svals, vrows = np.linalg.svd(weighted, full_matrices=False)
    power = svals**2
    total_power = float(np.sum(power))
    keep = power > cfg.svd_keep * total_power
    basis = np.zeros((int(np.count_nonzero(keep)), grid.n_points), dtype=complex)
    basis[:, span] = svals[keep, None] * vrows[keep]

    pot2 = cfg.detector2.potential_field(grid)  # detector 1 is off in stage 2
    steps, w1rows, final = _evolve_rows(
        _kernel(grid, particle, pot2, dt2), basis, n_steps, cfg.tau_stride
    )
    # each row's norm^2, squared in place, then their sum over the rows; the
    # rows are freed before G's arrays are made, which lowers the memory peak
    dens = np.abs(final)
    residual_2 = float(np.sum(np.sum(np.square(dens, out=dens), axis=-1) * grid.dx))
    del final, dens
    tau = steps * dt2
    g_tau = np.sum(w1rows, axis=0)

    total, mean, std = _moments(tau, g_tau)
    entry_truncation = ensemble.p_detected_1 - ensemble.captured_mass
    never_detected = ensemble.residual_norm_1 + residual_2 + entry_truncation
    detectable = total + residual_2
    if detectable > 0.0 and total < _CAPTURE_TARGET * detectable:
        warnings.warn(
            f"tau grid captures {total/detectable:.4f} of the reachable detection "
            f"probability (target {_CAPTURE_TARGET}); moments are tabulated ones",
            RegimeWarning,
            stacklevel=2,
        )
    return PassageDistribution(
        tau=tau,
        g_tau=g_tau,
        total_probability=total,
        mean_tau=mean,
        std_tau=std,
        leakage_report=(never_detected, residual_2),
        kept_rank=len(basis),
        discarded_power=float(np.sum(power[~keep])) / total_power,
    )


def _check_forward_packet(
    packet: GaussianPacketSpec, particle: ParticleSpec, invalid: str
) -> None:
    """ConfigError unless the packet's negative-momentum mass is at most 1e-6."""
    sigma_p = particle.hbar / (2.0 * packet.sigma_x)
    p0 = particle.mass * packet.mean_velocity_v0
    neg_mass = 0.5 * erfc(p0 / (sigma_p * np.sqrt(2.0)))
    if neg_mass > 1e-6:
        raise ConfigError(f"negative-momentum mass {neg_mass:.2e} exceeds 1e-6; {invalid}")


def classical_passage(
    packet: GaussianPacketSpec,
    particle: ParticleSpec,
    d: float,
    tau_grid: np.ndarray,
) -> np.ndarray:
    """Flight-time density of classical particles with the packet's momentum law.

    G_cl(tau) = |phi(p)|^2 m d / tau^2 at p = m d / tau.
    """
    tau = np.asarray(tau_grid, dtype=float)
    if not np.all(np.isfinite(tau)):
        raise ConfigError("tau_grid must be finite")
    if np.any(tau <= 0.0):
        raise ConfigError("classical passage needs tau > 0")
    _check_positive(d=d)
    _check_forward_packet(packet, particle, "classical map invalid")
    m = particle.mass
    p0 = m * packet.mean_velocity_v0
    sigma_p = particle.hbar / (2.0 * packet.sigma_x)
    p = m * d / tau
    dens_p = np.exp(-((p - p0) ** 2) / (2.0 * sigma_p**2)) / (
        np.sqrt(2.0 * np.pi) * sigma_p
    )
    return dens_p * m * d / tau**2


def kijowski_distribution(
    packet: GaussianPacketSpec,
    particle: ParticleSpec,
    x: float,
    t_grid: np.ndarray,
    n_k: int = 4001,
) -> np.ndarray:
    """Axiomatic arrival-time density at point x for the free packet.

    Pi_K(t) = hbar/(2 pi m) |int_0^inf dk sqrt(k) phi(k) e^{i k x - i hbar k^2 t/2m}|^2,
    evaluated by quadrature over the packet's analytic momentum amplitude.
    """
    if isinstance(n_k, bool) or not isinstance(n_k, Integral) or n_k < 2:
        raise ConfigError(f"n_k must be an integer >= 2, got {n_k!r}")
    t = np.asarray(t_grid, dtype=float).ravel()
    if not np.isfinite(x):
        raise ConfigError(f"x must be finite, got {x}")
    if not np.all(np.isfinite(t)):
        raise ConfigError("t_grid must be finite")
    _check_forward_packet(packet, particle, "positive-k form invalid")
    m, hb = particle.mass, particle.hbar
    k0 = m * packet.mean_velocity_v0 / hb
    sk = 1.0 / (2.0 * packet.sigma_x)
    k_lo = max(k0 - 9.0 * sk, 0.0)
    k = np.linspace(k_lo, k0 + 9.0 * sk, n_k)
    dk = k[1] - k[0]
    phi = (2.0 * packet.sigma_x**2 / np.pi) ** 0.25 * np.exp(
        -(packet.sigma_x**2) * (k - k0) ** 2 - 1j * k * packet.center_x0
    )
    integrand = np.sqrt(k) * phi * np.exp(1j * k * x)
    # build the (times, k) chirp a block of times at a time, a few MB each
    block = _block_rows(n_k)
    amp = np.empty(len(t), dtype=complex)
    for i in range(0, len(t), block):
        chirp = np.exp(-1j * hb * np.outer(t[i : i + block], k * k) / (2.0 * m))
        amp[i : i + block] = chirp @ integrand * dk
    return hb / (2.0 * np.pi * m) * np.abs(amp) ** 2
