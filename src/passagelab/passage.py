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
only; the zero columns change no singular value or vector. The kept rows
are propagated on a run of the grid's points between the detectors that
ends in an absorbing layer, so nothing wraps round the periodic grid.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil, erfc, log2
from numbers import Integral
from typing import ClassVar

import numpy as np

from .core import (
    GaussianPacketSpec,
    ParticleSpec,
    SpatialGrid,
    WaveFunction,
    _MAX_BLOCK_NODES,
    _block_rows,
    _check_count,
    _check_positive,
    _five_smooth,
    _interpolation_nodes,
    _lagrange_rows,
    _product,
    build_grid,
    free_sigma_x,
    gaussian_free_state,
)
from .detector import DetectorSpec
from .exceptions import ConfigError, GridError, NoDetectionError, RegimeWarning
from .propagator import (
    ComplexPotentialField,
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
# fixed-point steps _edge_crossing_time takes for t_end1 before it gives up,
# and the steps it takes for t_start. t_start keeps the 12 it has always
# taken: converging it would move the window's origin at slow, short sweep
# points (by 3.6e-4 relative, 0.7 us, at 3 mm/s and d = 5 um), and with it
# the entry-grid snapping that the half-step tests were measured on
_CROSSING_STEPS = 10_000
_START_STEPS = 12
# detector 1's pass keeps the grid points within this many spreading widths
# of the free packet's path: there its amplitude is 1.1e-7 of its peak and
# the mass beyond is 6e-16 (the tail gate's 1e-10 sits at 6.4 widths)
_BOX_WIDTHS = 8.0
# stage 2's box, in units of detector 2's length L2: the grid points from
# _STAGE2_MARGIN L2 left of detector 1 to _STAGE2_MARGIN L2 right of detector
# 2, then an absorbing layer of length L2 up to the box's periodic seam. The
# layer's rate rises as a quadratic from 0 at each of its ends to its peak in
# its middle: two ramps of L2 / 2 (Kosloff & Kosloff, J. Comput. Phys. 63,
# 363, 1986), one facing right-movers past detector 2 and one facing
# left-movers that cross the seam. Its peak is set so that a particle at the
# packet's speed v keeps e^-_LAYER_DEPTH of its probability across one ramp:
# 6 _LAYER_DEPTH v / L2, 1.0e5 1/s on the reference study. v is |v0|, or the
# velocity spread hbar / (2 m sigma_x) when that is larger, so that a packet
# at rest or moving left gets a layer too. Lengths
# and rates both follow the problem's own scales, so its space-time scaling
# symmetry holds through stage 2
_STAGE2_MARGIN = 0.25
_LAYER_DEPTH = 46.5


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of the two-detector passage experiment.

    Times left as None are derived: t_start places the packet center six
    spreading-widths left of detector 1, t_end1 lets the packet clear
    detector 1, tau_max aims at capture, capped at the grid's wrap-around
    time (see _auto_tau_max). dt2 (stage-2 step) defaults to dt.
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
    # and 5 000x below the grid and entry-grid errors, while a cut
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
    # (probability never detected by either stage, the boundary loss included;
    # mass left in stage 2's box at tau_max)
    leakage_report: tuple[float, float]
    kept_rank: int  # singular vectors propagated in stage 2
    discarded_power: float  # dropped share of the sum of squared singular values
    # mass stage 2's absorbing layer took: the trapezoid integral over tau of
    # its sampled loss density
    boundary_loss: float
    stage2_grid_points: int  # points of the box stage 2 ran on (see _stage2_box)


def _edge_crossing_time(
    packet: GaussianPacketSpec, particle: ParticleSpec, edge: float, side: float
) -> float:
    """Time the packet centre is six spreading widths before (side = -1) or
    past (side = +1) edge: the fixed point of t = (edge + side 6 sigma(t) - x0)/v0,
    iterated from sigma = sigma_x.

    sigma(t) grows at up to sigma_v = hbar / (2 m sigma_x), so each step
    moves t by at most 6 sigma_v / v0 times the last one; near 1 the steps
    barely shrink, and past it there may be no crossing at all. t_end1
    (side = +1) is iterated until it stops changing; when it has not within
    _CROSSING_STEPS steps, a ConfigError names t_end1 and that ratio. t_start
    (side = -1) takes _START_STEPS steps.
    """
    v0 = packet.mean_velocity_v0
    if v0 <= 0.0:
        raise ConfigError("auto t_start and t_end1 need a positive mean velocity")
    t = (edge + side * 6.0 * packet.sigma_x - packet.center_x0) / v0
    # a t that runs off to infinity overflows on its way and fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_CROSSING_STEPS if side > 0.0 else _START_STEPS):
            sig = free_sigma_x(packet, particle, t)
            last, t = t, (edge + side * 6.0 * sig - packet.center_x0) / v0
            if t == last:
                break
        # rounding may leave t alternating between neighbouring floats
        if side < 0.0 or abs(t - last) <= 4.0 * np.spacing(abs(last)):
            return t
    ratio = 6.0 * particle.hbar / (2.0 * particle.mass * packet.sigma_x) / v0
    raise ConfigError(
        f"auto t_end1 has not settled in {_CROSSING_STEPS} steps: the packet "
        f"spreads at 6 sigma_v / v0 = {ratio:.3g} of its speed, so its centre may "
        f"never be six widths past detector 1's edge at {edge} m; give t_end1"
    )


def _auto_tau_max(cfg: ExperimentConfig) -> float:
    """Capture-oriented horizon, capped at 0.9 of the time the packet takes
    to go once round cfg.grid.

    Stage 2 runs on a box with an absorbing layer, so nothing wraps round any
    more; the cap only fixes the horizon, and with it every std(G) over
    [0, tau_max], until a horizon-robust width replaces it.
    """
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


def _arrival_box(
    cfg: ExperimentConfig, t_start: float, t_end: float
) -> tuple[SpatialGrid, int]:
    """The grid detector 1's pass runs on, and the index in cfg.grid of its
    first point.

    The box is the smallest power-of-two run of cfg.grid's own points that
    holds [lo, hi]: detector 1, widened by a cell so that rounding the box's
    centre cannot cut its edge point, and the free packet's centre +- 8
    spreading widths at t_start and t_end. The centre moves at v0 and the
    width is convex in t, so the path's extremes over the window sit at its
    ends. The box is centred on [lo, hi] and clamped to the grid; when it would
    not be smaller than the grid, the grid itself is returned.
    """
    grid, packet, particle = cfg.grid, cfg.packet, cfg.particle
    dx = grid.dx
    lo, hi = cfg.detector1.profile.a - dx, cfg.detector1.profile.b + dx
    for t in (t_start, t_end):
        centre = packet.center_x0 + packet.mean_velocity_v0 * t
        reach = _BOX_WIDTHS * free_sigma_x(packet, particle, t)
        lo, hi = min(lo, centre - reach), max(hi, centre + reach)
    m = 2 ** ceil(log2((hi - lo) / dx))
    return _grid_run(grid, round((0.5 * (lo + hi) - grid.x_min) / dx) - m // 2, m)


def _grid_run(grid: SpatialGrid, j0: int, m: int) -> tuple[SpatialGrid, int]:
    """The m points of grid from index j0, clamped to the grid, and the index
    of their first point; the grid itself when m is not smaller than it."""
    n, dx = grid.n_points, grid.dx
    if m >= n:
        return grid, 0
    j0 = int(min(max(j0, 0), n - m))
    return build_grid(grid.x_min + j0 * dx, grid.x_min + (j0 + m) * dx, m), j0


def _detector1_window(cfg: ExperimentConfig) -> tuple[float, float]:
    """Detector 1's window (t_start, t_end1), given or derived, checked."""
    particle, packet, det1 = cfg.particle, cfg.packet, cfg.detector1
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
    return t_start, t_end


def _detector1_start(
    cfg: ExperimentConfig,
) -> tuple[_Kernel, WaveFunction, int, slice]:
    """Validate detector 1's window and set up its pass: the step kernel and
    start state on the pass's grid, the number of steps that cross the
    window, and the kernel's support in cfg.grid's indices.

    The pass runs on `_arrival_box`'s run of the grid's points, which holds
    detector 1 and the packet's path out to 8 spreading widths (2048 of the
    8192 reference points, 512 of 1024 at the 3 mm/s sweep point), with dx
    and dt kept. The box's potential is the grid's, cut to the box, so the
    kernel's factors and the held slices have the grid's bits on detector
    1's support, shifted by the box's offset. The packet is periodic on the
    box instead of the grid; against the full grid this moves the reset
    states by at most 1.8e-8 of their largest amplitude, G by 2.3e-9 of its
    peak and std(G) by 4.1e-11 relative at the reference rates, and leaves
    the entry times' bits and the kept ranks as they are.
    """
    det1 = cfg.detector1
    if det1.decay_a == 0.0:
        raise NoDetectionError("detector 1 has A = 0: no detection")
    particle, grid, packet = cfg.particle, cfg.grid, cfg.packet
    t_start, t_end = _detector1_window(cfg)
    n_steps = int(round((t_end - t_start) / cfg.dt))
    if n_steps < 1:
        raise NoDetectionError(
            f"detection window {t_end - t_start:.3e} s is shorter than one step"
        )
    box, j0 = _arrival_box(cfg, t_start, t_end)
    pot = det1.potential_field(grid)
    on = slice(j0, j0 + box.n_points)
    active = (pot.decay_rate != 0.0) | (pot.real_shift != 0.0)
    # so the kernel's support is the grid's, offset by j0
    if np.count_nonzero(active[on]) != np.count_nonzero(active):
        raise GridError(f"detector 1 reaches outside its pass's box {on}")
    kernel = _kernel(
        box,
        particle,
        ComplexPotentialField(box, pot.decay_rate[on], pot.real_shift[on]),
        cfg.dt,
    )
    support = slice(kernel.support.start + j0, kernel.support.stop + j0)
    return kernel, gaussian_free_state(packet, particle, t_start, box), n_steps, support


def _arrival_pass(
    cfg: ExperimentConfig, hold: bool = False
) -> tuple[DetectionRecord, np.ndarray, slice]:
    """Propagate the packet across detector 1's window once.

    Returns the w1 record, the held conditional states (n_steps + 1, 1, n_held)
    and detector 1's decay support in cfg.grid's indices; n_held is the
    support's length with hold, else 0.
    """
    kernel, psi0, n_steps, support = _detector1_start(cfg)
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
    return record, held, support


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
    kernel, psi0, _, support = _detector1_start(cfg)
    step = int(steps[i])
    final = _evolve_rows(kernel, psi0.amplitudes[None, :], step, step)[-1]
    row = _reset_states(cfg, support, final[:, kernel.support])[0]
    return float(entry_times[i]), row


def arrival_stage(cfg: ExperimentConfig) -> tuple[DetectionRecord, ResetEnsemble]:
    """Detector-1 stage: w1^(1) record plus reset states on the entry grid.

    One pass records w1 and holds the conditional state on detector 1's decay
    support, where sqrt(A) chi is non-zero, at every step; the reset states
    are built from the held slices at the entry grid's steps, which sit on
    detection-probability quantiles of the record. The pass runs on the box
    `_detector1_start` picks (2048 of the 8192 reference points), and the
    states are put back on cfg.grid, zero off the support. The held stack,
    dropped before the states are allocated, costs n_steps x n_support x 16 B:
    54.6 MB at dt = 1e-6 on the reference grid (712 of 8192 points on
    detector 1), 27.8 MB at the 3 mm/s sweep point, growing as 1/dt. The box
    leaves it as it is. It pays off only when
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


def _nonzero_span(states: np.ndarray) -> slice:
    """The span of the columns where some row of states is non-zero."""
    nonzero = np.flatnonzero(np.any(states != 0.0, axis=0))
    if len(nonzero) == 0:
        raise NoDetectionError("reset ensemble states are zero at every grid point")
    return slice(nonzero[0], nonzero[-1] + 1)


def _stage2_cells(cfg: ExperimentConfig) -> tuple[int, int]:
    """Grid cells of stage 2's margin and absorbing layer (see _STAGE2_MARGIN),
    a length within 1e-6 dx of a whole number of cells counting as that
    number. The layer takes at least two, so that its rate is not all zero."""
    p2, dx = cfg.detector2.profile, cfg.grid.dx
    length = p2.b - p2.a
    return ceil(_STAGE2_MARGIN * length / dx - 1e-6), max(ceil(length / dx - 1e-6), 2)


def _stage2_box(cfg: ExperimentConfig, cols: slice) -> tuple[SpatialGrid, int]:
    """The grid stage 2 runs on, and the index in cfg.grid of its first point.

    cols is the span of the basis's non-zero columns in cfg.grid. The box is
    the smallest run of cfg.grid's own points, with no prime factor above 5
    in its length, that starts a margin left of detector 1's first point or
    of cols, whichever is further left, and holds detector 2 and cols, the
    margin, and one absorbing layer that ends at the box's last point (see
    _STAGE2_MARGIN). dx is cfg.grid's. When no run is smaller than the grid,
    the grid itself is returned; a ConfigError says when not even the grid
    has room for the layer right of detector 2.
    """
    grid, p2 = cfg.grid, cfg.detector2.profile
    n, dx = grid.n_points, grid.dx
    on1 = np.flatnonzero(cfg.detector1.profile.chi(grid))
    on2 = np.flatnonzero(p2.chi(grid))
    if len(on2) == 0:
        raise GridError("detector 2 has no point on the grid")
    margin, layer = _stage2_cells(cfg)
    start = max(min(cols.start, on2[0], *on1[:1]) - margin, 0)
    stop = max(cols.stop, on2[-1] + 1) + margin
    if stop + layer > n:
        raise ConfigError(
            f"stage 2 needs {margin + layer} grid points right of detector 2 and "
            f"the reset states for its margin and absorbing layer, up to "
            f"{grid.x_min + (stop + layer) * dx} m; the grid ends at {grid.x_max} m"
        )
    m = stop + layer - start
    while not _five_smooth(m):
        m += 1
    return _grid_run(grid, start, m)


def _stage2_kernel(cfg: ExperimentConfig, cols: slice, dt2: float) -> tuple[_Kernel, int]:
    """Stage 2's step kernel on `_stage2_box`'s box, and the box's offset j0
    in cfg.grid.

    Its potential is detector 2's on cfg.grid, cut to the box, plus the
    absorbing layer on the box's last L points: a rate of
    peak (1 - |2 s - 1|)^2 at s = j / L on its j-th point, 0 at its first
    point and at the seam after its last. Detector 1 is off."""
    grid, p2, packet = cfg.grid, cfg.detector2.profile, cfg.packet
    box, j0 = _stage2_box(cfg, cols)
    m = box.n_points
    pot = cfg.detector2.potential_field(grid)
    decay = pot.decay_rate[j0 : j0 + m].copy()
    _, layer = _stage2_cells(cfg)
    spread = cfg.particle.hbar / (2.0 * cfg.particle.mass * packet.sigma_x)
    speed = max(abs(packet.mean_velocity_v0), spread)
    peak = 6.0 * _LAYER_DEPTH * speed / (p2.b - p2.a)
    s = np.arange(layer) / layer
    decay[m - layer :] = peak * (1.0 - np.abs(2.0 * s - 1.0)) ** 2
    field = ComplexPotentialField(box, decay, pot.real_shift[j0 : j0 + m])
    return _kernel(box, cfg.particle, field, dt2, layer_start=m - layer), j0


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

    G is a quantity on the infinite line. Stage 2 therefore runs on
    `_stage2_box`'s run of the grid's points (5 400 of the 8 192 reference
    points), whose last points are an absorbing layer across its periodic
    seam: right-movers past detector 2 enter it from the left, and
    left-movers that leave the box's first point enter it through the seam.
    So no mass wraps round to be detected again. Each sample reduces the
    layer's loss density next to w1; its trapezoid integral over tau is
    `boundary_loss`, and it counts as never detected.
    """
    grid = cfg.grid
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
    span = _nonzero_span(ensemble.states)
    weighted = np.sqrt(ensemble.weights)[:, None] * ensemble.states[:, span]
    _, svals, vrows = np.linalg.svd(weighted, full_matrices=False)
    power = svals**2
    total_power = float(np.sum(power))
    keep = power > cfg.svd_keep * total_power

    kernel, j0 = _stage2_kernel(cfg, span, dt2)
    basis = np.zeros((int(np.count_nonzero(keep)), len(kernel.kin)), dtype=complex)
    basis[:, span.start - j0 : span.stop - j0] = svals[keep, None] * vrows[keep]
    steps, w1rows, lostrows, final = _evolve_rows(kernel, basis, n_steps, cfg.tau_stride)
    # each row's norm^2, squared in place, then their sum over the rows; the
    # rows are freed before G's arrays are made, which lowers the memory peak
    dens = np.abs(final)
    residual_2 = float(np.sum(np.sum(np.square(dens, out=dens), axis=-1) * kernel.dx))
    del final, dens
    tau = steps * dt2
    g_tau = np.sum(w1rows, axis=0)
    boundary_loss = float(np.trapezoid(np.sum(lostrows, axis=0), tau))

    total, mean, std = _moments(tau, g_tau)
    entry_truncation = ensemble.p_detected_1 - ensemble.captured_mass
    never_detected = (
        ensemble.residual_norm_1 + residual_2 + entry_truncation + boundary_loss
    )
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
        boundary_loss=boundary_loss,
        stage2_grid_points=len(kernel.kin),
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
    evaluated by quadrature over the packet's analytic momentum amplitude on
    n_k points of [k_lo, k_hi]. The amplitude drops its carrier
    e^{-i hbar k_c^2 t/2m}, k_c^2 = (k_lo^2 + k_hi^2)/2, which halves its
    phase band: B(t) = sum_m c_m e^{-i hbar t (k_m^2 - k_c^2)/2m}, |B| = |amp|.
    B is evaluated at Chebyshev-Lobatto nodes on [min t, max t] by the rule of
    discrete_reset_density (core._interpolation_nodes) and read at every time
    from its barycentric interpolant P_C, 64 times at a time. The sum runs at
    every time instead where the rule falls back: no convergence by 257 nodes
    (or B turning through more than 256 rad over the window), a round of
    len(t_grid) nodes or more, or fewer than two times. The interpolant moves
    the amplitude by |delta amp(t)| <= max over [min t, max t] of |B - P_C|,
    which the check's residual estimates.
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
    k2 = k * k
    rate = hb * (k2 - 0.5 * (k2[0] + k2[-1])) / (2.0 * m)
    block = _block_rows(n_k)

    def amplitude(times: np.ndarray) -> np.ndarray:
        """B at the times, from (times, k) chirp blocks of a few MB each."""
        out = np.empty(len(times), dtype=complex)
        for i in range(0, len(times), block):
            chirp = np.exp(-1j * np.outer(times[i : i + block], rate))
            out[i : i + block] = chirp @ integrand * dk
        return out

    nodes = None
    if len(t) > 1:
        nodes, b = _interpolation_nodes(
            amplitude, t.min(), t.max(), len(t), np.max(np.abs(rate))
        )
    if nodes is None:
        amp = amplitude(t)
    else:
        amp = np.empty(len(t), dtype=complex)
        for i in range(0, len(t), _MAX_BLOCK_NODES):
            part = t[i : i + _MAX_BLOCK_NODES]
            amp[i : i + _MAX_BLOCK_NODES] = _product(_lagrange_rows(part, nodes), b)
    return hb / (2.0 * np.pi * m) * np.abs(amp) ** 2
