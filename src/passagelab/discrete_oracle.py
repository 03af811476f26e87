"""Post-detection density from the discrete N-mode bath, and profile comparison.

The detected-state density after one observation window delta_t is

    rho(x) = sum_l |g_l S_l(x)|^2 / delta_t,
    S_l(x) = int_0^delta_t dt e^{i(w_l-w0)t} [U(delta_t-t) Theta U(t) psi](x),

with U free propagation and Theta the projector onto x >= 0. In momentum space
the integrand is e^{i(w_l-w0)t} U(delta_t) G(t), with G(t) = e^{i kin t}
FFT[Theta psi(t)] the projected packet back-propagated to t = 0, and the
integral is a trapezoid sum over n_time_samples nodes. G is an entire function
of t that varies slowly over the window, so the sum runs on its interpolant
through a few dozen Chebyshev-Lobatto nodes (Trefethen, Approximation Theory
and Approximation Practice, SIAM 2013, ch. 8): one (modes x nodes) @
(nodes x points) product, then one inverse FFT per mode. The interpolation
rule, core._interpolation_nodes, is the one kijowski_distribution uses.

Every product sums at most _MAX_BLOCK_NODES terms at a time, in a fixed order,
so the output is bit-for-bit the same on any BLAS thread count. The oracle
runs in the calling thread.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _MAX_BLOCK_NODES,
    GaussianPacketSpec,
    ParticleSpec,
    SpatialGrid,
    _block_rows,
    _check_count,
    _check_positive,
    _free_packet,
    _interpolation_nodes,
    _lagrange_rows,
    _product,
    _tail_gate,
    gaussian_free_state,
)
from .detector import DiscreteBathSpec
from .exceptions import ConfigError, ZeroNormError

__all__ = [
    "DiscreteResetConfig",
    "DensityProfile",
    "ComparisonMetrics",
    "discrete_reset_density",
    "continuum_reset_density",
    "compare_densities",
]

_MIN_SAMPLES_PER_PERIOD = 20


@dataclass(frozen=True)
class DiscreteResetConfig:
    bath: DiscreteBathSpec
    packet: GaussianPacketSpec
    delta_t: float
    n_time_samples: int = 8192

    def __post_init__(self) -> None:
        _check_positive(delta_t=self.delta_t)
        # at least the trapezoid's two nodes
        _check_count("n_time_samples", self.n_time_samples, 2)
        # fastest phase in the quadrature integrand
        fastest = np.max(np.abs(self.bath.mode_frequencies() - self.bath.omega_0))
        periods = fastest * self.delta_t / (2.0 * np.pi)
        if periods > 0 and self.n_time_samples < _MIN_SAMPLES_PER_PERIOD * periods:
            raise ConfigError(
                f"n_time_samples={self.n_time_samples} undersamples the fastest "
                f"phase: need >= {int(np.ceil(_MIN_SAMPLES_PER_PERIOD * periods))}"
            )


@dataclass(frozen=True)
class DensityProfile:
    grid: SpatialGrid
    values: np.ndarray
    normalization: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ConfigError("density length does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ConfigError("density values must be finite")
        if np.any(v < 0.0):
            raise ConfigError("density must be >= 0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ComparisonMetrics:
    l1_full: float
    l1_masked: float
    exclusion: tuple[float, float]


def _free_phase(kin_phase: np.ndarray, t: np.ndarray) -> np.ndarray:
    """e^{i kin t}, one row per time t. On an fftfreq grid kin(-k) = kin(k)
    bit for bit, so only the n // 2 + 1 columns of k >= 0 and the Nyquist
    column, which has no partner, are exponentiated; the rest are mirrored."""
    n = len(kin_phase)
    half = n // 2 + 1
    out = np.empty((len(t), n), dtype=complex)
    np.exp(1j * kin_phase[:half] * t[:, None], out=out[:, :half])
    out[:, half:] = out[:, n - half : 0 : -1]
    return out


def discrete_reset_density(
    cfg: DiscreteResetConfig, grid: SpatialGrid, particle: ParticleSpec
) -> DensityProfile:
    """Detected-state density of the N-mode model, per unit observation window.

    The trapezoid sum over the n_time_samples nodes t_j runs on P_C, the
    interpolant of G at C Chebyshev-Lobatto nodes t_c: acc = M @ G(t_c), with
    M[l, c] = sum_j w_j e^{i dw_l t_j} L_c(t_j). C starts at 17. Each round
    evaluates G at the C - 1 nodes between the current ones, predicts them
    with P_C, and stops once max |predicted - direct| <= 1e-12 max |G|,
    keeping all 2C - 1 nodes. If the next round would need n_time_samples
    nodes or more, or more than 257, the sum runs on G at the trapezoid nodes
    themselves: the direct quadrature. So does a window over which a column k
    of G turns through more than 256 rad, at kin(k) - kin(k0) for the
    packet's k0: no interpolant the check tests resolves it, and the rule
    evaluates no row of G. The weights sum to delta_t and
    |e^{i dw_l t}| = 1, so |delta acc| <= delta_t max_t |G - P_C|; the check's
    residual estimates that maximum, and the 2C - 1 nodes kept are closer.
    """
    bath = cfg.bath
    dw = bath.mode_frequencies() - bath.omega_0
    n = grid.n_points
    nt = cfg.n_time_samples
    ts = np.linspace(0.0, cfg.delta_t, nt)
    # every node passes the tail gate before any packet is evaluated
    _tail_gate(cfg.packet, particle, ts, grid)
    # Theta keeps the tail x[i0:] of the grid; the other columns stay zero
    i0 = int(np.searchsorted(grid.x, 0.0))
    x_pos = grid.x[i0:]
    weights = np.full(nt, cfg.delta_t / (nt - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    kin_phase = particle.hbar * grid.k * grid.k / (2.0 * particle.mass)

    def back_propagated(t: np.ndarray) -> np.ndarray:
        """G at the times t, one row each: FFT[Theta psi(t)] e^{i kin t}."""
        rows = np.zeros((len(t), n), dtype=complex)
        rows[:, i0:] = _free_packet(cfg.packet, particle, t[:, None], x_pos)
        np.fft.fft(rows, axis=-1, out=rows)
        rows *= _free_phase(kin_phase, t)
        return rows

    # column k of G turns at about kin(k) - kin(k0)
    v0 = cfg.packet.mean_velocity_v0
    rate = np.max(np.abs(kin_phase - 0.5 * particle.mass * v0 * v0 / particle.hbar))
    nodes, g = _interpolation_nodes(back_propagated, 0.0, cfg.delta_t, nt, rate)
    # the trapezoid in chunks of nodes: into M, or the direct sum into acc
    acc = np.zeros((bath.n_modes, n if nodes is None else len(nodes)), dtype=complex)
    block = min(_block_rows(n), _MAX_BLOCK_NODES)
    for start in range(0, nt, block):
        t = ts[start : start + block]
        coeff = weights[start : start + block] * np.exp(1j * dw[:, None] * t)
        acc += coeff @ (back_propagated(t) if nodes is None else _lagrange_rows(t, nodes))
    if nodes is not None:
        acc = _product(acc, g)
    del g
    acc *= np.exp(-1j * kin_phase * cfg.delta_t)[None, :]
    s_l = np.fft.ifft(acc, axis=-1)
    dens = np.tensordot(bath.coupling_sq(), np.abs(s_l) ** 2, axes=(0, 0)) / cfg.delta_t
    norm = float(np.sum(dens) * grid.dx)
    return DensityProfile(grid=grid, values=dens, normalization=norm)


def continuum_reset_density(
    packet: GaussianPacketSpec,
    particle: ParticleSpec,
    decay_a: float,
    delta_t: float,
    grid: SpatialGrid,
) -> DensityProfile:
    """Continuum-limit reference A |Theta psi(delta_t)|^2 on the same grid."""
    psi = gaussian_free_state(packet, particle, delta_t, grid)
    dens = decay_a * (grid.x >= 0.0) * np.abs(psi.amplitudes) ** 2
    norm = float(np.sum(dens) * grid.dx)
    return DensityProfile(grid=grid, values=dens, normalization=norm)


def compare_densities(
    a: DensityProfile,
    b: DensityProfile,
    exclusion: tuple[float, float] | None = None,
) -> ComparisonMetrics:
    """L1 distance between unit-normalized profiles, full axis and masked.

    The masked variant drops grid points inside the exclusion window before
    renormalizing, so it measures shape agreement away from the window.
    """
    if a.grid != b.grid:
        raise ConfigError("profiles live on different grids")
    dx = a.grid.dx
    x = a.grid.x

    def _l1(va: np.ndarray, vb: np.ndarray) -> float:
        na = np.sum(va) * dx
        nb = np.sum(vb) * dx
        if na <= 0.0 or nb <= 0.0:
            raise ZeroNormError("cannot compare a zero-normalization profile")
        return float(np.sum(np.abs(va / na - vb / nb)) * dx)

    full = _l1(a.values, b.values)
    if exclusion is None:
        return ComparisonMetrics(l1_full=full, l1_masked=full, exclusion=(0.0, 0.0))
    lo, hi = exclusion
    keep = (x < lo) | (x > hi)
    masked = _l1(a.values[keep], b.values[keep])
    return ComparisonMetrics(l1_full=full, l1_masked=masked, exclusion=(lo, hi))
