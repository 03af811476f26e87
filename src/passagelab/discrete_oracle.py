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
(nodes x points) product, then one inverse FFT per mode.

Every product sums at most _MAX_BLOCK_NODES terms at a time, in a fixed order,
so the output is bit-for-bit the same on any BLAS thread count. The oracle
runs in the calling thread.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GaussianPacketSpec,
    ParticleSpec,
    SpatialGrid,
    _block_rows,
    _check_count,
    _check_positive,
    _free_packet,
    _packet_x_terms,
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
# the most terms one product sums. OpenBLAS sums an inner dimension above 128
# in a different order on one thread than on several, and the accumulated
# density would then depend on the thread count.
_MAX_BLOCK_NODES = 64
# the interpolation rule's first node count, its most nodes, and its
# tolerance on the predicted nodes relative to max |G|
_FIRST_NODES = 17
_MAX_NODES = 257
_INTERP_TOL = 1e-12


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


def _chebyshev_times(n_nodes: int, delta_t: float) -> np.ndarray:
    """n_nodes Chebyshev-Lobatto nodes on [0, delta_t], from delta_t down to 0:
    every other node of 2 n_nodes - 1, with the same bits."""
    return 0.5 * delta_t * (1.0 + np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1)))


def _lagrange_rows(t: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """L_c(t_j), (len(t), len(nodes)): the Lagrange basis of the
    Chebyshev-Lobatto nodes at the times t, in the barycentric form (Berrut &
    Trefethen, SIAM Rev. 46, 501, 2004). A time on a node gets its unit row."""
    lam = (-1.0) ** np.arange(len(nodes))
    lam[[0, -1]] *= 0.5
    d = t[:, None] - nodes
    on = d == 0.0
    rows = lam / np.where(on, 1.0, d)
    rows /= np.sum(rows, axis=1, keepdims=True)
    hit = np.any(on, axis=1)
    rows[hit] = on[hit]
    return rows


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, summed over chunks of at most _MAX_BLOCK_NODES inner terms in
    a fixed order."""
    out = a[:, :_MAX_BLOCK_NODES] @ b[:_MAX_BLOCK_NODES]
    for start in range(_MAX_BLOCK_NODES, a.shape[1], _MAX_BLOCK_NODES):
        out += a[:, start : start + _MAX_BLOCK_NODES] @ b[start : start + _MAX_BLOCK_NODES]
    return out


def _interpolation_nodes(back_propagated, delta_t: float, nt: int):
    """(nodes, G at the nodes) by the rule of discrete_reset_density, or
    (None, None) where it falls back to the trapezoid's nt nodes."""
    g = None
    size = 2 * _FIRST_NODES - 1
    while size < nt and size <= _MAX_NODES:
        nodes = _chebyshev_times(size, delta_t)
        if g is None:
            g = back_propagated(nodes[::2])
        fresh = back_propagated(nodes[1::2])
        predicted = _product(_lagrange_rows(nodes[1::2], nodes[::2]), g)
        residual = np.max(np.abs(predicted - fresh))
        g = np.insert(g, range(1, len(g)), fresh, axis=0)  # the nodes' order
        if residual <= _INTERP_TOL * np.max(np.abs(g)):
            return nodes, g
        size = 2 * size - 1
    return None, None


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
    themselves: the direct quadrature. The weights sum to delta_t and
    |e^{i dw_l t}| = 1, so |delta acc| <= delta_t max_t |G - P_C|; the check's
    residual estimates that maximum, and the 2C - 1 nodes kept are closer.
    """
    bath = cfg.bath
    dw = bath.mode_frequencies() - bath.omega_0
    n = grid.n_points
    nt = cfg.n_time_samples
    ts = np.linspace(0.0, cfg.delta_t, nt)
    # every node passes the tail gate before any packet is evaluated
    for t_node in ts:
        _tail_gate(cfg.packet, particle, t_node, grid)
    # Theta keeps the tail x[i0:] of the grid; the other columns stay zero
    i0 = int(np.searchsorted(grid.x, 0.0))
    x_pos = grid.x[i0:]
    weights = np.full(nt, cfg.delta_t / (nt - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    kin_phase = particle.hbar * grid.k * grid.k / (2.0 * particle.mass)
    x_terms = _packet_x_terms(cfg.packet, particle, x_pos)

    def back_propagated(t: np.ndarray) -> np.ndarray:
        """G at the times t, one row each: FFT[Theta psi(t)] e^{i kin t}."""
        rows = np.zeros((len(t), n), dtype=complex)
        work = np.empty((2, len(t), len(x_pos)))
        _free_packet(cfg.packet, particle, t[:, None], x_terms, rows[:, i0:], work)
        np.fft.fft(rows, axis=-1, out=rows)
        rows *= np.exp(1j * kin_phase * t[:, None])
        return rows

    nodes, g = _interpolation_nodes(back_propagated, cfg.delta_t, nt)
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
