"""Post-detection density from the discrete N-mode bath, and profile comparison.

The detected-state density after one observation window delta_t is

    rho(x) = sum_l |g_l S_l(x)|^2 / delta_t,
    S_l(x) = int_0^delta_t dt e^{i(w_l-w0)t} [U(delta_t-t) Theta U(t) psi](x),

with U free propagation and Theta the projector onto x >= 0. The quadrature
accumulates in momentum space, a block of time nodes at a time: the closed-form
packet on the grid points x >= 0 for every node of the block, a batched FFT,
the back-propagation phase, and one (modes x nodes) @ (nodes x points)
product into the accumulator. One inverse FFT per mode follows at the end.
The phase depends on |k| alone and the grid's k is exactly antisymmetric,
k[n - j] == -k[j], so it is exponentiated on the first n // 2 + 1 columns and
the other columns multiply by its mirror image: the same bits, half the
complex exponentials.

Every node passes the tail gate first, in the calling thread. The blocks then
run through propagator._in_order on the shared pool, one per usable core, each
in a scratch set the calling thread allocated; the calling thread takes them
back in block order and does the product and the sum. A row's packet, FFT and
phase do not depend on the rows beside it, and the blocks depend on the grid
size alone and hold at most 64 nodes, so every product has the same shape and
sums in the same order: the output is bit-for-bit the same for any number of
cores and any BLAS thread count.
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
from .propagator import _in_order, _usable_cores

__all__ = [
    "DiscreteResetConfig",
    "DensityProfile",
    "ComparisonMetrics",
    "discrete_reset_density",
    "continuum_reset_density",
    "compare_densities",
]

_MIN_SAMPLES_PER_PERIOD = 20
# nodes per block: the shared byte budget, but at most 64. OpenBLAS sums an
# inner dimension above 128 in a different order on one thread than on
# several, and the accumulated density would then depend on the thread count.
_MAX_BLOCK_NODES = 64
# a block's packet, FFT and phase run this many rows at a time, in cache;
# the FFT loses its batching below about four rows
_SUB_ROWS = 8


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
        fastest = abs(self.bath.omega_max - self.bath.omega_0)
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


def _back_propagate(
    phi: np.ndarray, ikin: np.ndarray, t: np.ndarray, phase: np.ndarray
) -> None:
    """phi[i] *= exp(i kin_phase t[i]) in place, one exponential per |k|.

    ikin is 1j * kin_phase[:n // 2 + 1]: kin_phase is even on the grid's k,
    kin_phase[n - j] == kin_phase[j], so columns n // 2 + 1.. multiply by the
    mirror image of the first half. The exponentials go into phase,
    (len(t), n // 2 + 1).
    """
    n = phi.shape[-1]
    half = n // 2 + 1
    np.multiply(ikin, t[:, None], out=phase)
    np.exp(phase, out=phase)
    phi[:, :half] *= phase
    phi[:, half:] *= phase[:, n - half : 0 : -1]


def discrete_reset_density(
    cfg: DiscreteResetConfig, grid: SpatialGrid, particle: ParticleSpec
) -> DensityProfile:
    """Detected-state density of the N-mode model, per unit observation window."""
    bath = cfg.bath
    hb, m = particle.hbar, particle.mass
    dw = bath.mode_frequencies() - bath.omega_0
    g_sq = bath.coupling_sq()
    k = grid.k
    n = grid.n_points
    nt = cfg.n_time_samples
    ts = np.linspace(0.0, cfg.delta_t, nt)
    # every node passes the tail gate before any block starts
    for t_node in ts:
        _tail_gate(cfg.packet, particle, t_node, grid)
    # Theta keeps the tail x[i0:] of the grid; the other columns stay zero
    i0 = int(np.searchsorted(grid.x, 0.0))
    x_pos = grid.x[i0:]
    weights = np.full(nt, cfg.delta_t / (nt - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    kin_phase = hb * k * k / (2.0 * m)
    # the blocks' time-independent factors, computed once here
    ikin = 1j * kin_phase[: n // 2 + 1]
    x_terms = _packet_x_terms(cfg.packet, particle, x_pos)
    block = min(_block_rows(n), _MAX_BLOCK_NODES, nt)
    sub = min(block, _SUB_ROWS)

    def fill(t, scratch):
        """The block's rows, back-propagated, a sub-block at a time."""
        rows, turns, work = scratch
        rows = rows[: len(t)]
        # the sub-block's packet rows, then its phases, take turns in one
        # buffer; both views are contiguous
        free = turns[: sub * len(x_pos)].reshape(sub, -1)
        phase = turns[: sub * (n // 2 + 1)].reshape(sub, -1)
        for r0 in range(0, len(t), sub):
            r, t_sub = rows[r0 : r0 + sub], t[r0 : r0 + sub]
            b = len(t_sub)
            # the set's last FFT wrote the columns x < 0 too
            r[:, :i0] = 0.0
            # into contiguous rows, copied in once: numpy would buffer every
            # in-place step of _free_packet on the strided r[:, i0:]
            _free_packet(
                cfg.packet, particle, t_sub[:, None], x_terms, free[:b], work[:, :b]
            )
            r[:, i0:] = free[:b]
            # back-propagate the projected slices to t=0 in momentum space
            np.fft.fft(r, axis=-1, out=r)
            _back_propagate(r, ikin, t_sub, phase[:b])
        return rows

    blocks = [ts[start : start + block] for start in range(0, nt, block)]
    # the scratch sets are allocated here, not in the pool threads
    sets = [
        (
            np.empty((block, n), dtype=complex),
            np.empty(sub * max(len(x_pos), n // 2 + 1), dtype=complex),
            np.empty((2, sub, len(x_pos))),
        )
        for _ in range(max(1, min(_usable_cores(), len(blocks))))
    ]
    acc = np.zeros((bath.n_modes, n), dtype=complex)
    prod = np.empty_like(acc)
    for i, phi in enumerate(_in_order(fill, blocks, sets)):
        start = i * block
        coeff = weights[start : start + block] * np.exp(1j * dw[:, None] * blocks[i])
        np.matmul(coeff, phi, out=prod)
        acc += prod
    # free the scratch before the inverse FFT and the moduli allocate theirs
    del sets, prod, phi
    acc *= np.exp(-1j * kin_phase * cfg.delta_t)[None, :]
    s_l = np.fft.ifft(acc, axis=-1)
    dens = np.tensordot(g_sq, np.abs(s_l) ** 2, axes=(0, 0)) / cfg.delta_t
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
