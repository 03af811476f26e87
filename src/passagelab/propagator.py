"""Split-operator evolution under H = p^2/2m + (hbar/2)(shift(x) - i decay(x)).

The scheme is Strang splitting: a half potential factor, a full spectral
kinetic step, a half potential factor. Interior half factors are merged, so
the main loop costs two FFTs and one pointwise multiply per step; sampled
states are closed with the trailing half factor before observables are taken.
The potential factors are exactly 1 outside the span where the decay rate or
the shift is non-zero, so the batched kernel multiplies on that span only.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .core import ParticleSpec, SpatialGrid, WaveFunction
from .exceptions import ConfigError, GridError, InstabilityError

__all__ = [
    "ComplexPotentialField",
    "DetectionRecord",
    "step",
    "evolve_conditional",
    "peak_time",
]


@dataclass(frozen=True)
class ComplexPotentialField:
    """Samples of the decay rate A chi(x) and line shift delta chi(x), in 1/s."""

    grid: SpatialGrid
    decay_rate: np.ndarray
    real_shift: np.ndarray

    def __post_init__(self) -> None:
        decay = np.asarray(self.decay_rate, dtype=float)
        shift = np.asarray(self.real_shift, dtype=float)
        n = self.grid.n_points
        if decay.shape != (n,) or shift.shape != (n,):
            raise GridError("potential arrays must match the grid length")
        if not (np.all(np.isfinite(decay)) and np.all(np.isfinite(shift))):
            raise ValueError("potential contains NaN/Inf")
        if np.any(decay < 0.0):
            raise ConfigError("decay_rate must be >= 0 everywhere")
        decay.setflags(write=False)
        shift.setflags(write=False)
        object.__setattr__(self, "decay_rate", decay)
        object.__setattr__(self, "real_shift", shift)


@dataclass(frozen=True)
class DetectionRecord:
    """P0(t), w1(t) and the trapezoid-cumulative detection probability."""

    times: np.ndarray
    survival_p0: np.ndarray
    density_w1: np.ndarray
    cumulative_detected: np.ndarray


def _kinetic_factor(grid: SpatialGrid, particle: ParticleSpec, dt: float) -> np.ndarray:
    k = grid.k
    return np.exp(-1j * particle.hbar * k * k * dt / (2.0 * particle.mass))


def _potential_half_factor(pot: ComplexPotentialField, dt: float) -> np.ndarray:
    # exp(-i H_V dt/(2 hbar)) with H_V = (hbar/2)(shift - i decay)
    return np.exp(-(pot.decay_rate + 1j * pot.real_shift) * (dt * 0.25))


def step(
    psi: WaveFunction, pot: ComplexPotentialField, particle: ParticleSpec, dt: float
) -> WaveFunction:
    """One Strang step of size dt."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if pot.grid != psi.grid:
        raise GridError("potential and state live on different grids")
    vhalf = _potential_half_factor(pot, dt)
    kin = _kinetic_factor(psi.grid, particle, dt)
    amps = vhalf * np.fft.ifft(np.fft.fft(psi.amplitudes * vhalf) * kin)
    if not np.all(np.isfinite(amps.view(float))):
        raise InstabilityError(f"non-finite amplitudes after step at t={psi.time}")
    return WaveFunction(grid=psi.grid, amplitudes=amps, time=psi.time + dt)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The process-wide pool that runs row chunks, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=_usable_cores(), thread_name_prefix="passagelab"
            )
        return _POOL


@dataclass(frozen=True)
class _Kernel:
    """Step factors for one (grid, potential, dt), shared read-only by batches."""

    kin: np.ndarray
    support: slice  # the span of grid points where the decay rate or shift is non-zero
    vhalf: np.ndarray  # the half and full potential factors on that span
    vfull: np.ndarray
    decay: np.ndarray  # the decay rate on that span
    dx: float


def _kernel(
    grid: SpatialGrid, particle: ParticleSpec, pot: ComplexPotentialField, dt: float
) -> _Kernel:
    nonzero = np.flatnonzero((pot.decay_rate != 0.0) | (pot.real_shift != 0.0))
    support = slice(nonzero[0], nonzero[-1] + 1) if len(nonzero) else slice(0, 0)
    vhalf = _potential_half_factor(pot, dt)[support]
    return _Kernel(
        kin=_kinetic_factor(grid, particle, dt),
        support=support,
        vhalf=vhalf,
        vfull=vhalf * vhalf,
        decay=pot.decay_rate[support],
        dx=grid.dx,
    )


class _Batch:
    """Every array one batch run writes, allocated before the run starts.

    amps (r, n) is the state, evolved in place; spec is the FFT buffer, whose
    span of the kernel is free between steps and takes each sample's closed
    state there; dens is the |psi|^2 scratch. w1 and nsq (r, n_samples) take
    the samples at steps; held (n_samples, r, n_held) the closed states on the
    kernel's span at the same samples, with n_held its length (none by default).
    """

    def __init__(
        self,
        amps: np.ndarray,
        n_steps: int,
        sample_stride: int,
        n_held: int = 0,
    ) -> None:
        self.amps = np.array(amps, dtype=complex)
        self.spec = np.empty_like(self.amps)
        self.dens = np.empty(self.amps.shape)
        self.n_steps = n_steps
        self.sample_stride = sample_stride
        steps = np.arange(0, n_steps + 1, sample_stride)
        if steps[-1] != n_steps:
            steps = np.append(steps, n_steps)
        self.steps = steps
        rows = self.amps.shape[0]
        self.w1 = np.empty((rows, len(steps)))
        self.nsq = np.empty((rows, len(steps)))
        self.held = np.empty((len(steps), rows, n_held), dtype=complex)


def _sample(kernel: _Kernel, batch: _Batch, closed_on: np.ndarray, j: int) -> None:
    """Write w1 and norm^2 of the closed states, and their held span, into sample j.

    The closed state is closed_on on the kernel's span and batch.amps off it,
    where the potential factors are exactly 1.
    """
    if batch.held.shape[-1]:
        batch.held[j] = closed_on
    dens = batch.dens
    on_support = dens[:, kernel.support]
    np.abs(batch.amps, out=dens)
    np.abs(closed_on, out=on_support)
    np.square(dens, out=dens)
    nsq = batch.nsq[:, j]
    np.sum(dens, axis=-1, out=nsq)
    nsq *= kernel.dx
    # a per-row numpy sum, not a BLAS product, whose per-row result changes
    # with the number of rows: a row's bits must not depend on its batch
    np.multiply(on_support, kernel.decay, out=on_support)
    w1 = batch.w1[:, j]
    np.sum(on_support, axis=-1, out=w1)
    w1 *= kernel.dx


def _evolve_batch(kernel: _Kernel, batch: _Batch) -> None:
    """Evolve batch.amps in place and fill its samples.

    The merged-half-step loop keeps the per-step cost at two batched FFTs plus
    one multiply on the potential's span, and allocates nothing. Sampled
    states are closed with the trailing half factor on that span alone.
    """
    amps, spec = batch.amps, batch.spec
    # views of the potential's span, updated in place as amps and spec change
    amps_on, closed_on = amps[:, kernel.support], spec[:, kernel.support]
    kin, vhalf, vfull = kernel.kin, kernel.vhalf, kernel.vfull
    n_steps, stride = batch.n_steps, batch.sample_stride
    _sample(kernel, batch, amps_on, 0)
    j = 1
    amps_on *= vhalf
    for s in range(1, n_steps + 1):
        np.fft.fft(amps, axis=-1, out=spec)
        spec *= kin
        np.fft.ifft(spec, axis=-1, out=amps)
        if s % stride == 0 or s == n_steps:
            np.multiply(amps_on, vhalf, out=closed_on)
            _sample(kernel, batch, closed_on, j)
            if not np.all(np.isfinite(batch.nsq[:, j])):
                raise InstabilityError(f"non-finite amplitudes at step {s}")
            j += 1
        if s < n_steps:
            amps_on *= vfull
    amps_on *= vhalf


def _evolve_rows(
    kernel: _Kernel, rows: np.ndarray, n_steps: int, sample_stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve independent rows on the usable cores; (steps, w1, norm^2) rows.

    The rows are split into contiguous chunks, one per core. Every chunk's
    arrays are allocated here, in the calling thread; the pool threads run
    only the kernel. Because the kernel's per-row results do not depend on
    the batch, the output is the same for any number of chunks.
    """
    n_chunks = max(1, min(_usable_cores(), len(rows)))
    batches = [_Batch(c, n_steps, sample_stride) for c in np.array_split(rows, n_chunks)]
    if n_chunks == 1:
        _evolve_batch(kernel, batches[0])
    else:
        pool = _pool()
        futures = [pool.submit(_evolve_batch, kernel, b) for b in batches]
        wait(futures)
        for future in futures:
            future.result()
    w1 = np.concatenate([b.w1 for b in batches])
    nsq = np.concatenate([b.nsq for b in batches])
    return batches[0].steps, w1, nsq


def _conditional(
    kernel: _Kernel, psi0: WaveFunction, n_steps: int, dt: float, hold: bool = False
) -> tuple[WaveFunction, DetectionRecord, np.ndarray]:
    """Evolve psi0 by n_steps, sampling every step; the one maker of a record.

    With hold, also returns the closed state on the kernel's span at every
    sample, (n_steps + 1, 1, n_span); else (n_steps + 1, 1, 0).
    """
    n_held = len(kernel.decay) if hold else 0
    batch = _Batch(psi0.amplitudes[None, :], n_steps, 1, n_held)
    _evolve_batch(kernel, batch)
    times = psi0.time + batch.steps * dt
    w1 = batch.w1[0]
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (w1[1:] + w1[:-1]) * np.diff(times))))
    record = DetectionRecord(times, batch.nsq[0], w1, cum)
    psi_final = WaveFunction(
        grid=psi0.grid, amplitudes=batch.amps[0], time=psi0.time + n_steps * dt
    )
    return psi_final, record, batch.held


def evolve_conditional(
    psi0: WaveFunction,
    pot: ComplexPotentialField,
    particle: ParticleSpec,
    t_final: float,
    dt: float,
) -> tuple[WaveFunction, DetectionRecord]:
    """Evolve to t_final recording P0(t) = <psi|psi> and w1(t) = int A |psi|^2 dx.

    The returned state is the conditional (unnormalized) state at t_final.
    """
    if pot.grid != psi0.grid:
        raise GridError("potential and state live on different grids")
    if t_final <= psi0.time:
        raise ValueError(f"t_final {t_final} must exceed the state time {psi0.time}")
    n_steps = int(round((t_final - psi0.time) / dt))
    if n_steps < 1:
        raise ValueError("t_final - t0 shorter than one step")
    return _conditional(_kernel(psi0.grid, particle, pot, dt), psi0, n_steps, dt)[:2]


def peak_time(record: DetectionRecord) -> float:
    """Location of the w1 maximum, parabolically refined between samples."""
    w = record.density_w1
    i = int(np.argmax(w))
    if i == 0 or i == len(w) - 1:
        return float(record.times[i])
    y0, y1, y2 = w[i - 1], w[i], w[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(record.times[i])
    delta = 0.5 * (y0 - y2) / denom
    dt = record.times[i + 1] - record.times[i]
    return float(record.times[i] + delta * dt)
