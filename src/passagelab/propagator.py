"""Split-operator evolution under H = p^2/2m + (hbar/2)(shift(x) - i decay(x)).

The scheme is Strang splitting: a half potential factor, a full spectral
kinetic step, a half potential factor. Interior half factors are merged, so
the main loop costs two FFTs and one pointwise multiply per step; sampled
states are closed with the trailing half factor before observables are taken.
The potential factors are exactly 1 outside the span where the decay rate or
the shift is non-zero, so the batched kernel multiplies on that span only.
A sample takes only the moduli of the closed state; squares, sums and the
finiteness check run once per block of samples, with the same bits as one
sample at a time. A kernel may end its span in an absorbing layer, whose
decay rate steps like a detector's but is reduced apart from w1, as the
density of mass lost to the boundary.
Stage 2's row chunks run on a shared thread pool, one task per chunk,
through _in_order, which returns them in order.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .core import ParticleSpec, SpatialGrid, WaveFunction, _check_positive
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
            raise ConfigError("decay_rate and real_shift must be finite")
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
    _check_positive(dt=dt)
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
    """The process-wide pool that _in_order runs on, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=_usable_cores(), thread_name_prefix="passagelab"
            )
        return _POOL


def _in_order(run, chunks):
    """[run(chunk) for chunk in chunks], one task per chunk on the shared
    pool, or in the calling thread for one chunk.

    No task waits on another, so callers may share the pool. A failed chunk
    cancels the queued ones and waits for the running ones before its error
    propagates.
    """
    if len(chunks) == 1:
        return [run(chunks[0])]
    pool = _pool()
    futures = [pool.submit(run, chunk) for chunk in chunks]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


@dataclass(frozen=True)
class _Kernel:
    """Step factors for one (grid, potential, dt), shared read-only by batches."""

    kin: np.ndarray
    support: slice  # the span of grid points where the decay rate or shift is non-zero
    vhalf: np.ndarray  # the half and full potential factors on that span
    vfull: np.ndarray
    decay: np.ndarray  # the decay rate on that span
    dx: float
    # the span's first `detected` points count towards w1; the decay rate on
    # the rest is an absorbing layer, whose rate the samples reduce apart
    detected: int


def _kernel(
    grid: SpatialGrid,
    particle: ParticleSpec,
    pot: ComplexPotentialField,
    dt: float,
    layer_start: int | None = None,
) -> _Kernel:
    """The step factors of pot on grid. With layer_start, the decay rate from
    that grid index on absorbs without detecting: w1 reads the rate left of
    it only, and the samples reduce the rest as the layer's loss density."""
    nonzero = np.flatnonzero((pot.decay_rate != 0.0) | (pot.real_shift != 0.0))
    support = slice(nonzero[0], nonzero[-1] + 1) if len(nonzero) else slice(0, 0)
    vhalf = _potential_half_factor(pot, dt)[support]
    decay = pot.decay_rate[support]
    detected = len(decay) if layer_start is None else layer_start - support.start
    return _Kernel(
        kin=_kinetic_factor(grid, particle, dt),
        support=support,
        vhalf=vhalf,
        vfull=vhalf * vhalf,
        decay=decay,
        dx=grid.dx,
        detected=detected,
    )


# the most bytes a batch's block of sample moduli may take; a block holds at
# least one sample
_BLOCK_BYTES = 1 << 20


class _Batch:
    """Every array one batch run writes, allocated before the run starts.

    amps (r, n) is the state, evolved in place and closed after the run;
    spec is the FFT buffer, whose span of the kernel is free between steps
    and takes each sample's closed state there. w1 (r, n_samples) takes the
    samples at steps. With norms, nsq (r, n_samples) takes their norm^2 and
    the samples read the whole grid; else nsq is (r, 0) and they read the
    kernel's span. With hold, held (n_samples, r, n_span) takes the closed
    states on the kernel's span at the same samples; else it is
    (n_samples, r, 0). When the kernel has an absorbing layer, lost
    (r, n_samples) takes the layer's loss density at the same samples; else
    it is (r, 0). dens (block, r, width) takes |closed state| at up to block
    samples, on what the samples read, until they are reduced together;
    block keeps it within _BLOCK_BYTES.
    """

    def __init__(
        self,
        kernel: _Kernel,
        amps: np.ndarray,
        n_steps: int,
        sample_stride: int,
        hold: bool = False,
        norms: bool = True,
    ) -> None:
        self.amps = np.array(amps, dtype=complex)
        self.spec = np.empty_like(self.amps)
        self.n_steps = n_steps
        self.sample_stride = sample_stride
        self.norms = norms
        steps = np.arange(0, n_steps + 1, sample_stride)
        if steps[-1] != n_steps:
            steps = np.append(steps, n_steps)
        self.steps = steps
        rows, n = self.amps.shape
        n_span = len(kernel.decay)
        self.w1 = np.empty((rows, len(steps)))
        self.lost = np.empty((rows, len(steps) if kernel.detected < n_span else 0))
        self.nsq = np.empty((rows, len(steps) if norms else 0))
        self.held = np.empty((len(steps), rows, n_span if hold else 0), dtype=complex)
        width = n if norms else n_span
        block = max(1, min(len(steps), _BLOCK_BYTES // max(1, rows * width * 8)))
        self.dens = np.empty((block, rows, width))


def _reduce(kernel: _Kernel, batch: _Batch, j0: int, m: int) -> None:
    """Turn the moduli in batch.dens[:m] into samples j0 .. j0 + m - 1 and
    check them; sample 0, the given state, is not checked."""
    dens = batch.dens[:m]
    np.square(dens, out=dens)
    j1 = j0 + m
    if batch.norms:
        nsq = batch.nsq[:, j0:j1]
        np.sum(dens, axis=-1, out=nsq.T)
        nsq *= kernel.dx
        dens = dens[:, :, kernel.support]
    # a per-row numpy sum, not a BLAS product, whose per-row result changes
    # with the number of rows: a row's bits must not depend on its batch
    np.multiply(dens, kernel.decay, out=dens)
    w1 = batch.w1[:, j0:j1]
    np.sum(dens[..., : kernel.detected], axis=-1, out=w1.T)
    w1 *= kernel.dx
    if batch.lost.shape[1]:
        lost = batch.lost[:, j0:j1]
        np.sum(dens[..., kernel.detected :], axis=-1, out=lost.T)
        lost *= kernel.dx
    # without norms, w1 sees a non-finite row at the same sample: one FFT
    # spreads a non-finite point over the whole row
    c0 = max(j0, 1)
    finite = np.isfinite((batch.nsq if batch.norms else batch.w1)[:, c0:j1])
    if not np.all(finite):
        first = c0 + int(np.argmin(np.all(finite, axis=0)))
        raise InstabilityError(f"non-finite amplitudes at step {batch.steps[first]}")


def _evolve_batch(kernel: _Kernel, batch: _Batch) -> None:
    """Evolve batch.amps in place and fill its samples.

    The merged-half-step loop keeps the per-step cost at two batched FFTs plus
    one multiply on the potential's span, and allocates nothing. A sample
    closes the state with the trailing half factor on that span alone and
    writes its modulus into the next row of batch.dens; the squares, sums and
    finiteness check run once per block of samples, in _reduce.
    """
    amps, spec, dens = batch.amps, batch.spec, batch.dens
    norms, support = batch.norms, kernel.support
    # views of the potential's span, updated in place as amps and spec change
    amps_on, spec_on = amps[:, support], spec[:, support]
    dens_on = dens[:, :, support] if norms else dens
    held = batch.held if batch.held.shape[-1] else None
    kin, vhalf, vfull = kernel.kin, kernel.vhalf, kernel.vfull
    n_steps, stride, block = batch.n_steps, batch.sample_stride, len(dens)
    # sample 0 is the given state, which no half factor has touched
    if held is not None:
        held[0] = amps_on
    np.abs(amps if norms else amps_on, out=dens[0])
    j, k = 1, 1  # the next sample and its row in dens
    amps_on *= vhalf
    for s in range(1, n_steps + 1):
        np.fft.fft(amps, axis=-1, out=spec)
        spec *= kin
        np.fft.ifft(spec, axis=-1, out=amps)
        if s % stride == 0 or s == n_steps:
            if k == block:
                _reduce(kernel, batch, j - k, k)
                k = 0
            closed = spec_on if held is None else held[j]
            np.multiply(amps_on, vhalf, out=closed)
            if norms:
                np.abs(amps, out=dens[k])
            np.abs(closed, out=dens_on[k])
            j += 1
            k += 1
        if s < n_steps:
            amps_on *= vfull
    _reduce(kernel, batch, j - k, k)
    amps_on *= vhalf


def _evolve_rows(
    kernel: _Kernel, rows: np.ndarray, n_steps: int, sample_stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evolve independent rows on the usable cores; (steps, w1 rows, the
    absorbing layer's loss rows, final rows). Without a layer the loss rows
    have no samples.

    The rows are split into contiguous chunks, one per core, run by
    _in_order. Every chunk's arrays are allocated here, in the
    calling thread. Because the kernel's per-row results do not depend on
    the batch, the output is the same for any number of chunks. Samples
    read the kernel's span only; the final rows are the closed states at
    n_steps, whose span has the bits of the last sample's closed state.
    """
    n_chunks = max(1, min(_usable_cores(), len(rows)))
    batches = [
        _Batch(kernel, c, n_steps, sample_stride, norms=False)
        for c in np.array_split(rows, n_chunks)
    ]
    _in_order(lambda batch: _evolve_batch(kernel, batch), batches)
    steps, w1 = batches[0].steps, np.concatenate([b.w1 for b in batches])
    lost = np.concatenate([b.lost for b in batches])
    final = [b.amps for b in batches]
    del batches  # free the FFT and sample buffers before the rows are joined
    return steps, w1, lost, np.concatenate(final)


def _conditional(
    kernel: _Kernel, psi0: WaveFunction, n_steps: int, dt: float, hold: bool = False
) -> tuple[WaveFunction, DetectionRecord, np.ndarray]:
    """Evolve psi0 by n_steps, sampling every step; the one maker of a record.

    With hold, also returns the closed state on the kernel's span at every
    sample, (n_steps + 1, 1, n_span); else (n_steps + 1, 1, 0).
    """
    batch = _Batch(kernel, psi0.amplitudes[None, :], n_steps, 1, hold)
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
    _check_positive(dt=dt)
    if not np.isfinite(t_final):
        raise ConfigError(f"t_final must be finite, got {t_final}")
    if pot.grid != psi0.grid:
        raise GridError("potential and state live on different grids")
    if t_final <= psi0.time:
        raise ConfigError(f"t_final {t_final} must exceed the state time {psi0.time}")
    ratio = (t_final - psi0.time) / dt
    if not np.isfinite(ratio):
        raise ConfigError(f"(t_final - t0) / dt overflows, t_final={t_final}, dt={dt}")
    n_steps = int(round(ratio))
    if n_steps < 1:
        raise ConfigError("t_final - t0 shorter than one step")
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
