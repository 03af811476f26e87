"""Split-operator evolution against closed-form references."""
import dataclasses
import functools
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import passagelab as pl
from passagelab import propagator
from passagelab.propagator import _Batch, _evolve_batch, _evolve_rows, _kernel


def _ivb_setup(n=2048, x_max=50e-6):
    particle = pl.cesium()
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
    grid = pl.build_grid(-30e-6, x_max, n)
    return particle, packet, grid


def _zero_potential(grid):
    z = np.zeros(grid.n_points)
    return pl.ComplexPotentialField(grid, decay_rate=z, real_shift=z)


def test_free_evolution_matches_analytic_packet():
    particle, packet, grid = _ivb_setup()
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    psi, record = pl.evolve_conditional(
        psi0, _zero_potential(grid), particle, t_final=1e-3, dt=1e-6
    )
    ana = pl.gaussian_free_state(packet, particle, 1e-3, grid)
    err = np.sqrt(np.sum(np.abs(psi.amplitudes - ana.amplitudes) ** 2) * grid.dx)
    assert err < 1e-10
    assert psi.time == pytest.approx(1e-3)


def test_free_evolution_unitary_per_step():
    particle, packet, grid = _ivb_setup()
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    _, record = pl.evolve_conditional(
        psi0, _zero_potential(grid), particle, t_final=1e-4, dt=1e-6
    )
    # norm drift must stay below 1e-12 per step over the whole run
    drift = np.abs(record.survival_p0 - 1.0)
    steps = np.arange(len(record.survival_p0))
    assert np.all(drift <= 1e-12 * np.maximum(steps, 1))


def test_uniform_decay_analytic_law():
    # constant decay A everywhere: P0(t) = exp(-A t), w1(t) = A exp(-A t)
    particle, packet, grid = _ivb_setup()
    a = 2e3
    pot = pl.ComplexPotentialField(
        grid, decay_rate=np.full(grid.n_points, a), real_shift=np.zeros(grid.n_points)
    )
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    _, record = pl.evolve_conditional(psi0, pot, particle, t_final=1e-3, dt=1e-6)
    t = record.times
    assert np.max(np.abs(record.survival_p0 - np.exp(-a * t))) < 1e-8
    assert np.max(np.abs(record.density_w1 - a * np.exp(-a * t))) < 1e-8 * a


def test_uniform_real_shift_is_global_phase():
    # H adds (hbar/2) delta chi^2 with chi = 1: psi(t) = e^{-i delta t / 2} psi_free(t)
    particle, packet, grid = _ivb_setup()
    delta = 3e4
    pot = pl.ComplexPotentialField(
        grid, decay_rate=np.zeros(grid.n_points), real_shift=np.full(grid.n_points, delta)
    )
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    t_final = 2e-4
    psi, _ = pl.evolve_conditional(psi0, pot, particle, t_final=t_final, dt=1e-6)
    ana = pl.gaussian_free_state(packet, particle, t_final, grid)
    expected = np.exp(-0.5j * delta * t_final) * ana.amplitudes
    err = np.sqrt(np.sum(np.abs(psi.amplitudes - expected) ** 2) * grid.dx)
    assert err < 1e-9


def test_survival_plus_cumulative_is_one(toy_run):
    record = toy_run["record"]
    total = record.survival_p0 + record.cumulative_detected
    assert np.max(np.abs(total - 1.0)) < 1e-5


def test_w1_equals_minus_dp0_dt_at_peak(toy_run):
    record = toy_run["record"]
    i = int(np.argmax(record.density_w1))
    dt = record.times[1] - record.times[0]
    deriv = -(record.survival_p0[i + 1] - record.survival_p0[i - 1]) / (2.0 * dt)
    assert deriv == pytest.approx(record.density_w1[i], rel=1e-3)


def test_detector_absorption_conserves_probability():
    # P0(end) + integral of w1 must equal 1 when nothing escapes the window
    particle, packet, grid = _ivb_setup()
    det = pl.DetectorSpec(profile=pl.RectangularProfile(0.0, 20e-6), decay_a=2.3895e3)
    pot = det.potential_field(grid)
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    _, record = pl.evolve_conditional(psi0, pot, particle, t_final=2e-3, dt=1e-6)
    assert record.survival_p0[-1] + record.cumulative_detected[-1] == pytest.approx(
        1.0, abs=1e-6
    )


def test_strang_splitting_second_order():
    # smooth absorber profile, so the splitting error is the leading term
    particle, packet, grid = _ivb_setup(n=1024, x_max=34e-6)
    x = grid.x
    decay = 4e4 * np.exp(-((x - 10e-6) ** 2) / (2 * (4e-6) ** 2))
    pot = pl.ComplexPotentialField(grid, decay_rate=decay, real_shift=np.zeros_like(x))
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    t_final = 8e-4

    def final_state(dt):
        psi, _ = pl.evolve_conditional(psi0, pot, particle, t_final=t_final, dt=dt)
        return psi.amplitudes

    ref = final_state(6.25e-8)
    errs = []
    for dt in (1e-6, 5e-7, 2.5e-7):
        errs.append(np.sqrt(np.sum(np.abs(final_state(dt) - ref) ** 2) * grid.dx))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert 1.7 < order1 < 2.3
    assert 1.7 < order2 < 2.3


def test_single_step_matches_evolution_loop():
    particle, packet, grid = _ivb_setup(n=512, x_max=2e-6)
    det = pl.DetectorSpec(profile=pl.RectangularProfile(0.0, 1e-6), decay_a=1e4)
    pot = det.potential_field(grid)
    psi = pl.gaussian_free_state(
        pl.GaussianPacketSpec(center_x0=-14e-6, sigma_x=2e-6, mean_velocity_v0=7.17e-3),
        particle,
        0.0,
        grid,
    )
    dt = 1e-6
    stepped = psi
    for _ in range(10):
        stepped = pl.step(stepped, pot, particle, dt)
    looped, _ = pl.evolve_conditional(psi, pot, particle, t_final=10 * dt, dt=dt)
    assert np.max(np.abs(stepped.amplitudes - looped.amplitudes)) < 1e-14
    assert stepped.time == pytest.approx(looped.time)


def _detector_rows(n_rows):
    # packets with distinct centres and widths approaching a detector
    particle, _, grid = _ivb_setup(n=512, x_max=2e-6)
    det = pl.DetectorSpec(profile=pl.RectangularProfile(0.0, 1e-6), decay_a=1e4)
    rows = np.array(
        [
            pl.gaussian_free_state(
                pl.GaussianPacketSpec(
                    center_x0=-16e-6 + 1e-6 * i,
                    sigma_x=(1.5 + 0.1 * i) * 1e-6,
                    mean_velocity_v0=7.17e-3,
                ),
                particle,
                0.0,
                grid,
            ).amplitudes
            for i in range(n_rows)
        ]
    )
    return particle, grid, det.potential_field(grid), rows


def test_batched_kernel_matches_single_steps():
    particle, grid, pot, rows = _detector_rows(3)
    dt = 1e-6
    kernel = _kernel(grid, particle, pot, dt)
    batch = _Batch(kernel, rows, 10, 5)
    _evolve_batch(kernel, batch)
    for row, final in zip(rows, batch.amps):
        stepped = pl.WaveFunction(grid=grid, amplitudes=row, time=0.0)
        for _ in range(10):
            stepped = pl.step(stepped, pot, particle, dt)
        assert np.max(np.abs(stepped.amplitudes - final)) < 1e-14 * np.max(np.abs(row))


def test_batch_row_bits_do_not_depend_on_batch():
    # a row's w1 and norm samples are the same bits alone or among other rows
    particle, grid, pot, rows = _detector_rows(5)
    kernel = _kernel(grid, particle, pot, 1e-6)
    full = _Batch(kernel, rows, 40, 4)
    _evolve_batch(kernel, full)
    assert np.all(full.w1[:, -1] > 0.0)
    for i, row in enumerate(rows):
        alone = _Batch(kernel, row[None, :], 40, 4)
        _evolve_batch(kernel, alone)
        assert np.array_equal(alone.w1[0], full.w1[i])
        assert np.array_equal(alone.nsq[0], full.nsq[i])
        assert np.array_equal(alone.amps[0], full.amps[i])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("stride", [5, 1])
def test_kernel_rejects_non_finite_state_at_first_sample(bad, stride):
    # a non-finite point in one row spreads over it in the first FFT; the
    # kernel must stop at the first sample after step 0
    particle, grid, pot, rows = _detector_rows(3)
    kernel = _kernel(grid, particle, pot, 1e-6)
    batch = _Batch(kernel, rows, 10, stride)
    batch.amps[1, 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(
        pl.InstabilityError, match=f"at step {stride}$"
    ):
        _evolve_batch(kernel, batch)


def test_kernel_steps_on_the_span_of_decay_or_shift():
    # a shift where the decay rate is zero: the kernel's span must cover it,
    # and multiplying on that span only gives the full-width loop's bits
    particle, grid, pot, rows = _detector_rows(3)
    shift = np.zeros(grid.n_points)
    shift[100:140] = 3e3  # upstream of the detector, where decay is zero
    pot = pl.ComplexPotentialField(grid, decay_rate=pot.decay_rate, real_shift=shift)
    dt, n_steps, stride = 1e-6, 30, 4
    kernel = _kernel(grid, particle, pot, dt)
    span = np.flatnonzero((pot.decay_rate != 0.0) | (shift != 0.0))
    on = slice(span[0], span[-1] + 1)
    assert np.all(pot.decay_rate[100:140] == 0.0)
    assert kernel.support == on and on.start <= 100 and on.stop >= 140

    batch = _Batch(kernel, rows, n_steps, stride)
    _evolve_batch(kernel, batch)

    vhalf = np.exp(-(pot.decay_rate + 1j * shift) * (dt * 0.25))
    amps = rows.astype(complex)
    w1, nsq = [], []

    def sample(closed):
        dens = np.abs(closed) ** 2
        nsq.append(np.sum(dens, axis=-1) * grid.dx)
        w1.append(np.sum(dens[:, on] * pot.decay_rate[on], axis=-1) * grid.dx)

    sample(amps)
    amps = amps * vhalf
    for s in range(1, n_steps + 1):
        amps = np.fft.ifft(np.fft.fft(amps, axis=-1) * kernel.kin, axis=-1)
        if s % stride == 0 or s == n_steps:
            sample(amps * vhalf)
        if s < n_steps:
            amps = amps * (vhalf * vhalf)
    amps = amps * vhalf
    assert np.array_equal(batch.amps, amps)
    assert np.array_equal(batch.w1, np.array(w1).T)
    assert np.array_equal(batch.nsq, np.array(nsq).T)


def _one_sample_at_a_time(kernel, rows, n_steps, stride):
    """The kernel's steps with each sample reduced as soon as it is taken:
    (final amps, w1, norm^2, held closed spans)."""
    on, dx = kernel.support, kernel.dx
    amps = np.array(rows, dtype=complex)
    w1, nsq, held = [], [], []

    def sample(closed_on):
        held.append(closed_on.copy())
        dens = np.abs(amps)
        dens[:, on] = np.abs(closed_on)
        np.square(dens, out=dens)
        nsq.append(np.sum(dens, axis=-1) * dx)
        w1.append(np.sum(dens[:, on] * kernel.decay, axis=-1) * dx)

    sample(amps[:, on])
    amps[:, on] *= kernel.vhalf
    for s in range(1, n_steps + 1):
        amps = np.fft.ifft(np.fft.fft(amps, axis=-1) * kernel.kin, axis=-1)
        if s % stride == 0 or s == n_steps:
            sample(amps[:, on] * kernel.vhalf)
        if s < n_steps:
            amps[:, on] *= kernel.vfull
    amps[:, on] *= kernel.vhalf
    return amps, np.array(w1).T, np.array(nsq).T, np.array(held)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@functools.cache
def _four_rows():
    particle, grid, pot, rows = _detector_rows(4)
    return _kernel(grid, particle, pot, 1e-6), rows


@given(
    n_rows=st.integers(1, 4),
    n_steps=st.integers(1, 300),
    stride=st.integers(1, 12),
    hold=st.booleans(),
    norms=st.booleans(),
    block=st.integers(1, 40),
)
@example(n_rows=2, n_steps=37, stride=1, hold=True, norms=True, block=1)
@example(n_rows=3, n_steps=100, stride=7, hold=False, norms=False, block=4)
def test_block_reductions_match_one_sample_at_a_time(
    n_rows, n_steps, stride, hold, norms, block
):
    # blocks of one sample and a ragged last block give the same bytes as
    # reducing each sample as it is taken
    kernel, rows = _four_rows()
    rows = rows[:n_rows]
    width = rows.shape[1] if norms else len(kernel.decay)
    with mock.patch.object(propagator, "_BLOCK_BYTES", block * n_rows * width * 8):
        batch = _Batch(kernel, rows, n_steps, stride, hold, norms)
    assert len(batch.dens) == min(block, len(batch.steps))
    _evolve_batch(kernel, batch)
    amps, w1, nsq, held = _one_sample_at_a_time(kernel, rows, n_steps, stride)
    assert _same_bytes(batch.amps, amps)
    assert _same_bytes(batch.w1, w1)
    assert _same_bytes(batch.nsq, nsq if norms else nsq[:, :0])
    assert _same_bytes(batch.held, held if hold else held[..., :0])


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_stage2_final_norms_match_one_sample_at_a_time(cores, monkeypatch):
    # the closed final rows, on 1, 2 and 3 chunks, have the bytes of the
    # state closed after the last step; the norm^2 that passage_distribution
    # takes from them is checked through its leakage_report
    kernel, rows = _four_rows()
    monkeypatch.setattr(propagator, "_usable_cores", lambda: cores)
    steps, w1, lost, final = _evolve_rows(kernel, rows, 37, 5)
    amps_ref, w1_ref, _, _ = _one_sample_at_a_time(kernel, rows, 37, 5)
    assert list(steps) == [0, 5, 10, 15, 20, 25, 30, 35, 37]
    assert _same_bytes(w1, w1_ref)
    assert lost.shape == (len(rows), 0)  # no absorbing layer
    assert _same_bytes(final, amps_ref)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_absorbing_layer_counts_as_lost_not_detected(cores, monkeypatch):
    # a layer right of the detector: its rate is in the step factors like
    # the detector's, but the samples reduce it as the lost density, and w1
    # reads the detector's rate alone, on any number of chunks
    particle, grid, pot, rows = _detector_rows(4)
    layer = np.zeros(grid.n_points)
    layer[-14:] = 5e4 * np.linspace(0.0, 1.0, 14)
    start = grid.n_points - 14
    assert not np.any(pot.decay_rate[start:])
    field = pl.ComplexPotentialField(grid, pot.decay_rate + layer, pot.real_shift)
    plain = _kernel(grid, particle, field, 1e-6)
    kernel = _kernel(grid, particle, field, 1e-6, layer=14)
    assert kernel.detected == start - kernel.support.start
    assert plain.detected == len(plain.decay)
    monkeypatch.setattr(propagator, "_usable_cores", lambda: cores)
    steps, w1, lost, final = _evolve_rows(kernel, rows, 37, 5)
    _, w1_plain, lost_plain, final_plain = _evolve_rows(plain, rows, 37, 5)
    assert lost_plain.shape == (len(rows), 0)
    assert _same_bytes(final, final_plain)

    on, dx, cut = kernel.support, kernel.dx, kernel.detected
    amps = np.array(rows, dtype=complex)
    w1_ref, lost_ref = [], []

    def sample(closed_on):
        dens = np.abs(closed_on) ** 2 * kernel.decay
        w1_ref.append(np.sum(dens[:, :cut], axis=-1) * dx)
        lost_ref.append(np.sum(dens[:, cut:], axis=-1) * dx)

    sample(amps[:, on])
    amps[:, on] *= kernel.vhalf
    for s in range(1, 38):
        amps = np.fft.ifft(np.fft.fft(amps, axis=-1) * kernel.kin, axis=-1)
        if s % 5 == 0 or s == 37:
            sample(amps[:, on] * kernel.vhalf)
        if s < 37:
            amps[:, on] *= kernel.vfull
    assert _same_bytes(w1, np.array(w1_ref).T)
    assert _same_bytes(lost, np.array(lost_ref).T)
    assert np.all(lost > 0.0) and np.all(w1[:, -1] > 0.0)
    assert np.allclose(w1 + lost, w1_plain, rtol=1e-13, atol=0.0)


def test_layer_alone_detects_nothing():
    # a layer whose first point has rate 0 and no detector: the kernel's span
    # starts inside the layer, so no point of it is detected, and the whole
    # absorption is the layer's loss
    particle, grid, _, rows = _detector_rows(2)
    decay = np.zeros(grid.n_points)
    decay[-14:] = 5e4 * np.linspace(0.0, 1.0, 14)
    field = pl.ComplexPotentialField(grid, decay, np.zeros(grid.n_points))
    kernel = _kernel(grid, particle, field, 1e-6, layer=14)
    assert kernel.support == slice(grid.n_points - 13, grid.n_points)
    assert kernel.detected == 0
    _, w1, lost, _ = _evolve_rows(kernel, rows, 37, 5)
    _, w1_plain, _, _ = _evolve_rows(_kernel(grid, particle, field, 1e-6), rows, 37, 5)
    assert np.all(w1 == 0.0) and np.all(lost > 0.0)
    assert _same_bytes(lost, w1_plain)


@pytest.mark.parametrize("cores", [2, 3])
def test_failed_chunk_propagates_and_the_pool_recovers(cores, monkeypatch):
    # the first chunk holds an inf row and fails at its first sample while
    # the others run slowly: the error reaches the caller after every
    # started chunk has stopped, and the next call on the same pool gives
    # the right bytes
    kernel, rows = _four_rows()
    bad = rows.copy()
    bad[0, 0] = np.inf
    evolve = propagator._evolve_batch
    started, stopped = [], []
    # every chunk has started before the first one may fail, so a loaded
    # machine cannot leave one queued for the cancel to remove
    every_chunk = threading.Barrier(cores)

    def slow(kernel, batch):
        started.append(time.perf_counter())
        try:
            every_chunk.wait(timeout=30.0)
            if np.all(np.isfinite(batch.amps.view(float))):
                time.sleep(0.1)
            with np.errstate(invalid="ignore"):
                evolve(kernel, batch)
        finally:
            stopped.append(time.perf_counter())

    def call_in_thread(rows):
        """(result or error, when it returned); a deadlocked call fails the
        test instead of hanging it."""
        outcome = []

        def run():
            try:
                result = _evolve_rows(kernel, rows, 37, 5)
            except Exception as exc:  # handed to the test thread
                result = exc
            outcome.append((result, time.perf_counter()))

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60.0)
        assert outcome, "the stage-2 call did not return"
        return outcome[0]

    # a pool of its own with one worker per chunk, so that every chunk starts
    monkeypatch.setattr(propagator, "_POOL", None)
    monkeypatch.setattr(propagator, "_usable_cores", lambda: cores)
    monkeypatch.setattr(propagator, "_evolve_batch", slow)
    try:
        err, returned = call_in_thread(bad)
        assert isinstance(err, pl.InstabilityError)
        time.sleep(0.2)
        assert len(started) == len(stopped) == cores
        assert max(stopped) < returned
        _, w1, _, final = call_in_thread(rows)[0]
    finally:
        propagator._pool().shutdown()
    amps_ref, w1_ref, _, _ = _one_sample_at_a_time(kernel, rows, 37, 5)
    assert _same_bytes(w1, w1_ref)
    assert _same_bytes(final, amps_ref)


def test_concurrent_callers_share_the_pool(monkeypatch):
    # two callers of three chunks each on the shared pool, with thread
    # switches forced often: both finish, with the right bytes
    kernel, rows = _four_rows()
    amps_ref, w1_ref, _, _ = _one_sample_at_a_time(kernel, rows, 37, 5)
    monkeypatch.setattr(propagator, "_usable_cores", lambda: 3)
    out = []

    def run():
        out.append(_evolve_rows(kernel, rows, 37, 5))

    callers = [threading.Thread(target=run, daemon=True) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(out) == 2
    for _, w1, _, final in out:
        assert _same_bytes(w1, w1_ref)
        assert _same_bytes(final, amps_ref)


def test_kernel_names_the_first_non_finite_step_inside_a_block():
    # one wavenumber grows 1e100-fold per step, so the state overflows a few
    # steps in, before the end of the first block of samples
    kernel, rows = _four_rows()
    kin = kernel.kin.copy()
    kin[5] *= 1e100
    kernel = dataclasses.replace(kernel, kin=kin)
    n_steps = 40
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, nsq, _ = _one_sample_at_a_time(kernel, rows, n_steps, 1)
    first = int(np.argmin(np.all(np.isfinite(nsq), axis=0)))
    assert 0 < first < n_steps
    for norms in (True, False):
        batch = _Batch(kernel, rows, n_steps, 1, norms=norms)
        assert len(batch.dens) > first + 1
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            pl.InstabilityError, match=f"at step {first}$"
        ):
            _evolve_batch(kernel, batch)


def test_block_buffer_within_budget_for_the_refined_pass():
    # the sweep gate's refined pass at 3 mm/s: one row of 2048 points,
    # sampled at each of 38 645 steps
    particle, packet, grid = _ivb_setup(n=2048)
    det = pl.DetectorSpec(profile=pl.RectangularProfile(0.0, 20e-6), decay_a=2.3895e3)
    kernel = _kernel(grid, particle, det.potential_field(grid), 5e-7)
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    batch = _Batch(kernel, psi0.amplitudes[None, :], 38645, 1)
    assert 1 < len(batch.dens) and batch.dens.nbytes <= propagator._BLOCK_BYTES


def test_pool_created_once_under_concurrent_first_use(monkeypatch):
    monkeypatch.setattr(propagator, "_POOL", None)
    seen = []
    start = threading.Barrier(8)

    def first_use():
        start.wait(timeout=10.0)
        seen.append(propagator._pool())

    threads = [threading.Thread(target=first_use) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8
    assert all(pool is seen[0] for pool in seen)
    seen[0].shutdown()


def test_peak_time_parabolic_refinement():
    # exact quadratic density: refined peak must hit the vertex, not a sample
    t = np.linspace(0.0, 1.0, 51)
    vertex = 0.4137
    w1 = 1.0 - (t - vertex) ** 2
    record = pl.DetectionRecord(
        times=t,
        survival_p0=np.ones_like(t),
        density_w1=w1,
        cumulative_detected=np.zeros_like(t),
    )
    assert pl.peak_time(record) == pytest.approx(vertex, abs=1e-12)


def test_extreme_parameters_stay_finite():
    # unconditionally stable scheme: exp factors are bounded for any decay/shift
    particle, packet, grid = _ivb_setup(n=256, x_max=1e-6)
    psi0 = pl.gaussian_free_state(
        pl.GaussianPacketSpec(center_x0=-14.5e-6, sigma_x=1.8e-6, mean_velocity_v0=0.0),
        particle,
        0.0,
        grid,
    )
    pot = pl.ComplexPotentialField(
        grid,
        decay_rate=np.full(grid.n_points, 1e12),
        real_shift=np.full(grid.n_points, 1e12),
    )
    psi, record = pl.evolve_conditional(psi0, pot, particle, t_final=1e-5, dt=1e-6)
    assert np.all(np.isfinite(psi.amplitudes.view(float)))
    assert record.survival_p0[-1] == pytest.approx(0.0, abs=1e-30)


def test_negative_decay_rejected():
    grid = pl.build_grid(-1e-6, 1e-6, 64)
    with pytest.raises(pl.ConfigError):
        pl.ComplexPotentialField(
            grid,
            decay_rate=np.full(grid.n_points, -1.0),
            real_shift=np.zeros(grid.n_points),
        )


@pytest.mark.parametrize("field", ["decay_rate", "real_shift"])
def test_potential_field_rejects_non_finite(field):
    grid = pl.build_grid(-1e-6, 1e-6, 64)
    arrays = {"decay_rate": np.zeros(64), "real_shift": np.zeros(64)}
    arrays[field][5] = np.nan
    with pytest.raises(pl.ConfigError, match="must be finite"):
        pl.ComplexPotentialField(grid, **arrays)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-6])
def test_bad_step_size_is_a_config_error(dt):
    particle, packet, grid = _ivb_setup(n=512)
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    pot = _zero_potential(grid)
    message = f"^dt must be positive and finite, got {dt}$"
    with pytest.raises(pl.ConfigError, match=message):
        pl.step(psi0, pot, particle, dt)
    with pytest.raises(pl.ConfigError, match=message):
        pl.evolve_conditional(psi0, pot, particle, t_final=1e-5, dt=dt)


@pytest.mark.parametrize(
    "t_final, message",
    [
        (np.nan, "t_final must be finite, got nan"),
        (np.inf, "t_final must be finite, got inf"),
        (0.0, "must exceed the state time"),
        (1e-7, "shorter than one step"),
        (1e305, "overflows"),
    ],
)
def test_bad_final_time_is_a_config_error(t_final, message):
    particle, packet, grid = _ivb_setup(n=512)
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    with pytest.raises(pl.ConfigError, match=message):
        pl.evolve_conditional(psi0, _zero_potential(grid), particle, t_final, dt=1e-6)
