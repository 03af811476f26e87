"""Two-detector pipeline: configuration, invariances, and reference
distributions."""
import os
import subprocess
import sys
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import passagelab as pl
from passagelab import passage, propagator
from passagelab.core import HBAR

from conftest import TOY_V0, toy_config


def test_config_rejects_non_rectangular_profiles():
    smooth = np.clip(np.sin(np.linspace(0, np.pi, 2048)), 0, 1)
    with pytest.raises(pl.ConfigError, match="RectangularProfile"):
        pl.DetectorSpec(profile=smooth, decay_a=2e4)


def test_config_requires_downstream_disjoint_detectors(toy_particle, toy_packet):
    with pytest.raises(pl.ConfigError):
        toy_config(
            toy_particle,
            toy_packet,
            detector2=pl.DetectorSpec(
                profile=pl.RectangularProfile(0.0, 30e-6), decay_a=2e4
            ),
        )
    with pytest.raises(pl.ConfigError):
        toy_config(
            toy_particle,
            toy_packet,
            detector2=pl.DetectorSpec(
                profile=pl.RectangularProfile(30e-6, 60e-6), decay_a=2e4
            ),
        )


def test_config_scalar_validation(toy_particle, toy_packet):
    with pytest.raises(pl.ConfigError):
        toy_config(toy_particle, toy_packet, dt=0.0)
    with pytest.raises(pl.ConfigError):
        toy_config(toy_particle, toy_packet, tau_stride=0)
    with pytest.raises(pl.ConfigError):
        toy_config(toy_particle, toy_packet, n_entry=1)
    # a fractional stride used to label samples on the wrong grid
    for key, bad in (("tau_stride", 2.5), ("n_entry", 64.0), ("n_entry", True)):
        with pytest.raises(pl.ConfigError, match=f"{key} must be an integer, got {bad!r}"):
            toy_config(toy_particle, toy_packet, **{key: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["dt", "dt2", "tau_max", "t_start", "t_end1"])
def test_config_rejects_non_finite_times(toy_particle, toy_packet, key, bad):
    # NaN used to pass the positivity checks and die in int(round(nan))
    with pytest.raises(pl.ConfigError, match=f"^{key} must be .*finite, got {bad}"):
        pl.arrival_stage(toy_config(toy_particle, toy_packet, **{key: bad}))


def test_config_type_hints_resolve():
    hints = typing.get_type_hints(pl.ExperimentConfig)
    assert hints["grid"] is pl.SpatialGrid


def test_distance_between_entry_edges(toy_particle, toy_packet):
    cfg = toy_config(toy_particle, toy_packet)
    assert cfg.distance_d == pytest.approx(80e-6)


def test_no_detection_raises(toy_particle, toy_packet):
    cfg = toy_config(
        toy_particle,
        toy_packet,
        detector1=pl.DetectorSpec(
            profile=pl.RectangularProfile(20e-6, 40e-6), decay_a=0.0
        ),
    )
    with pytest.raises(pl.NoDetectionError):
        pl.arrival_stage(cfg)


def test_window_shorter_than_one_step_raises_no_detection(toy_particle, toy_packet):
    cfg = toy_config(toy_particle, toy_packet, t_start=0.0, t_end1=8e-8)  # 0.4 dt
    with pytest.raises(pl.NoDetectionError, match="shorter than one step"):
        pl.arrival_stage(cfg)


def test_weak_detector_warns(toy_particle, toy_packet):
    cfg = toy_config(
        toy_particle,
        toy_packet,
        detector1=pl.DetectorSpec(
            profile=pl.RectangularProfile(20e-6, 40e-6), decay_a=50.0
        ),
    )
    with pytest.warns(pl.RegimeWarning):
        pl.arrival_stage(cfg)


def test_arrival_stage_propagates_once(toy_particle, toy_packet, monkeypatch):
    # the record pass holds detector 1's slices: no second pass for the states
    calls = []
    evolve = propagator._evolve_batch

    def counting(kernel, batch):
        calls.append(batch.n_steps)
        evolve(kernel, batch)

    monkeypatch.setattr(propagator, "_evolve_batch", counting)
    # also catch a kernel call through a name imported into passage
    monkeypatch.setattr(passage, "_evolve_batch", counting, raising=False)
    record, _ = pl.arrival_stage(toy_config(toy_particle, toy_packet))
    assert calls == [len(record.times) - 1]


def test_ensemble_bookkeeping(toy_run):
    ens = toy_run["ensemble"]
    grid = toy_run["cfg"].grid
    assert np.all(np.diff(ens.entry_times) > 0.0)
    assert np.all(ens.weights > 0.0)
    row_norms = np.sum(np.abs(ens.states) ** 2, axis=-1) * grid.dx
    assert np.allclose(row_norms, ens.norms_sq, rtol=1e-12)
    assert ens.captured_mass == pytest.approx(
        float(np.sum(ens.weights * ens.norms_sq)), rel=1e-12
    )
    assert ens.captured_mass <= ens.p_detected_1 * (1.0 + 1e-9)
    assert 0.0 <= ens.residual_norm_1 < 1.0


def test_ensemble_states_are_reset_conditional_states(toy_run):
    # each row is reset() applied to the conditional state evolved to its entry time
    cfg, ens = toy_run["cfg"], toy_run["ensemble"]
    det1 = cfg.detector1
    pot = det1.potential_field(cfg.grid)
    psi0 = pl.gaussian_free_state(
        cfg.packet, cfg.particle, toy_run["record"].times[0], cfg.grid
    )
    for i in (0, len(ens.entry_times) // 2, len(ens.entry_times) - 1):
        psi, _ = pl.evolve_conditional(
            psi0, pot, cfg.particle, ens.entry_times[i], cfg.dt
        )
        assert np.array_equal(ens.states[i], pl.reset(psi, det1).amplitudes)


def test_distribution_grid_and_positivity(toy_run):
    cfg = toy_run["cfg"]
    dist = toy_run["dist"]
    assert dist.tau[0] == 0.0
    dt2 = cfg.dt2 if cfg.dt2 is not None else cfg.dt
    assert np.allclose(np.diff(dist.tau), cfg.tau_stride * dt2)
    assert np.all(dist.g_tau >= 0.0)
    assert dist.total_probability <= 1.0 + 1e-9
    # trapezoid of the tabulated curve reproduces the reported total
    assert np.trapezoid(dist.g_tau, dist.tau) == pytest.approx(
        dist.total_probability, rel=1e-6
    )


def test_probability_accounting(toy_run):
    dist = toy_run["dist"]
    never, residual2 = dist.leakage_report
    assert never >= 0.0
    assert residual2 >= 0.0
    assert residual2 <= never + 1e-12
    assert dist.total_probability + never == pytest.approx(1.0, abs=2e-3)


def test_distribution_identical_for_any_chunk_count(toy_run, monkeypatch):
    # stage 2 splits the kept rows into one chunk per usable core
    cfg = replace(toy_run["cfg"], dt2=1e-6)
    ensemble = toy_run["ensemble"]
    outs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr("passagelab.propagator._usable_cores", lambda: cores)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pl.RegimeWarning)
            outs.append(pl.passage_distribution(cfg, ensemble))
    ref = outs[0]
    assert ref.total_probability > 0.5
    for dist in outs[1:]:
        assert np.array_equal(dist.tau, ref.tau)
        assert np.array_equal(dist.g_tau, ref.g_tau)
        assert dist.mean_tau == ref.mean_tau
        assert dist.std_tau == ref.std_tau
        assert dist.total_probability == ref.total_probability
        assert dist.leakage_report == ref.leakage_report


def test_ensemble_width_must_match_grid(toy_run):
    ens = replace(toy_run["ensemble"], states=toy_run["ensemble"].states[:, :-1])
    with pytest.raises(pl.GridError):
        pl.passage_distribution(toy_run["cfg"], ens)


def test_all_zero_ensemble_raises_before_decomposition(toy_run, monkeypatch):
    ens = replace(toy_run["ensemble"], states=np.zeros_like(toy_run["ensemble"].states))

    def no_svd(*args, **kwargs):
        raise AssertionError("decomposed an all-zero ensemble")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    with pytest.raises(pl.NoDetectionError, match="reset ensemble states are zero"):
        pl.passage_distribution(toy_run["cfg"], ens)


def test_svd_runs_on_the_nonzero_span(toy_run, monkeypatch):
    cfg, ens = replace(toy_run["cfg"], dt2=1e-6), toy_run["ensemble"]
    cols = np.flatnonzero(np.any(ens.states != 0.0, axis=0))
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        dist = pl.passage_distribution(cfg, ens)
    assert shapes == [(len(ens.states), cols[-1] + 1 - cols[0])]
    assert shapes[0][1] < cfg.grid.n_points
    assert 1 <= dist.kept_rank <= len(ens.states)
    assert 0.0 <= dist.discarded_power < len(ens.states) * cfg.svd_keep


def test_truncation_lowers_g_by_at_most_the_discarded_power(toy_run, monkeypatch):
    # the dropped rows add sum_i s_i^2 <v_i|P(tau)|v_i> dx >= 0 to G, and a unit
    # row is detected with probability at most 1, up to stage 2's norm budget
    cfg, ens = replace(toy_run["cfg"], dt2=1e-6), toy_run["ensemble"]
    svd_keep = pl.ExperimentConfig.svd_keep
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        cut = pl.passage_distribution(cfg, ens)
        monkeypatch.setattr(pl.ExperimentConfig, "svd_keep", 0.0)
        full = pl.passage_distribution(cfg, ens)
    assert np.array_equal(cut.tau, full.tau)
    assert full.kept_rank == len(ens.states)
    assert cut.kept_rank < full.kept_rank
    # each dropped row holds at most svd_keep of the power
    assert 0.0 < cut.discarded_power < len(ens.states) * svd_keep
    dropped = full.g_tau - cut.g_tau
    assert np.all(dropped >= -1e-12 * np.max(full.g_tau))
    # measured here: the integral is 0.937 of the bound, and a dropped unit
    # row's |trapz(w1) + final norm^2 - 1| is at most 6.1e-3 at this stride
    bound = cut.discarded_power * ens.captured_mass
    assert 0.5 * bound <= np.trapezoid(dropped, cut.tau) <= bound * (1.0 + 1e-2)


def test_auto_tau_max_needs_a_positive_velocity(toy_particle, toy_packet):
    # t_start and t_end1 given, tau_max derived: v0 = 0 used to divide by zero
    for v0 in (0.0, -TOY_V0):
        packet = replace(toy_packet, mean_velocity_v0=v0)
        cfg = toy_config(toy_particle, packet, t_start=0.0, t_end1=1e-3)
        with pytest.raises(pl.ConfigError, match="tau_max needs a positive mean velocity"):
            pl.passage_distribution(cfg)


def test_off_detector_weight_matches_full_width_svd(toy_run):
    # a hand-built ensemble with weight upstream of detector 1: G must match
    # the decomposition of the full-width weighted matrix
    cfg, base = replace(toy_run["cfg"], dt2=1e-6), toy_run["ensemble"]
    x = cfg.grid.x
    upstream = (x >= -10e-6) & (x < 5e-6)
    bump = np.exp(-((x / 3e-6) ** 2) + 1j * 3e5 * x) * upstream
    states = base.states + 0.2 * np.sqrt(base.norms_sq)[:, None] * bump
    ens = replace(base, states=states)
    assert np.any(states[:, upstream] != 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        dist = pl.passage_distribution(cfg, ens)

    weighted = np.sqrt(ens.weights)[:, None] * states
    _, svals, vrows = np.linalg.svd(weighted, full_matrices=False)
    power = svals**2
    keep = power > cfg.svd_keep * float(np.sum(power))
    # the full-width rows, propagated on the box stage 2 runs on; they vanish
    # off it, so cutting them to the box drops nothing
    rows = svals[keep, None] * vrows[keep]
    kernel, j0 = passage._stage2_kernel(cfg, passage._nonzero_span(states), cfg.dt2)
    on = slice(j0, j0 + len(kernel.kin))
    assert on.start <= np.flatnonzero(upstream)[0] - 5e-6 / cfg.grid.dx
    assert np.sum(np.abs(rows[:, on]) ** 2) >= (1.0 - 1e-24) * np.sum(np.abs(rows) ** 2)
    n_steps = int(round(dist.tau[-1] / cfg.dt2))
    _, w1rows, _, _ = propagator._evolve_rows(kernel, rows[:, on], n_steps, cfg.tau_stride)
    g_ref = np.sum(w1rows, axis=0)
    assert dist.kept_rank == int(np.count_nonzero(keep))
    assert np.max(np.abs(dist.g_tau - g_ref)) <= 1e-12 * np.max(g_ref)


def _detector1_cols(cfg):
    on = np.flatnonzero(cfg.detector1.profile.chi(cfg.grid))
    return slice(on[0], on[-1] + 1)


def test_stage2_box_on_the_reference_grid(particle):
    # from 5 um left of detector 1 to 5 um right of detector 2, plus a 20 um
    # layer: 5345 points, and no length from 5345 to 5399 is 5-smooth
    cfg = toy_config(
        particle,
        pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3),
        grid=pl.build_grid(-30e-6, 200e-6, 8192),
        detector1=pl.DetectorSpec(profile=pl.RectangularProfile(0.0, 20e-6), decay_a=2e3),
        detector2=pl.DetectorSpec(profile=pl.RectangularProfile(100e-6, 120e-6), decay_a=2e3),
    )
    grid, dx = cfg.grid, cfg.grid.dx
    box, j0 = passage._stage2_box(cfg, _detector1_cols(cfg))
    m = box.n_points
    assert (m, j0) == (5400, 890)
    assert all(passage._five_smooth(n) == (n == 5400) for n in range(5345, 5401))
    assert np.allclose(box.x, grid.x[j0 : j0 + m], rtol=0.0, atol=1e-9 * dx)
    assert box.x_min <= -5e-6 < box.x_min + dx
    kernel, j1 = passage._stage2_kernel(cfg, _detector1_cols(cfg), 2e-5)
    on2 = np.flatnonzero(cfg.detector2.profile.chi(grid)) - j0
    layer = m - kernel.support.start - kernel.detected
    assert j1 == j0 and kernel.support == slice(on2[0], m)
    assert layer == 713 and np.all(kernel.decay[: on2[-1] + 1 - on2[0]] == 2e3)
    assert np.all(kernel.decay[on2[-1] + 1 - on2[0] : -layer] == 0.0)
    rate = kernel.decay[-layer:]
    # zero at the layer's first point, symmetric about its middle, ~1e5 1/s there
    assert rate[0] == 0.0 and np.allclose(rate[1:], rate[1:][::-1], rtol=1e-12)
    assert np.max(rate) == pytest.approx(1.0e5, rel=5e-3)


def test_stage2_box_is_the_grid_or_raises_without_room(toy_particle, toy_packet):
    tight = toy_config(toy_particle, toy_packet, grid=pl.build_grid(14e-6, 146e-6, 1350))
    assert passage._stage2_box(tight, _detector1_cols(tight)) == (tight.grid, 0)
    short = toy_config(toy_particle, toy_packet, grid=pl.build_grid(-40e-6, 140e-6, 2048))
    with pytest.raises(pl.ConfigError, match="absorbing layer.*grid ends at 0.00014 m"):
        passage._stage2_box(short, _detector1_cols(short))


def test_probability_closes_with_the_boundary_loss(toy_run):
    # total + never detected = 1 up to the norm budgets: detector 1's
    # P0 + cum - 1, stage 2's (kept mass against G, the boundary loss and the
    # mass left in the box) and the SVD cut. The boundary loss is measured by
    # sampling the layer's loss density, so it is not what is left of the
    # budget: leaving it out would miss by more than the residuals
    dist, ens = toy_run["dist"], toy_run["ensemble"]
    never, residual2 = dist.leakage_report
    assert np.all(dist.g_tau >= 0.0)
    assert dist.boundary_loss > 0.0
    kept = (1.0 - dist.discarded_power) * ens.captured_mass
    stage2 = kept - (dist.total_probability + dist.boundary_loss + residual2)
    stage1 = ens.p_detected_1 + ens.residual_norm_1 - 1.0
    residual = abs(stage2) + abs(stage1) + dist.discarded_power * ens.captured_mass
    assert residual < 1e-3 < dist.boundary_loss
    assert abs(dist.total_probability + never - 1.0) <= residual + 1e-12


@pytest.mark.parametrize("x0, v0", [(30e-6, 0.0), (60e-6, -0.05)])
def test_stage2_runs_for_a_packet_at_rest_or_moving_left(toy_particle, x0, v0):
    # with the times given, neither stage needs v0 > 0: the layer's rate comes
    # from the packet's velocity spread at rest and from |v0| moving left,
    # where the reset states leave through the box's first point and the seam
    packet = pl.GaussianPacketSpec(center_x0=x0, sigma_x=2e-6, mean_velocity_v0=v0)
    cfg = toy_config(toy_particle, packet, t_start=0.0, t_end1=1.2e-3, tau_max=1e-3, dt2=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        _, ens = pl.arrival_stage(cfg)
        dist = pl.passage_distribution(cfg, ens)
    never, residual2 = dist.leakage_report
    assert ens.p_detected_1 > 0.99 and np.all(dist.g_tau >= 0.0)
    assert dist.stage2_grid_points == 1350
    assert abs(dist.total_probability + never - 1.0) < 1e-3
    if v0 < 0.0:
        assert dist.total_probability < 0.01 and dist.boundary_loss > 0.95
    else:
        assert residual2 > 0.95


def test_box_matches_a_periodic_grid_eight_times_as_long(particle):
    # cesium at the reference dx and rate, with the detectors 40 um apart and
    # 10 um long: stage 2's 2400-point box against detector 2 alone on a
    # periodic grid of 8 x 4096 points, which nothing wraps round within
    # tau_max. The 4096-point periodic grid misses std(G) by 6%
    a = 2.3895e3

    def detector(start):
        return pl.DetectorSpec(profile=pl.RectangularProfile(start, start + 10e-6), decay_a=a)

    cfg = pl.ExperimentConfig(
        particle=particle,
        packet=pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3),
        detector1=detector(0.0),
        detector2=detector(40e-6),
        grid=pl.build_grid(-30e-6, 85e-6, 4096),
        dt=1e-6,
        dt2=2e-5,
        n_entry=64,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        _, ens = pl.arrival_stage(cfg)
        dist = pl.passage_distribution(cfg, ens)
    span = passage._nonzero_span(ens.states)
    assert dist.stage2_grid_points == passage._stage2_box(cfg, span)[0].n_points == 2400
    weighted = np.sqrt(ens.weights)[:, None] * ens.states[:, span]
    _, svals, vrows = np.linalg.svd(weighted, full_matrices=False)
    keep = svals**2 > cfg.svd_keep * float(np.sum(svals**2))
    n_steps = int(round(passage._auto_tau_max(cfg) / cfg.dt2))

    def periodic(factor):
        n = factor * cfg.grid.n_points
        grid = pl.build_grid(cfg.grid.x_min, cfg.grid.x_min + n * cfg.grid.dx, n)
        rows = np.zeros((int(np.count_nonzero(keep)), n), dtype=complex)
        rows[:, span] = svals[keep, None] * vrows[keep]
        pot = cfg.detector2.potential_field(grid)
        kernel = propagator._kernel(grid, cfg.particle, pot, cfg.dt2)
        steps, w1rows, _, _ = propagator._evolve_rows(kernel, rows, n_steps, cfg.tau_stride)
        return passage._moments(steps * cfg.dt2, np.sum(w1rows, axis=0))

    box = np.array([dist.total_probability, dist.mean_tau, dist.std_tau])
    long = np.array(periodic(8))
    assert np.all(np.abs(box / long - 1.0) <= 1e-4)
    assert abs(periodic(1)[2] / long[2] - 1.0) > 0.03


def test_entry_grid_refinement_invariance(toy_particle, toy_packet):
    outs = []
    for n_entry in (64, 128):
        cfg = toy_config(toy_particle, toy_packet, n_entry=n_entry, tau_max=3.2e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pl.RegimeWarning)
            outs.append(pl.passage_distribution(cfg))
    a, b = outs
    assert b.mean_tau == pytest.approx(a.mean_tau, rel=1e-3)
    assert b.std_tau == pytest.approx(a.std_tau, rel=5e-3)
    assert b.total_probability == pytest.approx(a.total_probability, abs=2e-3)


def test_stage_two_step_refinement_invariance(toy_particle, toy_packet):
    outs = []
    for dt2 in (2e-7, 1e-7):
        cfg = toy_config(toy_particle, toy_packet, dt2=dt2, tau_max=3.2e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pl.RegimeWarning)
            outs.append(pl.passage_distribution(cfg))
    a, b = outs
    assert b.mean_tau == pytest.approx(a.mean_tau, rel=1e-3)
    assert b.std_tau == pytest.approx(a.std_tau, rel=5e-3)


def test_kijowski_against_direct_quadrature():
    particle = pl.cesium()
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
    x_at = 5e-6
    t = np.array([-2e-4, 0.0, 3e-4, 7e-4, 1.5e-3])
    module = pl.kijowski_distribution(packet, particle, x_at, t)

    # independent direct quadrature of the positive-momentum amplitude
    m, hb = particle.mass, particle.hbar
    sig_x = packet.sigma_x
    k0 = m * packet.mean_velocity_v0 / hb
    k = np.linspace(max(1e-3 * k0, k0 - 8.0 / (2 * sig_x)), k0 + 8.0 / (2 * sig_x), 20001)
    k = k[k > 0.0]
    # momentum amplitude of the packet: Gaussian centered k0 with std 1/(2 sig_x)
    phi = (2.0 * np.pi * (1.0 / (2 * sig_x)) ** 2) ** -0.25 * np.exp(
        -((k - k0) ** 2) * sig_x**2
    )
    brute = np.empty_like(t)
    for i, ti in enumerate(t):
        integrand = np.sqrt(k) * phi * np.exp(1j * (k * x_at - hb * k**2 * ti / (2 * m)))
        amp = np.trapezoid(integrand, k)
        brute[i] = hb / (2.0 * np.pi * m) * np.abs(amp) ** 2
    assert np.allclose(module, brute, rtol=1e-6)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_k": 1}, "n_k must be an integer >= 2, got 1"),
        ({"n_k": 0}, "n_k must be an integer >= 2, got 0"),
        ({"n_k": 400.5}, "n_k must be an integer >= 2, got 400.5"),
        ({"t_grid": [1e-4, float("nan")]}, "t_grid must be finite"),
        ({"t_grid": [float("inf")]}, "t_grid must be finite"),
        ({"x": float("nan")}, "x must be finite, got nan"),
    ],
)
def test_kijowski_rejects_bad_arguments(kwargs, message):
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=2e-6, mean_velocity_v0=0.05)
    args = {"x": 30e-6, "t_grid": np.linspace(1e-4, 1e-3, 5), "n_k": 401, **kwargs}
    with pytest.raises(pl.ConfigError) as err:
        pl.kijowski_distribution(packet, pl.ParticleSpec(mass=1e-26), **args)
    assert str(err.value) == message


def test_kijowski_normalization_and_peak():
    particle = pl.ParticleSpec(mass=1e-26)
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=2e-6, mean_velocity_v0=0.05)
    t = np.linspace(-2e-4, 1.6e-3, 4001)
    pik = pl.kijowski_distribution(packet, particle, 30e-6, t)
    assert np.all(pik >= 0.0)
    assert np.trapezoid(pik, t) == pytest.approx(1.0, abs=1e-6)
    assert t[np.argmax(pik)] == pytest.approx(30e-6 / 0.05, rel=0.02)


def test_kijowski_translation_invariance():
    particle = pl.ParticleSpec(mass=1e-26)
    t = np.linspace(1e-4, 1e-3, 300)
    a = pl.kijowski_distribution(
        pl.GaussianPacketSpec(center_x0=0.0, sigma_x=2e-6, mean_velocity_v0=0.05),
        particle,
        30e-6,
        t,
    )
    b = pl.kijowski_distribution(
        pl.GaussianPacketSpec(center_x0=-10e-6, sigma_x=2e-6, mean_velocity_v0=0.05),
        particle,
        20e-6,
        t,
    )
    assert np.allclose(a, b, rtol=1e-10)


# the CLI's packet and window: cesium, sigma 1 um at 7.17 mm/s, x = 0
_CLI_PACKET = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
_CLI_TIMES = np.linspace(-0.5e-3, 1.5e-3, 2001)


def _kijowski_direct(packet, particle, x, t, n_k=4001):
    """Pi_K at each time by its own sum over the same k points, carrier in."""
    m, hb = particle.mass, particle.hbar
    k0 = m * packet.mean_velocity_v0 / hb
    sk = 1.0 / (2.0 * packet.sigma_x)
    k = np.linspace(max(k0 - 9.0 * sk, 0.0), k0 + 9.0 * sk, n_k)
    phi = (2.0 * packet.sigma_x**2 / np.pi) ** 0.25 * np.exp(
        -(packet.sigma_x**2) * (k - k0) ** 2 - 1j * k * packet.center_x0
    )
    out = np.empty(len(t))
    for i, ti in enumerate(t):
        terms = np.sqrt(k) * phi * np.exp(1j * (k * x - hb * k * k * ti / (2.0 * m)))
        out[i] = hb / (2.0 * np.pi * m) * abs(np.sum(terms) * (k[1] - k[0])) ** 2
    return out


def _kijowski_spied(monkeypatch, x, t):
    """(Pi_K, one pair per call to the rule: its node count, None on its
    fallback, and how many times it evaluated the amplitude at)."""
    rule = passage._interpolation_nodes
    used = []

    def spy(evaluate, *args):
        evaluated = []

        def counted(times):
            evaluated.append(len(times))
            return evaluate(times)

        nodes, b = rule(counted, *args)
        used.append((None if nodes is None else len(nodes), sum(evaluated)))
        return nodes, b

    monkeypatch.setattr(passage, "_interpolation_nodes", spy)
    return pl.kijowski_distribution(_CLI_PACKET, pl.cesium(), x, t), used


def test_kijowski_interpolated_on_the_cli_window(monkeypatch):
    # without its carrier the amplitude turns through 65 rad over the 2 ms
    # window: 129 nodes resolve it
    pik, used = _kijowski_spied(monkeypatch, 0.0, _CLI_TIMES)
    assert used == [(129, 129)]
    ref = _kijowski_direct(_CLI_PACKET, pl.cesium(), 0.0, _CLI_TIMES)
    assert np.max(np.abs(pik - ref)) <= 1e-12 * np.max(ref)


def test_kijowski_falls_back_past_the_rule(monkeypatch):
    # 968 rad over 30 ms at x = 100 um: no interpolant the check tests could
    # resolve it, so the rule evaluates nothing and the sum runs at every time
    t = np.linspace(0.0, 30e-3, 2001)
    pik, used = _kijowski_spied(monkeypatch, 100e-6, t)
    assert used == [(None, 0)]
    ref = _kijowski_direct(_CLI_PACKET, pl.cesium(), 100e-6, t)
    assert np.max(np.abs(pik - ref)) <= 1e-12 * np.max(ref)


def test_kijowski_empty_and_one_point_times(monkeypatch):
    pik, used = _kijowski_spied(monkeypatch, 0.0, [])
    assert pik.shape == (0,) and used == []
    pik, used = _kijowski_spied(monkeypatch, 0.0, [0.5e-3])
    assert used == []
    ref = _kijowski_direct(_CLI_PACKET, pl.cesium(), 0.0, [0.5e-3])
    assert pik.shape == (1,)
    assert abs(pik[0] - ref[0]) <= 1e-12 * ref[0]


def test_kijowski_on_coincident_times(monkeypatch):
    # forty equal times make a window of zero length: the rule falls back
    # before it evaluates the amplitude, and nothing divides by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pik, used = _kijowski_spied(monkeypatch, 0.0, np.full(40, 1e-4))
        one = pl.kijowski_distribution(_CLI_PACKET, pl.cesium(), 0.0, [1e-4])
    assert used == [(None, 0)]
    assert np.max(np.abs(pik - one[0])) <= 1e-14 * one[0]


_KIJOWSKI_BYTES = """
import sys
import numpy as np
import passagelab as pl
packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
t = np.linspace(-0.5e-3, 1.5e-3, 2001)
sys.stdout.buffer.write(pl.kijowski_distribution(packet, pl.cesium(), 0.0, t).tobytes())
"""


def test_kijowski_bytes_independent_of_blas_threads():
    src = str(Path(pl.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _KIJOWSKI_BYTES],
            env=env, capture_output=True, check=True, timeout=120,
        )
        out.append(run.stdout)
    assert len(out[0]) == 8 * 2001
    assert out[1] == out[0]


def test_classical_passage_against_monte_carlo():
    particle = pl.ParticleSpec(mass=1e-26)
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=2e-6, mean_velocity_v0=0.05)
    d = 80e-6
    tau = np.linspace(0.8e-3, 3.2e-3, 20001)
    g = pl.classical_passage(packet, particle, d, tau)
    assert np.trapezoid(g, tau) == pytest.approx(1.0, abs=1e-4)
    mean = np.trapezoid(tau * g, tau)
    std = np.sqrt(np.trapezoid((tau - mean) ** 2 * g, tau))

    rng = np.random.default_rng(7)
    p0 = particle.mass * 0.05
    sig_p = HBAR / (2.0 * 2e-6)
    p = rng.normal(p0, sig_p, size=2_000_000)
    samples = particle.mass * d / p
    assert mean == pytest.approx(float(np.mean(samples)), rel=5e-4)
    assert std == pytest.approx(float(np.std(samples)), rel=5e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -80e-6])
def test_classical_passage_rejects_bad_distance(bad):
    # a NaN distance used to return NaN
    particle = pl.ParticleSpec(mass=1e-26)
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=2e-6, mean_velocity_v0=0.05)
    with pytest.raises(pl.ConfigError, match=f"^d must be positive and finite, got {bad}$"):
        pl.classical_passage(packet, particle, bad, np.linspace(1e-3, 9e-3, 10))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classical_passage_rejects_non_finite_tau(bad):
    # a NaN tau used to return NaN and an infinite one 0
    particle = pl.ParticleSpec(mass=1e-26)
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=2e-6, mean_velocity_v0=0.05)
    with pytest.raises(pl.ConfigError, match="tau_grid must be finite"):
        pl.classical_passage(packet, particle, 80e-6, np.array([1e-3, bad]))


def test_classical_passage_rejects_negative_momentum_mass():
    particle = pl.ParticleSpec(mass=1e-26)
    slow = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=0.02)
    with pytest.raises(pl.ConfigError):
        pl.classical_passage(slow, particle, 80e-6, np.linspace(1e-3, 9e-3, 100))


# The toy study on a grid twice as long at the same dx: the packet's path
# over detector 1's window spans less than half of it, so the arrival pass
# runs on a box of 2048 of the 4096 points.
def _boxed_config(toy_particle, toy_packet, cells=0):
    """The long-grid toy config with the packet and both detectors moved by
    whole cells of the grid."""
    grid = pl.build_grid(-240e-6, 160e-6, 4096)
    shift = cells * grid.dx

    def detector(a):
        return pl.DetectorSpec(
            profile=pl.RectangularProfile(a + shift, a + 20e-6 + shift), decay_a=2e4
        )

    return toy_config(
        toy_particle,
        replace(toy_packet, center_x0=toy_packet.center_x0 + shift),
        grid=grid,
        detector1=detector(20e-6),
        detector2=detector(100e-6),
        dt2=1e-6,
        tau_max=3.2e-3,
    )


def _run(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        record, ensemble = pl.arrival_stage(cfg)
        return record, ensemble, pl.passage_distribution(cfg, ensemble)


def _box_offset(cfg):
    """(box, j0): the grid detector 1's pass ran on and its offset in cfg.grid."""
    kernel, psi0, _, support = passage._detector1_start(cfg)
    return psi0.grid, support.start - kernel.support.start


@pytest.fixture(scope="module")
def boxed_run(toy_particle, toy_packet):
    cfg = _boxed_config(toy_particle, toy_packet)
    return cfg, *_run(cfg)


def test_box_is_the_smallest_power_of_two_run_holding_the_path(boxed_run):
    cfg, record, _, _ = boxed_run
    grid, packet, dx = cfg.grid, cfg.packet, cfg.grid.dx
    box, j0 = _box_offset(cfg)
    m = box.n_points
    assert m == 2048 and m & (m - 1) == 0
    # the box's points are the grid's points j0 .. j0 + m - 1
    assert np.allclose(box.x, grid.x[j0 : j0 + m], rtol=0.0, atol=1e-9 * dx)
    assert box.dx == pytest.approx(dx, rel=1e-12)
    # it holds detector 1 and the packet's centre +- 8 widths at both window
    # ends, which half the box could not
    t_end = passage._edge_crossing_time(packet, cfg.particle, 40e-6, 1.0)
    lo, hi = [], []
    for t in (record.times[0], t_end):
        centre = packet.center_x0 + packet.mean_velocity_v0 * t
        width = pl.free_sigma_x(packet, cfg.particle, t)
        lo.append(centre - 8.0 * width)
        hi.append(centre + 8.0 * width)
    assert box.x_min <= min(lo) and max(hi) <= box.x_max
    assert max(hi) - min(lo) > m // 2 * dx
    on = np.flatnonzero(cfg.detector1.profile.chi(grid))
    assert j0 <= on[0] and on[-1] < j0 + m
    kernel, _, _, support = passage._detector1_start(cfg)
    assert support == slice(on[0], on[-1] + 1)
    assert kernel.support == slice(on[0] - j0, on[-1] + 1 - j0)


def test_boxed_pass_matches_the_full_grid(boxed_run):
    # the record and the reset rows against evolve_conditional on all 4096 points
    cfg, record, ens, _ = boxed_run
    det1 = cfg.detector1
    pot = det1.potential_field(cfg.grid)
    psi0 = pl.gaussian_free_state(cfg.packet, cfg.particle, record.times[0], cfg.grid)
    _, full = pl.evolve_conditional(psi0, pot, cfg.particle, record.times[-1], cfg.dt)
    assert np.array_equal(full.times, record.times)
    w1_max = np.max(full.density_w1)
    assert np.max(np.abs(record.density_w1 - full.density_w1)) <= 1e-9 * w1_max
    assert np.max(np.abs(record.survival_p0 - full.survival_p0)) <= 1e-9
    for i in (0, len(ens.entry_times) // 2, len(ens.entry_times) - 1):
        psi, _ = pl.evolve_conditional(psi0, pot, cfg.particle, ens.entry_times[i], cfg.dt)
        want = pl.reset(psi, det1).amplitudes
        assert np.max(np.abs(ens.states[i] - want)) <= 1e-7 * np.max(np.abs(want))


def test_boxed_rows_are_reset_conditional_states_on_the_box(boxed_run):
    # bit for bit: the pass is evolve_conditional on the box, embedded at j0
    cfg, record, ens, _ = boxed_run
    det1 = cfg.detector1
    box, j0 = _box_offset(cfg)
    on = slice(j0, j0 + box.n_points)
    assert np.array_equal(det1.profile.chi(box), det1.profile.chi(cfg.grid)[on])
    pot = det1.potential_field(box)
    psi0 = pl.gaussian_free_state(cfg.packet, cfg.particle, record.times[0], box)
    for i in (0, len(ens.entry_times) // 2, len(ens.entry_times) - 1):
        psi, _ = pl.evolve_conditional(psi0, pot, cfg.particle, ens.entry_times[i], cfg.dt)
        row = np.zeros(cfg.grid.n_points, dtype=complex)
        row[on] = pl.reset(psi, det1).amplitudes
        assert np.array_equal(ens.states[i], row)


def test_boxed_reset_row_is_the_ensemble_row(boxed_run):
    cfg, _, ens, _ = boxed_run
    for at_time in (None, float(ens.entry_times[5])):
        t_used, row = passage._reset_row(cfg, at_time)
        (i,) = np.flatnonzero(ens.entry_times == t_used)
        assert row.tobytes() == ens.states[i].tobytes()


@pytest.mark.parametrize("cells", [64, -300])
def test_whole_cell_shift_moves_the_box_by_as_many_cells(
    boxed_run, toy_particle, toy_packet, cells
):
    cfg, _, _, base = boxed_run
    shifted = _boxed_config(toy_particle, toy_packet, cells)
    assert _box_offset(shifted)[1] == _box_offset(cfg)[1] + cells
    _, _, dist = _run(shifted)
    assert np.array_equal(dist.tau, base.tau)
    assert np.max(np.abs(dist.g_tau - base.g_tau)) <= 1e-12 * np.max(base.g_tau)


def test_pass_runs_on_the_grid_when_the_path_exceeds_half_of_it(toy_run):
    # the toy's path spans more than 1024 of its 2048 points: no box, and the
    # record has the bits of evolve_conditional on the grid
    cfg, record = toy_run["cfg"], toy_run["record"]
    box, j0 = _box_offset(cfg)
    assert (box, j0) == (cfg.grid, 0)
    psi0 = pl.gaussian_free_state(cfg.packet, cfg.particle, record.times[0], cfg.grid)
    pot = cfg.detector1.potential_field(cfg.grid)
    _, full = pl.evolve_conditional(psi0, pot, cfg.particle, record.times[-1], cfg.dt)
    for name in ("times", "survival_p0", "density_w1", "cumulative_detected"):
        assert getattr(record, name).tobytes() == getattr(full, name).tobytes()


def _crossing_step(packet, particle, edge, t):
    """One step of the fixed-point map whose fixed point is t_end1."""
    sigma = pl.free_sigma_x(packet, particle, t)
    return (edge + 6.0 * sigma - packet.center_x0) / packet.mean_velocity_v0


def test_auto_end_time_is_a_fixed_point(toy_particle, toy_packet):
    # at 6 sigma_v / v0 = 0.79 twelve steps left t_end1 8.5e-5 s short of it
    packet = replace(toy_packet, mean_velocity_v0=0.02)
    t = passage._edge_crossing_time(packet, toy_particle, 40e-6, 1.0)
    assert abs(_crossing_step(packet, toy_particle, 40e-6, t) - t) <= 4 * np.spacing(t)
    twelve = 40e-6 / 0.02
    for _ in range(12):
        twelve = _crossing_step(packet, toy_particle, 40e-6, twelve)
    assert t - twelve > 5e-5


@pytest.mark.parametrize("v0, ratio", [(0.015, "1.05"), (0.01, "1.58")])
def test_auto_end_time_without_a_crossing_raises(toy_particle, toy_packet, v0, ratio):
    # the packet spreads faster than its centre moves away from the edge; the
    # old loop returned 0.05 s and 2.98 s. The pass itself is never run.
    packet = replace(toy_packet, mean_velocity_v0=v0)
    message = f"t_end1 has not settled.*6 sigma_v / v0 = {ratio}"
    with pytest.raises(pl.ConfigError, match=message):
        passage._edge_crossing_time(packet, toy_particle, 40e-6, 1.0)
    with pytest.raises(pl.ConfigError, match=message):
        passage._detector1_start(toy_config(toy_particle, packet))
