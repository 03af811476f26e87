"""Two-detector pipeline: configuration, invariances, and reference
distributions."""
import typing
import warnings
from dataclasses import replace

import numpy as np
import pytest

import passagelab as pl
from passagelab import passage, propagator
from passagelab.core import HBAR

from conftest import toy_config


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
    kernel = propagator._kernel(
        cfg.grid, cfg.particle, cfg.detector2.potential_field(cfg.grid), cfg.dt2
    )
    n_steps = int(round(dist.tau[-1] / cfg.dt2))
    _, w1rows, _ = propagator._evolve_rows(
        kernel, svals[keep, None] * vrows[keep], n_steps, cfg.tau_stride
    )
    g_ref = np.sum(w1rows, axis=0)
    assert dist.kept_rank == int(np.count_nonzero(keep))
    assert np.max(np.abs(dist.g_tau - g_ref)) <= 1e-12 * np.max(g_ref)


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
