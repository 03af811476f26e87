"""Width budget, optimal plans, and the scaling sweep machinery."""
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import passagelab as pl
from passagelab import passage, precision, propagator
from passagelab.core import _five_smooth
from passagelab.exceptions import ConfigError, ConvergenceError

from conftest import toy_config

CES_D = 100e-6
CES_V0 = 7.17e-3


@pytest.fixture(scope="module")
def cesium():
    return pl.cesium()


def test_width_budget_term_formulas(cesium):
    dx, a, d, v0 = 2e-6, 1e3, CES_D, CES_V0
    b = pl.width_estimate(dx, a, d, cesium, v0)
    assert b.delay_term == 2.0 / a
    assert b.reset_x_term == dx / v0
    assert b.reset_p_term == pytest.approx(
        cesium.hbar * d / (2.0 * cesium.mass * v0**2 * dx), rel=1e-15
    )
    assert b.total == b.delay_term + b.reset_x_term + b.reset_p_term
    assert min(b.delay_term, b.reset_x_term, b.reset_p_term) > 0.0


def test_width_budget_rejects_nonpositive_inputs(cesium):
    good = (2e-6, 1e3, CES_D, CES_V0)
    for i in range(4):
        bad = list(good)
        bad[i] = 0.0
        with pytest.raises(ConfigError):
            pl.width_estimate(bad[0], bad[1], bad[2], cesium, bad[3])


def test_slow_and_fast_detector_blowups(cesium):
    slow = pl.width_estimate(2e-6, 1e-2, CES_D, cesium, CES_V0)
    assert slow.delay_term > 100.0 * (slow.reset_x_term + slow.reset_p_term)
    fast = pl.width_estimate(1e-12, 1e9, CES_D, cesium, CES_V0)
    assert fast.reset_p_term > 100.0 * (fast.delay_term + fast.reset_x_term)


def test_optimal_plan_frozen_values(cesium):
    plan = pl.optimal_plan(CES_D, cesium, CES_V0)
    assert plan.delta_x_opt == pytest.approx(1.8254593964011879e-6, rel=1e-12)
    assert plan.a_opt == pytest.approx(1963.889203489088, rel=1e-12)
    assert plan.delta_tau_opt == pytest.approx(1.1385917156258832e-3, rel=1e-12)
    assert plan.energy == pytest.approx(5.6727150705e-30, rel=1e-10)
    assert plan.detection_length_l == pytest.approx(3.6509187928023757e-6, rel=1e-12)


def test_optimal_plan_internal_relations(cesium):
    plan = pl.optimal_plan(CES_D, cesium, CES_V0)
    assert plan.a_opt == pytest.approx(CES_V0 / (2.0 * plan.delta_x_opt), rel=1e-12)
    assert plan.detection_length_l == pytest.approx(2.0 * plan.delta_x_opt, rel=1e-12)
    assert plan.detection_length_l <= CES_D
    # closed-form width equals sqrt(20) dx_opt / v0
    assert plan.delta_tau_opt == pytest.approx(
        np.sqrt(20.0) * plan.delta_x_opt / CES_V0, rel=1e-12
    )


def test_optimal_plan_three_sig_fig_reference(cesium):
    plan = pl.optimal_plan(CES_D, cesium, CES_V0)
    assert plan.delta_x_opt == pytest.approx(1.83e-6, rel=5e-3)
    assert plan.a_opt == pytest.approx(1.959e3, rel=5e-3)
    # the rounded width reproduces the rounded rate directly
    assert CES_V0 / (2.0 * 1.83e-6) == pytest.approx(1.959e3, rel=5e-4)


def test_optimal_plan_forced_width(cesium):
    plan = pl.optimal_plan(CES_D, cesium, CES_V0, delta_x=1e-6)
    assert plan.delta_x_opt == 1e-6
    assert plan.a_opt == pytest.approx(3.585e3, rel=1e-12)
    assert plan.detection_length_l == pytest.approx(2e-6, rel=1e-12)
    budget = pl.width_estimate(1e-6, plan.a_opt, CES_D, cesium, CES_V0)
    assert plan.delta_tau_opt == pytest.approx(budget.total, rel=1e-12)
    # forcing a non-optimal width cannot beat the unconstrained budget
    free = pl.optimal_plan(CES_D, cesium, CES_V0)
    opt_budget = pl.width_estimate(free.delta_x_opt, free.a_opt, CES_D, cesium, CES_V0)
    assert budget.total > opt_budget.reset_x_term + opt_budget.reset_p_term


def test_optimal_plan_rejects_nonpositive(cesium):
    with pytest.raises(ConfigError):
        pl.optimal_plan(0.0, cesium, CES_V0)
    with pytest.raises(ConfigError):
        pl.optimal_plan(CES_D, cesium, -1.0)
    with pytest.raises(ConfigError):
        pl.optimal_plan(CES_D, cesium, CES_V0, delta_x=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["delta_x_reset", "a", "d", "v0"])
def test_width_estimate_rejects_non_finite(cesium, key, bad):
    # NaN used to pass the positivity check and come back as NaN terms
    args = {"delta_x_reset": 2e-6, "a": 1e3, "d": CES_D, "v0": CES_V0, key: bad}
    with pytest.raises(ConfigError, match=f"^{key} must be positive and finite, got {bad}$"):
        pl.width_estimate(particle=cesium, **args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["d", "v0", "delta_x"])
def test_optimal_plan_rejects_non_finite(cesium, key, bad):
    # NaN gave an all-NaN plan and an infinite v0 an infinite a_opt
    args = {"d": CES_D, "v0": CES_V0, key: bad}
    with pytest.raises(ConfigError, match=f"^{key} must be positive and finite, got {bad}$"):
        pl.optimal_plan(particle=cesium, **args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scaling_sweep_rejects_non_finite(cesium, bad):
    # these failed late, in the packet of a NaN or zero width
    message = f"^v0_values must be positive and finite, got {bad}$"
    for v0s in ([bad, 3e-3], [3e-3, bad]):
        with pytest.raises(ConfigError, match=message):
            pl.scaling_sweep(np.array(v0s), CES_D, cesium)
    with pytest.raises(ConfigError, match=f"^d must be positive and finite, got {bad}$"):
        pl.scaling_sweep(np.array([3e-3, 5e-3]), bad, cesium)


def test_reset_terms_equal_at_minimizer(cesium):
    plan = pl.optimal_plan(CES_D, cesium, CES_V0)
    b = pl.width_estimate(plan.delta_x_opt, plan.a_opt, CES_D, cesium, CES_V0)
    assert b.reset_x_term == pytest.approx(b.reset_p_term, rel=1e-12)
    # at the rounded reference width the balance holds only approximately
    rounded = pl.width_estimate(1.83e-6, 1.959e3, CES_D, cesium, CES_V0)
    assert rounded.reset_x_term == pytest.approx(rounded.reset_p_term, rel=2e-2)


def test_budget_minimum_at_closed_form_width(cesium):
    plan = pl.optimal_plan(CES_D, cesium, CES_V0)
    widths = plan.delta_x_opt * np.geomspace(0.5, 2.0, 201)
    totals = [
        pl.width_estimate(w, plan.a_opt, CES_D, cesium, CES_V0).total for w in widths
    ]
    i_min = int(np.argmin(totals))
    i_opt = int(np.argmin(np.abs(widths - plan.delta_x_opt)))
    assert abs(i_min - i_opt) <= 1


def test_width_scales_with_distance_and_energy(cesium):
    base = pl.optimal_plan(CES_D, cesium, CES_V0)
    assert pl.optimal_plan(4.0 * CES_D, cesium, CES_V0).delta_tau_opt == pytest.approx(
        2.0 * base.delta_tau_opt, rel=1e-12
    )
    # doubling v0 quadruples E; the width drops by 4^(3/4)
    faster = pl.optimal_plan(CES_D, cesium, 2.0 * CES_V0)
    assert faster.energy == pytest.approx(4.0 * base.energy, rel=1e-12)
    assert faster.delta_tau_opt == pytest.approx(
        base.delta_tau_opt * 4.0**-0.75, rel=1e-12
    )


def test_closed_form_sweep_exponent_is_exact(cesium):
    v0s = np.geomspace(3e-3, 30e-3, 7)
    plans = [pl.optimal_plan(CES_D, cesium, v) for v in v0s]
    loge = np.log([p.energy for p in plans])
    logt = np.log([p.delta_tau_opt for p in plans])
    slope = np.polyfit(loge, logt, 1)[0]
    assert slope == pytest.approx(-0.75, abs=1e-9)


def test_sweep_point_config_geometry(cesium):
    cfg = pl.sweep_point_config(CES_V0, CES_D, cesium)
    plan = pl.optimal_plan(CES_D, cesium, CES_V0)
    assert cfg.packet.sigma_x == pytest.approx(plan.delta_x_opt, rel=1e-12)
    assert cfg.packet.mean_velocity_v0 == CES_V0
    assert cfg.detector1.decay_a == pytest.approx(plan.a_opt, rel=1e-12)
    assert cfg.detector2.decay_a == pytest.approx(plan.a_opt, rel=1e-12)
    assert cfg.distance_d == pytest.approx(CES_D, rel=1e-12)
    length1 = cfg.detector1.profile.b - cfg.detector1.profile.a
    length2 = cfg.detector2.profile.b - cfg.detector2.profile.a
    assert length1 == pytest.approx(length2, rel=1e-12)
    assert length1 == pytest.approx(4.0 * plan.detection_length_l, abs=cfg.grid.dx)
    # every sharp detector edge sits on a grid point
    dx = cfg.grid.dx
    for edge in (
        cfg.detector1.profile.a,
        cfg.detector1.profile.b,
        cfg.detector2.profile.a,
        cfg.detector2.profile.b,
    ):
        frac = (edge - cfg.grid.x_min) / dx
        assert abs(frac - round(frac)) < 1e-6
    # the grid is [0, n dx], n the smallest 5-smooth number of cells that
    # holds both detectors; each stage's box reaches past it as it needs
    cells = round(cfg.detector2.profile.b / dx)
    assert cfg.grid.x_min == 0.0
    assert cfg.grid.x_max >= cfg.detector2.profile.b
    assert cfg.grid.n_points == next(k for k in range(cells, 2 * cells) if _five_smooth(k))
    assert cfg.tau_max > CES_D / CES_V0
    assert cfg.dt2 == plan.delta_tau_opt / 56.0
    assert cfg.dt == cfg.dt2 / 10.0


def test_sweep_stage2_step_count_per_sample(cesium):
    # both steps scale with the point's own width: G every dt2 =
    # delta_tau_opt / 56, the arrival stage at dt2 / 10, and A dt2 =
    # sqrt(5) / 56 = 0.040 at every v0 and d
    cases = [(v0, CES_D) for v0 in np.geomspace(3e-3, 30e-3, 7)] + [(30e-3, 5e-6)]
    for v0, d in cases:
        cfg = pl.sweep_point_config(v0, d, cesium)
        plan = pl.optimal_plan(d, cesium, v0)
        assert cfg.dt2 == plan.delta_tau_opt / 56.0
        assert cfg.dt == cfg.dt2 / 10.0
        assert cfg.tau_stride == 1
        assert cfg.detector2.decay_a * cfg.dt2 <= 0.05


@pytest.mark.parametrize("v0", [3e-3, 30e-3])
def test_sweep_stage2_step_matches_dt2_equal_dt(cesium, v0):
    # measured against dt2 = dt with stride 10 (one BLAS thread): std within
    # 1.3e-4 and 1.3e-4 relative, mean 3.2e-7 and 1.0e-5, total 6.2e-5 and
    # 5.7e-5 absolute at 3 and 30 mm/s; the bounds leave at least 2x margin
    cfg = pl.sweep_point_config(v0, 5e-6, cesium, n_entry=64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        _, ensemble = pl.arrival_stage(cfg)
        got = pl.passage_distribution(cfg, ensemble)
        want = pl.passage_distribution(replace(cfg, dt2=cfg.dt, tau_stride=10), ensemble)
    assert got.std_tau == pytest.approx(want.std_tau, rel=6e-4)
    assert got.mean_tau == pytest.approx(want.mean_tau, rel=4e-5)
    assert got.total_probability == pytest.approx(want.total_probability, abs=1.2e-4)


def test_sweep_point_steps_agree_with_half_steps(cesium):
    # both stages again at half dt and half dt2, G on the same sample times:
    # measured (one BLAS thread) std 1.9e-5 and mean 3.6e-5 relative, total
    # 4.9e-5 absolute; the bounds are about twice that
    cfg = pl.sweep_point_config(3e-3, 5e-6, cesium, n_entry=64)
    half = replace(cfg, dt=cfg.dt / 2.0, dt2=cfg.dt2 / 2.0, tau_stride=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        got, want = (pl.passage_distribution(c) for c in (cfg, half))
    assert got.std_tau == pytest.approx(want.std_tau, rel=4e-5)
    assert got.mean_tau == pytest.approx(want.mean_tau, rel=7e-5)
    assert got.total_probability == pytest.approx(want.total_probability, abs=1e-4)


@pytest.mark.parametrize("v0", [2.98e-3, 3.0e-3, np.geomspace(3e-3, 30e-3, 7)[2]])
def test_sweep_detectors_hold_whole_grid_cells(cesium, v0):
    # edges snapped onto grid points stay on them when dx = span/n rounds, so
    # both detectors cover the same cells, and twice as many under 2n refinement
    cfg = pl.sweep_point_config(v0, CES_D, cesium)
    g = cfg.grid
    fine = pl.build_grid(g.x_min, g.x_max, 2 * g.n_points)
    n = round((cfg.detector1.profile.b - cfg.detector1.profile.a) / g.dx)
    for det in (cfg.detector1, cfg.detector2):
        assert int(det.profile.chi(g).sum()) == n
        assert int(det.profile.chi(fine).sum()) == 2 * n


def test_convergence_probe_passes_near_slowest_sweep_point(cesium):
    # an edge an ulp off its grid point must not make the refined detector
    # half a cell shorter, which reads as a width drift of 1.8e-3 here
    cfg = pl.sweep_point_config(3.01e-3, CES_D, cesium)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        _, drift_std = pl.convergence_probe(cfg)
    assert drift_std <= 1e-3


def test_sweep_point_grid_resolves_packet_momentum(cesium):
    for v0 in (3e-3, 30e-3):
        cfg = pl.sweep_point_config(v0, CES_D, cesium)
        k0 = cesium.mass * v0 / cesium.hbar
        k_max = float(np.max(cfg.grid.k))
        assert k_max > 1.9 * k0


def test_convergence_probe_passes_on_resolved_setup(cesium):
    cfg = pl.sweep_point_config(30e-3, CES_D, cesium)
    drift_mean, drift_std = pl.convergence_probe(cfg)
    assert drift_std <= 1e-3
    assert drift_mean >= 0.0


def test_convergence_probe_rejects_width_drift(cesium, monkeypatch):
    # stub arrival whose width depends on grid resolution: the gate must fire
    cfg = pl.sweep_point_config(CES_V0, CES_D, cesium)
    base_n = cfg.grid.n_points

    def fake_record(c):
        t = np.linspace(0.0, 1.0, 2001)
        width = 0.10 if c.grid.n_points == base_n else 0.11
        w1 = np.exp(-0.5 * ((t - 0.5) / width) ** 2)
        return pl.DetectionRecord(
            times=t,
            survival_p0=np.ones_like(t),
            density_w1=w1,
            cumulative_detected=np.zeros_like(t),
        )

    # both runs are record-only passes
    monkeypatch.setattr(
        "passagelab.precision._arrival_pass", lambda c: (fake_record(c), None, None)
    )
    with pytest.raises(ConvergenceError):
        pl.convergence_probe(cfg)
    # and must stay quiet when refinement leaves the width alone
    monkeypatch.setattr(
        "passagelab.precision._arrival_pass", lambda c: (fake_record(cfg), None, None)
    )
    drift_mean, drift_std = pl.convergence_probe(cfg)
    assert drift_std == pytest.approx(0.0, abs=1e-15)


def test_refined_probe_run_holds_no_states(toy_particle, toy_packet, monkeypatch):
    # the probe needs only the records of its two passes: no slices, no ensemble
    held, built = [], []
    evolve = propagator._evolve_batch

    def counting_evolve(kernel, batch):
        held.append(getattr(batch, "held", np.empty(0)).size > 0)
        evolve(kernel, batch)

    ensemble = passage.ResetEnsemble

    def counting_ensemble(**fields):
        built.append(fields["states"].shape)
        return ensemble(**fields)

    monkeypatch.setattr(propagator, "_evolve_batch", counting_evolve)
    monkeypatch.setattr(passage, "_evolve_batch", counting_evolve, raising=False)
    monkeypatch.setattr(passage, "ResetEnsemble", counting_ensemble)
    cfg = toy_config(toy_particle, toy_packet)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        pl.convergence_probe(cfg)
    assert held == [False, False]  # the coarse run, then the refined one
    assert built == []


def test_convergence_probe_memory_below_half_the_held_stack(toy_particle, toy_packet):
    cfg = toy_config(toy_particle, toy_packet)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        record, _, support = passage._arrival_pass(cfg)
        stack = (len(record.times) - 1) * (support.stop - support.start) * 16
        tracemalloc.start()
        try:
            pl.convergence_probe(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < stack / 2


def test_convergence_probe_on_a_held_record_skips_the_coarse_pass(toy_run, monkeypatch):
    # arrival_stage's record has the bits of the record-only pass
    cfg = toy_run["cfg"]
    passes = []
    arrival_pass = precision._arrival_pass

    def counting_pass(c):
        passes.append(c.grid.n_points)
        return arrival_pass(c)

    monkeypatch.setattr(precision, "_arrival_pass", counting_pass)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        alone = pl.convergence_probe(cfg)
        n_alone = len(passes)
        given = pl.convergence_probe(cfg, record=toy_run["record"])
    assert given == alone
    assert n_alone == 2
    assert passes[n_alone:] == [2 * cfg.grid.n_points]


def test_scaling_sweep_gates_through_convergence_probe(cesium, monkeypatch):
    # one public gate, on the record of the arrival stage the sweep runs
    staged, gated = [], []
    record, ensemble = object(), object()

    def fake_stage(cfg):
        staged.append(cfg)
        return record, ensemble

    def spy_probe(*args, **kwargs):
        gated.append((args, kwargs))
        return 0.0, 0.0

    def fake_passage(cfg, ensemble=None):
        v0 = cfg.packet.mean_velocity_v0
        return SimpleNamespace(std_tau=1e-3 * (7e-3 / v0) ** 1.5, total_probability=0.99)

    monkeypatch.setattr(precision, "arrival_stage", fake_stage)
    monkeypatch.setattr(precision, "convergence_probe", spy_probe)
    monkeypatch.setattr(precision, "passage_distribution", fake_passage)
    pl.scaling_sweep(np.array([10e-3, 3e-3]), CES_D, cesium)
    assert len(staged) == 1 and staged[0].packet.mean_velocity_v0 == 3e-3
    assert len(gated) == 1
    args, kwargs = gated[0]
    bound = dict(zip(("cfg", "record"), args), **kwargs)
    assert bound["cfg"] is staged[0] and bound["record"] is record


def test_scaling_sweep_input_validation(cesium):
    with pytest.raises(ConfigError):
        pl.scaling_sweep(np.array([5e-3]), CES_D, cesium)
    with pytest.raises(ConfigError):
        pl.scaling_sweep(np.array([5e-3, 5e-3]), CES_D, cesium)
    with pytest.raises(ConfigError):
        pl.scaling_sweep(np.array([-1e-3, 5e-3]), CES_D, cesium)


def test_scaling_sweep_mapper_wiring(cesium):
    # a stub mapper exercises ordering and assembly without running physics
    seen = []

    def stub_mapper(fn, points):
        for cfg, ensemble in points:
            assert ensemble is None  # nothing was gated
            seen.append(cfg.packet.mean_velocity_v0)
            yield (1e-3 * (7e-3 / cfg.packet.mean_velocity_v0) ** 1.5, 0.99)

    v0s = np.array([30e-3, 3e-3, 10e-3])  # deliberately unsorted
    res = pl.scaling_sweep(v0s, CES_D, cesium, gate_first=False, mapper=stub_mapper)
    assert list(res.v0) == sorted(v0s)
    assert seen == sorted(v0s)
    assert res.std_tau[0] > res.std_tau[-1]
    assert np.all(res.total_probability == 0.99)
    # the stub widths follow v0^(-3/2), i.e. exactly E^(-3/4)
    assert res.exponent == pytest.approx(-0.75, abs=1e-9)
    assert res.energy == pytest.approx(0.5 * cesium.mass * np.sort(v0s) ** 2)


def test_scaling_sweep_reuses_probed_reset_ensemble(cesium, monkeypatch):
    # the gated point gets the ensemble of the probe's coarse arrival run
    probed = object()
    arrivals = []

    def fake_record(c):
        arrivals.append(c.grid.n_points)
        t = np.linspace(0.0, 1.0, 2001)
        w1 = np.exp(-0.5 * ((t - 0.5) / 0.1) ** 2)
        return pl.DetectionRecord(
            times=t,
            survival_p0=np.ones_like(t),
            density_w1=w1,
            cumulative_detected=np.zeros_like(t),
        )

    seen = []

    def fake_passage(cfg, ensemble=None):
        seen.append(ensemble)
        v0 = cfg.packet.mean_velocity_v0
        return SimpleNamespace(std_tau=1e-3 * (7e-3 / v0) ** 1.5, total_probability=0.99)

    monkeypatch.setattr(
        "passagelab.precision.arrival_stage", lambda c: (fake_record(c), probed)
    )
    monkeypatch.setattr(
        "passagelab.precision._arrival_pass", lambda c: (fake_record(c), None, None)
    )
    monkeypatch.setattr("passagelab.precision.passage_distribution", fake_passage)
    res = pl.scaling_sweep(np.array([10e-3, 3e-3]), CES_D, cesium)
    assert len(arrivals) == 2  # the probe's coarse and fine runs
    assert seen == [probed, None]
    assert res.exponent == pytest.approx(-0.75, abs=1e-9)


def test_single_point_width_near_estimate(cesium):
    # measured std(G) at the reference velocity should sit within a factor two
    # of the closed-form estimate; the estimate is explicitly approximate
    plan = pl.optimal_plan(CES_D, cesium, CES_V0)
    cfg = pl.sweep_point_config(CES_V0, CES_D, cesium, n_entry=64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        dist = pl.passage_distribution(cfg)
    assert dist.total_probability > 0.9
    assert plan.delta_tau_opt / 2.0 < dist.std_tau < plan.delta_tau_opt * 2.0
