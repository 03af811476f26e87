"""Acceptance gate: every encoded reference number at its stated tolerance.

Each test records one summary line (printed after the run) and then asserts,
so a disagreement with a reference value fails loudly while still reporting
the measured numbers. Production-scale runs are shared session fixtures.
"""
import numpy as np
import pytest

import passagelab as pl
from conftest import A_FAST, A_INT, A_SLOW, DISTANCE_D

pytestmark = pytest.mark.acceptance


def _rel(measured: float, stated: float) -> float:
    return (measured - stated) / stated


def test_criterion_1_discrete_bath_matches_continuum(criterion_log, particle):
    # 15-mode bath, 50 nm packet at 1.79 m/s, detection window 100/omega_0
    omega_0 = 2.38e12
    bath = pl.DiscreteBathSpec(
        n_modes=15, omega_max=4.6 * omega_0, coupling_g=2.782e3, omega_0=omega_0
    )
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=50e-9, mean_velocity_v0=1.79)
    grid = pl.build_grid(-0.6e-6, 0.6e-6, 4096)
    delta_t = 100.0 / omega_0
    rcfg = pl.DiscreteResetConfig(
        bath=bath, packet=packet, delta_t=delta_t, n_time_samples=8192
    )
    disc = pl.discrete_reset_density(rcfg, grid, particle)
    rates = pl.continuum_rates(bath)
    cont = pl.continuum_reset_density(packet, particle, rates.decay_a, delta_t, grid)
    metrics = pl.compare_densities(
        disc, cont, exclusion=(-2.0 * packet.sigma_x, 2.0 * packet.sigma_x)
    )
    ok = metrics.l1_masked < 0.05
    criterion_log(
        "criterion 1 (discrete bath vs continuum reset density)",
        ok,
        f"masked L1 = {metrics.l1_masked:.2e} < 0.05, full L1 = {metrics.l1_full:.2e}",
    )
    assert ok


def test_criterion_2_closed_form_optimum(criterion_log, particle):
    plan = pl.optimal_plan(DISTANCE_D, particle, 7.17e-3)
    forced = pl.optimal_plan(DISTANCE_D, particle, 7.17e-3, delta_x=1e-6)
    # agreement to 3 significant figures = half a unit in the third digit
    ok = (
        abs(_rel(plan.delta_x_opt, 1.83e-6)) < 5e-3
        and abs(_rel(plan.a_opt, 1.959e3)) < 5e-3
        and abs(_rel(forced.a_opt, 3.585e3)) < 5e-3
    )
    criterion_log(
        "criterion 2 (closed-form optimal width and rate)",
        ok,
        f"dx_opt = {plan.delta_x_opt:.4e} m vs 1.83e-6, "
        f"a_opt = {plan.a_opt:.4f} 1/s vs 1.959e3, "
        f"a_opt(dx=1um) = {forced.a_opt:.1f} 1/s vs 3.585e3",
    )
    assert ok


def test_criterion_3_first_detection_peak_times(criterion_log, ivb_study):
    t_fast = pl.peak_time(ivb_study["fast"]["record"])
    t_slow = pl.peak_time(ivb_study["slow"]["record"])
    dev_fast = _rel(t_fast, 0.041e-3)
    dev_slow = _rel(t_slow, 0.167e-3)
    ok = abs(dev_fast) < 0.15 and abs(dev_slow) < 0.15
    criterion_log(
        "criterion 3 (first-detection peak times, +-15%)",
        ok,
        f"fast A={A_FAST:.4e}: peak {t_fast * 1e3:.4f} ms vs 0.041 ms "
        f"({dev_fast:+.1%}); slow A={A_SLOW:.4e}: peak {t_slow * 1e3:.4f} ms "
        f"vs 0.167 ms ({dev_slow:+.1%})",
    )
    assert ok, "slow-detector peak disagrees with the encoded reference time"


def test_criterion_4_passage_width_ordering(criterion_log, ivb_study):
    s = {tag: ivb_study[tag]["dist"] for tag in ("slow", "int", "fast")}
    stds = {tag: d.std_tau for tag, d in s.items()}
    totals = {tag: d.total_probability for tag, d in s.items()}
    mean_int = s["int"].mean_tau
    transit = DISTANCE_D / 7.17e-3
    ordering = stds["int"] < stds["slow"] and stds["int"] < stds["fast"]
    totals_ok = all(v > 0.95 for v in totals.values())
    mean_ok = abs(_rel(mean_int, transit)) < 0.10
    ok = ordering and totals_ok and mean_ok
    criterion_log(
        "criterion 4 (passage width ordering and normalization)",
        ok,
        f"std slow/int/fast = {stds['slow']:.4e}/{stds['int']:.4e}/"
        f"{stds['fast']:.4e} s (int < fast {stds['int'] < stds['fast']}, "
        f"int < slow {stds['int'] < stds['slow']}); totals "
        f"{totals['slow']:.3f}/{totals['int']:.3f}/{totals['fast']:.3f} > 0.95 "
        f"{totals_ok}; mean(int) {mean_int * 1e3:.2f} ms vs {transit * 1e3:.1f} ms "
        f"({_rel(mean_int, transit):+.1%})",
    )
    assert ok, "intermediate-rate width is not strictly the smallest of the three"


def test_criterion_5_width_energy_scaling(criterion_log, sweep_result):
    res = sweep_result
    ok = -0.85 <= res.exponent <= -0.65 and np.all(res.total_probability > 0.9)
    criterion_log(
        "criterion 5 (width vs energy scaling exponent)",
        ok,
        f"fitted exponent {res.exponent:.4f} in [-0.85, -0.65] over v0 = "
        f"{res.v0[0] * 1e3:.0f}-{res.v0[-1] * 1e3:.0f} mm/s, "
        f"widths {res.std_tau[0]:.2e}-{res.std_tau[-1]:.2e} s",
    )
    assert ok


def test_criterion_6_property_suite(criterion_log, particle, ivb_study, toy_run):
    checks = []

    # free propagation conserves the norm to 1e-12 per step
    grid = pl.build_grid(-30e-6, 200e-6, 4096)
    packet = pl.GaussianPacketSpec(center_x0=20e-6, sigma_x=2e-6, mean_velocity_v0=7.17e-3)
    psi0 = pl.gaussian_free_state(packet, particle, 0.0, grid)
    free_pot = pl.DetectorSpec(
        profile=pl.RectangularProfile(0.0, 20e-6), decay_a=0.0
    ).potential_field(grid)
    n_steps = 200
    psi_t, _ = pl.evolve_conditional(psi0, free_pot, particle, n_steps * 1e-6, 1e-6)
    drift_per_step = abs(psi_t.norm_sq() - psi0.norm_sq()) / n_steps
    checks.append(("unitarity/step", drift_per_step, drift_per_step < 1e-12))

    # P0 + cumulative detection = 1 within 1e-5 on the production record
    rec = ivb_study["int"]["record"]
    budget = np.max(np.abs(rec.survival_p0 + rec.cumulative_detected - 1.0))
    checks.append(("P0+cum=1", budget, budget < 1e-5))

    # reset-state squared norms reproduce w1 at the entry times to 1e-12
    ens = ivb_study["int"]["ensemble"]
    cfg = ivb_study["int"]["cfg"]
    idx = np.round((ens.entry_times - rec.times[0]) / cfg.dt).astype(int)
    rel = np.max(np.abs(ens.norms_sq / rec.density_w1[idx] - 1.0))
    checks.append(("reset norm identity", rel, rel < 1e-12))

    # w1 equals -dP0/dt at the peak to 1e-3
    i = int(np.argmax(rec.density_w1))
    deriv = (rec.survival_p0[i - 1] - rec.survival_p0[i + 1]) / (2.0 * cfg.dt)
    rel_w1 = abs(deriv / rec.density_w1[i] - 1.0)
    checks.append(("w1 = -dP0/dt", rel_w1, rel_w1 < 1e-3))

    # uniform sensitivity decays exactly exponentially
    a_uni = 1e4
    uni_pot = pl.DetectorSpec(
        profile=pl.RectangularProfile(grid.x_min - 1.0, grid.x_max + 1.0), decay_a=a_uni
    ).potential_field(grid)
    _, rec_uni = pl.evolve_conditional(psi0, uni_pot, particle, 300e-6, 1e-6)
    expected = psi0.norm_sq() * np.exp(-a_uni * (rec_uni.times - rec_uni.times[0]))
    uni_err = np.max(np.abs(rec_uni.survival_p0 / expected - 1.0))
    checks.append(("uniform decay", uni_err, uni_err < 1e-8))

    # Heisenberg bound on every produced reset state and the free packet
    hbar = particle.hbar
    worst = np.inf
    for ens_k, cfg_k in ((toy_run["ensemble"], toy_run["cfg"]), (ens, cfg)):
        for row, t in zip(ens_k.states, ens_k.entry_times):
            psi = pl.WaveFunction(grid=cfg_k.grid, amplitudes=row, time=float(t))
            m = pl.observables(psi, hbar=cfg_k.particle.hbar)
            worst = min(worst, m.std_x * m.std_p / (0.5 * hbar))
    m0 = pl.observables(psi0, hbar=hbar)
    worst = min(worst, m0.std_x * m0.std_p / (0.5 * hbar))
    checks.append(("Heisenberg bound", worst, worst >= 1.0 - 1e-9))

    # discrete bath correlation approaches the continuum one as 1/N
    omega_0 = 2.38e12
    taus = np.linspace(0.0, 10.0 / (4.6 * omega_0), 200)

    def bath_err(n: int) -> float:
        b = pl.DiscreteBathSpec(
            n_modes=n, omega_max=4.6 * omega_0, coupling_g=2.782e3, omega_0=omega_0
        )
        return float(
            max(
                abs(pl.kappa(b, t, mode="discrete") - pl.kappa(b, t, mode="continuum"))
                for t in taus
            )
        )

    e32, e64 = bath_err(32), bath_err(64)
    ratio = e32 / e64
    checks.append(("kappa O(1/N)", ratio, 1.6 < ratio < 2.4))

    ok = all(c[2] for c in checks)
    detail = "; ".join(f"{name} {val:.2e} {'ok' if good else 'BAD'}" for name, val, good in checks)
    criterion_log("criterion 6 (property suite)", ok, detail)
    assert ok


def test_figs_5_6_reset_momentum_broadening(criterion_log, ivb_study):
    # fast-detector reset at 0.041 ms vs slow-detector reset at 0.167 ms
    def std_p_at(tag: str, t_want: float) -> tuple[float, float]:
        ens = ivb_study[tag]["ensemble"]
        cfg = ivb_study[tag]["cfg"]
        i = int(np.argmin(np.abs(ens.entry_times - t_want)))
        psi = pl.WaveFunction(
            grid=cfg.grid,
            amplitudes=ens.states[i],
            time=float(ens.entry_times[i]),
        )
        return pl.observables(psi, hbar=cfg.particle.hbar).std_p, float(
            ens.entry_times[i]
        )

    p_fast, t1 = std_p_at("fast", 0.041e-3)
    p_slow, t2 = std_p_at("slow", 0.167e-3)
    ratio = p_fast / p_slow
    ok = ratio >= 3.0
    criterion_log(
        "figures 5-6 (reset momentum broadening)",
        ok,
        f"std_p fast({t1 * 1e3:.4f} ms) = {p_fast:.3e}, "
        f"slow({t2 * 1e3:.4f} ms) = {p_slow:.3e}, ratio {ratio:.2f} >= 3",
    )
    assert ok
