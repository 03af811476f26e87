"""Detector profiles, bath rates, memory kernel, and the reset operation."""
import numpy as np
import pytest

import passagelab as pl
from passagelab.core import HBAR

OMEGA_0 = 2.38e12
OMEGA_M = 4.6 * OMEGA_0
G = 2.782e3


def _bath(n_modes=15):
    return pl.DiscreteBathSpec(
        n_modes=n_modes, omega_max=OMEGA_M, coupling_g=G, omega_0=OMEGA_0
    )


def test_rectangular_profile_left_closed():
    grid = pl.build_grid(0.0, 10e-6, 1024)
    prof = pl.RectangularProfile(2e-6, 4e-6)
    chi = prof.chi(grid)
    x = grid.x
    assert np.all(chi[(x >= 2e-6) & (x < 4e-6)] == 1.0)
    assert np.all(chi[(x < 2e-6) | (x >= 4e-6)] == 0.0)


def test_rectangular_profile_validation():
    with pytest.raises(pl.ConfigError):
        pl.RectangularProfile(4e-6, 2e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_detector_rejects_bad_decay_rate(bad):
    # NaN < 0 is False, so a NaN rate used to construct
    with pytest.raises(pl.ConfigError, match=f"^decay_a must be >= 0 and finite, got {bad}$"):
        pl.DetectorSpec(profile=pl.RectangularProfile(0.0, 20e-6), decay_a=bad)


def test_continuum_rates_closed_forms():
    rates = pl.continuum_rates(_bath())
    # A = 2 pi G^2 omega_0 / omega_M
    a_expected = 2.0 * np.pi * G**2 * OMEGA_0 / OMEGA_M
    assert rates.decay_a == pytest.approx(a_expected, rel=1e-12)
    assert rates.decay_a == pytest.approx(1.0571492061166039e7, rel=1e-12)
    # delta = 2 G^2 [ (omega_0/omega_M) ln(omega_0/(omega_M - omega_0)) - 1 ]
    d_expected = 2.0 * G**2 * (
        (OMEGA_0 / OMEGA_M) * np.log(OMEGA_0 / (OMEGA_M - OMEGA_0)) - 1.0
    )
    assert rates.shift == pytest.approx(d_expected, rel=1e-12)
    assert rates.shift == pytest.approx(-1.978940375624606e7, rel=1e-12)
    assert rates.correlation_time == pytest.approx(1.0 / OMEGA_0, rel=1e-12)


def test_continuum_rates_require_omega_max_above_omega_0():
    with pytest.raises(pl.ConfigError):
        pl.continuum_rates(
            pl.DiscreteBathSpec(
                n_modes=5, omega_max=0.5 * OMEGA_0, coupling_g=G, omega_0=OMEGA_0
            )
        )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega_0", [0.0, -OMEGA_0])
def test_continuum_rates_require_positive_omega_0(omega_0):
    # 0 used to divide by zero and a negative value to warn from np.log
    bath = pl.DiscreteBathSpec(n_modes=5, omega_max=OMEGA_M, coupling_g=G, omega_0=omega_0)
    with pytest.raises(pl.ConfigError, match=f"need omega_0 > 0, got {omega_0}"):
        pl.continuum_rates(bath)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_modes", 2.5, "n_modes must be an integer, got 2.5"),
        ("n_modes", True, "n_modes must be an integer, got True"),
        ("n_modes", 0, "n_modes must be >= 1, got 0"),
        ("omega_max", float("nan"), "omega_max must be positive and finite, got nan"),
        ("omega_max", float("inf"), "omega_max must be positive and finite, got inf"),
        ("omega_max", -1.0, "omega_max must be positive and finite, got -1.0"),
        ("coupling_g", float("nan"), "coupling_g must be finite, got nan"),
        ("omega_0", float("nan"), "omega_0 must be finite, got nan"),
        ("omega_0", float("-inf"), "omega_0 must be finite, got -inf"),
    ],
)
def test_bath_rejects_bad_fields(field, value, message):
    fields = dict(n_modes=15, omega_max=OMEGA_M, coupling_g=G, omega_0=OMEGA_0)
    fields[field] = value
    with pytest.raises(pl.ConfigError) as err:
        pl.DiscreteBathSpec(**fields)
    assert str(err.value) == message


def test_bath_mode_layout():
    bath = _bath(n_modes=15)
    freqs = bath.mode_frequencies()
    assert len(freqs) == 15
    assert freqs[0] == pytest.approx(OMEGA_M / 15)
    assert freqs[-1] == pytest.approx(OMEGA_M)
    # |g_n|^2 = G^2 omega_n / N
    assert np.allclose(bath.coupling_sq(), G**2 * freqs / 15)


def test_kappa_discrete_brute_force():
    # independent evaluation: explicit python loop over modes
    bath = _bath(n_modes=7)
    freqs = bath.mode_frequencies()
    for tau in (0.0, 1e-13, 7.7e-13, 5e-12):
        brute = 0.0 + 0.0j
        for w_n in freqs:
            g_sq = G**2 * w_n / 7
            brute += g_sq * np.exp(1j * (OMEGA_0 - w_n) * tau)
        assert pl.kappa(bath, tau, mode="discrete") == pytest.approx(brute, rel=1e-10)


def test_kappa_zero_values():
    bath = _bath(n_modes=15)
    # sum over the linear ramp: kappa_N(0) = omega_M G^2 (N+1) / (2N)
    assert pl.kappa(bath, 0.0, mode="discrete") == pytest.approx(
        OMEGA_M * G**2 * 16.0 / 30.0, rel=1e-12
    )
    assert pl.kappa(bath, 0.0, mode="continuum") == pytest.approx(
        OMEGA_M * G**2 / 2.0, rel=1e-12
    )


def test_kappa_small_tau_branch_continuous():
    bath = _bath()
    t_edge = 1e-3 / OMEGA_M
    lo = pl.kappa(bath, t_edge * 0.999, mode="continuum")
    hi = pl.kappa(bath, t_edge * 1.001, mode="continuum")
    assert abs(hi - lo) / abs(lo) < 1e-4


def test_kappa_continuum_decays_beyond_correlation_time():
    bath = _bath()
    k0 = abs(pl.kappa(bath, 0.0, mode="continuum"))
    k_late = abs(pl.kappa(bath, 20.0 / OMEGA_0, mode="continuum"))
    assert k_late < 0.05 * k0


def test_kappa_discrete_converges_to_continuum_like_1_over_n():
    taus = np.array([0.0, 2e-13, 6e-13])
    errs = []
    for n in (20, 40):
        bath = _bath(n_modes=n)
        e = [
            abs(pl.kappa(bath, t, mode="discrete") - pl.kappa(bath, t, mode="continuum"))
            for t in taus
        ]
        errs.append(np.array(e))
    ratio = errs[0] / errs[1]
    assert np.all((1.6 < ratio) & (ratio < 2.4))


def test_kappa_negative_tau_rejected():
    with pytest.raises(pl.ConfigError):
        pl.kappa(_bath(), -1e-13)


def test_kappa_nan_tau_and_unknown_mode_rejected():
    for mode in ("discrete", "continuum"):
        with pytest.raises(pl.ConfigError, match="tau >= 0, got nan"):
            pl.kappa(_bath(), float("nan"), mode=mode)
        with pytest.raises(pl.ConfigError, match="tau >= 0, got inf"):
            pl.kappa(_bath(), float("inf"), mode=mode)
    with pytest.raises(pl.ConfigError, match="unknown kappa mode"):
        pl.kappa(_bath(), 0.0, mode="lattice")


def test_potential_field_uses_chi_squared():
    grid = pl.build_grid(0.0, 10e-6, 512)
    det = pl.DetectorSpec(
        profile=pl.RectangularProfile(2e-6, 4e-6), decay_a=3e3, shift=-1e3
    )
    pot = det.potential_field(grid)
    chi = det.profile.chi(grid)
    # chi is a 0/1 indicator, so A*chi and A*chi^2 are the same bits
    assert np.array_equal(chi, chi**2)
    assert np.array_equal(pot.decay_rate, 3e3 * chi**2)
    assert np.array_equal(pot.real_shift, -1e3 * chi**2)


def test_reset_norm_identity(toy_run):
    # || sqrt(A) chi psi ||^2 == w1(t) to 1e-12 relative, on a mid-run state
    cfg = toy_run["cfg"]
    det1 = cfg.detector1
    pot = det1.potential_field(cfg.grid)
    psi0 = pl.gaussian_free_state(
        cfg.packet, cfg.particle, toy_run["record"].times[0], cfg.grid
    )
    t_mid = 5e-4
    psi_mid, record = pl.evolve_conditional(
        psi0, pot, cfg.particle, t_final=t_mid, dt=cfg.dt
    )
    reset_state = pl.reset(psi_mid, det1)
    chi = det1.profile.chi(cfg.grid)
    w1_direct = det1.decay_a * float(
        np.sum(chi**2 * np.abs(psi_mid.amplitudes) ** 2) * cfg.grid.dx
    )
    assert reset_state.norm_sq() == pytest.approx(w1_direct, rel=1e-12)
    assert reset_state.norm_sq() == pytest.approx(record.density_w1[-1], rel=1e-9)


def test_reset_zero_overlap_raises():
    particle = pl.cesium()
    grid = pl.build_grid(-30e-6, 200e-6, 2048)
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=0.0)
    psi = pl.gaussian_free_state(packet, particle, 0.0, grid)
    far_det = pl.DetectorSpec(
        profile=pl.RectangularProfile(150e-6, 160e-6), decay_a=1e3
    )
    with pytest.raises(pl.ZeroOverlapError):
        pl.reset(psi, far_det)


def test_heisenberg_bound_on_reset_states(toy_run):
    # every produced state satisfies std_x * std_p >= hbar/2
    ens = toy_run["ensemble"]
    grid = toy_run["cfg"].grid
    hbar = toy_run["cfg"].particle.hbar
    for i in range(0, len(ens.entry_times), 16):
        psi = pl.WaveFunction(
            grid=grid,
            amplitudes=ens.states[i] / np.sqrt(ens.norms_sq[i]),
            time=ens.entry_times[i],
        )
        mom = pl.observables(psi, hbar=hbar)
        assert mom.std_x * mom.std_p >= 0.5 * hbar * (1.0 - 1e-9)
