"""Grids, packets, and observables against closed-form values."""
import numpy as np
import pytest

import passagelab as pl
from passagelab.core import HBAR, CESIUM_MASS, _free_packet


def test_grid_spacing_exact():
    grid = pl.build_grid(-30e-6, 200e-6, 8192)
    assert grid.dx == 230e-6 / 8192  # 2.8076171875e-8 exactly
    assert grid.n_points == 8192
    assert len(grid.x) == 8192
    assert grid.x[0] == -30e-6
    assert np.allclose(np.diff(grid.x), grid.dx)


def test_grid_wavenumbers_match_fft_convention():
    grid = pl.build_grid(-1e-6, 1e-6, 256)
    expected = 2.0 * np.pi * np.fft.fftfreq(256, d=grid.dx)
    assert np.allclose(grid.k, expected)
    assert grid.dk == pytest.approx(2.0 * np.pi / (256 * grid.dx))


def test_grid_validation():
    with pytest.raises(pl.GridError):
        pl.build_grid(0.0, 1e-6, 1000)  # not a power of two
    with pytest.raises(pl.GridError):
        pl.build_grid(0.0, 1e-6, 1)
    with pytest.raises(pl.GridError):
        pl.build_grid(1e-6, 1e-6, 64)  # empty span


def test_cesium_constants():
    p = pl.cesium()
    assert p.mass == CESIUM_MASS == 2.2069e-25
    assert p.hbar == HBAR == 1.054571817e-34


def test_gaussian_norm_and_moments():
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
    grid = pl.build_grid(-30e-6, 200e-6, 8192)
    particle = pl.cesium()
    psi = pl.gaussian_free_state(packet, particle, 0.0, grid)
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)
    mom = pl.observables(psi, hbar=particle.hbar)
    assert mom.mean_x == pytest.approx(0.0, abs=1e-12)
    assert mom.std_x == pytest.approx(1e-6, rel=1e-9)
    assert mom.mean_p == pytest.approx(particle.mass * 7.17e-3, rel=1e-9)
    # minimal uncertainty packet: std_p = hbar / (2 sigma_x)
    assert mom.std_p == pytest.approx(HBAR / 2e-6, rel=1e-6)
    assert mom.std_p == pytest.approx(5.272859085e-29, rel=1e-9)


def test_gaussian_spreading_closed_form():
    # sigma(t) = sigma0 sqrt(1 + (hbar t / 2 m sigma0^2)^2)
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
    particle = pl.cesium()
    grid = pl.build_grid(-30e-6, 200e-6, 8192)
    t = 1e-3
    s_expected = 1e-6 * np.sqrt(1.0 + (HBAR * t / (2.0 * CESIUM_MASS * 1e-12)) ** 2)
    assert s_expected == pytest.approx(1.0281467109631199e-06, rel=1e-12)
    psi = pl.gaussian_free_state(packet, particle, t, grid)
    mom = pl.observables(psi, hbar=particle.hbar)
    assert mom.std_x == pytest.approx(s_expected, rel=1e-9)
    assert mom.mean_x == pytest.approx(7.17e-3 * t, rel=1e-9)
    assert pl.free_sigma_x(packet, particle, t) == pytest.approx(s_expected, rel=1e-12)
    assert pl.free_sigma_x(packet, particle, -t) == pytest.approx(s_expected, rel=1e-12)


def test_momentum_amplitudes_parseval_and_mean():
    packet = pl.GaussianPacketSpec(center_x0=5e-6, sigma_x=2e-6, mean_velocity_v0=0.01)
    particle = pl.cesium()
    grid = pl.build_grid(-40e-6, 60e-6, 4096)
    psi = pl.gaussian_free_state(packet, particle, 0.0, grid)
    phi = pl.momentum_amplitudes(psi)
    norm_x = psi.norm_sq()
    norm_k = float(np.sum(np.abs(phi) ** 2) * grid.dk)
    assert norm_k == pytest.approx(norm_x, rel=1e-12)
    # |phi(k)|^2 is a Gaussian centered at m v0 / hbar with std 1/(2 sigma_x)
    k_mean = float(np.sum(grid.k * np.abs(phi) ** 2) * grid.dk / norm_k)
    assert k_mean == pytest.approx(particle.mass * 0.01 / HBAR, rel=1e-9)


def test_gaussian_free_state_carries_spatial_phase():
    # the momentum distribution must not depend on time under free evolution
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
    particle = pl.cesium()
    grid = pl.build_grid(-30e-6, 200e-6, 8192)
    phi0 = np.abs(pl.momentum_amplitudes(pl.gaussian_free_state(packet, particle, 0.0, grid)))
    phi1 = np.abs(pl.momentum_amplitudes(pl.gaussian_free_state(packet, particle, 2e-3, grid)))
    assert np.max(np.abs(phi1 - phi0)) / np.max(phi0) < 1e-9


def test_free_state_equals_closed_form_on_a_time_column():
    # the discrete oracle evaluates the closed form for a column of times on
    # the points x >= 0; each row must be the scalar-time state bit for bit,
    # also at the negative start time of an arrival pass
    packet = pl.GaussianPacketSpec(center_x0=-1e-6, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
    particle = pl.cesium()
    grid = pl.build_grid(-30e-6, 200e-6, 8192)
    times = [-8.54e-4, 0.0, 4.185e-11, 1.3e-7, 2e-4, 1.7e-3, 6.1e-3]
    i0 = int(np.searchsorted(grid.x, 0.0))
    column = _free_packet(packet, particle, np.array(times)[:, None], grid.x[i0:])
    for t, row in zip(times, column):
        psi = pl.gaussian_free_state(packet, particle, t, grid)
        assert np.array_equal(psi.amplitudes[i0:], row)


def _one_expression_packet(packet, particle, t, x):
    m, hb = particle.mass, particle.hbar
    s0 = packet.sigma_x
    k0 = m * packet.mean_velocity_v0 / hb
    alpha = 1.0 + 1j * (hb * t / (2.0 * m * s0 * s0))
    xc = x - packet.center_x0 - packet.mean_velocity_v0 * t
    return (
        (2.0 * np.pi * s0 * s0) ** -0.25
        / np.sqrt(alpha)
        * np.exp(
            -xc * xc / (4.0 * s0 * s0 * alpha)
            + 1j * k0 * (x - packet.center_x0)
            - 1j * (hb * k0 * k0 * t / (2.0 * m))
        )
    )


def test_free_packet_into_buffers_rounds_like_one_expression():
    # the free packet, returned or written into a strided view of a zeroed
    # buffer (as the discrete oracle does), has the bits of the closed form
    # written as one expression, at negative times too
    packet = pl.GaussianPacketSpec(center_x0=-1e-6, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
    particle = pl.cesium()
    x = pl.build_grid(-30e-6, 200e-6, 1024).x[131:]
    column = np.array([-8.54e-4, 0.0, 4.185e-11, 1.3e-7, 2e-4, 6.1e-3])[:, None]
    for t in (-8.54e-4, 0.0, 1.3e-7, column):
        ref = _one_expression_packet(packet, particle, t, x)
        assert _free_packet(packet, particle, t, x).tobytes() == ref.tobytes()
    rows = np.zeros((len(column), 1024), dtype=complex)
    rows[:, 131:] = _free_packet(packet, particle, column, x)
    assert rows[:, 131:].tobytes() == ref.tobytes()
    assert not rows[:, :131].any()


def test_grid_too_narrow_raises():
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=5e-6, mean_velocity_v0=0.0)
    particle = pl.cesium()
    grid = pl.build_grid(-10e-6, 10e-6, 256)
    with pytest.raises(pl.GridTooNarrowError):
        pl.gaussian_free_state(packet, particle, 0.0, grid)


def test_observables_zero_norm_raises():
    grid = pl.build_grid(-1e-6, 1e-6, 64)
    psi = pl.WaveFunction(grid=grid, amplitudes=np.zeros(64, dtype=complex), time=0.0)
    with pytest.raises(pl.ZeroNormError):
        pl.observables(psi, hbar=HBAR)


def test_wavefunction_amplitudes_read_only():
    grid = pl.build_grid(-1e-6, 1e-6, 64)
    psi = pl.WaveFunction(grid=grid, amplitudes=np.ones(64, dtype=complex), time=0.0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
def test_wavefunction_rejects_non_finite_amplitudes(bad):
    grid = pl.build_grid(-1e-6, 1e-6, 64)
    amps = np.ones(64, dtype=complex)
    amps[7] = bad
    with pytest.raises(pl.ConfigError, match="amplitudes must be finite"):
        pl.WaveFunction(grid=grid, amplitudes=amps, time=0.0)


def test_wavefunction_length_must_match_grid():
    grid = pl.build_grid(-1e-6, 1e-6, 64)
    with pytest.raises(pl.GridError):
        pl.WaveFunction(grid=grid, amplitudes=np.ones(32, dtype=complex), time=0.0)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("center_x0", np.nan),
        ("center_x0", -np.inf),
        ("mean_velocity_v0", np.nan),
        ("mean_velocity_v0", np.inf),
        ("sigma_x", np.nan),
    ],
)
def test_packet_rejects_non_finite_fields(field, bad):
    # a NaN centre or velocity used to construct, then fail far downstream
    # (non-finite amplitudes, a NaN t_start, an all-NaN Kijowski density)
    fields = dict(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3)
    fields[field] = bad
    with pytest.raises(pl.ConfigError, match=f"^{field} must be .*finite, got {bad}$"):
        pl.GaussianPacketSpec(**fields)


def test_packet_validation():
    with pytest.raises(pl.ConfigError):
        pl.GaussianPacketSpec(center_x0=0.0, sigma_x=0.0, mean_velocity_v0=1.0)
    with pytest.raises(pl.ConfigError):
        pl.ParticleSpec(mass=0.0)
