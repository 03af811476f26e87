"""Discrete-bath reset density against an independent brute-force quadrature
and against the continuum profile."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import passagelab as pl
from passagelab import discrete_oracle
from passagelab.core import _block_rows, _tail_gate
from passagelab.discrete_oracle import _MAX_BLOCK_NODES

OMEGA_0 = 2.38e12
OMEGA_M = 4.6 * OMEGA_0
G = 2.782e3
DELTA_T = 4.185e-11


def _bath(n_modes):
    return pl.DiscreteBathSpec(
        n_modes=n_modes, omega_max=OMEGA_M, coupling_g=G, omega_0=OMEGA_0
    )


def _setup(n_points=4096):
    particle = pl.cesium()
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=50e-9, mean_velocity_v0=1.79)
    grid = pl.build_grid(-0.6e-6, 0.6e-6, n_points)
    return particle, packet, grid


def _brute_force_density(bath, packet, particle, grid, delta_t, n_t=1200):
    """First-order detection amplitude by direct uniform-trapezoid quadrature.

    For each time sample: project the analytic free packet onto x >= 0, then
    free-propagate the projection for the remaining time with a plain FFT.
    Deliberately avoids the package's accumulation scheme.
    """
    m, hb = particle.mass, particle.hbar
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    theta = (grid.x >= 0.0).astype(float)
    freqs = bath.mode_frequencies()
    g_sq = bath.coupling_sq()
    t_nodes = np.linspace(0.0, delta_t, n_t)
    w_quad = np.full(n_t, delta_t / (n_t - 1))
    w_quad[0] *= 0.5
    w_quad[-1] *= 0.5
    S = np.zeros((len(freqs), grid.n_points), dtype=complex)
    for t, w in zip(t_nodes, w_quad):
        psi_t = pl.gaussian_free_state(packet, particle, t, grid).amplitudes
        projected = theta * psi_t
        tail = np.fft.ifft(
            np.exp(-1j * hb * k**2 * (delta_t - t) / (2.0 * m)) * np.fft.fft(projected)
        )
        for l, w_l in enumerate(freqs):
            S[l] += w * np.exp(1j * (w_l - OMEGA_0) * t) * tail
    dens = np.zeros(grid.n_points)
    for l in range(len(freqs)):
        dens += g_sq[l] * np.abs(S[l]) ** 2
    return dens / delta_t


def test_single_mode_matches_brute_force_quadrature():
    particle, packet, grid = _setup(n_points=2048)
    bath = _bath(1)
    cfg = pl.DiscreteResetConfig(
        bath=bath, packet=packet, delta_t=DELTA_T, n_time_samples=4096
    )
    module = pl.discrete_reset_density(cfg, grid, particle)
    brute = _brute_force_density(bath, packet, particle, grid, DELTA_T)
    a = module.values / np.trapezoid(module.values, grid.x)
    b = brute / np.trapezoid(brute, grid.x)
    l1 = np.trapezoid(np.abs(a - b), grid.x)
    assert l1 < 1e-4


def test_fifteen_mode_comparison_close_outside_center():
    particle, packet, grid = _setup()
    cfg = pl.DiscreteResetConfig(
        bath=_bath(15), packet=packet, delta_t=DELTA_T, n_time_samples=8192
    )
    disc = pl.discrete_reset_density(cfg, grid, particle)
    rates = pl.continuum_rates(_bath(15))
    cont = pl.continuum_reset_density(packet, particle, rates.decay_a, DELTA_T, grid)
    metrics = pl.compare_densities(
        disc, cont, exclusion=(-2 * packet.sigma_x, 2 * packet.sigma_x)
    )
    assert metrics.l1_masked < 0.05
    assert metrics.l1_full < 0.05


def test_discrepancy_decreases_with_mode_count():
    # few-mode floor: the N=60 bath must track the continuum strictly better
    # than N=5, and every mode count stays within the coarse 0.05 budget
    particle, packet, grid = _setup()
    l1 = {}
    for n in (5, 15, 60):
        cfg = pl.DiscreteResetConfig(
            bath=_bath(n), packet=packet, delta_t=DELTA_T, n_time_samples=8192
        )
        disc = pl.discrete_reset_density(cfg, grid, particle)
        rates = pl.continuum_rates(_bath(n))
        cont = pl.continuum_reset_density(packet, particle, rates.decay_a, DELTA_T, grid)
        l1[n] = pl.compare_densities(disc, cont).l1_full
    assert l1[60] < l1[5]
    assert all(v < 0.05 for v in l1.values())


def test_time_quadrature_converged():
    particle, packet, grid = _setup(n_points=2048)
    outs = []
    for samples in (4096, 8192):
        cfg = pl.DiscreteResetConfig(
            bath=_bath(5), packet=packet, delta_t=DELTA_T, n_time_samples=samples
        )
        outs.append(pl.discrete_reset_density(cfg, grid, particle).values)
    scale = np.max(outs[1])
    assert np.max(np.abs(outs[0] - outs[1])) / scale < 1e-5


def test_undersampled_time_grid_rejected():
    particle, packet, grid = _setup(n_points=1024)
    with pytest.raises(pl.ConfigError):
        pl.DiscreteResetConfig(
            bath=_bath(15), packet=packet, delta_t=DELTA_T, n_time_samples=1024
        )


@pytest.mark.parametrize("delta_t", [float("nan"), float("inf"), 0.0, -DELTA_T])
def test_bad_window_rejected(delta_t):
    _, packet, _ = _setup()
    with pytest.raises(pl.ConfigError) as err:
        pl.DiscreteResetConfig(bath=_bath(15), packet=packet, delta_t=delta_t)
    assert str(err.value) == f"delta_t must be positive and finite, got {delta_t}"


@pytest.mark.parametrize("n_time_samples", [2.5, 8192.0, True, "8192"])
def test_non_integer_time_samples_rejected(n_time_samples):
    _, packet, _ = _setup()
    with pytest.raises(pl.ConfigError) as err:
        pl.DiscreteResetConfig(
            bath=_bath(15), packet=packet, delta_t=DELTA_T, n_time_samples=n_time_samples
        )
    assert str(err.value) == f"n_time_samples must be an integer, got {n_time_samples!r}"


@pytest.mark.parametrize("n_time_samples", [1, 0, -3])
def test_fewer_than_two_time_samples_rejected(n_time_samples):
    _, packet, _ = _setup()
    with pytest.raises(pl.ConfigError, match=f"got {n_time_samples}$"):
        pl.DiscreteResetConfig(
            bath=_bath(15), packet=packet, delta_t=DELTA_T, n_time_samples=n_time_samples
        )


def _per_node_density(cfg, grid, particle):
    """The oracle's quadrature one node at a time: free state, projection,
    FFT, back-propagation phase, then a rank-1 update of every mode."""
    bath = cfg.bath
    hb, m = particle.hbar, particle.mass
    w_l = bath.mode_frequencies()
    theta = grid.x >= 0.0
    nt = cfg.n_time_samples
    ts = np.linspace(0.0, cfg.delta_t, nt)
    weights = np.full(nt, cfg.delta_t / (nt - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5
    acc = np.zeros((bath.n_modes, grid.n_points), dtype=complex)
    kin_phase = hb * grid.k**2 / (2.0 * m)
    for t, w in zip(ts, weights):
        psi_t = pl.gaussian_free_state(cfg.packet, particle, t, grid).amplitudes.copy()
        psi_t[~theta] = 0.0
        phi = np.fft.fft(psi_t) * np.exp(1j * kin_phase * t)
        acc += (w * np.exp(1j * (w_l - bath.omega_0) * t))[:, None] * phi[None, :]
    acc *= np.exp(-1j * kin_phase * cfg.delta_t)[None, :]
    s_l = np.fft.ifft(acc, axis=-1)
    return np.tensordot(bath.coupling_sq(), np.abs(s_l) ** 2, axes=(0, 0)) / cfg.delta_t


@pytest.mark.parametrize(
    "x_span, center",
    [((-0.45e-6, 0.75e-6), 0.0), ((0.1e-6, 1.3e-6), 0.7e-6)],
    ids=["x>=0 from mid-grid", "grid wholly in x>=0"],
)
def test_blocked_oracle_matches_per_node_loop(x_span, center):
    particle = pl.cesium()
    packet = pl.GaussianPacketSpec(center_x0=center, sigma_x=50e-9, mean_velocity_v0=1.79)
    grid = pl.build_grid(*x_span, 2048)
    # two and a half blocks, so the last block is a partial one
    nt = 5 * min(_block_rows(grid.n_points), _MAX_BLOCK_NODES) // 2
    cfg = pl.DiscreteResetConfig(
        bath=_bath(15), packet=packet, delta_t=DELTA_T / 8, n_time_samples=nt
    )
    blocked = pl.discrete_reset_density(cfg, grid, particle).values
    ref = _per_node_density(cfg, grid, particle)
    assert np.max(np.abs(blocked - ref)) <= 1e-12 * np.max(ref)


def test_packet_leaving_grid_late_in_window_raises():
    # inside the grid at t=0 (tail 1e-12) but 1.7 sigma further right by
    # delta_t, past the 1e-10 tail gate about 40% into the window
    particle = pl.cesium()
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=50e-9, mean_velocity_v0=2e3)
    grid = pl.build_grid(-0.6e-6, 7 * packet.sigma_x, 1024)
    pl.gaussian_free_state(packet, particle, 0.0, grid)  # passes the gate at t=0
    cfg = pl.DiscreteResetConfig(
        bath=_bath(15), packet=packet, delta_t=DELTA_T, n_time_samples=8192
    )
    with pytest.raises(pl.GridTooNarrowError):
        pl.discrete_reset_density(cfg, grid, particle)


@pytest.mark.parametrize("n_modes", [15, 60])
def test_trapezoid_in_chunks_matches_per_node_loop(n_modes):
    # a trapezoid of 4 chunks of 64 nodes and one of 21 stays within 1e-12
    # of the per-node loop
    particle = pl.cesium()
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=50e-9, mean_velocity_v0=1.79)
    grid = pl.build_grid(-0.45e-6, 0.75e-6, 512)
    cfg = pl.DiscreteResetConfig(
        bath=_bath(n_modes),
        packet=packet,
        delta_t=DELTA_T / 8,
        n_time_samples=4 * _MAX_BLOCK_NODES + 21,
    )
    dens = pl.discrete_reset_density(cfg, grid, particle).values
    ref = _per_node_density(cfg, grid, particle)
    assert np.max(np.abs(dens - ref)) <= 1e-12 * np.max(ref)


@pytest.mark.parametrize("windows", [1, 2])
def test_late_grid_error_raised_before_any_block(windows, monkeypatch):
    # the tail gate runs over every trapezoid node first: the error is the
    # first failing node's, on a window of one or two DELTA_T, and no packet
    # is evaluated
    particle = pl.cesium()
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=50e-9, mean_velocity_v0=2e3)
    grid = pl.build_grid(-0.6e-6, 7 * packet.sigma_x, 1024)
    cfg = pl.DiscreteResetConfig(
        bath=_bath(15), packet=packet, delta_t=windows * DELTA_T, n_time_samples=8192
    )
    first_failure = None
    for t in np.linspace(0.0, cfg.delta_t, 8192):
        try:
            _tail_gate(packet, particle, t, grid)
        except pl.GridTooNarrowError as exc:
            first_failure = str(exc)
            break
    assert first_failure is not None
    calls = []
    monkeypatch.setattr(discrete_oracle, "_free_packet", lambda *a: calls.append(a))
    with pytest.raises(pl.GridTooNarrowError) as err:
        pl.discrete_reset_density(cfg, grid, particle)
    assert str(err.value) == first_failure
    assert calls == []


# a bath 10^4 times slower than the paper's, so that a window hundreds of
# times longer needs only hundreds of trapezoid nodes; kin_max on the
# 1024-point grid is 1.7e9 / s
_SLOW_BATH = pl.DiscreteBathSpec(
    n_modes=15, omega_max=OMEGA_M / 1e4, coupling_g=G, omega_0=OMEGA_0 / 1e4
)


def _interpolated(monkeypatch, delta_t, n_time_samples):
    """(oracle density, per-node density, the node counts the rule used:
    [] on the trapezoid fallback)."""
    particle = pl.cesium()
    # k0 = 1e9 / m, inside the grid's band of 2.7e9 / m
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=50e-9, mean_velocity_v0=0.5)
    grid = pl.build_grid(-0.6e-6, 0.6e-6, 1024)
    cfg = pl.DiscreteResetConfig(
        bath=_SLOW_BATH, packet=packet, delta_t=delta_t, n_time_samples=n_time_samples
    )
    rule = discrete_oracle._interpolation_nodes
    used = []

    def spy(*args):
        nodes, g = rule(*args)
        used.extend([] if nodes is None else [len(nodes)])
        return nodes, g

    monkeypatch.setattr(discrete_oracle, "_interpolation_nodes", spy)
    dens = pl.discrete_reset_density(cfg, grid, particle).values
    return dens, _per_node_density(cfg, grid, particle), used


def test_interpolated_quadrature_past_33_nodes(monkeypatch):
    # kin_max delta_t = 14 rad: 33 nodes leave about 1e-8 of max |G|, and
    # the check goes on to 65
    dens, ref, used = _interpolated(monkeypatch, 200 * DELTA_T, 400)
    assert used == [65]
    assert np.max(np.abs(dens - ref)) <= 1e-12 * np.max(ref)


@pytest.mark.parametrize(
    "window, n_time_samples",
    [(DELTA_T, 20), (5000 * DELTA_T, 600)],
    ids=["fewer nodes than a round", "257 nodes do not resolve G"],
)
def test_trapezoid_fallback_is_the_direct_quadrature(window, n_time_samples, monkeypatch):
    # 20 nodes: the first round would need 33. kin_max delta_t = 360 rad:
    # the check fails at 257 nodes and the next round would need 513
    dens, ref, used = _interpolated(monkeypatch, window, n_time_samples)
    assert used == []
    assert np.max(np.abs(dens - ref)) <= 1e-12 * np.max(ref)


def test_undersampling_check_sees_the_slowest_mode():
    # omega_max = 1.5 omega_0: mode 1 at 0.1 omega_0 has the fastest phase,
    # 0.9 omega_0, 14.3 periods in the window
    _, packet, _ = _setup()
    bath = pl.DiscreteBathSpec(
        n_modes=15, omega_max=1.5 * OMEGA_0, coupling_g=G, omega_0=OMEGA_0
    )
    with pytest.raises(pl.ConfigError) as err:
        pl.DiscreteResetConfig(bath=bath, packet=packet, delta_t=DELTA_T, n_time_samples=200)
    assert str(err.value) == (
        "n_time_samples=200 undersamples the fastest phase: need >= 286"
    )
    pl.DiscreteResetConfig(bath=bath, packet=packet, delta_t=DELTA_T, n_time_samples=286)


def test_traced_peak_of_the_cli_density():
    # the oracle-cli bath at 60 modes: 8192 nodes on 4096 points, G at 33
    # Chebyshev nodes and the (60, 4096) accumulator
    particle, packet, grid = _setup(4096)
    cfg = pl.DiscreteResetConfig(
        bath=_bath(60), packet=packet, delta_t=DELTA_T, n_time_samples=8192
    )
    tracemalloc.start()
    try:
        pl.discrete_reset_density(cfg, grid, particle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19e6


def test_traced_peak_of_a_window_past_the_rule():
    # 16384 points and a window of 350 x 4.185e-11 s on the slow bath: G's
    # fastest column turns through about 6400 rad, so the rule holds no row
    # of G and the trapezoid's 600 nodes are summed directly
    particle = pl.cesium()
    packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=50e-9, mean_velocity_v0=0.5)
    grid = pl.build_grid(-0.6e-6, 0.6e-6, 16384)
    cfg = pl.DiscreteResetConfig(
        bath=_SLOW_BATH, packet=packet, delta_t=350 * DELTA_T, n_time_samples=600
    )
    tracemalloc.start()
    try:
        pl.discrete_reset_density(cfg, grid, particle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25e6


_DENSITY_BYTES = """
import sys
import passagelab as pl
packet = pl.GaussianPacketSpec(center_x0=0.0, sigma_x=50e-9, mean_velocity_v0=1.79)
bath = pl.DiscreteBathSpec(n_modes=60, omega_max={om}, coupling_g={g}, omega_0={o0})
cfg = pl.DiscreteResetConfig(bath=bath, packet=packet, delta_t={dt}, n_time_samples=600)
grid = pl.build_grid(-0.6e-6, 0.6e-6, 1024)
sys.stdout.buffer.write(pl.discrete_reset_density(cfg, grid, pl.cesium()).values.tobytes())
""".format(om=OMEGA_M, g=G, o0=OMEGA_0, dt=DELTA_T / 4)


def test_density_bytes_independent_of_blas_threads():
    src = str(Path(pl.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _DENSITY_BYTES],
            env=env, capture_output=True, check=True, timeout=120,
        )
        out.append(run.stdout)
    assert len(out[0]) == 8 * 1024
    assert out[1] == out[0]


def test_continuum_reset_density_shape():
    # A * |Theta psi|^2 / normalization: zero for x < 0, follows the packet above
    particle, packet, grid = _setup(n_points=2048)
    cont = pl.continuum_reset_density(packet, particle, 1.0572e7, DELTA_T, grid)
    assert np.all(cont.values[grid.x < 0.0] == 0.0)
    psi = pl.gaussian_free_state(packet, particle, DELTA_T, grid)
    pos = grid.x >= 0.0
    ratio = cont.values[pos][10:500] / np.abs(psi.amplitudes[pos][10:500]) ** 2
    assert np.allclose(ratio, 1.0572e7, rtol=1e-12)


def test_compare_densities_scale_invariant():
    particle, packet, grid = _setup(n_points=1024)
    rates = pl.continuum_rates(_bath(15))
    cont = pl.continuum_reset_density(packet, particle, rates.decay_a, DELTA_T, grid)
    other = pl.DensityProfile(grid=grid, values=np.roll(cont.values, 3), normalization=1.0)
    m1 = pl.compare_densities(cont, other)
    scaled = pl.DensityProfile(grid=grid, values=37.0 * other.values, normalization=1.0)
    m2 = pl.compare_densities(cont, scaled)
    assert m1.l1_full == pytest.approx(m2.l1_full, rel=1e-12)
    assert m1.l1_masked == m1.l1_full  # no exclusion window given


def test_compare_densities_zero_profile_rejected():
    particle, packet, grid = _setup(n_points=1024)
    rates = pl.continuum_rates(_bath(15))
    cont = pl.continuum_reset_density(packet, particle, rates.decay_a, DELTA_T, grid)
    zero = pl.DensityProfile(grid=grid, values=np.zeros(grid.n_points), normalization=0.0)
    with pytest.raises(pl.ZeroNormError):
        pl.compare_densities(cont, zero)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_density_profile_rejects_non_finite_values(bad):
    grid = pl.build_grid(-1e-6, 1e-6, 64)
    values = np.zeros(64)
    values[3] = bad
    with pytest.raises(pl.ConfigError, match="density values must be finite"):
        discrete_oracle.DensityProfile(grid=grid, values=values, normalization=1.0)


def test_density_profile_rejects_negative_values():
    grid = pl.build_grid(-1e-6, 1e-6, 64)
    values = np.zeros(64)
    values[3] = -1e-30
    with pytest.raises(pl.ConfigError, match="density must be >= 0"):
        discrete_oracle.DensityProfile(grid=grid, values=values, normalization=1.0)
