"""Shared fixtures: cheap toy setups for unit tests, and session-scoped
production runs shared by the acceptance criteria."""
import warnings

import numpy as np
import pytest
from hypothesis import settings

import passagelab as pl

# property tests draw the same examples on every run, and a slow example on a
# loaded machine is not a failure
settings.register_profile("passagelab", deadline=None, derandomize=True)
settings.load_profile("passagelab")

# reference study parameters: cesium, 1 um packet at 7.17 mm/s, detectors
# [0, 20] um and [100, 120] um, three decay rates
A_SLOW = 1.4337e3
A_INT = 2.3895e3
A_FAST = 2.3895e4
DISTANCE_D = 100e-6


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion_log(pytestconfig):
    lines = []
    pytestconfig._criterion_lines = lines

    def record(name: str, ok: bool, detail: str) -> None:
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")

    return record


@pytest.fixture(scope="session")
def particle():
    return pl.cesium()


@pytest.fixture(scope="session")
def ivb_packet():
    return pl.GaussianPacketSpec(center_x0=0.0, sigma_x=1e-6, mean_velocity_v0=7.17e-3)


@pytest.fixture(scope="session")
def ivb_grid():
    return pl.build_grid(-30e-6, 200e-6, 8192)


def ivb_config(particle, packet, grid, decay_a, **kw):
    det1 = pl.DetectorSpec(profile=pl.RectangularProfile(0.0, 20e-6), decay_a=decay_a)
    det2 = pl.DetectorSpec(
        profile=pl.RectangularProfile(DISTANCE_D, DISTANCE_D + 20e-6), decay_a=decay_a
    )
    base = dict(
        particle=particle,
        packet=packet,
        detector1=det1,
        detector2=det2,
        grid=grid,
        dt=1e-6,
        dt2=1e-6,
        tau_max=40e-3,
        n_entry=256,
    )
    base.update(kw)
    return pl.ExperimentConfig(**base)


@pytest.fixture(scope="session")
def ivb_study(particle, ivb_packet, ivb_grid):
    """Arrival record, reset ensemble, and passage distribution for the three
    reference decay rates. Shared across the acceptance tests; several minutes."""
    out = {}
    for tag, a in (("slow", A_SLOW), ("int", A_INT), ("fast", A_FAST)):
        cfg = ivb_config(particle, ivb_packet, ivb_grid, a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pl.RegimeWarning)
            record, ensemble = pl.arrival_stage(cfg)
            dist = pl.passage_distribution(cfg, ensemble)
        out[tag] = {"cfg": cfg, "record": record, "ensemble": ensemble, "dist": dist}
    return out


@pytest.fixture(scope="session")
def sweep_result(particle):
    """Seven-point scaling sweep with per-velocity optimal parameters."""
    v0s = np.geomspace(3e-3, 30e-3, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        return pl.scaling_sweep(v0s, DISTANCE_D, particle, n_entry=256, gate_first=True)


# light toy setup for fast functional tests: a lighter particle moving fast so
# full passage runs finish in seconds
TOY_MASS = 1e-26
TOY_V0 = 0.05


@pytest.fixture(scope="session")
def toy_particle():
    return pl.ParticleSpec(mass=TOY_MASS)


@pytest.fixture(scope="session")
def toy_packet():
    return pl.GaussianPacketSpec(center_x0=0.0, sigma_x=2e-6, mean_velocity_v0=TOY_V0)


def toy_config(toy_particle, toy_packet, **kw):
    grid = pl.build_grid(-40e-6, 160e-6, 2048)
    det1 = pl.DetectorSpec(profile=pl.RectangularProfile(20e-6, 40e-6), decay_a=2e4)
    det2 = pl.DetectorSpec(profile=pl.RectangularProfile(100e-6, 120e-6), decay_a=2e4)
    base = dict(
        particle=toy_particle,
        packet=toy_packet,
        detector1=det1,
        detector2=det2,
        grid=grid,
        dt=2e-7,
        n_entry=64,
    )
    base.update(kw)
    return pl.ExperimentConfig(**base)


@pytest.fixture(scope="session")
def toy_run(toy_particle, toy_packet):
    cfg = toy_config(toy_particle, toy_packet)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        record, ensemble = pl.arrival_stage(cfg)
        dist = pl.passage_distribution(cfg, ensemble)
    return {"cfg": cfg, "record": record, "ensemble": ensemble, "dist": dist}
