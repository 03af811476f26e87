"""Exact symmetries of the two-detector pipeline, end to end.

Space-time scaling x -> a x, t -> b t with m -> m b / a^2 and A -> A / b maps
the discretized problem onto itself: every step factor keeps its value, the
states scale by (a b)^-1/2, and w1 and G scale by 1/b at times scaled by b.
For powers of two the scaled inputs are exact, so the entry times keep their
bits. Shifting the packet, the detectors and the grid by whole cells leaves
every result unchanged on the grid's indices.
"""
import functools
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import passagelab as pl

_N_POINTS = 1024
_LENGTH = 200e-6
# share of the base quantity's largest magnitude that rounding may move
_TOL = 1e-12
_FACTORS = st.one_of(st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]), st.floats(0.25, 8.0))


@functools.cache
def _run(a=1.0, b=1.0, cells=0):
    """(record, ensemble, G) of a light-particle toy study with lengths scaled
    by a, times by b and every position shifted by whole cells."""
    shift = cells * _LENGTH / _N_POINTS

    def at(x):
        return a * x + shift

    def detector(x0):
        return pl.DetectorSpec(
            profile=pl.RectangularProfile(at(x0), at(x0 + 20e-6)), decay_a=2e4 / b
        )

    cfg = pl.ExperimentConfig(
        particle=pl.ParticleSpec(mass=1e-26 * b / a**2),
        packet=pl.GaussianPacketSpec(
            center_x0=at(0.0), sigma_x=a * 2e-6, mean_velocity_v0=0.05 * a / b
        ),
        detector1=detector(20e-6),
        detector2=detector(100e-6),
        grid=pl.build_grid(at(-40e-6), at(-40e-6 + _LENGTH), _N_POINTS),
        dt=2e-7 * b,
        dt2=1e-6 * b,
        n_entry=32,
        tau_stride=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pl.RegimeWarning)
        record, ensemble = pl.arrival_stage(cfg)
        return record, ensemble, pl.passage_distribution(cfg, ensemble)


def _close(mapped, base):
    mapped, base = np.asarray(mapped), np.asarray(base)
    assert mapped.shape == base.shape
    assert np.max(np.abs(mapped - base)) <= _TOL * np.max(np.abs(base))


def _assert_maps_to_base(run, a, b):
    record, ensemble, dist = run
    record0, ensemble0, dist0 = _run()
    _close(record.times / b, record0.times)
    _close(record.density_w1 * b, record0.density_w1)
    _close(ensemble.entry_times / b, ensemble0.entry_times)
    _close(ensemble.states * math.sqrt(a * b), ensemble0.states)
    _close(dist.tau / b, dist0.tau)
    _close(dist.g_tau * b, dist0.g_tau)
    _close(dist.total_probability, dist0.total_probability)
    _close(dist.mean_tau / b, dist0.mean_tau)
    _close(dist.std_tau / b, dist0.std_tau)
    assert dist.kept_rank == dist0.kept_rank


@settings(max_examples=4, deadline=None)
@given(a=_FACTORS, b=_FACTORS)
@example(a=2.0, b=4.0)
@example(a=3.0, b=5.0)
def test_space_time_scaling(a, b):
    run = _run(a, b)
    _assert_maps_to_base(run, a, b)
    if math.frexp(a)[0] == math.frexp(b)[0] == 0.5:
        assert np.array_equal(run[1].entry_times, _run()[1].entry_times * b)


@settings(max_examples=2, deadline=None)
@given(cells=st.integers(-300, 300))
@example(cells=64)
@example(cells=-300)
def test_translation_by_whole_cells(cells):
    _assert_maps_to_base(_run(cells=cells), 1.0, 1.0)
