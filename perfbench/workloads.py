"""Inputs and rounds of the three benchmark workloads.

A round is one fixed list of operations. `Round.run` times each operation on
its own, so the work a round does between operations (copying out results,
computing the kept SVD rank, reading CLI output files) is not timed.

Inputs come from the seed. Seed 0 gives the paper's parameters. Any other seed
scales each physical input by its own factor drawn uniformly from
[0.99, 1.01]; grid sizes, step sizes, mode counts and sample counts stay as
they are.
"""
from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import passagelab as pl
from passagelab import cli_io

WORKLOADS = ("ref-study", "sweep-slow", "oracle-cli")

DISTANCE_D = 100e-6
RATES = {"slow": 1.4337e3, "int": 2.3895e3, "fast": 2.3895e4}
# Stage-2 step per rate, kept at A*dt2 <= 0.24. Against dt2 = 1e-6 (seed 0)
# mean and std move by at most 8.7e-4 relative and the fast total by 2.3e-3.
STAGE2_DT = {"slow": 2e-5, "int": 2e-5, "fast": 1e-5}
# first-detection peaks quoted by the paper, in s
PAPER_PEAKS = {"int": 0.167e-3, "fast": 0.041e-3}
# the slowest and the third-slowest point of the paper's 3-30 mm/s sweep:
# a 1024-point and a 2048-point grid
SWEEP_V0 = np.geomspace(3e-3, 30e-3, 7)[[0, 2]]
ORACLE_MODES = (15, 60)


@dataclass(frozen=True)
class Scale:
    """Problem sizes; SMOKE runs every path of every workload in seconds."""

    grid_points: int = 8192
    dt: float = 1e-6
    n_entry: int = 256
    sweep_distance: float = DISTANCE_D
    oracle_modes: tuple = ORACLE_MODES
    oracle_time_samples: int = 8192
    kijowski_times: int = 2001


FULL = Scale()
SMOKE = Scale(
    grid_points=2048,
    dt=2e-6,
    n_entry=64,
    sweep_distance=5e-6,
    oracle_modes=(15,),
    oracle_time_samples=2048,
    kijowski_times=201,
)


def jitter(seed: int):
    """Return f(value): value itself at seed 0, else value * U[0.99, 1.01]."""
    rng = np.random.default_rng(seed)

    def f(value: float) -> float:
        if seed == 0:
            return float(value)
        return float(value * (1.0 + 0.01 * rng.uniform(-1.0, 1.0)))

    return f


@dataclass
class Op:
    name: str
    wall_s: float
    cpu_s: float
    error: str | None = None


class Round:
    """Runs one round's operations, timing each and counting failures."""

    def __init__(self, after_op=None) -> None:
        self.ops: list[Op] = []
        self._after_op = after_op

    def run(self, name: str, fn, *args, **kwargs):
        w0, c0 = time.perf_counter(), time.process_time()
        error = None
        result = None
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, the round goes on
            error = traceback.format_exc(limit=3)
        self.ops.append(
            Op(name, time.perf_counter() - w0, time.process_time() - c0, error)
        )
        if self._after_op is not None:
            self._after_op()
        return result

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)


def kept_rank(cfg: pl.ExperimentConfig, ensemble: pl.ResetEnsemble) -> int:
    """Rows passage_distribution keeps: its cut on the squared singular values.

    These are the eigenvalues of the weighted snapshots' Gram matrix, summed
    here over column blocks, so the benchmark's own work allocates a few MB
    and stays below the peak of the program's SVD.
    """
    states = ensemble.states
    gram = np.zeros((len(states), len(states)), dtype=complex)
    for j in range(0, states.shape[1], 512):
        part = states[:, j : j + 512]
        gram += part @ part.conj().T
    root = np.sqrt(ensemble.weights)
    power = np.linalg.eigvalsh(root[:, None] * gram * root[None, :])
    return int(np.count_nonzero(power > cfg.svd_keep * float(np.sum(power))))


# --------------------------------------------------------------- ref-study


@dataclass
class RefStudy:
    particle: pl.ParticleSpec
    packet: pl.GaussianPacketSpec
    configs: dict
    expect: dict
    name: str = "ref-study"

    def round(self, rnd: Round, mapper=None) -> dict:
        out = {}
        for tag, cfg in self.configs.items():
            arrived = rnd.run(f"arrival_stage[{tag}]", pl.arrival_stage, cfg)
            if arrived is None:
                continue
            record, ensemble = arrived
            dist = rnd.run(
                f"passage_distribution[{tag}]", pl.passage_distribution, cfg, ensemble
            )
            if dist is None:
                continue
            never, residual2 = dist.leakage_report
            out[tag] = {
                "times": record.times,
                "survival_p0": record.survival_p0,
                "density_w1": record.density_w1,
                "cumulative": record.cumulative_detected,
                "entry_times": ensemble.entry_times,
                "norms_sq": ensemble.norms_sq,
                "tau": dist.tau,
                "g_tau": dist.g_tau,
                "peak_s": pl.peak_time(record),
                "mean_s": dist.mean_tau,
                "std_s": dist.std_tau,
                "total": dist.total_probability,
                "never_detected": never,
                "residual_2": residual2,
                "p_detected_1": ensemble.p_detected_1,
                "kept_rank": kept_rank(cfg, ensemble),
            }
            del arrived, record, ensemble, dist
        return out

    def free_propagation_error(self) -> float:
        """Relative L2 distance of a free split-step run from the analytic packet."""
        cfg = next(iter(self.configs.values()))
        grid, dt, n_steps = cfg.grid, cfg.dt, 1000
        free = pl.DetectorSpec(profile=cfg.detector1.profile, decay_a=0.0)
        psi0 = pl.gaussian_free_state(self.packet, self.particle, 0.0, grid)
        psi, _ = pl.evolve_conditional(
            psi0, free.potential_field(grid), self.particle, n_steps * dt, dt
        )
        exact = pl.gaussian_free_state(self.packet, self.particle, psi.time, grid)
        diff = np.linalg.norm(psi.amplitudes - exact.amplitudes)
        return float(diff / np.linalg.norm(exact.amplitudes))


def ref_study_inputs(seed: int, scale: Scale) -> RefStudy:
    f = jitter(seed)
    particle = pl.cesium()
    packet = pl.GaussianPacketSpec(
        center_x0=0.0, sigma_x=f(1e-6), mean_velocity_v0=f(7.17e-3)
    )
    grid = pl.build_grid(-30e-6, 200e-6, scale.grid_points)
    configs = {}
    for tag, a in RATES.items():
        a = f(a)
        configs[tag] = pl.ExperimentConfig(
            particle=particle,
            packet=packet,
            detector1=pl.DetectorSpec(pl.RectangularProfile(0.0, 20e-6), a),
            detector2=pl.DetectorSpec(
                pl.RectangularProfile(DISTANCE_D, DISTANCE_D + 20e-6), a
            ),
            grid=grid,
            dt=scale.dt,
            dt2=STAGE2_DT[tag],
            n_entry=scale.n_entry,
        )
    expect = {
        "transit_s": DISTANCE_D / packet.mean_velocity_v0,
        "paper_peaks_s": dict(PAPER_PEAKS),
    }
    return RefStudy(particle, packet, configs, expect)


# -------------------------------------------------------------- sweep-slow


@dataclass
class SweepSlow:
    particle: pl.ParticleSpec
    v0: np.ndarray
    distance: float
    n_entry: int
    expect: dict
    name: str = "sweep-slow"

    def round(self, rnd: Round, mapper=None) -> dict:
        res = rnd.run(
            "scaling_sweep",
            pl.scaling_sweep,
            self.v0,
            self.distance,
            self.particle,
            n_entry=self.n_entry,
            gate_first=True,
            mapper=map if mapper is None else mapper,
        )
        if res is None:
            return {}
        # scaling_sweep raises ConvergenceError unless the gate passed
        return {
            "probe_passed": True,
            "v0": res.v0,
            "energy": res.energy,
            "std_s": res.std_tau,
            "delta_tau_opt_s": res.delta_tau_opt,
            "total": res.total_probability,
            "exponent": res.exponent,
        }


def sweep_inputs(seed: int, scale: Scale) -> SweepSlow:
    f = jitter(seed)
    particle = pl.cesium()
    # The slowest point, the one convergence_probe gates, stays at the paper's
    # 3.0 mm/s: the gate's verdict flips for 1% changes of v0 there (it passes
    # at 2.99, 3.0 and 3.03 mm/s and fails at 2.98 and 3.01), which would make
    # the sweep fail on some seeds and not on others.
    v0 = np.array([SWEEP_V0[0], *(f(v) for v in SWEEP_V0[1:])])
    expect = {
        "mass": particle.mass,
        "hbar": particle.hbar,
        "distance": scale.sweep_distance,
        "v0": v0,
    }
    return SweepSlow(particle, v0, scale.sweep_distance, scale.n_entry, expect)


# -------------------------------------------------------------- oracle-cli


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_summary(out_dir: Path, sub: str) -> dict:
    doc = json.loads((out_dir / f"{sub.replace('-', '_')}_summary.json").read_text())
    return doc["results"]


@dataclass
class OracleCli:
    commands: list  # (op name, subcommand, config path, out dir)
    expect: dict
    name: str = "oracle-cli"

    def round(self, rnd: Round, mapper=None) -> dict:
        out = {"exit_codes": {}, "csv_rows": 0, "discrete": {}}
        for name, sub, conf, out_dir in self.commands:
            rc = rnd.run(
                name, cli_io.main, [sub, "--config", str(conf), "--out", str(out_dir)]
            )
            if rc is None:
                continue
            out["exit_codes"][name] = rc
            csvs = sorted(out_dir.glob("*.csv"))
            out["csv_rows"] += sum(len(_read_csv(p)) for p in csvs)
            summary = _read_summary(out_dir, sub)
            if sub == "discrete-compare":
                out["discrete"][name] = {
                    "summary": summary,
                    "table": _read_csv(out_dir / "discrete_compare.csv"),
                }
            elif sub == "kijowski":
                out["kijowski"] = {
                    "summary": summary,
                    "table": _read_csv(out_dir / "kijowski.csv"),
                }
            else:
                out["reset"] = {
                    "summary": summary,
                    "table": _read_csv(out_dir / "reset_state_position.csv"),
                }
        return out


def oracle_inputs(seed: int, scale: Scale, work_dir: Path) -> OracleCli:
    f = jitter(seed)
    omega_0 = f(2.38e12)
    coupling = f(2.782e3)
    bath_sigma = f(50e-9)
    conf = {
        "packet": {"center": 0.0, "sigma": f(1e-6), "velocity": f(7.17e-3)},
        "detector1": {"start": 0.0, "stop": 20e-6, "decay_rate": f(RATES["int"])},
        "grid": {"x_min": -30e-6, "x_max": 200e-6, "n_points": scale.grid_points},
        "solver": {"dt": scale.dt},
        "bath": {
            "omega_0": omega_0,
            "omega_max_ratio": 4.6,
            "coupling": coupling,
            "n_time_samples": scale.oracle_time_samples,
            "packet": {"center": 0.0, "sigma": bath_sigma, "velocity": f(1.79)},
        },
        "kijowski": {"n_times": scale.kijowski_times},
    }
    conf["detector2"] = dict(conf["detector1"], start=100e-6, stop=120e-6)
    commands = []
    for n in scale.oracle_modes:
        path = work_dir / f"bath{n}.yaml"
        conf["bath"]["n_modes"] = n
        path.write_text(yaml.safe_dump(conf))
        name = f"discrete-compare[{n}]"
        commands.append((name, "discrete-compare", path, work_dir / f"discrete{n}"))
    base = work_dir / f"bath{scale.oracle_modes[0]}.yaml"
    commands.append(("kijowski", "kijowski", base, work_dir / "kijowski"))
    commands.append(("reset-state", "reset-state", base, work_dir / "reset"))
    grid = conf["grid"]
    expect = {
        "omega_0": omega_0,
        "omega_max": 4.6 * omega_0,
        "coupling": coupling,
        "bath_sigma": bath_sigma,
        "hbar": pl.HBAR,
        "detector1": (0.0, 20e-6),
        "grid": (grid["x_min"], grid["x_max"], grid["n_points"]),
    }
    return OracleCli(commands, expect)


def make_inputs(workload: str, seed: int, work_dir: Path, scale: Scale = FULL):
    if workload == "ref-study":
        return ref_study_inputs(seed, scale)
    if workload == "sweep-slow":
        return sweep_inputs(seed, scale)
    if workload == "oracle-cli":
        return oracle_inputs(seed, scale, work_dir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
