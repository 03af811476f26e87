"""Command-line front end: config parsing, orchestration, serialization.

Subcommands map to the quantities of the study: `arrival` (detector-1 w1),
`passage` (two-detector G(tau)), `reset-state` (post-detection position and
momentum profiles), `discrete-compare` (N-mode bath vs continuum density),
`kijowski` (reference arrival distribution), `precision-sweep` (std(G) vs
kinetic energy).

Configs are YAML; physical values accept "value unit" strings (um, nm, mm/s,
cm/s, ms, 1/s, ...) while bare numbers are SI. Unknown keys and non-finite
values are rejected.
Exit codes: 0 ok, 2 config error, 3 completed with regime warnings,
4 convergence failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from .core import (
    GaussianPacketSpec,
    ParticleSpec,
    WaveFunction,
    _check_count,
    _check_positive,
    build_grid,
    gaussian_free_state,
    momentum_amplitudes,
    observables,
)
from .detector import DetectorSpec, DiscreteBathSpec, RectangularProfile, continuum_rates
from .discrete_oracle import (
    DiscreteResetConfig,
    compare_densities,
    continuum_reset_density,
    discrete_reset_density,
)
from .exceptions import ConfigError, ConvergenceError, PassageLabError, RegimeWarning
from .passage import (
    ExperimentConfig,
    _arrival_box,
    _arrival_pass,
    _detector1_window,
    _reset_row,
    arrival_stage,
    kijowski_distribution,
    passage_distribution,
)
from .precision import optimal_plan, scaling_sweep
from .propagator import peak_time

_UNITS = {
    "mass": {"kg": 1.0},
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9},
    "velocity": {"m/s": 1.0, "cm/s": 1e-2, "mm/s": 1e-3, "um/s": 1e-6, "µm/s": 1e-6},
    "rate": {"1/s": 1.0, "/s": 1.0, "s^-1": 1.0},
    "frequency": {"1/s": 1.0, "rad/s": 1.0, "s^-1": 1.0},
    "coupling": {"s^-1/2": 1.0, "s^-0.5": 1.0},
    "float": {},
}

# every config key as (kind, default), nested by section; kinds ending in "?"
# also accept null, and defaults are SI
SCHEMA = {
    "particle": {"mass": ("mass", 2.2069e-25)},
    "packet": {
        "center": ("length", 0.0),
        "sigma": ("length", 1e-6),
        "velocity": ("velocity", 7.17e-3),
    },
    "detector1": {
        "start": ("length", 0.0),
        "stop": ("length", 20e-6),
        "decay_rate": ("rate", 2.3895e3),
        "shift": ("rate", 0.0),
    },
    "detector2": {
        "start": ("length", 100e-6),
        "stop": ("length", 120e-6),
        "decay_rate": ("rate", 2.3895e3),
        "shift": ("rate", 0.0),
    },
    "grid": {
        "x_min": ("length", -30e-6),
        "x_max": ("length", 200e-6),
        "n_points": ("int", 8192),
    },
    "solver": {
        "dt": ("time", 1e-6),
        "dt2": ("time?", None),
        "t_start": ("time?", None),
        "t_end1": ("time?", None),
        "tau_max": ("time?", None),
        "tau_stride": ("int", 10),
    },
    "entry_grid": {"n": ("int", 256)},
    "bath": {
        "n_modes": ("int", 15),
        "omega_0": ("frequency", 2.38e12),
        "omega_max_ratio": ("float", 4.6),
        "coupling": ("coupling", 2.782e3),
        "delta_t": ("time", 4.185e-11),
        "n_time_samples": ("int", 8192),
        "packet": {
            "center": ("length", 0.0),
            "sigma": ("length", 50e-9),
            "velocity": ("velocity", 1.79),
        },
        "grid": {
            "x_min": ("length", -0.6e-6),
            "x_max": ("length", 0.6e-6),
            "n_points": ("int", 4096),
        },
    },
    "kijowski": {
        "at_x": ("length", 0.0),
        "t_min": ("time", -0.5e-3),
        "t_max": ("time", 1.5e-3),
        "n_times": ("int", 2001),
    },
    "reset_state": {"at_time": ("time?", None)},
    "sweep": {
        "v0_min": ("velocity", 3e-3),
        "v0_max": ("velocity", 30e-3),
        "n_points": ("int", 7),
        "distance": ("length", 100e-6),
    },
}


def parse_quantity(raw, kind: str, path: str) -> float | int | None:
    """One config leaf: bare numbers are SI; strings may carry a unit suffix."""
    nullable = kind.endswith("?")
    base = kind.rstrip("?")
    if raw is None:
        if nullable:
            return None
        raise ConfigError(f"{path}: value is required")
    if isinstance(raw, bool):
        raise ConfigError(f"{path}: boolean is not a quantity")
    if base == "int":
        if isinstance(raw, int):
            return raw
        raise ConfigError(f"{path}: expected an integer, got {raw!r}")
    if isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:
            raise ConfigError(f"{path}: integer too large for a float") from None
    elif isinstance(raw, str):
        parts = raw.split(None, 1)
        try:
            value = float(parts[0])
        except (IndexError, ValueError):
            raise ConfigError(f"{path}: cannot parse number from {raw!r}") from None
        if len(parts) == 2:
            unit = parts[1].strip()
            table = _UNITS.get(base, {})
            if unit not in table:
                raise ConfigError(
                    f"{path}: unknown unit {unit!r} for {base} "
                    f"(accepted: {', '.join(sorted(table)) or 'none'})"
                )
            value *= table[unit]
    else:
        raise ConfigError(f"{path}: unsupported value {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: value must be finite, got {raw!r}")
    return value


def _merge(schema: dict, user: dict, path: str = "") -> dict:
    out = {}
    for key in user:
        if key not in schema:
            raise ConfigError(f"unknown key: {path}{key}")
    for key, entry in schema.items():
        here = f"{path}{key}"
        if isinstance(entry, dict):
            sub = user.get(key, {})
            if sub is None:
                sub = {}
            if not isinstance(sub, dict):
                raise ConfigError(f"{here}: expected a mapping")
            out[key] = _merge(entry, sub, here + ".")
        elif key in user:
            out[key] = parse_quantity(user[key], entry[0], here)
        else:
            out[key] = entry[1]
    return out


def load_config(path: str | None) -> dict:
    """Parse and validate a YAML config file; None gives pure defaults."""
    if path is None:
        return _merge(SCHEMA, {})
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = yaml.safe_load(p.read_text())
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: an integer literal past Python's int-string digit limit
        raise ConfigError(f"cannot parse {p}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be a mapping")
    return _merge(SCHEMA, raw)


def _particle(conf: dict) -> ParticleSpec:
    return ParticleSpec(mass=conf["particle"]["mass"])


def _packet(section: dict) -> GaussianPacketSpec:
    return GaussianPacketSpec(
        center_x0=section["center"],
        sigma_x=section["sigma"],
        mean_velocity_v0=section["velocity"],
    )


def build_experiment(conf: dict) -> ExperimentConfig:
    def _det(section: dict) -> DetectorSpec:
        return DetectorSpec(
            profile=RectangularProfile(section["start"], section["stop"]),
            decay_a=section["decay_rate"],
            shift=section["shift"],
        )

    g = conf["grid"]
    s = conf["solver"]
    return ExperimentConfig(
        particle=_particle(conf),
        packet=_packet(conf["packet"]),
        detector1=_det(conf["detector1"]),
        detector2=_det(conf["detector2"]),
        grid=build_grid(g["x_min"], g["x_max"], g["n_points"]),
        dt=s["dt"],
        dt2=s["dt2"],
        t_start=s["t_start"],
        t_end1=s["t_end1"],
        n_entry=conf["entry_grid"]["n"],
        tau_max=s["tau_max"],
        tau_stride=s["tau_stride"],
    )


def build_bath(conf: dict) -> tuple[DiscreteBathSpec, dict]:
    b = conf["bath"]
    bath = DiscreteBathSpec(
        n_modes=b["n_modes"],
        omega_max=b["omega_max_ratio"] * b["omega_0"],
        coupling_g=b["coupling"],
        omega_0=b["omega_0"],
    )
    return bath, b


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """The columns as np.savetxt(fmt="%.12e", delimiter=",") writes them
    under a header line, formatted by one % on a repeated row format."""
    table = np.column_stack(columns)
    row = ",".join(["%.12e"] * table.shape[1]) + "\n"
    body = (row * len(table)) % tuple(table.ravel().tolist())
    path.write_text(",".join(header) + "\n" + body)


def _summary(out_dir: Path, name: str, conf: dict, payload: dict, warned: list[str]) -> Path:
    doc = {
        "subcommand": name,
        "config": conf,
        "results": payload,
        "warnings": warned,
    }
    path = out_dir / f"{name.replace('-', '_')}_summary.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _arrival_grid_points(cfg: ExperimentConfig) -> int:
    """Points of the grid detector 1's pass runs on: its box, or the grid."""
    return _arrival_box(cfg, *_detector1_window(cfg))[0].n_points


def _cmd_arrival(conf: dict, out: Path, args: argparse.Namespace) -> dict:
    cfg = build_experiment(conf)
    record, _, _ = _arrival_pass(cfg)  # the record alone
    _write_csv(
        out / "arrival.csv",
        ["t_seconds", "w1_per_second"],
        [record.times, record.density_w1],
    )
    return {
        "peak_time_seconds": peak_time(record),
        "detection_probability": float(record.cumulative_detected[-1]),
        "residual_norm": float(record.survival_p0[-1]),
        "samples": int(len(record.times)),
        "arrival_grid_points": _arrival_grid_points(cfg),
    }


def _cmd_passage(conf: dict, out: Path, args: argparse.Namespace) -> dict:
    cfg = build_experiment(conf)
    record, ensemble = arrival_stage(cfg)
    dist = passage_distribution(cfg, ensemble)
    _write_csv(
        out / "passage.csv", ["tau_seconds", "g_per_second"], [dist.tau, dist.g_tau]
    )
    never, residual2 = dist.leakage_report
    return {
        "total_probability": dist.total_probability,
        "mean_tau_seconds": dist.mean_tau,
        "std_tau_seconds": dist.std_tau,
        "leakage_never_detected": never,
        "leakage_stage2_residual": residual2,
        "leakage_boundary": dist.boundary_loss,
        "detection_probability_1": ensemble.p_detected_1,
        "arrival_peak_seconds": peak_time(record),
        "entry_grid_size": int(len(ensemble.entry_times)),
        "kept_rank": dist.kept_rank,
        "discarded_power": dist.discarded_power,
        "arrival_grid_points": _arrival_grid_points(cfg),
        "stage2_grid_points": dist.stage2_grid_points,
    }


def _cmd_reset_state(conf: dict, out: Path, args: argparse.Namespace) -> dict:
    cfg = build_experiment(conf)
    # one row of arrival_stage's ensemble, without its held stack or other rows
    t_used, row = _reset_row(cfg, conf["reset_state"]["at_time"])
    psi = WaveFunction(grid=cfg.grid, amplitudes=row, time=t_used)
    mom = observables(psi, hbar=cfg.particle.hbar)
    dens_x = np.abs(psi.amplitudes) ** 2
    phi = momentum_amplitudes(psi)
    order = np.argsort(cfg.grid.k)
    p_sorted = cfg.particle.hbar * cfg.grid.k[order]
    dens_p = (np.abs(phi) ** 2 / cfg.particle.hbar)[order]
    psi0 = gaussian_free_state(cfg.packet, cfg.particle, 0.0, cfg.grid)
    phi0 = momentum_amplitudes(psi0)
    dens_p0 = (np.abs(phi0) ** 2 / cfg.particle.hbar)[order]
    _write_csv(
        out / "reset_state_position.csv",
        ["x_meters", "density_per_meter"],
        [cfg.grid.x, dens_x],
    )
    _write_csv(
        out / "reset_state_momentum.csv",
        ["p_kg_m_per_s", "reset_density", "initial_packet_density"],
        [p_sorted, dens_p, dens_p0],
    )
    return {
        "entry_time_seconds": t_used,
        "norm_sq": mom.norm_sq,
        "std_x_meters": mom.std_x,
        "std_p_kg_m_per_s": mom.std_p,
        "mean_p_kg_m_per_s": mom.mean_p,
    }


def _cmd_discrete_compare(conf: dict, out: Path, args: argparse.Namespace) -> dict:
    bath, b = build_bath(conf)
    rates = continuum_rates(bath)
    particle = _particle(conf)
    packet = _packet(b["packet"])
    grid = build_grid(b["grid"]["x_min"], b["grid"]["x_max"], b["grid"]["n_points"])
    rcfg = DiscreteResetConfig(
        bath=bath, packet=packet, delta_t=b["delta_t"], n_time_samples=b["n_time_samples"]
    )
    disc = discrete_reset_density(rcfg, grid, particle)
    cont = continuum_reset_density(packet, particle, rates.decay_a, b["delta_t"], grid)
    metrics = compare_densities(
        disc, cont, exclusion=(-2.0 * packet.sigma_x, 2.0 * packet.sigma_x)
    )
    _write_csv(
        out / "discrete_compare.csv",
        ["x_meters", "discrete_density_per_meter", "continuum_density_per_meter"],
        [grid.x, disc.values, cont.values],
    )
    return {
        "l1_full": metrics.l1_full,
        "l1_masked": metrics.l1_masked,
        "exclusion_meters": list(metrics.exclusion),
        "decay_a_per_second": rates.decay_a,
        "shift_per_second": rates.shift,
    }


def _cmd_kijowski(conf: dict, out: Path, args: argparse.Namespace) -> dict:
    kj = conf["kijowski"]
    _check_count("kijowski.n_times", kj["n_times"], 2)
    if not kj["t_max"] > kj["t_min"]:
        raise ConfigError(f"kijowski.t_max must exceed t_min, got {kj['t_max']} <= {kj['t_min']}")
    t = np.linspace(kj["t_min"], kj["t_max"], kj["n_times"])
    pi_k = kijowski_distribution(
        _packet(conf["packet"]), _particle(conf), kj["at_x"], t
    )
    _write_csv(out / "kijowski.csv", ["t_seconds", "pi_k_per_second"], [t, pi_k])
    norm = float(np.trapezoid(pi_k, t))
    return {"normalization_on_grid": norm, "at_x_meters": kj["at_x"]}


def _cmd_precision_sweep(conf: dict, out: Path, args: argparse.Namespace) -> dict:
    sw = conf["sweep"]
    _check_count("sweep.n_points", sw["n_points"], 2)
    _check_positive(
        **{f"sweep.{key}": sw[key] for key in ("v0_min", "v0_max", "distance")}
    )
    particle = _particle(conf)
    v0s = np.geomspace(sw["v0_min"], sw["v0_max"], sw["n_points"])
    # one worker runs the points in order; each point's bits are thread-free
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        result = scaling_sweep(
            v0s,
            sw["distance"],
            particle,
            n_entry=conf["entry_grid"]["n"],
            mapper=pool.map,
        )
    _write_csv(
        out / "precision_sweep.csv",
        ["v0_m_per_s", "energy_joules", "std_tau_seconds", "delta_tau_opt_seconds"],
        [result.v0, result.energy, result.std_tau, result.delta_tau_opt],
    )
    plan_ref = optimal_plan(sw["distance"], particle, 7.17e-3)
    return {
        "exponent": result.exponent,
        "total_probability": [float(v) for v in result.total_probability],
        "dt2_seconds": [float(v) for v in result.dt2],
        "reference_plan_v0_7.17mm_s": {
            "delta_x_opt_meters": plan_ref.delta_x_opt,
            "a_opt_per_second": plan_ref.a_opt,
            "delta_tau_opt_seconds": plan_ref.delta_tau_opt,
        },
    }


_COMMANDS = {
    "arrival": _cmd_arrival,
    "passage": _cmd_passage,
    "reset-state": _cmd_reset_state,
    "discrete-compare": _cmd_discrete_compare,
    "kijowski": _cmd_kijowski,
    "precision-sweep": _cmd_precision_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="passagelab",
        description="Simulated quantum arrival- and passage-time measurements.",
    )
    parser.add_argument("subcommand", choices=list(_COMMANDS))
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help=(
            "worker threads for the precision-sweep points (default 1); "
            "stage 2 uses every usable core"
        ),
    )
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        conf = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RegimeWarning)
            payload = _COMMANDS[args.subcommand](conf, out, args)
        warned = [str(w.message) for w in caught if issubclass(w.category, RegimeWarning)]
        payload["runtime_seconds"] = round(time.perf_counter() - started, 3)
        _summary(out, args.subcommand, conf, payload, warned)
        for line in warned:
            print(f"warning: {line}", file=sys.stderr)
        return 3 if warned else 0
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    except (PassageLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
