"""Config parsing, CSV/JSON emission, and exit codes of the command line."""
import inspect
import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
import yaml
from hypothesis import assume, given
from hypothesis import strategies as st

import passagelab as pl
from passagelab import cli_io, passage
from passagelab.exceptions import ConfigError, ConvergenceError
from passagelab.passage import _arrival_pass, _auto_tau_max

# light config so CLI runs finish in seconds; mirrors the toy fixtures
TOY_YAML = """
particle: {mass: 1e-26 kg}
packet: {center: 0.0, sigma: 2 um, velocity: 5 cm/s}
detector1: {start: 20 um, stop: 40 um, decay_rate: 2e4}
detector2: {start: 100 um, stop: 120 um, decay_rate: 2e4}
grid: {x_min: -40 um, x_max: 260 um, n_points: 2048}
solver: {dt: 0.2 us}
entry_grid: {n: 16}
"""


@pytest.fixture()
def toy_yaml(tmp_path):
    p = tmp_path / "toy.yaml"
    p.write_text(TOY_YAML)
    return str(p)


def test_parse_quantity_units():
    assert cli_io.parse_quantity("7.17 mm/s", "velocity", "p") == pytest.approx(7.17e-3)
    assert cli_io.parse_quantity("50 nm", "length", "p") == pytest.approx(50e-9)
    assert cli_io.parse_quantity("0.167 ms", "time", "p") == pytest.approx(1.67e-4)
    assert cli_io.parse_quantity("2.3895e4 1/s", "rate", "p") == pytest.approx(2.3895e4)
    assert cli_io.parse_quantity("2782 s^-1/2", "coupling", "p") == pytest.approx(2782.0)
    assert cli_io.parse_quantity(3.5e-6, "length", "p") == 3.5e-6
    assert cli_io.parse_quantity("1e-6", "length", "p") == 1e-6  # bare string is SI
    assert cli_io.parse_quantity(7, "float", "p") == 7.0
    assert cli_io.parse_quantity(128, "int", "p") == 128
    assert cli_io.parse_quantity(None, "time?", "p") is None


@pytest.mark.parametrize(
    "raw,kind",
    [
        (None, "time"),
        (True, "float"),
        (1.5, "int"),
        ("fast", "velocity"),
        ("3 parsecs", "length"),
        ([1.0], "float"),
        ("", "length"),
        (float("nan"), "time"),
        (float("inf"), "time"),
        (float("-inf"), "velocity"),
        ("inf ms", "time"),
        ("nan um", "length"),
    ],
)
def test_parse_quantity_rejects(raw, kind):
    with pytest.raises(ConfigError, match="^packet.sigma: "):
        cli_io.parse_quantity(raw, kind, "packet.sigma")


_KINDS = sorted(cli_io._UNITS) + ["int"]
_UNIT_PAIRS = [(kind, unit) for kind, table in cli_io._UNITS.items() for unit in table]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(value=_FINITE, pair=st.sampled_from(_UNIT_PAIRS))
def test_parse_quantity_scales_any_unit_exactly(value, pair):
    kind, unit = pair
    parsed = cli_io.parse_quantity(f"{value!r} {unit}", kind, "p")
    assert parsed == value * cli_io._UNITS[kind][unit]
    assert cli_io.parse_quantity(f"{value!r}", kind, "p") == value
    assert cli_io.parse_quantity(value, kind, "p") == value


@given(
    value=_FINITE,
    kind=st.sampled_from(sorted(cli_io._UNITS)),
    unit=st.text(st.sampled_from("abcmsuµ/^-1"), min_size=1, max_size=6),
)
def test_parse_quantity_rejects_unknown_units(value, kind, unit):
    assume(unit not in cli_io._UNITS[kind])
    with pytest.raises(ConfigError, match="unknown unit"):
        cli_io.parse_quantity(f"{value!r} {unit}", kind, "p")


@given(flag=st.booleans(), kind=st.sampled_from(_KINDS), nullable=st.booleans())
def test_parse_quantity_rejects_booleans_and_required_nulls(flag, kind, nullable):
    kind = kind + "?" if nullable else kind
    with pytest.raises(ConfigError, match="boolean"):
        cli_io.parse_quantity(flag, kind, "p")
    if nullable:
        assert cli_io.parse_quantity(None, kind, "p") is None
    else:
        with pytest.raises(ConfigError, match="required"):
            cli_io.parse_quantity(None, kind, "p")


def test_integer_too_large_for_a_float_gives_exit_2(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^packet.sigma: "):
        cli_io.parse_quantity(10**400, "length", "packet.sigma")
    p = tmp_path / "huge.yaml"
    p.write_text("packet: {sigma: 1" + "0" * 400 + "}\n")
    assert cli_io.main(["arrival", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "packet.sigma: integer too large" in capsys.readouterr().err


def test_integer_past_the_digit_limit_gives_exit_2(tmp_path, capsys):
    # PyYAML's int() refuses more than 4300 digits with a bare ValueError
    p = tmp_path / "huge.yaml"
    p.write_text("packet: {sigma: 1" + "0" * 5000 + "}\n")
    assert cli_io.main(["arrival", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert f"cannot parse {p}" in capsys.readouterr().err


def test_unknown_unit_error_names_alternatives():
    with pytest.raises(ConfigError, match="mm/s"):
        cli_io.parse_quantity("3 km/h", "velocity", "packet.velocity")


def test_load_config_defaults_reference_study():
    conf = cli_io.load_config(None)
    assert conf["packet"]["sigma"] == 1e-6
    assert conf["packet"]["velocity"] == 7.17e-3
    assert conf["detector1"]["stop"] == 20e-6
    assert conf["detector2"]["start"] == 100e-6
    assert conf["grid"]["n_points"] == 8192
    assert conf["solver"]["dt2"] is None
    assert conf["bath"]["n_modes"] == 15
    assert conf["bath"]["omega_max_ratio"] == 4.6


def test_default_config_stage_two_step_count():
    # dt2 falls back to dt, so the default step sets the cost of stage 2
    cfg = cli_io.build_experiment(cli_io.load_config(None))
    assert cfg.dt2 is None
    assert round(_auto_tau_max(cfg) / cfg.dt) < 30_000


def test_load_config_unknown_key_reports_dotted_path(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("solver: {dt: 1e-7, dt_two: 1e-7}\n")
    with pytest.raises(ConfigError, match="solver.dt_two"):
        cli_io.load_config(str(p))


@pytest.mark.parametrize("path", ["entry_grid.quantile_lo", "sweep.n_entry", "bath.omega_max"])
def test_removed_entry_keys_give_exit_2(tmp_path, capsys, path):
    # the entry window is fixed, entry_grid.n is the one entry-grid size and
    # bath.omega_max_ratio the one way to set omega_max
    section, key = path.split(".")
    p = tmp_path / "old.yaml"
    p.write_text(f"{section}: {{{key}: 64}}\n")
    assert cli_io.main(["arrival", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert f"unknown key: {path}" in capsys.readouterr().err


def test_schema_defaults_match_the_library():
    # these defaults are written twice: in SCHEMA and in the library signatures
    defaults = {f.name: f.default for f in fields(pl.ExperimentConfig)}
    assert cli_io.SCHEMA["solver"]["tau_stride"][1] == defaults["tau_stride"]
    n_entry = cli_io.SCHEMA["entry_grid"]["n"][1]
    assert n_entry == defaults["n_entry"]
    for fn in (pl.sweep_point_config, pl.scaling_sweep):
        assert inspect.signature(fn).parameters["n_entry"].default == n_entry


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        cli_io.load_config("/nonexistent/conf.yaml")


def test_load_config_rejects_non_mapping(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        cli_io.load_config(str(p))


def test_config_echo_round_trip(tmp_path):
    conf = cli_io.load_config(None)
    p = tmp_path / "echo.yaml"
    p.write_text(yaml.safe_dump(conf))
    assert cli_io.load_config(str(p)) == conf


def test_build_experiment_from_defaults():
    cfg = cli_io.build_experiment(cli_io.load_config(None))
    assert isinstance(cfg, pl.ExperimentConfig)
    assert cfg.packet.sigma_x == 1e-6
    assert cfg.distance_d == pytest.approx(100e-6)
    assert cfg.grid.n_points == 8192


def test_build_bath_ratio_fallback():
    conf = cli_io.load_config(None)
    bath, _ = cli_io.build_bath(conf)
    assert bath.omega_max == pytest.approx(4.6 * 2.38e12)


def test_kijowski_subcommand_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_io.main(["kijowski", "--out", str(out1)]) == 0
    assert cli_io.main(["kijowski", "--out", str(out2)]) == 0
    csv1 = (out1 / "kijowski.csv").read_bytes()
    assert csv1 == (out2 / "kijowski.csv").read_bytes()
    lines = csv1.decode().strip().split("\n")
    assert lines[0] == "t_seconds,pi_k_per_second"
    assert len(lines) == 1 + 2001
    doc = json.loads((out1 / "kijowski_summary.json").read_text())
    assert doc["subcommand"] == "kijowski"
    assert doc["results"]["normalization_on_grid"] == pytest.approx(1.0, abs=2e-3)
    assert doc["warnings"] == []
    assert doc["config"]["packet"]["velocity"] == 7.17e-3


@pytest.mark.parametrize(
    "section", ["{n_times: -1}", "{n_times: 0}", "{n_times: 1}", "{t_min: 1 ms, t_max: 1 ms}"]
)
def test_kijowski_section_validated(tmp_path, capsys, section):
    p = tmp_path / "kj.yaml"
    p.write_text(f"kijowski: {section}\n")
    assert cli_io.main(["kijowski", "--config", str(p), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    key = "n_times" if "n_times" in section else "t_max"
    assert f"kijowski.{key}" in err
    assert not (tmp_path / "kijowski.csv").exists()


@pytest.mark.parametrize(
    "section",
    [
        "{n_points: -1}",
        "{n_points: 0}",
        "{n_points: 1}",
        "{v0_min: 0}",
        "{v0_max: -3 mm/s}",
        "{distance: 0}",
        "{distance: -1 um}",
    ],
)
def test_sweep_section_validated(tmp_path, capsys, section):
    p = tmp_path / "sweep.yaml"
    p.write_text(f"sweep: {section}\n")
    assert cli_io.main(["precision-sweep", "--config", str(p), "--out", str(tmp_path)]) == 2
    key = section[1:].split(":")[0]
    assert f"sweep.{key}" in capsys.readouterr().err
    assert not (tmp_path / "precision_sweep.csv").exists()


def test_kijowski_ignores_threads_env_var(tmp_path, monkeypatch):
    # --threads is the one way to set the worker count
    monkeypatch.setenv("PASSAGELAB_THREADS", "abc")
    assert cli_io.main(["kijowski", "--out", str(tmp_path)]) == 0


def test_arrival_subcommand_toy(tmp_path, toy_yaml):
    out = tmp_path / "arr"
    assert cli_io.main(["arrival", "--config", toy_yaml, "--out", str(out)]) == 0
    doc = json.loads((out / "arrival_summary.json").read_text())
    res = doc["results"]
    assert res["detection_probability"] > 0.9
    assert res["peak_time_seconds"] > 0.0
    header, first = (out / "arrival.csv").read_text().split("\n")[:2]
    assert header == "t_seconds,w1_per_second"
    assert len(first.split(",")) == 2
    # the packet's path spans about 705 of the 2048 points: a 1024-point box
    assert res["arrival_grid_points"] == 1024


def test_arrival_grid_points_is_the_grid_when_no_box_is_smaller(tmp_path):
    # the same path on 2048 points over 200 um spans more than half of them
    conf = yaml.safe_load(TOY_YAML)
    conf["grid"]["x_max"] = "160 um"
    p = tmp_path / "short.yaml"
    p.write_text(yaml.safe_dump(conf))
    out = tmp_path / "arr"
    assert cli_io.main(["arrival", "--config", str(p), "--out", str(out)]) == 0
    res = json.loads((out / "arrival_summary.json").read_text())["results"]
    assert res["arrival_grid_points"] == 2048


def test_passage_subcommand_toy(tmp_path, toy_yaml):
    # the light toy particle has a heavy late tail, so the run completes with
    # the tau-capture warning: exit 3 with all outputs written
    out = tmp_path / "pas"
    assert cli_io.main(["passage", "--config", toy_yaml, "--out", str(out)]) == 3
    doc = json.loads((out / "passage_summary.json").read_text())
    res = doc["results"]
    assert res["total_probability"] > 0.8
    assert res["mean_tau_seconds"] == pytest.approx(80e-6 / 0.05, rel=0.2)
    assert res["entry_grid_size"] == 16
    # the SVD compression: kept rows and the dropped share of the power
    assert isinstance(res["kept_rank"], int) and 1 <= res["kept_rank"] <= 16
    assert 0.0 <= res["discarded_power"] < 16 * pl.ExperimentConfig.svd_keep
    assert res["arrival_grid_points"] == 1024
    # stage 2's box: [15, 146.3] um of the grid's [-40, 260] um
    assert res["stage2_grid_points"] == 900
    never, boundary = res["leakage_never_detected"], res["leakage_boundary"]
    assert 0.0 < boundary < never
    assert res["total_probability"] + never == pytest.approx(1.0, abs=2e-3)
    assert (out / "passage.csv").is_file()
    assert any("tau grid captures" in w for w in doc["warnings"])


def test_arrival_grid_points_come_without_a_kernel_or_a_state(monkeypatch):
    # the summary's arrival box size is read from the box alone
    cfg = cli_io.build_experiment(cli_io._merge(cli_io.SCHEMA, yaml.safe_load(TOY_YAML)))
    for name in ("_kernel", "gaussian_free_state", "_evolve_rows"):
        monkeypatch.setattr(passage, name, _refuse)
    assert cli_io._arrival_grid_points(cfg) == 1024


def _refuse(*args, **kwargs):
    raise AssertionError("built a kernel or a state")


def test_csv_bytes_equal_savetxt(tmp_path):
    # one % on a repeated row format writes what np.savetxt writes
    values = np.array(
        [0.0, -0.0, 1.0, -2.5, 1e-300, -4.9e-324, 1.7e308, -3.3e-12, 123456.789, np.pi]
    )
    columns = [values, -values[::-1], np.geomspace(1e-200, 1e200, len(values))]
    cli_io._write_csv(tmp_path / "one.csv", ["a", "b", "c"], columns)
    np.savetxt(
        tmp_path / "ref.csv",
        np.column_stack(columns),
        fmt="%.12e",
        delimiter=",",
        header="a,b,c",
        comments="",
    )
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_reset_state_subcommand_toy(tmp_path, toy_yaml):
    out = tmp_path / "rst"
    assert cli_io.main(["reset-state", "--config", toy_yaml, "--out", str(out)]) == 0
    doc = json.loads((out / "reset_state_summary.json").read_text())
    res = doc["results"]
    assert res["norm_sq"] > 0.0
    assert res["std_p_kg_m_per_s"] > 0.0
    pos = (out / "reset_state_position.csv").read_text().split("\n")
    assert pos[0] == "x_meters,density_per_meter"
    mom = (out / "reset_state_momentum.csv").read_text().split("\n")
    assert mom[0] == "p_kg_m_per_s,reset_density,initial_packet_density"
    # momentum axis strictly increasing after the fftfreq reorder
    p_vals = np.array([float(r.split(",")[0]) for r in mom[1:] if r])
    assert np.all(np.diff(p_vals) > 0.0)


@pytest.fixture(scope="module")
def toy_stage(tmp_path_factory):
    p = tmp_path_factory.mktemp("toy") / "toy.yaml"
    p.write_text(TOY_YAML)
    cfg = cli_io.build_experiment(cli_io.load_config(str(p)))
    return cfg, *pl.arrival_stage(cfg)


def _reset_amplitudes(tmp_path, monkeypatch, at_time):
    """Run reset-state on the toy config; return the row it took its moments of."""
    conf = yaml.safe_load(TOY_YAML)
    if at_time is not None:
        conf["reset_state"] = {"at_time": at_time}
    p = tmp_path / "reset.yaml"
    p.write_text(yaml.safe_dump(conf))
    seen = []
    observe = cli_io.observables

    def spy(psi, hbar):
        seen.append(psi)
        return observe(psi, hbar=hbar)

    monkeypatch.setattr(cli_io, "observables", spy)
    assert cli_io.main(["reset-state", "--config", str(p), "--out", str(tmp_path)]) == 0
    (psi,) = seen
    return psi


@pytest.mark.parametrize("where", ["peak", "mid", "before", "after"])
def test_reset_state_row_is_the_ensemble_row(tmp_path, monkeypatch, toy_stage, where):
    _, record, ensemble = toy_stage
    times = ensemble.entry_times
    at_time = {
        "peak": None,
        "mid": float(0.5 * (times[6] + times[7])) + 1e-12,
        "before": -1e-3,
        "after": 1.0,
    }[where]
    want = pl.peak_time(record) if at_time is None else at_time
    i = int(np.argmin(np.abs(times - want)))
    if where != "peak":
        assert i == {"mid": 7, "before": 0, "after": len(times) - 1}[where]
    psi = _reset_amplitudes(tmp_path, monkeypatch, at_time)
    assert psi.time == times[i]
    assert psi.amplitudes.tobytes() == ensemble.states[i].tobytes()


def test_arrival_and_reset_state_build_no_ensemble(tmp_path, monkeypatch, toy_yaml):
    def boom(cfg):
        raise AssertionError("arrival_stage called")

    monkeypatch.setattr(passage, "arrival_stage", boom)
    monkeypatch.setattr(cli_io, "arrival_stage", boom)
    for sub in ("arrival", "reset-state"):
        assert cli_io.main([sub, "--config", toy_yaml, "--out", str(tmp_path)]) == 0


def test_reset_state_memory_below_half_the_held_stack(tmp_path, toy_stage, toy_yaml):
    cfg, record, _ = toy_stage
    support = _arrival_pass(cfg)[2]
    stack = (len(record.times) - 1) * (support.stop - support.start) * 16
    tracemalloc.start()
    try:
        assert cli_io.main(["reset-state", "--config", toy_yaml, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack / 2


def test_discrete_compare_subcommand_small_bath(tmp_path):
    conf = tmp_path / "bath.yaml"
    conf.write_text(
        """
bath:
  n_modes: 5
  n_time_samples: 2048
  grid: {x_min: -0.6 um, x_max: 0.6 um, n_points: 512}
"""
    )
    out = tmp_path / "cmp"
    assert cli_io.main(["discrete-compare", "--config", str(conf), "--out", str(out)]) == 0
    doc = json.loads((out / "discrete_compare_summary.json").read_text())
    res = doc["results"]
    assert res["l1_masked"] < res["l1_full"] + 1e-12
    assert res["decay_a_per_second"] > 0.0
    header = (out / "discrete_compare.csv").read_text().split("\n")[0]
    assert header == "x_meters,discrete_density_per_meter,continuum_density_per_meter"


@pytest.mark.parametrize(
    "bath, named",
    [
        # omega_max = omega_max_ratio x omega_0, so omega_0 = 0 fails on omega_max
        ("{omega_0: 0}", "omega_max"),
        ("{omega_0: -2.38e12, omega_max_ratio: -4.6}", "omega_0"),
    ],
)
def test_discrete_compare_non_positive_omega_0_gives_exit_2(tmp_path, capsys, bath, named):
    conf = tmp_path / "bath.yaml"
    conf.write_text(f"bath: {bath}\n")
    out = tmp_path / "cmp"
    assert cli_io.main(["discrete-compare", "--config", str(conf), "--out", str(out)]) == 2
    assert f"{named} " in capsys.readouterr().err
    assert not (out / "discrete_compare.csv").exists()


def test_weak_detector_warning_gives_exit_3(tmp_path, toy_yaml):
    conf = yaml.safe_load(TOY_YAML)
    conf["detector1"]["decay_rate"] = "5 1/s"
    p = tmp_path / "weak.yaml"
    p.write_text(yaml.safe_dump(conf))
    out = tmp_path / "weak"
    assert cli_io.main(["arrival", "--config", str(p), "--out", str(out)]) == 3
    doc = json.loads((out / "arrival_summary.json").read_text())
    assert doc["warnings"]  # the regime complaint lands in the summary too


def test_missing_config_gives_exit_2(tmp_path):
    assert cli_io.main(["arrival", "--config", "/no/such.yaml", "--out", str(tmp_path)]) == 2


def test_nan_step_gives_exit_2(tmp_path, capsys):
    p = tmp_path / "nan.yaml"
    p.write_text("solver: {dt: .nan}\n")
    assert cli_io.main(["arrival", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "solver.dt: value must be finite" in capsys.readouterr().err


def test_unknown_key_gives_exit_2(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("packet: {sigmaa: 1e-6}\n")
    assert cli_io.main(["arrival", "--config", str(p), "--out", str(tmp_path)]) == 2


def test_bad_threads_gives_exit_2(tmp_path):
    assert cli_io.main(["kijowski", "--threads", "0", "--out", str(tmp_path)]) == 2


def test_convergence_failure_gives_exit_4(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise ConvergenceError("sweep aborted at v0=0.003")

    monkeypatch.setattr(cli_io, "scaling_sweep", boom)
    assert cli_io.main(["precision-sweep", "--out", str(tmp_path)]) == 4


def test_precision_sweep_emission_with_stub(tmp_path, monkeypatch):
    captured = {}

    def fake_sweep(v0s, d, particle, n_entry, mapper):
        captured["mapper"] = mapper
        captured["n_entry"] = n_entry
        v0s = np.sort(np.asarray(v0s))
        e = 0.5 * particle.mass * v0s**2
        return pl.SweepResult(
            v0=v0s,
            energy=e,
            std_tau=1e-3 * (e / e[0]) ** -0.75,
            delta_tau_opt=1.1e-3 * (e / e[0]) ** -0.75,
            total_probability=np.full(len(v0s), 0.97),
            dt2=np.full(len(v0s), 1e-5),
            exponent=-0.75,
        )

    monkeypatch.setattr(cli_io, "scaling_sweep", fake_sweep)
    conf = tmp_path / "sweep.yaml"
    conf.write_text("entry_grid: {n: 32}\n")
    out = tmp_path / "sweep"
    argv = ["precision-sweep", "--threads", "2", "--config", str(conf), "--out", str(out)]
    assert cli_io.main(argv) == 0
    assert captured["mapper"] is not map  # thread pool map was wired in
    assert captured["n_entry"] == 32  # entry_grid.n sizes the sweep's entry grids
    doc = json.loads((out / "precision_sweep_summary.json").read_text())
    assert doc["results"]["exponent"] == -0.75
    assert doc["results"]["dt2_seconds"] == [1e-5] * 7
    ref = doc["results"]["reference_plan_v0_7.17mm_s"]
    assert ref["a_opt_per_second"] == pytest.approx(1963.889203489088, rel=1e-12)
    header = (out / "precision_sweep.csv").read_text().split("\n")[0]
    assert header == "v0_m_per_s,energy_joules,std_tau_seconds,delta_tau_opt_seconds"
