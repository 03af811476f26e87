"""Tests of the benchmark's own checks and a smoke run of every workload path.

Run from the repository root: python3 -m pytest perfbench/tests
The smoke configuration (workloads.SMOKE) keeps each workload to seconds.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402


def _failing(results) -> set[str]:
    return {c.name for c in results if not c.ok}


@pytest.fixture(scope="module")
def ref_out():
    inp = workloads.make_inputs("ref-study", 3, None, workloads.SMOKE)
    out = inp.round(workloads.Round())
    out["free_propagation_rel_err"] = inp.free_propagation_error()
    return inp, out


@pytest.fixture(scope="module")
def sweep_out():
    inp = workloads.make_inputs("sweep-slow", 3, None, workloads.SMOKE)
    return inp, inp.round(workloads.Round())


@pytest.fixture(scope="module")
def oracle_out(tmp_path_factory):
    inp = workloads.make_inputs(
        "oracle-cli", 3, tmp_path_factory.mktemp("oracle"), workloads.SMOKE
    )
    return inp, inp.round(workloads.Round())


def test_ref_checks_pass_then_fail_on_rescaled_g(ref_out):
    inp, out = ref_out
    rates = tuple(inp.configs)
    assert not _failing(checks.check_ref_study(out, inp.expect, rates))
    bad = copy.deepcopy(out)
    bad["int"]["g_tau"] = bad["int"]["g_tau"] * 1.05
    assert _failing(checks.check_ref_study(bad, inp.expect, rates)) == {
        "int: int G + never detected = 1"
    }


def test_ref_checks_fail_on_broken_reset_norm_and_free_propagation(ref_out):
    inp, out = ref_out
    bad = copy.deepcopy(out)
    bad["slow"]["norms_sq"][3] *= 1.0 + 1e-6
    bad["free_propagation_rel_err"] = 1e-6
    assert _failing(checks.check_ref_study(bad, inp.expect, tuple(inp.configs))) == {
        "slow: reset norm = w1",
        "free split-step = analytic packet",
    }


def test_sweep_checks_pass_then_fail_on_exponent(sweep_out):
    inp, out = sweep_out
    assert not _failing(checks.check_sweep(out, inp.expect))
    bad = dict(out, exponent=-1.0)
    assert _failing(checks.check_sweep(bad, inp.expect)) == {
        "reported exponent matches the fit",
        "exponent in [-0.85, -0.65]",
    }
    assert _failing(checks.check_sweep({}, inp.expect)) == {"convergence probe passed"}


def test_oracle_checks_pass_then_fail_on_l1(oracle_out):
    inp, out = oracle_out
    names = [c[0] for c in inp.commands]
    assert not _failing(checks.check_oracle(out, inp.expect, names))
    bad = copy.deepcopy(out)
    bad["discrete"]["discrete-compare[15]"]["summary"]["l1_masked"] = 0.1
    assert _failing(checks.check_oracle(bad, inp.expect, names)) == {
        "discrete-compare[15]: masked L1 < 0.05",
        "discrete-compare[15]: reported L1 matches the CSV",
    }


def test_oracle_checks_fail_on_reset_weight_outside_detector(oracle_out):
    inp, out = oracle_out
    names = [c[0] for c in inp.commands]
    bad = copy.deepcopy(out)
    table = bad["reset"]["table"]
    inside = int(np.argmax(table[:, 1]))
    table[0, 1] = table[inside, 1]  # x_min lies left of detector 1
    failing = _failing(checks.check_oracle(bad, inp.expect, names))
    assert "reset density zero outside detector 1" in failing


def test_oracle_checks_fail_on_exit_code(oracle_out):
    inp, out = oracle_out
    names = [c[0] for c in inp.commands]
    bad = copy.deepcopy(out)
    bad["exit_codes"]["kijowski"] = 3
    assert _failing(checks.check_oracle(bad, inp.expect, names)) == {"every exit code is 0"}


def test_seed_zero_is_the_paper_and_other_seeds_keep_grid_sizes():
    paper = workloads.make_inputs("ref-study", 0, None)
    other = workloads.make_inputs("ref-study", 7, None)
    assert paper.packet.mean_velocity_v0 == 7.17e-3
    assert paper.configs["int"].detector1.decay_a == 2.3895e3
    assert 0.0 < abs(other.packet.mean_velocity_v0 / 7.17e-3 - 1.0) <= 0.01
    for tag, cfg in other.configs.items():
        assert cfg.grid == paper.configs[tag].grid
        assert (cfg.dt, cfg.dt2, cfg.n_entry) == (1e-6, workloads.STAGE2_DT[tag], 256)
    sweep = workloads.make_inputs("sweep-slow", 7, None)
    assert sweep.v0[0] == workloads.SWEEP_V0[0]  # the point convergence_probe gates
    np.testing.assert_allclose(sweep.v0, workloads.SWEEP_V0, rtol=0.01)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_run_fails_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ref-study", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
