"""The public surface: every exported name resolves, the submodules agree,
and the names, config keys and settings a user can reach are pinned."""
import ast
import dataclasses
import importlib
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import passagelab as pl
from passagelab import cli_io

# every submodule that declares an export list
_SUBMODULES = [
    m.name
    for m in pkgutil.iter_modules(pl.__path__)
    if hasattr(importlib.import_module(f"passagelab.{m.name}"), "__all__")
]


def test_every_exported_name_resolves():
    assert len(pl.__all__) == len(set(pl.__all__))
    missing = [name for name in pl.__all__ if not hasattr(pl, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from passagelab import *", namespace)
    assert set(pl.__all__) <= set(namespace)


@pytest.mark.parametrize("name", _SUBMODULES)
def test_submodule_exports_are_package_exports(name):
    module = importlib.import_module(f"passagelab.{name}")
    assert set(module.__all__) <= set(pl.__all__)
    for attr in module.__all__:
        assert getattr(module, attr) is getattr(pl, attr)


def test_each_export_is_declared_by_one_submodule():
    # the package declares no name itself: its export list is the union of
    # the submodules' lists, each name in exactly one
    owners = Counter(
        attr
        for name in _SUBMODULES
        for attr in importlib.import_module(f"passagelab.{name}").__all__
    )
    assert set(owners.values()) == {1}
    assert sorted(owners) == sorted(pl.__all__)


# The surface a user can set or import. A change here adds or removes a name,
# a config key or a constructor field, and must say so.
_EXPORTS = """
CESIUM_MASS ComparisonMetrics ComplexPotentialField ConfigError ContinuumRates
ConvergenceError DensityProfile DetectionRecord DetectorSpec DiscreteBathSpec
DiscreteResetConfig ExperimentConfig GaussianPacketSpec GridError
GridTooNarrowError HBAR InstabilityError Moments NoDetectionError OptimalPlan
ParticleSpec PassageDistribution PassageLabError RectangularProfile
RegimeWarning ResetEnsemble SpatialGrid SweepResult WaveFunction WidthBudget
ZeroNormError ZeroOverlapError arrival_stage build_grid cesium
classical_passage compare_densities continuum_rates continuum_reset_density
convergence_probe discrete_reset_density evolve_conditional free_sigma_x
gaussian_free_state kappa kijowski_distribution momentum_amplitudes
observables optimal_plan passage_distribution peak_time reset scaling_sweep
step sweep_point_config width_estimate
""".split()
_CONFIG_KEYS = """
particle.mass packet.center packet.sigma packet.velocity detector1.start
detector1.stop detector1.decay_rate detector1.shift detector2.start
detector2.stop detector2.decay_rate detector2.shift grid.x_min grid.x_max
grid.n_points solver.dt solver.dt2 solver.t_start solver.t_end1
solver.tau_max solver.tau_stride entry_grid.n bath.n_modes bath.omega_0
bath.omega_max_ratio bath.coupling bath.delta_t bath.n_time_samples
bath.packet.center bath.packet.sigma bath.packet.velocity bath.grid.x_min
bath.grid.x_max bath.grid.n_points kijowski.at_x kijowski.t_min
kijowski.t_max kijowski.n_times reset_state.at_time sweep.v0_min
sweep.v0_max sweep.n_points sweep.distance
""".split()
_EXPERIMENT_FIELDS = """
particle packet detector1 detector2 grid dt dt2 t_start t_end1 n_entry
tau_max tau_stride
""".split()


def _leaf_keys(schema: dict, prefix: str = ""):
    for key, entry in schema.items():
        if isinstance(entry, dict):
            yield from _leaf_keys(entry, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_surface_is_pinned():
    assert (len(_EXPORTS), len(_CONFIG_KEYS), len(_EXPERIMENT_FIELDS)) == (56, 43, 12)
    assert sorted(pl.__all__) == sorted(_EXPORTS)
    assert list(_leaf_keys(cli_io.SCHEMA)) == _CONFIG_KEYS
    fields = [f.name for f in dataclasses.fields(pl.ExperimentConfig) if f.init]
    assert fields == _EXPERIMENT_FIELDS


def test_no_setting_comes_from_the_environment():
    sources = Path(pl.__file__).parent.rglob("*.py")
    readers = [
        p.name for p in sources if re.search(r"os\.environ|os\.getenv|getenv\(", p.read_text())
    ]
    assert readers == []


def _unused_imports(path: Path) -> list[str]:
    """Names path imports (star and __future__ imports aside) that it neither
    uses nor lists in its __all__."""
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(Path(pl.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []
