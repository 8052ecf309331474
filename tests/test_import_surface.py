"""A process imports only the subsystems it runs, before it runs them.

The package ``__init__``s of ``repro``, ``repro.core``, ``repro.fabric``,
``repro.node``, ``repro.power`` and ``repro.storage`` resolve their
exported names on first access (:mod:`repro._lazy`), and entry modules
import what they call at module level.  Each guard below runs in a fresh
interpreter, since the test session itself has long since imported
everything:

* ``python -m repro --help`` loads neither numpy nor scipy;
* ``import repro.chaos`` loads no scipy, timeflow engine, apps or serve;
* once its entry point is imported, a first run (a chaos study, a
  congest study, ``run_local`` of every sweep probe, a full-fabric
  mpiGraph phase) loads no further ``repro`` or ``scipy`` module, so no
  import cost lands inside a timed operation;
* every exported name resolves, ``from <pkg> import *`` works, and the
  modules that once formed an import cycle each import first, alone.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

LAZY_PACKAGES = ("repro", "repro.core", "repro.fabric", "repro.node",
                 "repro.power", "repro.storage")


def _python(*argv: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with only ``src/`` on its path; must exit 0."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _imported_by(run: str, setup: str = "") -> list[str]:
    """Modules a fresh process loads while running ``run`` after ``setup``."""
    proc = _python("-c", "\n".join([
        "import json, sys", setup, "before = set(sys.modules)", run,
        "print(json.dumps(sorted(set(sys.modules) - before)))"]))
    return json.loads(proc.stdout.splitlines()[-1])


def _under(modules: list[str], *roots: str) -> list[str]:
    return [m for m in modules
            if any(m == r or m.startswith(r + ".") for r in roots)]


class TestColdImports:
    def test_help_loads_neither_numpy_nor_scipy(self):
        proc = _python("-X", "importtime", "-m", "repro", "--help")
        assert "usage:" in proc.stdout
        loaded = [line.rsplit("|", 1)[-1].strip()
                  for line in proc.stderr.splitlines()
                  if line.startswith("import time:")]
        assert "repro.reporting" in loaded
        assert _under(loaded, "numpy", "scipy") == []

    def test_chaos_loads_no_fabric_engine_apps_or_serve(self):
        loaded = _imported_by("import repro.chaos")
        assert "repro.chaos.engine" in loaded
        assert _under(loaded, "scipy", "repro.fabric.timeflow", "repro.apps",
                      "repro.serve") == []


#: name -> (entry-point imports, a first run that must load nothing new)
FIRST_RUNS = {
    "chaos": ("import repro.chaos", """
from dataclasses import replace
from repro.chaos import ChaosConfig, run_chaos
from repro.core.scenario import FRONTIER_SPEC, ResiliencePolicySpec
healed = replace(FRONTIER_SPEC, resilience=ResiliencePolicySpec(
    spare_fraction=0.005, adaptive_checkpointing=True))
run_chaos(healed, ChaosConfig(horizon_h=12.0))
run_chaos(FRONTIER_SPEC.scaled(8, 4, 4), ChaosConfig(horizon_h=12.0))
"""),
    "congest": ("import repro.core.scenario, repro.fabric.congest", """
from repro.core.scenario import frontier_spec
from repro.fabric.congest import CongestConfig, run_congest
run_congest(frontier_spec().scaled(8, 4, 4),
            CongestConfig(ks=(10.0,), horizon_s=5e-5))
"""),
    "serve-run-local": ("import repro.serve", """
from repro.serve import ScenarioRequest, run_local
from repro.sweep.probes import SWEEP_PROBES
for probe in SWEEP_PROBES:
    run_local(ScenarioRequest.from_wire(
        {"probe": probe, "family": "frontier", "scaled": [8, 4, 4]}))
"""),
    "full-fabric-shift": ("import repro.fabric.network", """
from repro.fabric.dragonfly import DragonflyConfig
from repro.fabric.network import SlingshotNetwork
SlingshotNetwork(DragonflyConfig(), rng=0).shift_pattern(512)
"""),
}


@pytest.mark.parametrize("name", sorted(FIRST_RUNS))
def test_first_run_imports_nothing_new(name):
    entry, run = FIRST_RUNS[name]
    assert _under(_imported_by(run, setup=entry), "repro", "scipy") == []


class TestLazySurfaces:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_resolves(self, package):
        pkg = importlib.import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name), name
            assert name in dir(pkg)
        for name, submodule in pkg._lazy_exports.items():
            source = importlib.import_module(f"{package}.{submodule}")
            assert getattr(pkg, name) is getattr(source, name), name

    def test_unknown_name_is_an_attribute_error(self):
        import repro.fabric
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.fabric.no_such_name
        assert not hasattr(repro.fabric, "no_such_name")

    def test_export_named_like_its_submodule(self):
        # ``repro.core.family`` is both a submodule and the function it
        # exports; loading the submodule first must not shadow the export.
        proc = _python("-c", "import repro.core.family\n"
                       "from repro.core import family\n"
                       "import repro.core\n"
                       "print(family('aurora').name, repro.core.family is family)")
        assert proc.stdout.split() == ["aurora", "True"]


@pytest.mark.parametrize("module", [
    "repro.core.family", "repro.apps.scaling", "repro.power.model",
    "repro.power.energy", "repro.serve.protocol", "repro.core.report_card",
])
def test_former_cycle_members_import_first(module):
    """``core.family -> power.model -> power/__init__ -> power.energy ->
    repro.apps -> apps.scaling -> core.family`` was a cycle the eager
    ``repro/__init__`` masked; each member now imports first, alone."""
    _python("-c", f"import {module}")


def test_served_family_request_in_a_fresh_process():
    proc = _python("-c", "from repro.serve.protocol import ScenarioRequest\n"
                   "req = ScenarioRequest.from_wire("
                   "{'probe': 'storage', 'family': 'aurora', 'scaled': [8, 4, 4]})\n"
                   "print(req.spec.family)")
    assert proc.stdout.strip() == "aurora"
