"""Packaging metadata and the benchmark's tracer point at code that exists,
and the package runs on its declared dependencies alone."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_console_scripts_resolve():
    import tomllib

    with open(PYPROJECT, "rb") as handle:
        project = tomllib.load(handle)["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        entry = importlib.import_module(module)
        for part in attr.split("."):
            entry = getattr(entry, part)
        assert callable(entry), f"console script {name!r} -> {target!r} is not callable"


IMPORT_EVERY_MODULE = """
import json, pkgutil, sys
import holoising
names = sorted(m.name for m in pkgutil.iter_modules(holoising.__path__))
for name in names:
    __import__("holoising." + name)
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"modules": names, "scipy": scipy}))
"""


def test_package_imports_without_scipy():
    """A fresh interpreter that imports holoising and every submodule loads
    no scipy module: numpy is the only runtime dependency."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERY_MODULE], env=env, capture_output=True, text=True, check=True
    )
    seen = json.loads(out.stdout)
    expected = {"bulk", "entropy", "experiments", "graph", "ising", "isometry", "oracle", "spins"}
    assert expected <= set(seen["modules"])
    assert seen["scipy"] == []


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_scipy_is_a_test_dependency_only():
    import tomllib

    with open(PYPROJECT, "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])


def test_benchmark_tracer_wraps_existing_names_and_restores_them():
    """The benchmark's traced run wraps named functions and methods of the
    package (`perfbench/tracing.py`, loaded from its source without writing
    anything): installing its tracer finds every one of them, and
    uninstalling it puts back each attribute it replaced."""
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    modules = list(tracing.MODULES.values())
    owners = modules + [
        value for mod in modules for value in vars(mod).values()
        if isinstance(value, type) and value.__module__ == mod.__name__
    ]

    def snapshot():
        return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {key for key, value in snapshot().items() if before.get(key) is not value}
    finally:
        tracer.uninstall()
    wrapped = {name.split(".", 1)[1] for name in tracer.stats if not name.startswith("trace.")}
    assert wrapped and wrapped <= {name for _, name in patched}
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
