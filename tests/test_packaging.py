"""Packaging metadata points at code that exists, and the package runs on
its declared dependencies alone."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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
