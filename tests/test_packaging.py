"""Packaging metadata and the benchmark's tracer point at code that exists,
the package runs on its declared dependencies alone, every public name of
the package has a caller outside the tests, the parity tool compares
result files as it documents, and the test suite's `hypothesis` profile is
deterministic."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
TRACING = ROOT / "perfbench" / "tracing.py"
PARITY = ROOT / "tools" / "parity.py"

# Public names with no caller in the package, `tools/` or `perfbench/`
# that stay public: the paper's quantities, the trace-preservation check,
# the Haar draw of one shot and the paper's solution family beside
# `scaling_constraint_g`.  A class member is written "Class.member".
KEPT = (
    "cumulant_expansion",
    "rt_average",
    "lqg_area_match",
    "coarse_average_purity",
    "scaling_constraint_g",
    "localisation_probe",
    "check_trace_preservation",
    "haar_sample",
    "ScalingProfile.r_weights",
)


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


def code_names(nodes):
    """How often `nodes` use each name in code: each variable name that is
    read (not assigned) and each attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for top in nodes
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) or (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))
    )


def string_constants(tree):
    """The string constants of `tree`: the benchmark's tracer and the parity
    tool reach methods by name."""
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def public_definitions(body):
    """(name, node) of each public top-level function, class and constant of
    a module body, and ("Class.member", node) of each public method and
    property of its top-level classes."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    yield f"{node.name}.{member.name}", member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_public_name_has_a_caller():
    """Each public top-level function, class and constant of `src/holoising`,
    and each public method and property of its top-level classes, is used
    in code (a name or an attribute, not a docstring) outside its own
    definition: in its module, in another module of the package, in
    `tools/` or in `perfbench/` (where a string constant counts too), or it
    is one of the `KEPT` names.  A helper only the tests call lives with
    the tests.  Each `KEPT` name exists and has no such caller."""
    modules = {path: ast.parse(path.read_text()).body for path in sorted((ROOT / "src" / "holoising").glob("*.py"))}
    scripts = [ast.parse(path.read_text()) for path in sorted(ROOT.glob("tools/*.py")) + sorted(ROOT.glob("perfbench/*.py"))]
    outside = set(code_names(scripts)).union(*map(string_constants, scripts))
    unused = set()
    for path, body in modules.items():
        other = outside.union(*(code_names(b) for p, b in modules.items() if p != path))
        here = code_names(body)
        for name, node in public_definitions(body):
            short = name.rpartition(".")[2]
            if short.startswith("_"):
                continue
            if short not in other and not (here - code_names([node]))[short]:
                unused.add(name)
    assert not unused - set(KEPT), f"public names with no caller outside the tests: {sorted(unused - set(KEPT))}"
    assert set(KEPT) <= unused


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


def test_hypothesis_runs_derandomized_by_default():
    """The suite's loaded `hypothesis` profile derandomizes every `@given`
    test and keeps no example database, so tier-1 draws the same examples
    on every run and writes nothing."""
    from hypothesis import settings

    assert settings.default.derandomize is True
    assert settings.default.database is None


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


def load_parity(monkeypatch):
    """`tools/parity.py` loaded from its source without writing anything;
    the `src/` entry it puts on `sys.path` is removed again when the test
    ends.  Loading it imports no benchmark module: `main` imports the
    benchmark's `workloads`."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    parity = types.ModuleType("parity")
    parity.__file__ = str(PARITY)
    exec(compile(PARITY.read_text(), str(PARITY), "exec"), parity.__dict__)
    perfbench = str(ROOT / "perfbench")
    assert not [name for name in set(sys.modules) - before
                if str(getattr(sys.modules[name], "__file__", "")).startswith(perfbench)]
    return parity


def write_values(path, values):
    """A `--values` file: one record per (op, kind, value)."""
    with open(path, "w") as handle:
        for op, kind, value in values:
            handle.write(json.dumps({"op": op, "kind": kind, "value": value}, sort_keys=True) + "\n")
    return str(path)


def test_parity_compare_matches_results_by_content(monkeypatch, tmp_path, capsys):
    """`parity.py --compare` on small `--values` files: identical files
    agree; a float off by 1e-15 is reported with its path, and its field
    with its relative and absolute differences; and a repeated
    result that B drops is listed as only in A, with the results after it
    matched to their equals rather than shifted onto other values."""
    parity = load_parity(monkeypatch)
    table = "IsingModel.partition_table"

    def result(*totals):
        return {"type": "Table", "totals": [x.hex() for x in totals], "labels": ["j=1/2", "j=1"]}

    first, second = result(0.25, 1.5), result(0.75, 2.5)
    records = [(0, table, first), (0, table, second), (1, "oracle.mc_purity", result(0.5))]
    a = write_values(tmp_path / "a.jsonl", records)

    assert parity.compare(a, write_values(tmp_path / "same.jsonl", records)) == 0
    out = capsys.readouterr().out
    assert f"{table}: 0 of 2 differ" in out and "only in" not in out

    off = [*records[:2], (1, "oracle.mc_purity", result(0.5 * (1 + 1e-15)))]
    assert parity.compare(a, write_values(tmp_path / "off.jsonl", off)) == 0
    out = capsys.readouterr().out
    assert "oracle.mc_purity: 1 of 1 differ, largest relative float difference 1.11e-15 at /totals[0]" in out
    assert "    /totals: 1.11e-15 relative, 5.55e-16 absolute" in out
    assert f"{table}: 0 of 2 differ" in out

    repeated = [(0, table, first), (0, table, first), (0, table, second)]
    a = write_values(tmp_path / "repeated.jsonl", repeated)
    assert parity.compare(a, write_values(tmp_path / "dropped.jsonl", [repeated[0], repeated[2]])) == 1
    out = capsys.readouterr().out
    assert f"only in A: 1 {table} (ops 0)" in out and "only in B" not in out
    assert f"{table}: 0 of 2 differ, largest relative float difference 0, 0 non-float differences" in out
