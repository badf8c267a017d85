"""The library names the benchmark workloads call must keep existing.

bench/workloads.py reaches the library only as ``tf.<name>`` and
``tfio.<name>``; this reads that file (without importing or changing it)
and checks every such name against the package.
"""

import ast
import inspect
from pathlib import Path

import thetaflow
import thetaflow.io

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _attributes_used() -> dict[str, set[str]]:
    used = {"tf": set(), "tfio": set()}
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in used):
            used[node.value.id].add(node.attr)
    return used


def test_workloads_import_the_package_under_these_names():
    imports = {(a.name, a.asname) for node in ast.walk(ast.parse(WORKLOADS.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert ("thetaflow", "tf") in imports
    assert ("io", "tfio") in imports


def test_every_name_the_workloads_use_exists():
    used = _attributes_used()
    assert "theta_evolve_d" in used["tf"] and "save_function" in used["tfio"]
    assert sorted(n for n in used["tf"] if not hasattr(thetaflow, n)) == []
    assert sorted(n for n in used["tfio"] if not hasattr(thetaflow.io, n)) == []


def test_every_keyword_the_workloads_pass_binds():
    modules = {"tf": thetaflow, "tfio": thetaflow.io}
    passed, unbound = set(), []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            continue
        name = node.func.attr
        keywords = [k.arg for k in node.keywords if k.arg is not None]
        passed.update((name, k) for k in keywords)
        try:
            inspect.signature(getattr(modules[node.func.value.id], name)).bind_partial(
                **dict.fromkeys(keywords))
        except TypeError:
            unbound.append(f"{node.func.value.id}.{name}({', '.join(keywords)})")
    assert ("pair", "f_class") in passed
    assert unbound == []


def test_d_dim_names_are_the_merged_flows():
    assert thetaflow.theta_evolve_d is thetaflow.theta_evolve
    assert thetaflow.poisson_evolve_d is thetaflow.poisson_evolve_multiplier


def test_oracles_are_not_exported():
    for name in ("analyze_direct", "convolve_direct"):
        assert name not in thetaflow.__all__
        assert not hasattr(thetaflow, name)
