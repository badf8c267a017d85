"""The package namespace: lazy exports that behave like eager ones, and its layering."""

import ast
import importlib
import pathlib

import numpy as np
import pytest

import thetaflow
from thetaflow.fourier import PeriodicGrid, SampledFunction, analyze
from thetaflow.semigroups import theta_evolve

# Home module of every public name, frozen; __all__ lists them in this order.
HOMES = {
    "fourier": ["CoefficientSequence", "PeriodicGrid", "SampledFunction", "analyze",
                "circular_convolve", "inner", "synthesize"],
    "theta": ["ThetaParams", "kernel", "theta3_bound", "theta3_product",
              "theta3_series"],
    "semigroups": ["SubordinationError", "SubordinationQuadrature", "bochner_scalar",
                   "generator_apply", "heat_residual", "poisson_evolve_d",
                   "poisson_evolve_kernel", "poisson_evolve_multiplier", "poisson_kernel",
                   "subordinate", "theta_evolve", "theta_evolve_d"],
    "ultradist": ["DerivativeBound", "GrowthClass", "PowerRule", "UltraDistribution",
                  "check_membership", "derivative_bound_constants", "derivative_sequence",
                  "derivative_ultra", "evolve_ultra", "fit_growth", "pair",
                  "positivity_check", "smoothing_threshold", "weak_limit_check"],
    "checks": ["CheckReport", "PropertyRecord", "run_suite"],
}
ALL = [name for names in HOMES.values() for name in names]
HOME_OF = [(module, name) for module, names in HOMES.items() for name in names]


def test_all_is_unchanged():
    assert thetaflow.__all__ == ALL
    assert len(set(ALL)) == len(ALL) == 41


@pytest.mark.parametrize("module, name", HOME_OF)
def test_name_is_the_object_of_its_home_module(module, name):
    home = importlib.import_module(f"thetaflow.{module}")
    assert getattr(thetaflow, name) is getattr(home, name)
    # Bound in the package after the first access: later ones are plain lookups.
    assert vars(thetaflow)[name] is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from thetaflow import *", namespace)
    assert [name for name in ALL if namespace.get(name) is not getattr(thetaflow, name)] == []


def test_dir_lists_every_public_name():
    assert set(ALL) <= set(dir(thetaflow))
    assert "__version__" in dir(thetaflow)


@pytest.mark.parametrize("name", ["no_such_name", "analyze_direct", "random_bandlimited"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(thetaflow, name)
    assert not hasattr(thetaflow, name)



# Each module of the package, parsed.
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(pathlib.Path(thetaflow.__file__).parent.glob("*.py"))}


def _uses_numpy(tree, sub):
    """Whether the module reaches numpy.<sub>: as an attribute of np or numpy, or by import."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == sub
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            return True
        if isinstance(node, ast.Import) and any(a.name.startswith(f"numpy.{sub}")
                                                for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith(f"numpy.{sub}")
                or node.module == "numpy" and any(a.name == sub for a in node.names)):
            return True
    return False


def test_only_fourier_references_numpy_fft():
    assert "fourier" in TREES and "semigroups" in TREES
    assert [name for name, tree in TREES.items() if _uses_numpy(tree, "fft")] == ["fourier"]


# What fourier keeps on an object: a sequence's kept tail, a function's spectrum and peak.
KEPT_STATE = {"_kept", "_spectrum", "_peak"}


def _identifiers(tree):
    """Every name, attribute, argument, keyword, import and exact string constant of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_fourier_touches_the_kept_state():
    # Derived rules reach a sequence through its values method alone.
    assert [name for name, tree in TREES.items()
            if KEPT_STATE & set(_identifiers(tree))] == ["fourier"]


def test_only_checks_references_numpy_random():
    # The suites draw their seeded random data there; every other result is deterministic.
    assert "ultradist" in TREES
    assert [name for name, tree in TREES.items() if _uses_numpy(tree, "random")] == ["checks"]


@pytest.mark.parametrize("module", ["semigroups", "checks"])
def test_transform_internals_stay_in_fourier(module):
    names = {alias.name for node in ast.walk(TREES[module])
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(TREES[module]) if isinstance(node, ast.Attribute)}
    assert names.isdisjoint({"_forward", "_inverse", "_place_modes"})


def test_flow_then_analyze_transforms_a_complex_function_once(monkeypatch):
    calls = []
    for name in ("fft", "fftn", "fft2", "rfft", "rfftn", "rfft2"):
        def counting(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    g = PeriodicGrid.line(64)
    f = SampledFunction(g, np.exp(2j * g.points) + np.cos(3 * g.points))
    theta_evolve(f, 0.3)
    c = analyze(f)
    assert calls == ["fftn"]
    assert abs(c[2] - 1.0) < 1e-14 and abs(c[3] - 0.5) < 1e-14
