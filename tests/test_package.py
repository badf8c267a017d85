"""The package namespace: lazy exports that behave like eager ones."""

import importlib

import pytest

import thetaflow

# Home module of every public name, frozen; __all__ lists them in this order.
HOMES = {
    "fourier": ["CoefficientSequence", "PeriodicGrid", "SampledFunction", "analyze",
                "circular_convolve", "inner", "synthesize"],
    "theta": ["ThetaParams", "kernel", "theta3_bound", "theta3_product",
              "theta3_series"],
    "semigroups": ["SubordinationError", "SubordinationQuadrature", "bochner_scalar",
                   "generator_apply", "heat_residual", "maximal_function",
                   "poisson_evolve_d", "poisson_evolve_kernel",
                   "poisson_evolve_multiplier", "poisson_kernel", "subordinate",
                   "theta_evolve", "theta_evolve_d"],
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
    assert len(set(ALL)) == len(ALL) == 42


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

