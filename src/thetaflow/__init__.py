"""Heat and Poisson flows on the torus via Jacobi theta kernels.

The public names are exported lazily (PEP 562): ``import thetaflow``
loads no submodule, and the first access to a name imports its home
module and binds the name here, so later accesses are plain lookups.
"""

import importlib

__version__ = "0.1.0"

# Home module of each public name; __all__ keeps this order.
_EXPORTS = {
    "fourier": ("CoefficientSequence", "PeriodicGrid", "SampledFunction", "analyze",
                "circular_convolve", "inner", "synthesize"),
    "theta": ("ThetaParams", "kernel", "theta3_bound", "theta3_product",
              "theta3_series"),
    "semigroups": ("SubordinationError", "SubordinationQuadrature", "bochner_scalar",
                   "generator_apply", "heat_residual", "poisson_evolve_d",
                   "poisson_evolve_kernel", "poisson_evolve_multiplier", "poisson_kernel",
                   "subordinate", "theta_evolve", "theta_evolve_d"),
    "ultradist": ("DerivativeBound", "GrowthClass", "PowerRule", "UltraDistribution",
                  "check_membership", "derivative_bound_constants", "derivative_sequence",
                  "derivative_ultra", "evolve_ultra", "fit_growth", "pair",
                  "positivity_check", "smoothing_threshold", "weak_limit_check"),
    "checks": ("CheckReport", "PropertyRecord", "run_suite"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
