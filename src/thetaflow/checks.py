"""Numerical property suites for the 1-d and 2-d diffusion flows.

Each suite evaluates a fixed list of structural properties (semigroup
law, kernel self-consistency, conservation, positivity, contractivity,
strong continuity, self-adjointness, generator limit, heat-equation
residual) on seeded random data and reports one record per property
with its observed error and pinned tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fourier import (PeriodicGrid, SampledFunction, _integer, _require_unaliased,
                      _synthesize_cube, circular_convolve, inner)
from .semigroups import (
    generator_apply,
    heat_residual,
    subordinate,
    theta_evolve,
)
from .theta import kernel

EVOLVE_TIMES = (0.1, 0.5, 1.3)
DECAY_TIMES = (1.0, 0.1, 0.01, 0.001)
GENERATOR_TIMES = (1e-2, 1e-3, 1e-4)
SQRT2_TIMES = (0.3, 0.7, 1.5)
# Chapman-Kolmogorov tolerance. The residual of sampled kernels at (s, t) is
# set by their alias excess 2 exp(-n^2 st/(s + t)), so it also fixes the least n.
_CK_TOL = 1e-10


@dataclass(frozen=True)
class PropertyRecord:
    name: str
    detail: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "detail": self.detail,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class CheckReport:
    suite: str
    environment: dict
    records: tuple[PropertyRecord, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "environment": self.environment,
            "records": [r.to_dict() for r in self.records],
            "all_pass": self.all_pass,
        }


def _cube_shape(grid: PeriodicGrid, halfwidth: int) -> tuple[int, ...]:
    """Shape of the modes |n_a| <= halfwidth; a halfwidth that is no integer >= 0 is refused."""
    if _integer(halfwidth, "halfwidth") < 0:
        raise ValueError(f"halfwidth must be >= 0, got {halfwidth}")
    return (2 * halfwidth + 1,) * grid.dims


def random_bandlimited(grid: PeriodicGrid, halfwidth: int,
                       rng: np.random.Generator) -> SampledFunction:
    """Random real function with modes |n_a| <= halfwidth; an aliasing grid is refused."""
    shape = _cube_shape(grid, halfwidth)
    _require_unaliased(grid, halfwidth)
    cube = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cube = 0.5 * (cube + np.conj(np.flip(cube)))  # Hermitian: c(-n) = conj(c(n))
    return SampledFunction(grid, _synthesize_cube(cube, grid), kind="real")


def random_nonnegative(grid: PeriodicGrid, halfwidth: int,
                       rng: np.random.Generator) -> SampledFunction:
    """|p|^2 for a random band-limited trig polynomial p; pointwise >= 0."""
    shape = _cube_shape(grid, halfwidth)
    z = rng.normal(size=(math.prod(shape), 2))  # mode by mode, re then im
    p = _synthesize_cube((z[:, 0] + 1j * z[:, 1]).reshape(shape), grid)
    return SampledFunction(grid, np.abs(p) ** 2, kind="real")


def _record_semigroup(f: SampledFunction) -> PropertyRecord:
    inner = {t: theta_evolve(f, t) for t in EVOLVE_TIMES}
    worst = 0.0
    for t1, t2 in itertools.product(EVOLVE_TIMES, repeat=2):
        twice = theta_evolve(inner[t2], t1)
        once = theta_evolve(f, t1 + t2)
        worst = max(worst, float(np.max(np.abs(twice.values - once.values))))
    return PropertyRecord(
        "semigroup_law",
        "sup |T_s(T_t f) - T_(s+t) f| over s,t in {0.1,0.5,1.3}, random band-limited f",
        worst, 1e-11,
    )


def _record_chapman_kolmogorov(grid: PeriodicGrid) -> PropertyRecord:
    kernels = {t: kernel(t, grid) for t in EVOLVE_TIMES}
    worst = 0.0
    for t1, t2 in itertools.combinations_with_replacement(EVOLVE_TIMES, 2):
        conv = circular_convolve(kernels[t1], kernels[t2])
        direct = kernel(t1 + t2, grid)
        worst = max(worst, float(np.max(np.abs(conv.values - direct.values))))
    return PropertyRecord(
        "chapman_kolmogorov",
        "sup |K_s * K_t - K_(s+t)| for s,t in {0.1,0.5,1.3} (kernel self-consistency)",
        worst, _CK_TOL,
    )


def _record_conservation(f: SampledFunction) -> PropertyRecord:
    worst = max(abs(theta_evolve(f, t).mean() - f.mean()) for t in EVOLVE_TIMES)
    return PropertyRecord(
        "conservation",
        "grid mean is invariant under the flow (unit-mass kernel)",
        float(worst), 1e-12,
    )


def _record_positivity(fpos: SampledFunction) -> PropertyRecord:
    worst = 0.0
    for t in EVOLVE_TIMES:
        low = float(np.min(theta_evolve(fpos, t).values))
        worst = max(worst, max(0.0, -low))
    return PropertyRecord(
        "positivity",
        "f >= 0 implies evolved f >= 0 (deficit below zero reported)",
        worst, 1e-12,
    )


def _record_contractivity(f: SampledFunction) -> PropertyRecord:
    worst = 0.0
    for t in EVOLVE_TIMES:
        ft = theta_evolve(f, t)
        for p in (1, 2, math.inf):
            worst = max(worst, ft.norm(p) - f.norm(p))
    return PropertyRecord(
        "contractivity",
        "L^p norms do not grow under the flow, p in {1,2,inf} (excess reported)",
        max(worst, 0.0), 1e-12,
    )


def _record_strong_continuity(f: SampledFunction) -> PropertyRecord:
    dists = []
    for t in DECAY_TIMES:
        ft = theta_evolve(f, t)
        dists.append(ft.with_values(ft.values - f.values).norm(2))
    worst = max([b - a for a, b in zip(dists, dists[1:])] + [0.0])
    return PropertyRecord(
        "strong_continuity",
        "||evolved f - f||_2 decreases monotonically as t drops through "
        "{1,0.1,0.01,0.001} (largest increase reported)",
        worst, 0.0,
    )


def _record_self_adjointness(f: SampledFunction, g: SampledFunction) -> PropertyRecord:
    worst = max(
        abs(inner(theta_evolve(f, t), g) - inner(f, theta_evolve(g, t)))
        for t in EVOLVE_TIMES
    )
    return PropertyRecord(
        "self_adjointness",
        "<T_t f, g> = <f, T_t g> in the grid inner product",
        float(worst), 1e-12,
    )


def _record_generator(f: SampledFunction) -> PropertyRecord:
    lf = generator_apply(f)
    errs = []
    for t in GENERATOR_TIMES:
        diff = (theta_evolve(f, t).values - f.values) / t - lf.values
        errs.append(float(np.max(np.abs(diff))))
    slope = np.polyfit(np.log(GENERATOR_TIMES), np.log(errs), 1)[0]
    return PropertyRecord(
        "generator_limit",
        "(T_t f - f)/t converges to the Laplacian of f at first order in t "
        f"(fitted order {slope:.3f}, deficit below 0.9 reported)",
        max(0.0, 0.9 - float(slope)), 0.0,
    )


def _record_heat_equation(f: SampledFunction) -> PropertyRecord:
    dt = 1e-4
    resid = heat_residual(f, (0.5 - dt, 0.5, 0.5 + dt))
    return PropertyRecord(
        "heat_equation",
        "sup |du/dt - Lu| along the evolution at t = 0.5, central dt = 1e-4",
        resid, 1e-6,
    )


def _record_sqrt2_decay(grid: PeriodicGrid) -> PropertyRecord:
    x1, x2 = grid.meshgrid()
    f = SampledFunction(grid, np.cos(x1) * np.cos(x2), kind="real")
    worst = 0.0
    for t in SQRT2_TIMES:
        expected = math.exp(-t * math.sqrt(2.0)) * f.values
        got = subordinate(f, t).values
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return PropertyRecord(
        "poisson_sqrt2_decay",
        "subordinated d=2 flow damps cos(x1)cos(x2) by exp(-t*sqrt(2)), "
        "not exp(-2t): the flow is not a tensor product",
        worst, 1e-10,
    )


def run_suite(suite: str, n: Optional[int] = None, seed: int = 42) -> CheckReport:
    """Run the named property suite ('thm1': 1-d; 'thm2': 2-d; both need n >= 22)."""
    if suite == "thm1":
        dims, n = 1, 256 if n is None else n
    elif suite == "thm2":
        dims, n = 2, 64 if n is None else n
    else:
        raise ValueError(f"unknown suite {suite!r}; expected 'thm1' or 'thm2'")
    grid = PeriodicGrid((n,) * dims)
    hw = 8 if dims == 1 else 4
    # The least even n that keeps the data's modes |n_a| <= hw from aliasing
    # and the kernels at the smallest st/(s + t) within the CK tolerance.
    tau = min(EVOLVE_TIMES) / 2
    kernel_least = math.ceil(math.sqrt(math.log(2.0 / _CK_TOL) / tau))
    kernel_least += kernel_least % 2
    least = max(2 * hw + 2, kernel_least)
    if n < least:
        raise ValueError(
            f"suite {suite!r} needs n >= {least} ({2 * hw + 2} for its random data with "
            f"modes up to {hw}, {kernel_least} for the alias excess of its kernels at "
            f"st/(s + t) = {tau} to stay within {_CK_TOL:g}), got {n}"
        )
    rng = np.random.default_rng(seed)
    f = random_bandlimited(grid, hw, rng)
    g = random_bandlimited(grid, hw, rng)
    fpos = random_nonnegative(grid, hw, rng)

    records = [
        _record_semigroup(f),
        _record_chapman_kolmogorov(grid),
        _record_conservation(f),
        _record_positivity(fpos),
        _record_contractivity(f),
        _record_strong_continuity(f),
        _record_self_adjointness(f, g),
        _record_generator(f),
        _record_heat_equation(f),
    ]
    if dims == 2:
        records.append(_record_sqrt2_decay(grid))

    env = {"suite": suite, "n": n, "dims": dims, "seed": seed, "halfwidth": hw}
    return CheckReport(suite, env, tuple(records))
