"""Diffusion and Poisson flows on the torus as Fourier multipliers.

The heat flow scales mode n by exp(-n^2 t); its kernel realization is
circular convolution with the theta kernel K_t. The Poisson flow scales
mode n by exp(-|n| t) and arises from the heat flow through the
subordination identity

    exp(-lam) = (1/sqrt(pi)) * integral_0^inf exp(-u)/sqrt(u)
                * exp(-lam^2 / 4u) du,

which averages Gaussian decays into an exponential one. It is evaluated
by one rule, Gauss-Legendre in the substituted variable u = s^2, and an
optional check bounds its error by the Bochner defect. In d dimensions
the heat multiplier tensorizes to exp(-t * sum n_j^2) while the
subordinated multiplier exp(-t * sqrt(sum n_j^2)) does not factor; the
two flows coincide only on one axis.

Every flow is diagonal in Fourier space with a symbol that depends on
|n|^2 alone, so all of them go through one spectral core: the symbol is
evaluated once per distinct |n|^2 on the grid and applied with a real
FFT pair for real-kind data (a complex pair otherwise). Subordination is
summed at the symbol level, S(|n|^2) = sum_i c_i exp(-tau_i |n|^2) over
the quadrature nodes, and then applied with that single FFT pair.

All operations are pure: inputs are immutable and outputs are fresh
objects, so concurrent use is safe. Quadrature sums run in a fixed node
order, making results independent of any parallel schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .fourier import PeriodicGrid, SampledFunction, _forward, _inverse, circular_convolve

# Panel break for the substituted Gauss-Legendre rule: one panel resolves
# the rise of exp(-lam^2 / 4 s^2) near the origin, the other the Gaussian
# envelope. Chosen empirically; 64 total nodes then reach ~1e-10 absolute
# accuracy for evolution times down to t = 0.2.
_PANEL_SPLIT = 0.6
_TAIL_DECAY = 10.0  # eps = t / _TAIL_DECAY puts exp(-t^2/4eps^2) ~ 1e-11

# exp(-r x) is 0.0 in double precision for every x >= 1 once r > 745.2, so
# _decay caps a rate here: below the cap nothing changes, above it x = 0
# still gives 1 and r x can neither overflow nor become inf * 0.
_RATE_CAP = 1e3

_COARSE_SPACING = 1e-2  # heat_residual warns on a coarser time grid
_MAXIMAL_TIMES = np.geomspace(1e-3, 10.0, 64)  # maximal_function's default times
_MAXIMAL_TIMES.flags.writeable = False


class SubordinationError(RuntimeError):
    """Raised when the subordination quadrature misses its requested accuracy."""


def _require_time(t: float, positive: bool = False) -> None:
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if t < 0 or (positive and t == 0):
        raise ValueError(
            f"time must be {'positive' if positive else 'nonnegative'}, got {t}")


def _decay(rate: float, x: np.ndarray) -> np.ndarray:
    """exp(-rate * x) for a rate >= 0 on values x that are 0 or at least 1.

    The x here are |n|^2 or |n| of lattice modes. A rate whose exponent
    would overflow (even inf) leaves 1 at x = 0 and 0 elsewhere.
    """
    return np.exp(-min(rate, _RATE_CAP) * x)


@lru_cache(maxsize=16)
def _mode_table(sizes: tuple[int, ...], half: bool) -> tuple[np.ndarray, np.ndarray]:
    """Distinct |n|^2 on a grid, and for each FFT mode the index of its |n|^2.

    half selects the rfftn layout, whose last axis holds n = 0 .. N/2; the
    full fftn layout is used otherwise. Both layouts have the same distinct
    values, so a symbol evaluated on them serves either one. The tables
    are cached per grid shape and returned read-only.
    """
    grid = PeriodicGrid(sizes)
    total = np.zeros((), dtype=np.int64)
    for axis, size in enumerate(sizes):
        last = axis == len(sizes) - 1
        n = np.arange(size // 2 + 1) if half and last else grid.frequencies(axis)
        shape = [1] * len(sizes)
        shape[axis] = n.size
        total = total + (n * n).reshape(shape)
    n2, index = np.unique(total, return_inverse=True)
    n2 = n2.astype(float)
    index = index.reshape(total.shape)
    n2.flags.writeable = False
    index.flags.writeable = False
    return n2, index


def _symbol_applier(f: SampledFunction
                    ) -> tuple[np.ndarray, Callable[[np.ndarray], SampledFunction]]:
    """Transform f once: the grid's distinct |n|^2 and a function applying a symbol on them.

    symbol[k] scales every mode n whose |n|^2 is n2[k]. Real-kind data goes through
    rfftn/irfftn, so its outputs are exactly real; an overflow raises OverflowError.
    """
    real = f.kind == "real"
    n2, index = _mode_table(f.grid.sizes, real)
    spec = _forward(f, real)

    def apply(symbol: np.ndarray) -> SampledFunction:
        with np.errstate(over="ignore", invalid="ignore"):
            product = spec * symbol[index]
        return f.with_values(_inverse(product, f.grid, real, "Fourier multiplier",
                                      (f.values, symbol)))

    return n2, apply


def theta_evolve(f: SampledFunction, t: float) -> SampledFunction:
    """Heat flow on the torus of any dimension: mode n scaled by exp(-t |n|^2).

    On a d-dim grid this is the product of the per-axis flows, as the
    kernel is the product of per-axis theta factors. t must be finite and
    nonnegative; t = 0 is the identity.
    """
    _require_time(t)
    if t == 0.0:
        return f
    n2, apply = _symbol_applier(f)
    return apply(_decay(t, n2))


def poisson_evolve_multiplier(f: SampledFunction, t: float) -> SampledFunction:
    """Poisson flow on the torus of any dimension: mode n scaled by exp(-t |n|).

    Applied directly on the full mode array: for d > 1 the symbol
    exp(-t sqrt(sum n_j^2)) does not factor across axes. t must be finite
    and nonnegative; t = 0 is the identity.
    """
    _require_time(t)
    if t == 0.0:
        return f
    n2, apply = _symbol_applier(f)
    return apply(_decay(t, np.sqrt(n2)))


# The d-dim names of the two flows, kept for callers that use them.
theta_evolve_d = theta_evolve
poisson_evolve_d = poisson_evolve_multiplier


def poisson_kernel(t: float, grid: PeriodicGrid) -> SampledFunction:
    """Closed-form Poisson kernel (1/2pi)(1 - r^2)/(1 - 2r cos x + r^2), r = exp(-t)."""
    if grid.dims != 1:
        raise ValueError("poisson_kernel expects a 1-d grid")
    _require_time(t, positive=True)
    r = math.exp(-t)
    x = grid.points
    vals = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(x) + r * r) / (2.0 * np.pi)
    return SampledFunction(grid, vals, kind="real")


def poisson_evolve_kernel(f: SampledFunction, t: float) -> SampledFunction:
    """Poisson flow by circular convolution with the closed-form kernel."""
    _require_time(t, positive=True)
    return circular_convolve(f, poisson_kernel(t, f.grid))


@dataclass(frozen=True)
class SubordinationQuadrature:
    """Quadrature plan for the subordination integral over (0, inf).

    The rule substitutes u = s^2 to remove the 1/sqrt(u) singularity and
    applies panelled Gauss-Legendre with the given number of nodes on
    [eps, sqrt(u_max)]; the remaining [0, eps) piece is replaced
    analytically by its mean-value limit. It yields a symbol S(|n|^2) that
    approximates exp(-t|n|).

    u_max must be finite. tol, when set, must be finite and requests an
    error check: the Bochner defect
    sum_n |f_hat(n)| * |S(|n|^2) - exp(-t|n|)| over the modes of the input,
    which bounds the sup-norm quadrature error of the result, must not
    exceed tol, or a SubordinationError is raised.
    """

    nodes: int = 64
    u_max: float = 36.0
    tol: Optional[float] = None

    def __post_init__(self):
        if self.nodes < 8:
            raise ValueError(f"need at least 8 nodes, got {self.nodes}")
        if not (math.isfinite(self.u_max) and self.u_max > 1):
            raise ValueError(f"u_max must be finite and exceed 1, got {self.u_max}")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite when given, got {self.tol}")


def _gauss_nodes(eps: float, s_max: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    breaks = [eps]
    if eps < _PANEL_SPLIT < s_max:
        breaks.append(_PANEL_SPLIT)
    breaks.append(s_max)
    panels = len(breaks) - 1
    counts = [nodes // panels] * (panels - 1)
    counts.append(nodes - sum(counts))
    ss, ww = [], []
    for a, b, m in zip(breaks[:-1], breaks[1:], counts):
        x, w = np.polynomial.legendre.leggauss(m)
        ss.append(0.5 * (b - a) * x + 0.5 * (b + a))
        ww.append(0.5 * (b - a) * w)
    return np.concatenate(ss), np.concatenate(ww)


def _subordination_symbol(n2: np.ndarray, t: float,
                          quad: SubordinationQuadrature) -> np.ndarray:
    """S(|n|^2) = erf(eps) [n = 0] + sum_i c_i exp(-tau_i |n|^2), tau_i = t^2 / 4 s_i^2.

    The quadrature of the subordination integral, carried out on symbol
    values: node i contributes the heat symbol at time tau_i with weight
    c_i = (2/sqrt(pi)) w_i exp(-s_i^2).
    """
    t = float(t)  # t * t below may overflow to inf, which _decay takes
    s_max = math.sqrt(quad.u_max)
    eps = min(t / _TAIL_DECAY, s_max / 2)
    # Analytic small-s piece: the evolution time t^2/4s^2 blows up there,
    # where the heat flow has already flattened f to its mean.
    acc = np.where(n2 == 0, math.erf(eps), 0.0)
    s, w = _gauss_nodes(eps, s_max, quad.nodes)
    coef = 2.0 / math.sqrt(math.pi) * w * np.exp(-s * s)
    for si, ci in zip(s, coef):
        acc += ci * _decay(t * t / (4.0 * si * si), n2)
    return acc


def _bochner_defect(f: SampledFunction, n2: np.ndarray, symbol: np.ndarray,
                    t: float) -> float:
    """Sum over the modes of f of |f_hat(n)| * |S(|n|^2) - exp(-t|n|)|.

    Applying the symbol S to f misses the Poisson flow of f by
    sum_n f_hat(n) (S(|n|^2) - exp(-t|n|)) exp(i n.x), so this bounds the
    sup-norm quadrature error of the result (FFT round-off aside).
    """
    _, index = _mode_table(f.grid.sizes, False)
    amplitude = np.abs(_forward(f, False)) / f.grid.npoints
    weight = np.bincount(index.ravel(), weights=amplitude.ravel(), minlength=n2.size)
    return float(weight @ np.abs(symbol - _decay(t, np.sqrt(n2))))


def bochner_scalar(lam: float) -> float:
    """Evaluate (2/sqrt(pi)) * integral_0^inf exp(-s^2 - lam^2/4s^2) ds.

    Equals exp(-lam); the default quadrature's scalar sanity check. It
    evaluates the symbol that subordinate applies: at t = lam on a mode
    with |n| = 1, or, for lam = 0, on the mode n = 0 (at t = 1).
    """
    if not lam >= 0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    quad = SubordinationQuadrature()
    if lam == 0.0:
        return float(_subordination_symbol(np.zeros(1), 1.0, quad)[0])
    return float(_subordination_symbol(np.ones(1), lam, quad)[0])


def subordinate(f: SampledFunction, t: float,
                quad: Optional[SubordinationQuadrature] = None) -> SampledFunction:
    """Poisson flow built from the heat flow by the subordination integral.

    Sums the heat symbols at times t^2/4s^2 over the quadrature nodes and
    applies the result with one FFT pair; must reproduce the direct
    exp(-|n| t) multiplier up to quadrature error. The time must be
    positive and finite.
    """
    _require_time(t, positive=True)
    quad = quad or SubordinationQuadrature()
    n2, apply = _symbol_applier(f)
    symbol = _subordination_symbol(n2, t, quad)
    out = apply(symbol)  # before the defect, so overflowed data raises OverflowError
    if quad.tol is not None:
        est = _bochner_defect(f, n2, symbol, t)
        if est > quad.tol:
            raise SubordinationError(
                f"estimated quadrature error {est:.3e} exceeds requested "
                f"{quad.tol:.3e} (nodes = {quad.nodes}, t = {t})"
            )
    return out


def generator_apply(f: SampledFunction) -> SampledFunction:
    """Spectral Laplacian: mode n scaled by -(sum n_j^2)."""
    n2, apply = _symbol_applier(f)
    return apply(-n2)


def heat_residual(f: SampledFunction, t_grid: Sequence[float]) -> float:
    """Sup-norm residual of the heat equation along the evolution of f.

    At each interior point of t_grid, d/dt of the evolution is formed by a
    central difference and compared with the spectral Laplacian; the
    maximum of the sup-norm mismatch is returned. A small residual
    certifies that the evolution solves du/dt = Lu; a time spacing above
    1e-2 draws a warning. Both sides are Fourier
    multipliers, so f is transformed forward once and each interior time
    costs one inverse transform of the mismatch.
    """
    ts = [float(t) for t in t_grid]
    if len(ts) < 3:
        raise ValueError("t_grid needs at least 3 points for a central difference")
    if ts[0] <= 0:
        raise ValueError("t_grid must be strictly positive")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly increasing")
    for t in ts:
        _require_time(t)
    if max(b - a for a, b in zip(ts, ts[1:])) > _COARSE_SPACING:
        warnings.warn(
            "t_grid spacing exceeds "
            f"{_COARSE_SPACING}; the time-difference error may dominate the residual",
            stacklevel=2,
        )
    # du/dt - Lu is diagonal too: its symbol at each interior time is the
    # central difference of exp(-|n|^2 t) plus |n|^2 exp(-|n|^2 t_i).
    n2, apply = _symbol_applier(f)
    worst = 0.0
    for lo, mid, hi in zip(ts, ts[1:], ts[2:]):
        dudt = (_decay(hi, n2) - _decay(lo, n2)) / (hi - lo)
        mismatch = apply(dudt + n2 * _decay(mid, n2)).values
        worst = max(worst, float(np.max(np.abs(mismatch))))
    return worst


def maximal_function(f: SampledFunction,
                     t_samples: Optional[Sequence[float]] = None) -> SampledFunction:
    """Pointwise max of |heat evolution of f| over the sampled times.

    A lower bound for the true supremum over all t > 0 (the supremum is
    approached as the smallest sampled time tends to 0). The default times
    are 64 log-spaced ones from 1e-3 to 10. f is transformed forward once;
    each time costs one inverse transform.
    """
    if t_samples is None:
        t_samples = _MAXIMAL_TIMES
    ts = [float(t) for t in t_samples]
    if not ts:
        raise ValueError("t_samples must be nonempty")
    if any(t <= 0 for t in ts):
        raise ValueError("t_samples must be strictly positive")
    for t in ts:
        _require_time(t)
    n2, apply = _symbol_applier(f)
    best = np.zeros(f.grid.sizes)
    for t in ts:
        best = np.maximum(best, np.abs(apply(_decay(t, n2)).values))
    return SampledFunction(f.grid, best, kind="real")
