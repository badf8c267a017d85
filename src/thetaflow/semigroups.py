"""Diffusion and Poisson flows on the torus as Fourier multipliers.

The heat flow scales mode n by exp(-n^2 t); its kernel realization is
circular convolution with the theta kernel K_t. The Poisson flow scales
mode n by exp(-|n| t) and arises from the heat flow through the
subordination identity

    exp(-lam) = (1/sqrt(pi)) * integral_0^inf exp(-u)/sqrt(u)
                * exp(-lam^2 / 4u) du,

which averages Gaussian decays into an exponential one. It is evaluated
by one rule, the trapezoid rule in v = ln s after the substitution
u = s^2, whose error is bounded a priori for every t and |n| (see
SubordinationQuadrature); an optional check also bounds it a posteriori
by the Bochner defect. In d dimensions
the heat multiplier tensorizes to exp(-t * sum n_j^2) while the
subordinated multiplier exp(-t * sqrt(sum n_j^2)) does not factor; the
two flows coincide only on one axis.

Every flow is diagonal in Fourier space with a symbol of |n|^2 alone,
evaluated once per distinct |n|^2 on the grid and applied by
fourier._Spectrum, which owns the transforms and their cost.
Subordination sums S(|n|^2) = sum_k c_k exp(-tau_k |n|^2) over the
quadrature nodes and applies it like any other symbol.

Cost of a flow: one inverse FFT (see fourier._Spectrum), whose complex
passes on real data of two or more axes skip the columns on which every
symbol value sigma has |sigma| P < 2^53 2^-1022, P the spectrum's peak,
and in memory two arrays, the product of spectrum and symbol and the
result, which the returned function takes over. maximal_function and
heat_residual take the magnitude of each real time slice in its own
array and keep one running maximum.

Cost of subordination: the rule has about (ln 72 - ln t) / 0.15 nodes,
whatever the grid, and the symbol costs one exp per (node, |n|^2) pair
whose term c_k exp(-tau_k |n|^2) is a normal double; node k stops at the
first |n|^2 where ln c_k - tau_k |n|^2 falls below ln 2^-1022, as the
terms past it add less than 2^-1012 to the symbol. Its optional error
check reads the spectrum the flow has already taken, so no transform is
added.

All operations are pure: inputs are immutable and outputs are fresh
objects, so concurrent use is safe. Quadrature sums run in a fixed node
order, making results independent of any parallel schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fourier import (_EXP_ZERO, PeriodicGrid, SampledFunction, _Spectrum, _integer,
                      _require_resolved, _tolerance, circular_convolve)

# Step of the subordination trapezoid rule in v = ln s. Its discretisation
# error is at most 1.1e-13 for every t and |n| (SubordinationQuadrature).
_STEP = 0.15
# The lowest node sits at s = t / _LOW_NODE, where the smallest nonzero
# lam = t|n| = t has lam^2 / 4 s^2 = 36: the nodes below add under e^-36.
_LOW_NODE = 12.0

_LOG_TINY = math.log(2.0 ** -1022)  # ln of the least normal double

# exp(-r x) is 0.0 in double precision for every x >= 1 once r > 745.2, so
# _decay caps a rate here: below the cap nothing changes, above it x = 0
# still gives 1 and r x can neither overflow nor become inf * 0.
_RATE_CAP = 1e3

# Most nodes a SubordinationQuadrature may allow, and its default: 1024
# nodes reach every t down to about 1.4e-65.
_MAX_NODES = 1024

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


def theta_evolve(f: SampledFunction, t: float) -> SampledFunction:
    """Heat flow on the torus of any dimension: mode n scaled by exp(-t |n|^2).

    On a d-dim grid this is the product of the per-axis flows, as the
    kernel is the product of per-axis theta factors. t must be finite and
    nonnegative; t = 0 is the identity.
    """
    _require_time(t)
    if t == 0.0:
        return f
    spectrum = _Spectrum(f)
    return spectrum.apply(_decay(t, spectrum.n2))


def poisson_evolve_multiplier(f: SampledFunction, t: float) -> SampledFunction:
    """Poisson flow on the torus of any dimension: mode n scaled by exp(-t |n|).

    Applied directly on the full mode array: for d > 1 the symbol
    exp(-t sqrt(sum n_j^2)) does not factor across axes. t must be finite
    and nonnegative; t = 0 is the identity.
    """
    _require_time(t)
    if t == 0.0:
        return f
    spectrum = _Spectrum(f)
    return spectrum.apply(_decay(t, np.sqrt(spectrum.n2)))


# The d-dim names of the two flows, kept for callers that use them.
theta_evolve_d = theta_evolve
poisson_evolve_d = poisson_evolve_multiplier


def poisson_kernel(t: float, grid: PeriodicGrid) -> SampledFunction:
    """Closed-form Poisson kernel (1/2pi)(1 - r^2)/(1 - 2r cos x + r^2), r = exp(-t).

    The denominator is formed as (1 - r)^2 + 4r sin^2(x/2), with 1 - r and
    1 - r^2 from expm1, so nothing cancels near x = 0 at small t. Refused
    where its samples' mass coth(N t / 2) passes 1 + 1e-14, kernel's default tol.
    """
    if grid.dims != 1:
        raise ValueError("poisson_kernel expects a 1-d grid")
    _require_time(t, positive=True)
    _require_resolved("Poisson", grid, t, 1e-14,  # expm1 overflows past 709.78
                      excess=2.0 / math.expm1(min(grid.npoints * t, 700.0)),
                      least=math.log1p(2e14) / grid.npoints)
    r = math.exp(-t)
    # sin(x_j / 2) as sin(pi min(j, N - j) / N): the float points near 2pi
    # sit off their exact place, and their error would shift the mass.
    j = np.arange(grid.npoints)
    half_sine = np.sin(np.pi / grid.npoints * np.minimum(j, grid.npoints - j))
    denominator = 4.0 * r * half_sine  # (1 - r)^2 + 4r sin^2, in one buffer
    denominator *= half_sine
    denominator += math.expm1(-t) ** 2
    vals = np.divide(-math.expm1(-2.0 * t), denominator, out=denominator)
    vals /= 2.0 * np.pi
    return SampledFunction._adopt(grid, vals, "real")


def poisson_evolve_kernel(f: SampledFunction, t: float) -> SampledFunction:
    """Poisson flow by circular convolution with the closed-form kernel."""
    _require_time(t, positive=True)
    return circular_convolve(f, poisson_kernel(t, f.grid))


@dataclass(frozen=True)
class SubordinationQuadrature:
    """Quadrature plan for the subordination integral over (0, inf).

    The integral (2/sqrt(pi)) int_0^inf exp(-s^2 - lam^2/4s^2) ds, lam = t|n|,
    becomes with s = e^v the integral of
    f(v) = (2/sqrt(pi)) e^v exp(-e^{2v} - lam^2 e^{-2v}/4) over the real line.
    The rule is the trapezoid rule of step h = 0.15 on the nodes
    v_k = ln(u_max)/2 - k h, k = 0, 1, ..., down to v = ln(t/12), with
    weights c_k = (2/sqrt(pi)) h s_k exp(-s_k^2); mode n = 0 gets exactly 1.
    It yields a symbol S(|n|^2) that approximates exp(-t|n|).

    Error bound, for every t and |n|: f is analytic in the strip
    |Im v| < pi/4, and on |Im v| <= pi/4 - delta, where
    Re e^{+-2v} >= e^{+-2 Re v} sin(2 delta), its absolute integral is at
    most M = sin(2 delta)^(-1/2). The trapezoid rule on the whole line then
    errs by at most 2M / (exp(2 pi (pi/4 - delta) / h) - 1) (Trefethen and
    Weideman, SIAM Review 56 (2014), Thm 5.1): 1.1e-13 at delta = 0.012. The
    nodes left out add at most (2/sqrt(pi)) min(t/12, sqrt(u_max)) e^-36
    h / (1 - e^-h) below, under 7.7e-15, and erfc(sqrt(u_max)) above,
    2.2e-17 at the default u_max = 36 and 7.2e-14 at the least, 28. So
    |S - exp(-t|n|)| <= 1.2e-13 by default and <= 1.9e-13 for every
    accepted u_max, rounding aside.

    nodes is the most nodes the rule may take, an integer from 8 to 1024;
    a t that needs more, about (ln(12 sqrt(u_max)) - ln t) / h + 1, is
    refused with a ValueError. u_max, the upper truncation point, is a
    number in [28, 750]: below 28 the truncation error alone would pass
    the bound above, and exp(-u) is 0.0 in double precision past about
    745. tol, when set, must be finite and requests an error check: the
    Bochner defect sum_n |f_hat(n)| * |S(|n|^2) - exp(-t|n|)| over the modes
    of the input, which bounds the sup-norm quadrature error of the result,
    must not exceed tol, or a SubordinationError is raised.
    """

    nodes: int = _MAX_NODES
    u_max: float = 36.0
    tol: Optional[float] = None

    def __post_init__(self):
        nodes = _integer(self.nodes, "nodes")
        object.__setattr__(self, "nodes", nodes)
        if nodes < 8:
            raise ValueError(f"need at least 8 nodes, got {nodes}")
        if nodes > _MAX_NODES:
            raise ValueError(f"at most {_MAX_NODES} nodes, got {nodes}")
        if not 28.0 <= self.u_max <= _EXP_ZERO:  # erfc(sqrt(28)) = 7.2e-14: the bound above holds
            raise ValueError(f"u_max must be finite, at least 28 and at most {_EXP_ZERO:g}, "
                             f"got {self.u_max}")
        if self.tol is not None:
            _tolerance(self.tol)


def _subordination_symbol(n2: np.ndarray, t: float,
                          quad: SubordinationQuadrature) -> np.ndarray:
    """S(|n|^2) = sum_k c_k exp(-tau_k |n|^2), tau_k = t^2 / 4 s_k^2, and S(0) = 1.

    The trapezoid rule of SubordinationQuadrature, carried out on symbol
    values: node k contributes the heat symbol at time tau_k with weight
    c_k. A t past 12 sqrt(u_max) leaves no nodes; a t that needs more
    than quad.nodes is refused with a ValueError.

    n2 must be sorted ascending, as the distinct |n|^2 of a grid are. Node
    k then only adds over the prefix of n2 where its term stays in the
    normal range, |n|^2 <= (ln c_k - ln 2^-1022) / tau_k, so a node costs
    one exp per mode it reaches; a c_k that underflows to 0 reaches none.
    The terms left out, each below 2^-1022 and fewer than 1024, add
    less than 2^-1012 to S.
    """
    top = 0.5 * math.log(quad.u_max)
    count = max(math.floor((top + math.log(_LOW_NODE) - math.log(t)) / _STEP) + 1, 0)
    if count > quad.nodes:
        raise ValueError(f"t = {t} needs {count} subordination nodes, "
                         f"more than the {quad.nodes} allowed")
    s = np.exp(top - _STEP * np.arange(count))
    coef = 2.0 / math.sqrt(math.pi) * _STEP * s * np.exp(-s * s)
    rates = (0.5 * t / s) ** 2  # at most 36: the lowest node has s >= t / 12
    with np.errstate(divide="ignore"):  # ln 0 = -inf: no reach
        reach = np.searchsorted(n2, (np.log(coef) - _LOG_TINY) / rates, side="right")
    acc = np.zeros_like(n2)
    for r, c, k in zip(rates, coef, reach):
        acc[:k] += c * np.exp(-r * n2[:k])
    acc[n2 == 0] = 1.0
    return acc


def _bochner_defect(spectrum: _Spectrum, symbol: np.ndarray, t: float) -> float:
    """Sum over the modes of f of |f_hat(n)| * |S(|n|^2) - exp(-t|n|)|.

    Applying the symbol S to f misses the Poisson flow of f by
    sum_n f_hat(n) (S(|n|^2) - exp(-t|n|)) exp(i n.x), so this bounds the
    sup-norm quadrature error of the result (FFT round-off aside).
    """
    exact = _decay(t, np.sqrt(spectrum.n2))
    return float(spectrum.amplitudes() @ np.abs(symbol - exact))


def bochner_scalar(lam: float) -> float:
    """Evaluate (2/sqrt(pi)) * integral_0^inf exp(-s^2 - lam^2/4s^2) ds.

    Equals exp(-lam); the default quadrature's scalar sanity check. It
    evaluates the symbol that subordinate applies: at t = lam on a mode
    with |n| = 1, or, for lam = 0, on the mode n = 0 (at t = 1). A lam
    below about 1.4e-65 needs more than the 1024 nodes the rule allows
    and is refused with a ValueError.
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
    spectrum = _Spectrum(f)
    symbol = _subordination_symbol(spectrum.n2, t, quad)
    out = spectrum.apply(symbol)  # before the defect, so overflowed data raises OverflowError
    if quad.tol is not None:
        est = _bochner_defect(spectrum, symbol, t)
        if est > quad.tol:
            raise SubordinationError(
                f"estimated quadrature error {est:.3e} exceeds requested "
                f"{quad.tol:.3e} (t = {t}, u_max = {quad.u_max})"
            )
    return out


def generator_apply(f: SampledFunction) -> SampledFunction:
    """Spectral Laplacian: mode n scaled by -(sum n_j^2)."""
    spectrum = _Spectrum(f)
    return spectrum.apply(-spectrum.n2)


def heat_residual(f: SampledFunction, t_grid: Sequence[float]) -> float:
    """Sup-norm residual of the heat equation along the evolution of f.

    At each interior point of t_grid, d/dt of the evolution is formed by a
    central difference and compared with the spectral Laplacian; the
    maximum of the sup-norm mismatch is returned. A small residual
    certifies that the evolution solves du/dt = Lu; a time spacing above
    1e-2 draws a warning. Both sides are Fourier
    multipliers, so f is transformed forward once per function (not at
    all if a flow has transformed it before) and each interior time
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
    spectrum = _Spectrum(f)
    n2 = spectrum.n2
    worst = 0.0
    for lo, mid, hi in zip(ts, ts[1:], ts[2:]):
        dudt = (_decay(hi, n2) - _decay(lo, n2)) / (hi - lo)
        mismatch = spectrum.scaled(dudt + n2 * _decay(mid, n2))
        worst = max(worst, float(np.max(_magnitude(mismatch))))
    return worst


def maximal_function(f: SampledFunction,
                     t_samples: Optional[Sequence[float]] = None) -> SampledFunction:
    """Pointwise max of |heat evolution of f| over the sampled times.

    A lower bound for the true supremum over all t > 0 (the supremum is
    approached as the smallest sampled time tends to 0). The default times
    are 64 log-spaced ones from 1e-3 to 10. f is transformed forward once
    per function (not at all if a flow has transformed it before); each
    time costs one inverse transform.
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
    spectrum = _Spectrum(f)
    n2 = spectrum.n2
    best = np.zeros(f.grid.sizes)
    for t in ts:
        np.maximum(best, _magnitude(spectrum.scaled(_decay(t, n2))), out=best)
    return SampledFunction._adopt(f.grid, best, "real")


def _magnitude(values: np.ndarray) -> np.ndarray:
    """|values|, written over values when they are real; the caller gives them up."""
    return np.abs(values, out=values) if values.dtype.kind == "f" else np.abs(values)
