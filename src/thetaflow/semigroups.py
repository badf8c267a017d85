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

Cost of subordination: the Gauss-Legendre rule is built once per node
count per process and cached, and the symbol costs one exp per (node,
|n|^2) pair that does not underflow to 0.0; node i stops at the first
|n|^2 with tau_i |n|^2 past the underflow point. Its optional error check
reads the spectrum the flow has already taken, so no transform is added.

All operations are pure: inputs are immutable and outputs are fresh
objects, so concurrent use is safe. Quadrature sums run in a fixed node
order, making results independent of any parallel schedule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .fourier import (_EXP_ZERO, PeriodicGrid, SampledFunction, _forward, _integer,
                      _inverse, _require_resolved, circular_convolve)

# Panel break for the substituted Gauss-Legendre rule: one panel resolves
# the rise of exp(-lam^2 / 4 s^2) near the origin, the other the Gaussian
# envelope. Chosen empirically. With 64 total nodes, subordinating cos x
# misses the multiplier by 7.3e-10 on 256 points at t = 0.2 and by 6.4e-5
# on 4096 points at t = 0.01; the tol check (--quad-tol) bounds the error.
_PANEL_SPLIT = 0.6
_TAIL_DECAY = 10.0  # eps = t / _TAIL_DECAY puts exp(-t^2/4eps^2) ~ 1e-11

# exp(-r x) is 0.0 in double precision for every x >= 1 once r > 745.2, so
# _decay caps a rate here: below the cap nothing changes, above it x = 0
# still gives 1 and r x can neither overflow nor become inf * 0.
_RATE_CAP = 1e3

# Largest node count of a SubordinationQuadrature: the rule for m nodes is
# built from a dense m x m matrix, and 64 nodes already reach ~1e-10.
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


class _Spectrum:
    """f transformed once; symbols on the grid's distinct |n|^2 are applied to it.

    n2 holds the distinct |n|^2 and symbol[k] scales every mode n whose
    |n|^2 is n2[k]. Real-kind data is held as its rfftn half spectrum and
    goes back through irfftn, so its outputs are exactly real; other data
    is held as its full fftn spectrum.
    """

    def __init__(self, f: SampledFunction):
        self.f = f
        self.real = f.kind == "real"
        self.n2, self.index = _mode_table(f.grid.sizes, self.real)
        self.spec = _forward(f, self.real)

    def apply(self, symbol: np.ndarray) -> SampledFunction:
        """f with every mode scaled by its symbol value; an overflow raises OverflowError."""
        with np.errstate(over="ignore", invalid="ignore"):
            product = self.spec * symbol[self.index]
        return self.f.with_values(_inverse(product, self.f.grid, self.real,
                                           "Fourier multiplier", (self.f.values, symbol)))

    def amplitudes(self) -> np.ndarray:
        """For each distinct |n|^2, the sum of |f_hat(n)| over the modes n that have it.

        A half spectrum holds one of each conjugate pair f_hat(-n) = conj f_hat(n)
        of real data: the last-axis columns 1 .. N/2 - 1 stand for two modes,
        columns 0 and N/2 for one.
        """
        amplitude = np.abs(self.spec) / self.f.grid.npoints
        if self.real:
            amplitude[..., 1:self.f.grid.sizes[-1] // 2] *= 2.0
        return np.bincount(self.index.ravel(), weights=amplitude.ravel(),
                           minlength=self.n2.size)


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
    half_sine = np.sin(0.5 * grid.points)
    denominator = math.expm1(-t) ** 2 + 4.0 * r * half_sine * half_sine
    vals = -math.expm1(-2.0 * t) / denominator / (2.0 * np.pi)
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

    nodes must be an integer from 8 to 1024 and u_max a number in (1, 750],
    since exp(-u) is 0.0 in double precision past about 745. tol,
    when set, must be finite and requests an error check: the Bochner defect
    sum_n |f_hat(n)| * |S(|n|^2) - exp(-t|n|)| over the modes of the input,
    which bounds the sup-norm quadrature error of the result, must not
    exceed tol, or a SubordinationError is raised.
    """

    nodes: int = 64
    u_max: float = 36.0
    tol: Optional[float] = None

    def __post_init__(self):
        nodes = _integer(self.nodes, "nodes")
        object.__setattr__(self, "nodes", nodes)
        if nodes < 8:
            raise ValueError(f"need at least 8 nodes, got {nodes}")
        if nodes > _MAX_NODES:
            raise ValueError(f"at most {_MAX_NODES} nodes, got {nodes}")
        if not 1 < self.u_max <= _EXP_ZERO:  # past it exp(-u) adds nothing but sparser nodes
            raise ValueError(f"u_max must be finite, exceed 1 and be at most {_EXP_ZERO:g}, "
                             f"got {self.u_max}")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite when given, got {self.tol}")


@lru_cache(maxsize=16)
def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre nodes and weights on [-1, 1], built once per m, read-only."""
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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
        x, w = _legendre_rule(m)
        ss.append(0.5 * (b - a) * x + 0.5 * (b + a))
        ww.append(0.5 * (b - a) * w)
    return np.concatenate(ss), np.concatenate(ww)


def _subordination_symbol(n2: np.ndarray, t: float,
                          quad: SubordinationQuadrature) -> np.ndarray:
    """S(|n|^2) = erf(eps) [n = 0] + sum_i c_i exp(-tau_i |n|^2), tau_i = t^2 / 4 s_i^2.

    The quadrature of the subordination integral, carried out on symbol
    values: node i contributes the heat symbol at time tau_i with weight
    c_i = (2/sqrt(pi)) w_i exp(-s_i^2).

    n2 must be sorted ascending, as the distinct |n|^2 of a grid are. Node
    i then only adds over the prefix of n2 where exp(-tau_i |n|^2) is not
    0.0, so a node costs one exp per mode it reaches: the sum equals the
    full one bit for bit, since the terms left out are exact zeros.
    """
    t = float(t)  # t * t below may overflow to inf, which the rate cap takes
    s_max = math.sqrt(quad.u_max)
    eps = min(t / _TAIL_DECAY, s_max / 2)
    # Analytic small-s piece: the evolution time t^2/4s^2 blows up there,
    # where the heat flow has already flattened f to its mean.
    acc = np.where(n2 == 0, math.erf(eps), 0.0)
    s, w = _gauss_nodes(eps, s_max, quad.nodes)
    coef = 2.0 / math.sqrt(math.pi) * w * np.exp(-s * s)
    rates = np.minimum(t * t / (4.0 * s * s), _RATE_CAP)  # as _decay caps them
    with np.errstate(divide="ignore", over="ignore"):  # a zero rate reaches every mode
        reach = np.searchsorted(n2, _EXP_ZERO / rates, side="right")
    for r, c, k in zip(rates, coef, reach):
        acc[:k] += c * np.exp(-r * n2[:k])
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
    spectrum = _Spectrum(f)
    symbol = _subordination_symbol(spectrum.n2, t, quad)
    out = spectrum.apply(symbol)  # before the defect, so overflowed data raises OverflowError
    if quad.tol is not None:
        est = _bochner_defect(spectrum, symbol, t)
        if est > quad.tol:
            raise SubordinationError(
                f"estimated quadrature error {est:.3e} exceeds requested "
                f"{quad.tol:.3e} (nodes = {quad.nodes}, t = {t})"
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
    spectrum = _Spectrum(f)
    n2 = spectrum.n2
    worst = 0.0
    for lo, mid, hi in zip(ts, ts[1:], ts[2:]):
        dudt = (_decay(hi, n2) - _decay(lo, n2)) / (hi - lo)
        mismatch = spectrum.apply(dudt + n2 * _decay(mid, n2)).values
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
    spectrum = _Spectrum(f)
    n2 = spectrum.n2
    best = np.zeros(f.grid.sizes)
    for t in ts:
        best = np.maximum(best, np.abs(spectrum.apply(_decay(t, n2)).values))
    return SampledFunction(f.grid, best, kind="real")
