"""Third Jacobi theta function and the diffusion kernel it generates.

theta3(x, q) = 1 + 2 * sum_{n>=1} q^(n^2) cos(n x)
             = prod_{n>=1} [1 + 2 q^(2n-1) cos x + q^(2(2n-1))] (1 - q^(2n))

for a real nome 0 <= q < 1. The kernel of the heat flow on the circle is
K_t(x) = theta3(x, exp(-t)) / (2pi); it has unit mass and is nonnegative
(each factor of the product form is nonnegative), which is what makes the
flow conservative and positivity-preserving.

The kernel is sampled through whichever of two forms needs fewer array
passes. The cosine series needs about sqrt(ln(2/tol) / t) terms, which is
many when t is small; the Jacobi imaginary transformation (DLMF 20.7(viii))

theta3(x, exp(-t)) = sqrt(pi/t) * sum_k exp(-(x - 2pi k)^2 / 4t)

writes the kernel as a periodised Gaussian whose images fall off like
exp(-pi^2 k^2 / t), so a couple of them suffice there. The image sum is
positive term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from .fourier import TWO_PI, PeriodicGrid, SampledFunction

# Below this time the kernel is a near-delta of width sqrt(2t) < 0.045 that
# coarse grids cannot resolve, so its sampled mass and convolutions degrade;
# grid-kernel construction is refused rather than silently degraded. (The
# image sum evaluates the kernel cheaply at any t; the cap is about the grid.)
MIN_KERNEL_TIME = 1e-3


@dataclass(frozen=True)
class ThetaParams:
    """Evaluation parameters: nome q in [0, 1), truncation tol, term cap."""

    q: float
    tol: float = 1e-14
    max_terms: int = 1_000_000

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise ValueError(f"nome out of range: q = {self.q} not in [0, 1)")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")

    @classmethod
    def from_time(cls, t: float, tol: float = 1e-14) -> "ThetaParams":
        """Parameters for diffusion time t > 0, q = exp(-t)."""
        if t <= 0:
            raise ValueError(f"time must be positive, got {t}; t=0 is the Dirac comb")
        return cls(math.exp(-t), tol=tol)

    @property
    def time(self) -> float:
        """Diffusion time t = -ln q (inf at q = 0)."""
        return math.inf if self.q == 0.0 else -math.log(self.q)


def _reduce_angle(x):
    # Reduction mod 2pi makes periodicity hold by construction and keeps
    # cos(n x) accurate for large n.
    return np.mod(x, TWO_PI)


def _series_terms(q: float, tol: float) -> int:
    """Terms theta3_series keeps: the n >= 1 before the first with 2 q^(n^2) < tol.

    Solved for in logarithms, then confirmed against that predicate in
    O(1) steps at any q.
    """
    if 2.0 * q < tol:  # also q = 0
        return 0
    keeps = lambda n: 2.0 * q ** (n * n) >= tol
    n = math.isqrt(int((math.log(2.0) - math.log(tol)) / -math.log(q)))
    while n > 0 and not keeps(n):
        n -= 1
    while keeps(n + 1):
        n += 1
    return n


def theta3_series(x, params: ThetaParams):
    """theta3 by its cosine series, truncated when 2 q^(n^2) < tol.

    The term count (_series_terms) is known up front; a q that needs more
    than max_terms terms is refused before any is summed. The discarded
    tail is bounded by 2 q^(n^2) / (1 - q) <= tol / (1 - q), so that is
    the floor of the result: a value below tol / (1 - q) is not resolved,
    and where the raw sum falls below 0 there it is clamped to 0 (theta3
    is nonnegative). Accepts a scalar or array angle; returns the
    matching shape.
    """
    q = params.q
    terms = _series_terms(q, params.tol)
    if terms > params.max_terms:
        raise RuntimeError(
            f"theta3 series needs {terms} terms at q = {q}, "
            f"more than max_terms = {params.max_terms}"
        )
    xr = _reduce_angle(np.asarray(x, dtype=float))
    total = np.ones_like(xr)
    for n in range(1, terms + 1):
        total = total + 2.0 * q ** (n * n) * np.cos(n * xr)
    total = np.maximum(total, 0.0)
    return total if total.ndim else float(total)


def _product_factors(q: float, tol: float) -> int:
    """Factors theta3_product keeps at 0 < q < 1: the least N whose tail bound is within tol.

    For n > N, with b = q^(2n-1), the n-th factor has a logarithm of
    modulus at most 2b / (1 - b) + q^(2n) / (1 - q^(2n)) whatever x is, so
    the factors past N multiply to exp(L) with |L| <= S_N =
    (2 q^(2N+1) + q^(2N+2)) / ((1 - q^(2N+1)) (1 - q^2)). The truncated
    product is then within a relative expm1(S_N) of theta3. N is solved
    for in logarithms and confirmed against the bound.
    """
    s, w = math.log1p(tol), -math.expm1(2.0 * math.log(q))  # w = 1 - q^2
    log_u = math.log(s) + math.log(w) - math.log(2.0 + q + s * w)  # S_N <= s iff q^(2N+1) <= u
    n = max(0, math.ceil((log_u / math.log(q) - 1.0) / 2.0))
    bound = lambda n: (2.0 + q) * q ** (2 * n + 1) / ((1.0 - q ** (2 * n + 1)) * w)
    while n < 2**53 and bound(n) > s:  # past 2^53, n + 1 no longer moves the float exponent
        n += 1
    return n


def theta3_product(x, params: ThetaParams):
    """theta3 by its infinite product, truncated after a factor count known up front.

    The count (_product_factors) keeps the relative error within tol at
    every angle; a q that needs more than max_terms factors is refused
    before any is formed. Each factor [1 + 2 q^(2n-1) cos x + q^(2(2n-1))]
    (1 - q^(2n)) is checked to be nonnegative; this is the structural
    reason theta3 >= 0.
    """
    q = params.q
    xr = _reduce_angle(np.asarray(x, dtype=float))
    total = np.ones_like(xr)
    if q > 0.0:
        factors = _product_factors(q, params.tol)
        if factors > params.max_terms:
            raise RuntimeError(
                f"theta3 product needs {factors} factors at q = {q}, "
                f"more than max_terms = {params.max_terms}"
            )
        cx = np.cos(xr)
        for n in range(1, factors + 1):
            b = q ** (2 * n - 1)
            bracket = 1.0 + 2.0 * b * cx + b * b
            euler = 1.0 - q ** (2 * n)
            if np.any(bracket < 0.0) or euler < 0.0:
                raise RuntimeError(f"nonnegative factor violated at n = {n}")
            total = total * (bracket * euler)
    return total if total.ndim else float(total)


def theta3_bound(params: ThetaParams) -> float:
    """theta3(0, q), the sup of |theta3(., q)| over the circle."""
    return float(theta3_series(0.0, params))


def _image_terms(t: float, tol: float) -> int:
    """Smallest K >= 1 whose image-sum tail bound is below tol.

    Summing the images k = 1-K .. K of a reduced angle in [0, 2pi) leaves
    out, on either side, Gaussians centred at least 2pi K away, so the tail
    is at most 2 sqrt(pi/t) exp(-pi^2 K^2 / t) / (1 - exp(-pi^2 / t)). The
    bound is solved for K in logarithms, which neither overflow nor underflow.
    """
    log_prefactor = (math.log(2.0) + 0.5 * math.log(math.pi / t)
                     - math.log(-math.expm1(-math.pi ** 2 / t)))
    excess = max(log_prefactor - math.log(tol), 0.0)
    return math.floor(math.sqrt(t * excess) / math.pi) + 1


def _theta3_images(x, t: float, tol: float):
    """theta3(x, exp(-t)) as the periodised Gaussian sqrt(pi/t) sum_k exp(-(x - 2pi k)^2 / 4t).

    Sums the images k = 1-K .. K of the reduced angle with K from
    _image_terms, so the absolute truncation error stays below tol, as in
    the series. Every term is nonnegative, so no clamp is needed.
    """
    xr = _reduce_angle(np.asarray(x, dtype=float))
    total = np.zeros_like(xr)
    terms = _image_terms(t, tol)
    for k in range(1 - terms, terms + 1):
        total = total + np.exp(-(xr - TWO_PI * k) ** 2 / (4.0 * t))
    return math.sqrt(math.pi / t) * total


def kernel(t: float, grid: PeriodicGrid, tol: float = 1e-14) -> SampledFunction:
    """Diffusion kernel K_t on the grid.

    For a d-dimensional grid the kernel is the product of the per-axis
    1-d kernels: K_t(x) = (2pi)^-d * prod_i theta3(x_i, exp(-t)).
    Each axis factor comes from the image sum when its 2K images are fewer
    array passes than the series terms (small t), and from the cosine
    series otherwise; both truncate at the absolute tolerance tol.
    Unit mass and pointwise nonnegativity hold at the discrete level.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    params = ThetaParams.from_time(t, tol=tol)
    if t < MIN_KERNEL_TIME:
        raise ValueError(
            f"time {t} below the kernel construction cap {MIN_KERNEL_TIME}; "
            "the kernel is too narrow to be resolved by a sampled grid"
        )
    if 2 * _image_terms(t, tol) < _series_terms(params.q, tol):
        theta = partial(_theta3_images, t=t, tol=tol)
    else:
        theta = partial(theta3_series, params=params)
    factors = [theta(grid.axis_points(a)) / TWO_PI for a in range(grid.dims)]
    vals = reduce(np.multiply.outer, factors)
    return SampledFunction(grid, vals, kind="real")
