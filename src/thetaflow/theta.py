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

Cost of a sample: angles already in [0, 2pi) skip the reduction mod 2pi
after one min/max test. The series takes cos(n x) as Re z^n: z = e^(ix)
costs one cos and one sin pass, and each term then one complex multiply
(z^n = z^(n-1) z), whose rounding grows like n eps, as the rounding of
the angle n x would. The product folds each factor into cx (2b e) +
(1 + b^2) e, e = 1 - q^(2n): three passes a factor after one cos pass.
Image k costs one exp per sample it reaches: exp(-(x - 2pi k)^2 / 4t)
is 0.0 once |x - 2pi k| passes sqrt(4t _EXP_ZERO), so on ascending
angles, such as a grid axis, each image is summed over the window one
searchsorted finds. The kernel
is even, so each axis factor is sampled on x_0 .. x_(N/2) and mirrored:
x_(N-j) takes the value at x_j, which makes the sampled kernel exactly
even (at t = 1e-3 the one image that reaches [0, pi] covers about 55 %
of it). The series, the product and the image sum each run in place in
one work buffer, with the bits of the plain allocating loop: the terms
the windows leave out are exact zeros, and each pass keeps its
operation order. The last bits of a result are those of this version's
algorithm; they are not pinned across versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import ClassVar

import numpy as np

from .fourier import (_EXP_ZERO, TWO_PI, PeriodicGrid, SampledFunction, _require_resolved,
                      _tolerance)

_MAX_TERMS = 1_000_000  # the most series terms or product factors an evaluation forms


@dataclass(frozen=True)
class ThetaParams:
    """Evaluation parameters: nome q in [0, 1) and truncation tol."""

    q: float
    tol: float = 1e-14
    max_terms: ClassVar[int] = _MAX_TERMS  # read-only; bench/tracing.py reads it

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise ValueError(f"nome out of range: q = {self.q} not in [0, 1)")
        _tolerance(self.tol)

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
    # cos(n x) accurate for large n. Angles already in [0, 2pi) are returned
    # as they are: np.mod would leave their bits unchanged, but for -0.0,
    # on which every form is even. A nan or inf angle has no reduction.
    if x.size and x.min() >= 0.0 and x.max() < TWO_PI:
        return x
    finite = np.isfinite(x)
    if not finite.all():
        raise ValueError(f"angle must be finite, got {x[~finite].flat[0]}")
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

    The term count T (_series_terms) is known up front; a q that needs more
    than max_terms terms is refused before any is summed. cos(n x) is taken
    as Re z^n, with z = e^(ix) from one cos and one sin pass and each power
    from the last by one complex multiply, which keeps |z^n| = 1 to n eps.
    The discarded tail is bounded by 2 q^(n^2) / (1 - q) <= tol / (1 - q),
    and rounding adds about T eps theta3(0, q), so the result is within
    tol / (1 - q) + c T eps theta3(0, q) of theta3 for a small constant c.
    A value below that floor is not resolved, and where the raw sum falls
    below 0 there it is clamped to 0 (theta3 is nonnegative). Accepts a
    scalar or array angle; returns the matching shape.
    """
    q = params.q
    terms = _series_terms(q, params.tol)
    if terms > _MAX_TERMS:
        raise RuntimeError(
            f"theta3 series needs {terms} terms at q = {q}, more than max_terms = {_MAX_TERMS}"
        )
    xr = _reduce_angle(np.asarray(x, dtype=float))
    total = np.ones_like(xr)
    if terms:
        z = np.empty(xr.shape, dtype=complex)  # e^(i xr)
        np.cos(xr, out=z.real)
        np.sin(xr, out=z.imag)
        power, term = z.copy(), np.empty_like(xr)
        for n in range(1, terms + 1):  # total += 2 q^(n^2) Re z^n, in one buffer
            if n > 1:
                np.multiply(power, z, out=power)
            np.multiply(power.real, 2.0 * q ** (n * n), out=term)
            np.add(total, term, out=total)
    np.maximum(total, 0.0, out=total)
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

    The count F (_product_factors) keeps the truncation's relative error
    within tol at every angle; a q that needs more than max_terms factors
    is refused before any is formed. Each factor [1 + 2 q^(2n-1) cos x +
    q^(2(2n-1))] (1 - q^(2n)) is formed as cx (2b e) + (1 + b^2) e, with b
    = q^(2n-1) and e = 1 - q^(2n), and checked to be nonnegative; this is
    the structural reason theta3 >= 0. Each factor rounds a few times, so
    where cos x >= 0 the result is within a relative tol + c F eps of
    theta3. Where cos x < 0 factor n cancels, by up to ((1 + b) / (1 - b))^2,
    which scales its rounding; that is large only where theta3 is far
    below its peak (q near 1, x near pi).
    """
    q = params.q
    xr = _reduce_angle(np.asarray(x, dtype=float))
    total = np.ones_like(xr)
    if q > 0.0:
        factors = _product_factors(q, params.tol)
        if factors > _MAX_TERMS:
            raise RuntimeError(
                f"theta3 product needs {factors} factors at q = {q}, "
                f"more than max_terms = {_MAX_TERMS}"
            )
        cx = np.cos(xr)
        # A factor is nondecreasing in cx (its slope 2b e >= 0, and rounding
        # is monotone), so its least sample is, bit for bit, its value at the
        # least cx: one scalar test per factor checks every sample.
        low = float(cx.min()) if cx.size else 1.0
        factor = np.empty_like(xr)
        for n in range(1, factors + 1):  # total *= cx (2b e) + (1 + b^2) e, in one buffer
            b, e = q ** (2 * n - 1), 1.0 - q ** (2 * n)
            slope, level = 2.0 * b * e, (1.0 + b * b) * e
            if low * slope + level < 0.0:
                raise RuntimeError(f"nonnegative factor violated at n = {n}")
            np.multiply(cx, slope, out=factor)
            np.add(factor, level, out=factor)
            np.multiply(total, factor, out=total)
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
    xr = _reduce_angle(np.asarray(x, dtype=float)).ravel()
    total = np.zeros_like(xr)
    term = np.empty_like(xr)
    terms = _image_terms(t, tol)
    centres = [TWO_PI * k for k in range(1 - terms, terms + 1)]
    if xr.size > 1 and np.all(xr[1:] >= xr[:-1]):
        # Image k is 0.0 wherever (x - c_k)^2 / 4t passes _EXP_ZERO; a few
        # ulps of the farthest centre cover the rounding of c_k -/+ reach,
        # so no sample whose term is nonzero falls outside its window.
        reach = math.sqrt(4.0 * t * _EXP_ZERO) + 4.0 * math.ulp(TWO_PI * terms)
        edges = np.searchsorted(xr, [c + s for c in centres for s in (-reach, reach)])
        windows = zip(edges[::2], edges[1::2])
    else:
        windows = [(0, xr.size)] * len(centres)
    for c, (lo, hi) in zip(centres, windows):
        d = term[:hi - lo]  # total += exp(-(x - c)^2 / 4t) over the window
        np.subtract(xr[lo:hi], c, out=d)
        np.square(d, out=d)
        np.negative(d, out=d)
        np.divide(d, 4.0 * t, out=d)
        np.exp(d, out=d)
        np.add(total[lo:hi], d, out=total[lo:hi])
    np.multiply(total, math.sqrt(math.pi / t), out=total)
    return total.reshape(np.shape(x)) if np.ndim(x) else total[0]


def kernel(t: float, grid: PeriodicGrid, tol: float = 1e-14) -> SampledFunction:
    """Diffusion kernel K_t on the grid.

    For a d-dimensional grid the kernel is the product of the per-axis
    1-d kernels: K_t(x) = (2pi)^-d * prod_i theta3(x_i, exp(-t)).
    Each axis factor comes from the image sum when its 2K images are fewer
    array passes than the series terms (small t), and from the cosine
    series otherwise; both truncate at the absolute tolerance tol. theta3
    is even about pi, so each factor is sampled on x_0 .. x_(N/2) only
    and mirrored: x_(N-j) takes the value at x_j, and the sampled kernel
    is exactly even. Pointwise nonnegativity holds at the discrete level,
    and aliasing adds at most tol to the unit mass: a grid whose alias
    excess, the leading term sum_axes 2 exp(-N^2 t) of mass - 1, passes
    tol is refused.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    params = ThetaParams.from_time(t, tol=tol)
    _require_resolved("heat", grid, t, tol,
                      excess=sum(2.0 * math.exp(-n * n * t) for n in grid.sizes),
                      least=(math.log(2.0 * grid.dims) - math.log(tol)) / min(grid.sizes) ** 2)
    if 2 * _image_terms(t, tol) < _series_terms(params.q, tol):
        theta = partial(_theta3_images, t=t, tol=tol)
    else:
        theta = partial(theta3_series, params=params)

    def axis_factor(n):  # theta3(x_j) / 2pi for j <= N/2, then mirrored onto x_(N-j)
        x = np.arange(n // 2 + 1, dtype=float)  # x_j with the bits of grid.axis_points
        x *= TWO_PI
        x /= n
        half = theta(x)
        np.divide(half, TWO_PI, out=half)
        return np.concatenate((half, half[-2:0:-1]))

    vals = reduce(np.multiply.outer, map(axis_factor, grid.sizes))
    return SampledFunction._adopt(grid, vals, "real")
