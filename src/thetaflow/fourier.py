"""Periodic grids and discrete Fourier analysis on [0, 2pi)^d.

Conventions used throughout the package:

    coefficients   f_hat(n) = (1/2pi) * integral of f(y) exp(-i n y) dy
    synthesis      f(x)     = sum over n of f_hat(n) exp(i n x)   (no 1/2pi)

Grids are node-centered at x_j = 2pi j / N, so the implied quadrature is
the trapezoid rule, which is exact for band-limited integrands. The
discrete transform is computed with the FFT, a real one for the samples of
a real-kind function, which are stored as float64 (complex128 otherwise).
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * np.pi

# Magnitude above which a discarded Nyquist coefficient triggers a warning,
# relative to the largest retained coefficient.
NYQUIST_WARN_RATIO = 1e-10


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform sampling of the torus [0, 2pi)^d.

    Attributes:
        sizes: per-axis sample counts N_i; each must be an integer, even and >= 4.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(_integer(n, "axis size") for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) < 1:
            raise ValueError("grid needs at least one axis")
        for n in sizes:
            if n < 4:
                raise ValueError(f"grid underresolved: axis size {n} < 4")
            if n % 2 != 0:
                raise ValueError(f"axis size {n} must be even")

    @classmethod
    def line(cls, n: int) -> "PeriodicGrid":
        """One-dimensional grid with n points."""
        return cls((n,))

    @property
    def dims(self) -> int:
        return len(self.sizes)

    @property
    def npoints(self) -> int:
        return int(np.prod(self.sizes))

    def spacing(self, axis: int = 0) -> float:
        return TWO_PI / self.sizes[axis]

    @property
    def cell_volume(self) -> float:
        """Product of the per-axis spacings."""
        return float(np.prod([self.spacing(a) for a in range(self.dims)]))

    def axis_points(self, axis: int = 0) -> np.ndarray:
        """Sample points 2pi j / N along one axis."""
        n = self.sizes[axis]
        return TWO_PI * np.arange(n) / n

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(self.axis_points(a) for a in range(self.dims))

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Coordinate arrays of shape ``sizes`` ('ij' indexing)."""
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def frequencies(self, axis: int = 0) -> np.ndarray:
        """Integer mode numbers along one axis, in FFT layout."""
        n = self.sizes[axis]
        return np.rint(np.fft.fftfreq(n) * n).astype(int)

    @property
    def points(self) -> np.ndarray:
        """Sample points of a 1-d grid (convenience accessor)."""
        if self.dims != 1:
            raise ValueError("points is defined for 1-d grids; use axes()")
        return self.axis_points(0)


@dataclass(frozen=True)
class SampledFunction:
    """Function values on a PeriodicGrid.

    Values are an array of shape ``grid.sizes``, float64 for kind 'real'
    and complex128 for kind 'complex', frozen after construction; all
    operations in this package treat SampledFunction as immutable, which
    makes them safe to share across threads. Complex values declared real
    may carry round-off imaginary parts up to 1e-9 * max(1, max |re|),
    which are dropped; larger ones are refused.
    """

    grid: PeriodicGrid
    values: np.ndarray
    kind: str = "complex"

    def __post_init__(self):
        if self.kind not in ("real", "complex"):
            raise ValueError(f"kind must be 'real' or 'complex', got {self.kind!r}")
        vals = np.asarray(self.values)
        if self.kind == "real" and np.iscomplexobj(vals):
            if stray := _stray_imag(vals):
                raise ValueError(
                    f"kind='real' but max imaginary part {stray:.3e} exceeds tolerance"
                )
            vals = vals.real
        dtype = float if self.kind == "real" else complex
        vals = np.array(vals, dtype=dtype, order="C")  # own the buffer
        if vals.shape != self.grid.sizes:
            raise ValueError(
                f"values shape {vals.shape} does not match grid sizes {self.grid.sizes}"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: PeriodicGrid, fn) -> "SampledFunction":
        """The real function fn sampled on the grid (fn takes one array per axis)."""
        return cls(grid, fn(*grid.meshgrid()), kind="real")

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: complex = 1.0) -> "SampledFunction":
        kind = "real" if np.imag(value) == 0 else "complex"
        return cls(grid, np.full(grid.sizes, value), kind=kind)

    def mean(self) -> complex:
        """Discrete mean over the grid, (1/npoints) sum of values; a float if real."""
        return self.values.mean().item()

    def integral(self) -> complex:
        """Trapezoid-rule integral over [0, 2pi)^d; a float if real."""
        return (self.values.sum() * self.grid.cell_volume).item()

    def norm(self, p: float = 2) -> float:
        """Discrete L^p norm with the grid measure; p=inf gives the sup norm."""
        a = np.abs(self.values)
        if np.isinf(p):
            return float(a.max())
        return float((np.sum(a**p) * self.grid.cell_volume) ** (1.0 / p))

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.grid, values, kind=self.kind)


def _integer(n, what: str) -> int:
    """n as an int by operator.index: Python and numpy integers pass, others are refused."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {n!r}") from None


def _stray_imag(values: np.ndarray) -> float:
    """max |im| of values if they are not real-kind, else 0.

    Values are real-kind when max |im| <= 1e-9 * max(1, max |re|); the
    SampledFunction check and CSV loading both decide by this.
    """
    worst = float(np.max(np.abs(values.imag), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(values.real), initial=0.0)))
    return worst if worst > 1e-9 * scale else 0.0


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """L^2 inner product, integral of f * conj(g), by the trapezoid rule."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch in inner product")
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_volume)


def rule_values(rule: Callable[[int], complex], ns: np.ndarray) -> np.ndarray:
    """A coefficient rule over an index array.

    A rule with a ``values`` method is evaluated on the whole array; any
    other callable is called once per index.
    """
    array_form = getattr(rule, "values", None)
    if array_form is not None:
        return np.asarray(array_form(ns))
    return np.fromiter(map(rule, ns.tolist()), dtype=complex, count=ns.size)


@dataclass(frozen=True)
class CoefficientSequence:
    """Two-sided coefficient sequence c_n for n in [-halfwidth, halfwidth].

    An optional ``rule`` extends the sequence lazily beyond the stored
    window; ``value(n)`` consults the window first, then the rule, and
    returns 0 for indices that neither covers. ``values(ns)`` does the
    same for an index array: a rule with a ``values`` method of its own is
    evaluated on the array, any other callable once per index.
    """

    halfwidth: int
    coeffs: np.ndarray
    rule: Optional[Callable[[int], complex]] = None

    def __post_init__(self):
        hw = _integer(self.halfwidth, "halfwidth")
        c = np.array(self.coeffs, dtype=complex, order="C")  # own the buffer
        if c.shape != (2 * hw + 1,):
            raise ValueError(
                f"expected {2 * hw + 1} coefficients for halfwidth {hw}, got shape {c.shape}"
            )
        c.flags.writeable = False
        object.__setattr__(self, "halfwidth", hw)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_dict(cls, entries: dict[int, complex],
                  rule: Optional[Callable[[int], complex]] = None) -> "CoefficientSequence":
        hw = max((abs(n) for n in entries), default=0)
        c = np.zeros(2 * hw + 1, dtype=complex)
        for n, v in entries.items():
            c[n + hw] = v
        return cls(hw, c, rule=rule)

    @classmethod
    def from_rule(cls, halfwidth: int, rule: Callable[[int], complex]) -> "CoefficientSequence":
        """Materialize a window from a rule, keeping the rule for the tail."""
        return cls(halfwidth, rule_values(rule, np.arange(-halfwidth, halfwidth + 1)),
                   rule=rule)

    def indices(self) -> np.ndarray:
        return np.arange(-self.halfwidth, self.halfwidth + 1)

    def value(self, n: int) -> complex:
        if abs(n) <= self.halfwidth:
            return complex(self.coeffs[n + self.halfwidth])
        if self.rule is not None:
            return complex(self.rule(n))
        return 0.0

    def values(self, ns) -> np.ndarray:
        """value(n) for every n of an integer index array, as a complex array."""
        ns = np.asarray(ns, dtype=np.int64)
        out = np.zeros(ns.shape, dtype=complex)
        inside = np.abs(ns) <= self.halfwidth
        out[inside] = self.coeffs[ns[inside] + self.halfwidth]
        if self.rule is not None and not inside.all():
            out[~inside] = rule_values(self.rule, ns[~inside])
        return out

    def __getitem__(self, n: int) -> complex:
        return self.value(n)

    def conjugate_symmetry_defect(self) -> float:
        """max |c(-n) - conj(c(n))|; zero for coefficients of a real function."""
        return float(np.max(np.abs(self.coeffs[::-1] - np.conj(self.coeffs))))


def analyze(f: SampledFunction) -> CoefficientSequence:
    """Fourier coefficients of a sampled 1-d function.

    Returns f_hat(n) = (1/2pi) * integral f(y) exp(-i n y) dy computed by the
    exact discrete transform on the grid. The usable halfwidth is N/2 - 1;
    the Nyquist mode is ambiguous on the grid and is discarded (a warning
    is emitted if it carries non-negligible energy).
    """
    if f.grid.dims != 1:
        raise ValueError("analyze expects a 1-d grid; d-dim data is handled axis-wise")
    n = f.grid.sizes[0]
    if n < 4:
        raise ValueError("grid underresolved")
    spec = np.fft.fft(f.values) / n
    hw = n // 2 - 1
    coeffs = np.concatenate([spec[n - hw:], spec[: hw + 1]])  # n = -hw .. hw
    nyq = abs(spec[n // 2])
    scale = max(float(np.max(np.abs(coeffs))), 1e-300)
    if nyq > NYQUIST_WARN_RATIO * scale:
        warnings.warn(
            f"discarding Nyquist mode with relative magnitude {nyq / scale:.2e}; "
            "increase the grid resolution to retain it",
            stacklevel=2,
        )
    return CoefficientSequence(hw, coeffs)


def synthesize(c: CoefficientSequence, grid: PeriodicGrid) -> SampledFunction:
    """Evaluate sum of c_n exp(i n x) on the grid points.

    The grid must resolve every stored mode: N >= 2*halfwidth + 2.
    """
    if grid.dims != 1:
        raise ValueError("synthesize expects a 1-d grid")
    n = grid.sizes[0]
    if n < 2 * c.halfwidth + 2:
        raise ValueError(
            f"aliasing: grid with {n} points cannot hold halfwidth {c.halfwidth} "
            f"(needs at least {2 * c.halfwidth + 2})"
        )
    spec = np.zeros(n, dtype=complex)
    hw = c.halfwidth
    spec[: hw + 1] = c.coeffs[hw:]
    if hw > 0:
        spec[n - hw:] = c.coeffs[:hw]
    vals = np.fft.ifft(spec) * n
    kind = "real" if _is_conjugate_symmetric(c) else "complex"
    return SampledFunction(grid, vals, kind=kind)


def _is_conjugate_symmetric(c: CoefficientSequence) -> bool:
    scale = max(float(np.max(np.abs(c.coeffs))), 1e-300)
    return c.conjugate_symmetry_defect() <= 1e-12 * scale


def _forward(f: SampledFunction, real: bool) -> np.ndarray:
    """Unnormalized DFT of f: the rfftn half-spectrum if real, else the full fftn."""
    if real:
        return np.fft.rfftn(f.values)
    return np.fft.fftn(f.values)


def _inverse(spec: np.ndarray, grid: PeriodicGrid, real: bool) -> np.ndarray:
    """Inverse of _forward; the result is a real array when real is set."""
    if real:
        return np.fft.irfftn(spec, s=grid.sizes, axes=tuple(range(grid.dims)))
    return np.fft.ifftn(spec)


def circular_convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Periodic convolution (f * g)(x) = integral f(y) g(x - y) dy.

    Computed as the discrete circular convolution scaled by the cell volume;
    coefficient-wise this equals 2pi^d * f_hat(n) * g_hat(n). Two real-kind
    operands go through real FFTs, so their convolution is exactly real.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch: convolution operands must share a grid")
    real = f.kind == "real" and g.kind == "real"
    spec = _forward(f, real) * _forward(g, real)
    vals = _inverse(spec, f.grid, real) * f.grid.cell_volume
    return SampledFunction(f.grid, vals, kind="real" if real else "complex")

