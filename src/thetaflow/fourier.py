"""Periodic grids and discrete Fourier analysis on [0, 2pi)^d.

Conventions used throughout the package:

    coefficients   f_hat(n) = (1/2pi) * integral of f(y) exp(-i n y) dy
    synthesis      f(x)     = sum over n of f_hat(n) exp(i n x)   (no 1/2pi)

Grids are node-centered at x_j = 2pi j / N, so the implied quadrature is
the trapezoid rule, which is exact for band-limited integrands. The
discrete transform is computed with the FFT; direct O(N^2) reference
versions are kept alongside for oracle tests.
"""

from __future__ import annotations

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
        sizes: per-axis sample counts N_i; each must be even and >= 4.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
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

    Values are stored as a complex array of shape ``grid.sizes`` and are
    frozen after construction; all operations in this package treat
    SampledFunction as immutable, which makes them safe to share across
    threads. ``kind`` records whether the function is semantically real;
    a real function may carry round-off imaginary parts up to imag_tol.
    """

    grid: PeriodicGrid
    values: np.ndarray
    kind: str = "complex"
    imag_tol: float = 1e-9

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex, order="C")  # own the buffer
        if vals.shape != self.grid.sizes:
            raise ValueError(
                f"values shape {vals.shape} does not match grid sizes {self.grid.sizes}"
            )
        if self.kind not in ("real", "complex"):
            raise ValueError(f"kind must be 'real' or 'complex', got {self.kind!r}")
        if self.kind == "real":
            scale = max(1.0, float(np.max(np.abs(vals.real), initial=0.0)))
            worst = float(np.max(np.abs(vals.imag), initial=0.0))
            if worst > self.imag_tol * scale:
                raise ValueError(
                    f"kind='real' but max imaginary part {worst:.3e} exceeds tolerance"
                )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: PeriodicGrid, fn, kind: str = "real") -> "SampledFunction":
        vals = np.asarray(fn(*grid.meshgrid()) if grid.dims > 1 else fn(grid.points))
        return cls(grid, vals.astype(complex), kind=kind)

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: complex = 1.0) -> "SampledFunction":
        kind = "real" if np.imag(value) == 0 else "complex"
        return cls(grid, np.full(grid.sizes, value, dtype=complex), kind=kind)

    @property
    def real_values(self) -> np.ndarray:
        return self.values.real

    def mean(self) -> complex:
        """Discrete mean over the grid, (1/npoints) sum of values."""
        m = complex(self.values.mean())
        return m.real if self.kind == "real" else m

    def integral(self) -> complex:
        """Trapezoid-rule integral over [0, 2pi)^d."""
        v = complex(self.values.sum() * self.grid.cell_volume)
        return v.real if self.kind == "real" else v

    def norm(self, p: float = 2) -> float:
        """Discrete L^p norm with the grid measure; p=inf gives the sup norm."""
        a = np.abs(self.values)
        if np.isinf(p):
            return float(a.max())
        return float((np.sum(a**p) * self.grid.cell_volume) ** (1.0 / p))

    def with_values(self, values: np.ndarray, kind: Optional[str] = None) -> "SampledFunction":
        return SampledFunction(self.grid, values, kind=kind or self.kind,
                               imag_tol=self.imag_tol)


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """L^2 inner product, integral of f * conj(g), by the trapezoid rule."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch in inner product")
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_volume)


@dataclass(frozen=True)
class CoefficientSequence:
    """Two-sided coefficient sequence c_n for n in [-halfwidth, halfwidth].

    An optional ``rule`` extends the sequence lazily beyond the stored
    window; ``value(n)`` consults the window first, then the rule, and
    returns 0 for indices that neither covers.
    """

    halfwidth: int
    coeffs: np.ndarray
    rule: Optional[Callable[[int], complex]] = None

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex, order="C")  # own the buffer
        if c.shape != (2 * self.halfwidth + 1,):
            raise ValueError(
                f"expected {2 * self.halfwidth + 1} coefficients for halfwidth "
                f"{self.halfwidth}, got shape {c.shape}"
            )
        c.flags.writeable = False
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
        c = np.array([rule(n) for n in range(-halfwidth, halfwidth + 1)], dtype=complex)
        return cls(halfwidth, c, rule=rule)

    def indices(self) -> np.ndarray:
        return np.arange(-self.halfwidth, self.halfwidth + 1)

    def value(self, n: int) -> complex:
        if abs(n) <= self.halfwidth:
            return complex(self.coeffs[n + self.halfwidth])
        if self.rule is not None:
            return complex(self.rule(n))
        return 0.0

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


def analyze_direct(f: SampledFunction) -> CoefficientSequence:
    """O(N^2) reference transform, kept as an oracle for the FFT path."""
    if f.grid.dims != 1:
        raise ValueError("analyze_direct expects a 1-d grid")
    n = f.grid.sizes[0]
    x = f.grid.points
    hw = n // 2 - 1
    modes = np.arange(-hw, hw + 1)
    kernel = np.exp(-1j * np.outer(modes, x))
    return CoefficientSequence(hw, kernel @ f.values / n)


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


def _is_conjugate_symmetric(c: CoefficientSequence, rtol: float = 1e-12) -> bool:
    scale = max(float(np.max(np.abs(c.coeffs))), 1e-300)
    return c.conjugate_symmetry_defect() <= rtol * scale


def _forward(f: SampledFunction, real: bool) -> np.ndarray:
    """Unnormalized DFT of f: the rfftn half-spectrum if real, else the full fftn."""
    axes = tuple(range(f.grid.dims))
    if real:
        return np.fft.rfftn(f.values.real, axes=axes)
    return np.fft.fftn(f.values, axes=axes)


def _inverse(spec: np.ndarray, grid: PeriodicGrid, real: bool) -> np.ndarray:
    """Inverse of _forward; the result is a real array when real is set."""
    axes = tuple(range(grid.dims))
    if real:
        return np.fft.irfftn(spec, s=grid.sizes, axes=axes)
    return np.fft.ifftn(spec, axes=axes)


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


def convolve_direct(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """O(N^2) direct-sum convolution, the oracle for circular_convolve (1-d)."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    if f.grid.dims != 1:
        raise ValueError("convolve_direct expects a 1-d grid")
    n = f.grid.sizes[0]
    out = np.empty(n, dtype=complex)
    fv, gv = f.values, g.values
    for j in range(n):
        out[j] = sum(fv[k] * gv[(j - k) % n] for k in range(n))
    kind = "real" if f.kind == "real" and g.kind == "real" else "complex"
    return SampledFunction(f.grid, out * f.grid.spacing(), kind=kind)
