"""Periodic grids and discrete Fourier analysis on [0, 2pi)^d.

Conventions used throughout the package:

    coefficients   f_hat(n) = (1/2pi) * integral of f(y) exp(-i n y) dy
    synthesis      f(x)     = sum over n of f_hat(n) exp(i n x)   (no 1/2pi)

Grids are node-centered at x_j = 2pi j / N, so the implied quadrature is
the trapezoid rule, which is exact for band-limited integrands. Only
this module calls the FFT: flows, convolutions and analyze go through
_Spectrum (a real transform for the samples of a real-kind function,
which are stored as float64, complex128 otherwise), and synthesize and
the suites' random data through _synthesize_cube. Each SampledFunction is
transformed forward at most once: the first flow or convolution (or
analyze, of complex-kind data) keeps the spectrum on it for the rest. A
multi-axis kernel arrives with its spectrum, the outer product of its
axis spectra (_separable); a copy of it transforms its samples instead,
and the two may differ in the last bits.

Cost of a flow: one inverse FFT, or for real data on two or more axes
the passes that do not act on zeros. There a symbol value sigma with
|sigma| P < 2^53 2^-1022, P the largest |re| or |im| of the spectrum,
counts as 0, and the complex passes run only over the last-axis columns
that hold a mode with a live value; every output sample moves by less
than 2^54 2^-1022 (about 4.0e-292) absolute, rounding aside.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * np.pi

# exp(-x) is 0.0 in double precision once x passes about 745.2; past this
# margin it is 0.0 however the platform's exp rounds its last bit.
_EXP_ZERO = 750.0

# Magnitude above which a discarded Nyquist coefficient triggers a warning,
# relative to the largest retained coefficient.
NYQUIST_WARN_RATIO = 1e-10

# A symbol value sigma with |sigma| P < 2^53 2^-1022, P the peak of a
# spectrum, counts as 0 in a multi-axis real flow (_Spectrum._cut): each
# mode it scales stays below the normal range by a margin of 2^53.
_CUT = 2.0 ** -969

_MAX_INDEX = 100_000  # the largest |n| a pairing sums and a coefficient file holds


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
        x = np.arange(n, dtype=float)
        x *= TWO_PI  # in place: the same bits as TWO_PI * j / N, without temporaries
        x /= n
        return x

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


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function values on a PeriodicGrid.

    Values are an array of shape ``grid.sizes``, float64 for kind 'real'
    and complex128 for kind 'complex', frozen after construction; all
    operations in this package treat SampledFunction as immutable, which
    makes them safe to share across threads. Complex values declared real
    may carry round-off imaginary parts up to 1e-9 * max(1, max |re|),
    which are dropped; larger ones are refused. == and hash() are by
    identity: arrays have no single truth value.

    The constructor and with_values copy the array they are given, so a
    caller may go on writing to it. The flows, convolutions and kernels
    of this package build each result in a fresh array that nothing else
    holds, and the result takes that array over instead of copying it.

    The first flow or convolution of a function keeps its forward
    spectrum (rfftn if real-kind, else fftn) on the object, read-only and
    for the object's lifetime, so later ones skip that transform. This
    costs one extra array about the size of the samples. A multi-axis
    kernel arrives with the outer product of its axis spectra instead,
    within a few eps of rfftn of its samples. A real-kind function's
    flows on two or more axes also keep the spectrum's peak beside it.
    Neither is a field: repr and dataclasses.replace ignore them, and
    with_values, replace, copy and pickle results start without them, so
    a copy of a kernel transforms its samples and its convolutions may
    differ from the original's in the last bits. Two threads may
    both compute them and both store them; the bits are the same and each
    store is one attribute write. Making values writable again is
    unsupported: the kept spectrum would no longer match them.
    """

    grid: PeriodicGrid
    values: np.ndarray
    kind: str = "complex"

    def __post_init__(self):
        dtype = _dtype_of(self.kind)
        vals = np.asarray(self.values)
        if self.kind == "real" and np.iscomplexobj(vals):
            if stray := _stray_imag(vals):
                raise ValueError(
                    f"kind='real' but max imaginary part {stray:.3e} exceeds tolerance"
                )
            vals = vals.real
        self._freeze(np.array(vals, dtype=dtype, order="C"))  # a copy: the caller keeps its array

    @classmethod
    def _adopt(cls, grid: PeriodicGrid, values: np.ndarray, kind: str) -> "SampledFunction":
        """A result whose values are taken over, not copied.

        values must be a fresh C-ordered array of kind's dtype that nothing
        else holds or writes to; the same kind and shape checks as the
        constructor's apply.
        """
        if values.dtype != _dtype_of(kind) or not values.flags.c_contiguous:
            raise TypeError(f"cannot adopt {values.dtype} values as kind {kind!r}")
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "kind", kind)
        f._freeze(values)
        return f

    def _freeze(self, vals: np.ndarray) -> None:
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
        """Discrete L^p norm with the grid measure, p in [1, inf]; p=inf gives the sup norm."""
        if not 1 <= p <= math.inf:  # also refuses nan
            raise ValueError(f"norm needs p in [1, inf], got p = {p}")
        a = np.abs(self.values)
        if np.isinf(p):
            return float(a.max())
        return float((np.sum(a**p) * self.grid.cell_volume) ** (1.0 / p))

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.grid, values, kind=self.kind)

    def __reduce__(self):
        # Copies and unpickled objects are rebuilt by __init__: their values
        # are frozen again and no spectrum travels with them.
        return SampledFunction, (self.grid, self.values, self.kind)


def _dtype_of(kind: str) -> np.dtype:
    """The dtype values of a kind are stored in; an unknown kind is refused."""
    if kind not in ("real", "complex"):
        raise ValueError(f"kind must be 'real' or 'complex', got {kind!r}")
    return np.dtype(float if kind == "real" else complex)


def _integer(n, what: str) -> int:
    """n as an int by operator.index: Python and numpy integers pass, bools and others not."""
    try:
        if isinstance(n, (bool, np.bool_)):
            raise TypeError
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {n!r}") from None


def _index_array(ns) -> np.ndarray:
    """ns as an int64 array: the first entry _integer refuses raises, one past int64 overflows."""
    if isinstance(ns, np.ndarray) and ns.dtype.kind == "i":
        return ns.astype(np.int64, copy=False)
    entries = np.asarray(ns, dtype=object)
    for n in entries.flat:
        _integer(n, "an index")
    return entries.astype(np.int64)


def _tolerance(tol: float, what: str = "tol") -> float:
    """tol, refused with a ValueError naming what unless it is positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{what} must be positive and finite, got {tol}")
    return tol


def _stray_imag(values: np.ndarray) -> float:
    """max |im| of values if they are not real-kind, else 0.

    Values are real-kind when max |im| <= 1e-9 * max(1, max |re|); the
    SampledFunction check and CSV loading both decide by this.
    """
    worst = float(np.max(np.abs(values.imag), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(values.real), initial=0.0)))
    return worst if worst > 1e-9 * scale else 0.0


def _require_resolved(kernel: str, grid: PeriodicGrid, t: float, tol: float,
                      excess: float, least: float) -> None:
    """Refuse a sampled kernel whose alias excess, the mass of its samples minus 1, passes tol.

    least is a time from which on the grid keeps the excess within tol; the
    message names it rounded up to three digits, so the named time is resolved.
    """
    if excess > tol:
        step = 10.0 ** (math.floor(math.log10(least)) - 2)
        raise ValueError(
            f"grid {grid.sizes} does not resolve the {kernel} kernel at t = {t} "
            f"(alias excess {excess:.3g} > {tol:g}); "
            f"needs t >= {math.ceil(least / step) * step:.3g}")


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """L^2 inner product, integral of f * conj(g), by the trapezoid rule."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch in inner product")
    return complex(np.sum(f.values * np.conj(g.values)) * f.grid.cell_volume)


class _KeptTail:
    """The values an opaque rule has returned at |n| <= _MAX_INDEX.

    Two flat arrays over n = -_MAX_INDEX .. _MAX_INDEX, the values and a
    flag each, are allocated when the first value is kept, and only the
    memory pages holding kept indices are ever written: 16 B a value and
    1 B a flag. A rule that raises leaves nothing of that call kept.
    Threads may share one: they agree on one pair of arrays
    (dict.setdefault), two may both call the rule at an index, a writer
    sets a flag only after its value, and a reader takes the flags before
    the values, so a flag it sees set covers a value already written.
    """

    def __init__(self, rule: Callable[[int], complex]):
        self.rule = rule
        self.store: dict[str, tuple[np.ndarray, np.ndarray]] = {}  # "kept": (values, flags)

    def values(self, ns: np.ndarray) -> np.ndarray:
        """rule(n) for every n of an int64 array, calling the rule only where none is kept.

        The rule is called in the order of ns.
        """
        inside = (ns >= -_MAX_INDEX) & (ns <= _MAX_INDEX)
        slot = np.where(inside, ns, 0) + _MAX_INDEX
        kept = self.store.get("kept")
        if kept is None:
            out = np.empty(ns.shape, dtype=complex)
            missing = np.ones(ns.shape, dtype=bool)
        else:
            missing = ~(kept[1][slot] & inside)  # flags first, then their values
            out = kept[0][slot]  # replaced below where missing
        if not missing.any():
            return out
        out[missing] = np.fromiter(map(self.rule, ns[missing].tolist()), dtype=complex)
        fresh = missing & inside
        if fresh.any():
            vals, flags = kept or self.store.setdefault("kept", (
                np.empty(2 * _MAX_INDEX + 1, dtype=complex),
                np.zeros(2 * _MAX_INDEX + 1, dtype=bool)))
            vals[slot[fresh]] = out[fresh]  # values first, then their flags
            flags[slot[fresh]] = True
        return out


def _tail_reader(rule) -> tuple[Callable[[np.ndarray], np.ndarray], Optional[_KeptTail]]:
    """How a sequence with this rule reads its tail, as a complex array, and its kept tail."""
    if rule is None:
        return (lambda ns: np.zeros(ns.shape, dtype=complex)), None
    if (array_form := getattr(rule, "values", None)) is not None:
        return (lambda ns: np.asarray(array_form(ns), dtype=complex)), None
    kept = _KeptTail(rule)
    return kept.values, kept


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Two-sided coefficient sequence c_n for n in [-halfwidth, halfwidth].

    An optional ``rule`` extends the sequence lazily beyond the stored
    window; indices that neither covers read 0. ``values(ns)`` reads an
    index array, the window first, then the tail, and is the one way the
    sequence is read: ``value(n)`` and ``c[n]`` are values([n]). A rule
    with a ``values`` method of its own is evaluated on the array, any
    other callable once per index. == and hash() are by identity, as for
    SampledFunction.

    A rule is a function of n: the sequence may call it at an index once
    and reuse the value. One without a ``values`` method is kept that way
    for |n| <= 100 000, the indices a pairing sums: it is called only at
    indices not asked of it before, in the order asked, and what it
    returns is kept. Only the indices kept take memory: 16 B a value and
    1 B of bookkeeping, up to 3.4 MB for the whole range, allocated when
    the first value is kept. Array rules are evaluated on each call.
    Copies, pickles and dataclasses.replace start with nothing kept.
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
        tail, kept = _tail_reader(self.rule)
        object.__setattr__(self, "_tail", tail)
        object.__setattr__(self, "_kept", kept)

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
        hw = _integer(halfwidth, "halfwidth")
        return cls(hw, _tail_reader(rule)[0](np.arange(-hw, hw + 1)), rule=rule)

    def indices(self) -> np.ndarray:
        return np.arange(-self.halfwidth, self.halfwidth + 1)

    def value(self, n: int) -> complex:
        return complex(self.values([n])[0])

    def values(self, ns) -> np.ndarray:
        """c_n for every n of an index array, as a complex array; see _index_array."""
        ns = _index_array(ns)
        inside = (ns >= -self.halfwidth) & (ns <= self.halfwidth)  # abs(-2^63) < 0
        if not inside.any():
            return self._tail(ns)
        out = np.empty(ns.shape, dtype=complex)
        out[inside] = self.coeffs[ns[inside] + self.halfwidth]
        if not inside.all():
            out[~inside] = self._tail(ns[~inside])
        return out

    def __getitem__(self, n: int) -> complex:
        return self.value(n)

    def __reduce__(self):
        # As for SampledFunction: copies and unpickled objects start with nothing kept.
        return CoefficientSequence, (self.halfwidth, self.coeffs, self.rule)

    def conjugate_symmetry_defect(self) -> float:
        """max |c(-n) - conj(c(n))|; zero for coefficients of a real function."""
        return float(np.max(np.abs(self.coeffs[::-1] - np.conj(self.coeffs))))


def analyze(f: SampledFunction) -> CoefficientSequence:
    """Fourier coefficients of a sampled 1-d function.

    Returns f_hat(n) = (1/2pi) * integral f(y) exp(-i n y) dy computed by the
    exact discrete transform on the grid. The usable halfwidth is N/2 - 1;
    the Nyquist mode is ambiguous on the grid and is discarded (a warning
    is emitted if it carries non-negligible energy). A complex-kind f
    that a flow has transformed costs no FFT.
    """
    if f.grid.dims != 1:
        raise ValueError("analyze expects a 1-d grid; d-dim data is handled axis-wise")
    n = f.grid.sizes[0]
    spec = _Spectrum(f, real=False).spec / n
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
    _require_unaliased(grid, c.halfwidth)
    scale = max(float(np.max(np.abs(c.coeffs))), 1e-300)
    kind = "real" if c.conjugate_symmetry_defect() <= 1e-12 * scale else "complex"
    return SampledFunction(grid, _synthesize_cube(c.coeffs, grid), kind=kind)


def _require_unaliased(grid: PeriodicGrid, halfwidth: int) -> None:
    """Refuse a grid with an axis too small for the modes |n_a| <= halfwidth."""
    if min(grid.sizes) < 2 * halfwidth + 2:
        raise ValueError(f"aliasing: axis size {min(grid.sizes)} cannot hold halfwidth "
                         f"{halfwidth} (needs at least {2 * halfwidth + 2})")


def _place_modes(cube: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """FFT-layout spectrum with cube[m + hw] at each mode m, |m_a| <= hw.

    Where modes alias (2 hw + 1 > N), an axis keeps its last N modes: the
    ones that a fill in lexicographic order writes last.
    """
    hw = cube.shape[0] // 2
    kept = [np.arange(max(-hw, hw + 1 - n), hw + 1) for n in sizes]
    spec = np.zeros(sizes, dtype=complex)
    spec[np.ix_(*(m % n for m, n in zip(kept, sizes)))] = cube[np.ix_(*(m + hw for m in kept))]
    return spec


def _synthesize_cube(cube: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Samples of the sum of cube[m + hw] exp(i m.x), placed by _place_modes."""
    return np.fft.ifftn(_place_modes(cube, grid.sizes)) * grid.npoints


@lru_cache(maxsize=16)
def _mode_table(sizes: tuple[int, ...], half: bool) -> tuple[np.ndarray, np.ndarray]:
    """Distinct |n|^2 on a grid, and for each FFT mode the index of its |n|^2.

    half selects the rfftn layout, whose last axis holds n = 0 .. N/2; the
    full fftn layout is used otherwise. Both layouts have the same distinct
    values, so a symbol evaluated on them serves either one. Only the 1-d
    half layout has as many distinct values as modes, and there the index
    is the identity. The tables are cached per grid shape and returned
    read-only.
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
    """Unnormalized DFT of f: the rfftn half spectrum if real, else the full fftn.

    real defaults to f's kind; real data goes back through irfftn's
    passes, so its outputs are exactly real. The transform that matches
    f's kind is kept, read-only, on f itself for every later use; the
    fftn of real-kind f is computed each time. Symbols act on n2, the
    grid's distinct |n|^2, whose tables are built on first use, so a
    convolution builds none.

    Cost of a flow: one inverse FFT, plus a forward one the first time a
    function object is transformed, whichever flows, and however many,
    are applied to it. For real data on two or more axes, scaled sets to
    0 the symbol values that scale every mode below _CUT (see _cut), and
    the inverse's complex passes skip the columns past the last live
    one. Memory: two arrays, the result, taken first, and
    the product of spectrum and symbol. inverse consumes the product it
    is handed, running its complex passes in place, and a forward
    transform writes all its passes into the spectrum's own buffer. An
    overflow shows up as inf or nan in the spectrum, and so in its peak,
    which turns the cut off; inverse reports it on every use.
    """

    def __init__(self, f: SampledFunction, real: Optional[bool] = None):
        self.f = f
        self.real = f.kind == "real" if real is None else real
        own = self.real == (f.kind == "real")
        self.spec = f.__dict__.get("_spectrum") if own else None
        if self.spec is None:
            sizes = f.grid.sizes
            if self.real:
                sizes = sizes[:-1] + (sizes[-1] // 2 + 1,)
            out = np.empty(sizes, dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):
                self.spec = (np.fft.rfftn(f.values, out=out) if self.real
                             else np.fft.fftn(f.values, out=out))
            if own:
                self.spec.flags.writeable = False
                object.__setattr__(f, "_spectrum", self.spec)  # outside the fields: repr, replace

    @property
    def n2(self) -> np.ndarray:  # the distinct |n|^2, ascending
        return _mode_table(self.f.grid.sizes, self.real)[0]

    @property
    def index(self) -> np.ndarray:  # each mode's position in n2
        return _mode_table(self.f.grid.sizes, self.real)[1]

    def output(self) -> Optional[np.ndarray]:
        """The array inverse writes a real result into; None for complex data.

        Take it before the product. The product is freed first: above
        the result, its memory serves the next flow; below it, it can
        leave a free heap top that the allocator returns to the system,
        for the next request to fault in again page by page.
        """
        return np.empty(self.f.grid.sizes) if self.real else None

    def inverse(self, spec: np.ndarray, out: Optional[np.ndarray], operation: str,
                operands: tuple[np.ndarray, ...],
                columns: Optional[int] = None) -> np.ndarray:
        """Inverse DFT of spec, a product of the operands' spectra or of one and a symbol.

        spec must be a fresh array that the caller gives up: the complex
        passes overwrite it, and complex data end there. For real data
        they are those of irfftn over axes 0 .. d-2, in its order, run on
        the first columns of the last axis if columns is set (the rest must
        be 0, which the passes would leave as it is), and the last-axis
        irfft writes the result into out, from output(). A non-finite
        result from finite operands means an overflow on the way, which
        raises an OverflowError naming the operation.
        """
        sizes = self.f.grid.sizes
        with np.errstate(over="ignore", invalid="ignore"):
            if self.real:
                live = spec if columns is None else spec[..., :columns]
                for axis in range(len(sizes) - 1):
                    np.fft.ifft(live, axis=axis, out=live)
                out = np.fft.irfft(spec, n=sizes[-1], axis=-1, out=out)
            else:
                out = np.fft.ifftn(spec, out=spec)
        if not np.isfinite(out).all() and all(np.isfinite(a).all() for a in operands):
            raise OverflowError(f"{operation} of finite data overflowed double precision")
        return out

    def peak(self) -> float:
        """P, the largest |re| or |im| of any component of the spectrum; nan if one is nan.

        Kept on f beside its spectrum, with the same lifetime: not a field,
        and copies and pickles start without it.
        """
        peak = self.f.__dict__.get("_peak")
        if peak is None:
            parts = self.spec.view(float)
            peak = max(float(parts.max()), -float(parts.min()))  # a nan reaches both
            if self.spec is self.f.__dict__.get("_spectrum"):
                object.__setattr__(self.f, "_peak", peak)
        return peak

    def _cut(self, symbol: np.ndarray) -> tuple[np.ndarray, Optional[int]]:
        """The symbol with 0 where it scales every mode below _CUT, and the columns left live.

        A value sigma counts as 0 where |sigma| P < _CUT, P the peak; a nan
        or infinite |sigma| P is live. The count is that of the last-axis
        columns 0 .. floor(sqrt(m)), m the largest |n|^2 with a live value:
        column c holds only modes with |n|^2 >= c^2, so its product is 0
        past the count. The symbol as it is, and None, if P is not finite.
        """
        peak = self.peak()
        if not math.isfinite(peak):
            return symbol, None
        with np.errstate(over="ignore"):
            live = ~(np.abs(symbol) * peak < _CUT)
        last = live.size - 1 - int(np.argmax(live[::-1]))
        columns = math.isqrt(int(self.n2[last])) + 1 if live[last] else 0
        return symbol * live, min(columns, self.spec.shape[-1])

    def scaled(self, symbol: np.ndarray) -> np.ndarray:
        """Samples of f with every mode scaled by its symbol value, in a fresh array.

        The caller owns the array. An overflow raises OverflowError. Real
        data on two or more axes skip what is known to be 0: the symbol
        values that _cut sets to 0, and the complex passes of the inverse
        over the columns past its count. Each output sample then
        moves by less than 2^54 2^-1022 (about 4.0e-292) absolute, rounding
        aside: the dropped modes, at most N with their conjugates, each add
        under sqrt(2) _CUT / N to a sample. Lines have no complex pass and
        keep every value.
        """
        out, columns = self.output(), None
        if self.real and self.f.grid.dims > 1:
            symbol, columns = self._cut(symbol)
        product = symbol.astype(complex)
        if product.size != self.index.size:  # else the index is the identity
            product = product[self.index]
        with np.errstate(over="ignore", invalid="ignore"):
            # spec times symbol, in that order: complex products can round
            # differently with the operands swapped. Over every column: a
            # strided multiply would take numpy's 8192-element buffers.
            np.multiply(self.spec, product, out=product)
        return self.inverse(product, out, "Fourier multiplier", (self.f.values, symbol),
                            columns)

    def apply(self, symbol: np.ndarray) -> SampledFunction:
        """f with every mode scaled by its symbol value; an overflow raises OverflowError."""
        return SampledFunction._adopt(self.f.grid, self.scaled(symbol), self.f.kind)

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


def _separable(grid: PeriodicGrid, factors: list[np.ndarray]) -> SampledFunction:
    """The real-kind function prod_a factors[a][j_a], one factor per axis, taken over.

    On two or more axes it arrives with its spectrum, the outer product of
    the fft of each factor but the last and the rfft of the last: rfftn of
    the samples in exact arithmetic, and within a few eps of it in floating
    point. A copy transforms its samples instead and may differ in the
    last bits.
    """
    f = SampledFunction._adopt(grid, reduce(np.multiply.outer, factors), "real")
    if grid.dims > 1:
        spectra = [np.fft.fft(v) for v in factors[:-1]] + [np.fft.rfft(factors[-1])]
        spec = reduce(np.multiply.outer, spectra)
        spec.flags.writeable = False
        object.__setattr__(f, "_spectrum", spec)  # outside the fields, as _Spectrum keeps one
    return f


def circular_convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Periodic convolution (f * g)(x) = integral f(y) g(x - y) dy.

    Computed as the discrete circular convolution scaled by the cell volume;
    coefficient-wise this equals 2pi^d * f_hat(n) * g_hat(n). Two real-kind
    operands go through real FFTs, so their convolution is exactly real.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch: convolution operands must share a grid")
    real = f.kind == "real" and g.kind == "real"
    f_hat, g_hat = _Spectrum(f, real), _Spectrum(g, real)
    out = f_hat.output()
    with np.errstate(over="ignore", invalid="ignore"):
        # Not the * operator: it may reuse a temporary right operand as the
        # output and compute g_hat * f_hat, whose complex products can round
        # differently from f_hat * g_hat.
        spec = np.multiply(f_hat.spec, g_hat.spec)
    vals = f_hat.inverse(spec, out, "circular convolution", (f.values, g.values))
    vals *= f.grid.cell_volume
    return SampledFunction._adopt(f.grid, vals, "real" if real else "complex")
