"""Periodic ultra-distributions as coefficient sequences with growth control.

A trigonometric series sum F_n exp(i n x) is handled purely through its
coefficients: a stored window plus an optional lazy rule for the tail.
Growth classes bound coefficients by c * base^(|n|^k) — decaying bases
(base < 1, 'test' kind) describe smooth test functions, growing bases
(base >= 1, 'dual' kind) describe genuinely distributional objects. The
duality pairing is

    <F, f> = 2pi * sum f_hat(n) * conj(F_n),

absolutely convergent whenever the base product pq is below 1. Heat
evolution acts diagonally, F_n -> F_n exp(-n^2 t), and for quadratic
growth (k = 2) a finite time 2 ln p suffices to carry a dual-class
object into a classical test class.

Rules and bounds are evaluated as arrays over index chunks of fixed
sizes (64 indices, doubling up to 2048); a scalar call evaluates the
array form at one index. A pairing sum takes n = 0, then the chunks of
n = +-1, +-2, ... in order, each added as one numpy sum, so a result
depends only on its inputs. Declared growth classes are verified, not
trusted. A PowerRule tail is decided in closed form, from its log ratio,
at every int64 index; any other tail is scanned in chunks up to its stop,
and a scan that reaches max_terms before it raises. fit_growth takes its
constant from the ratios check_membership forms in a window, so a window
is a member of its own fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fourier import (_MAX_INDEX, TWO_PI, CoefficientSequence, _integer, _one_index,
                      _tolerance)
from .semigroups import _RATE_CAP, _decay, _require_time

GROWTH_KINDS = ("test", "dual")

# How many consecutive below-tolerance terms end the tail scan when no
# class bound is available to drive the truncation.
_QUIET_RUN = 8

_EPS = float(np.finfo(float).eps)

# Relative slack of every bound comparison: |c_n| / bound(n) <= _SLACK.
_SLACK = 1.0 + 1e-12

# Longest index chunk of an array scan. Chunks start at 64 indices and
# double up to this, so a scan that stops early does little extra work
# and no scan allocates arrays of max_terms length.
_CHUNK = 2048

_PROBES = 128  # indices that one round of _first probes
_INT64_MAX = 2**63 - 1  # the last index a PowerRule tail is decided at
_FLOAT_CEIL = 2**1024 - 2**970  # the least integer that float() rounds past the float range
_SMOOTHING_MARGIN = 1e-9  # added to the smoothing threshold against boundary ties
_PAIR_TOL = 1e-14  # term tolerance of the pairings that take none
_POSITIVITY_DEGREE = 6  # degree of the trig polynomials p whose |p|^2 positivity_check tests
_POSITIVITY_TOL = 1e-10  # how far below 0, beyond eigh's round-off, a pairing may fall


def _chunks(lo: int, hi: int):
    """Index arrays covering lo..hi in increasing order."""
    size = 64
    while lo <= hi:
        top = min(hi, lo + size - 1)
        yield np.arange(lo, top + 1)
        lo, size = top + 1, min(2 * size, _CHUNK)


def _first(pred: Callable[[np.ndarray], np.ndarray], lo: int, hi: int) -> int:
    """Smallest m in lo..hi with pred(m), for pred monotone there; hi + 1 if none (lo if lo > hi).

    pred maps an index array to booleans; a round probes _PROBES indices of lo..hi, lo and hi
    among them, spaced geometrically from lo where hi - lo passes _PROBES * lo.
    """
    while True:
        span, steps = hi - lo, np.arange(_PROBES)
        if span < _PROBES:
            ms = np.arange(lo, hi + 1)
        elif span > _PROBES * lo:  # lo + span^(i / (_PROBES - 2)), and lo
            inner = np.geomspace(1, span, _PROBES - 1)[:-1].astype(np.int64)
            ms = lo + np.concatenate(([0], inner, [span]))
        else:  # lo + span * i / (_PROBES - 1), in int64 without overflow
            q, r = divmod(span, _PROBES - 1)
            ms = lo + q * steps + r * steps // (_PROBES - 1)
        hit = pred(ms)
        if not hit.any():
            return max(lo, hi + 1)
        j = int(np.argmax(hit))
        if j == 0 or span < _PROBES:
            return int(ms[j])
        lo, hi = int(ms[j - 1]) + 1, int(ms[j])


def _index_powers(ns: np.ndarray, k: int) -> np.ndarray:
    """|n|^k as floats, each rounded once from the exact integer as float(|n| ** k) is.

    Past the float range it is inf. Powers that may not fit an int64 are
    formed as Python integers, one index at a time.
    """
    m = np.abs(np.asarray(ns, dtype=np.int64))
    if m.max(initial=0) <= 2.0 ** (62 / k):
        return (m**k).astype(float)
    big = m > 2.0 ** (62 / k)
    out = (np.where(big, 0, m) ** k).astype(float)
    out[big] = [float(p) if (p := v**k) < _FLOAT_CEIL else math.inf for v in m[big].tolist()]
    return out


def _power_law(ns: np.ndarray, base: float, order: int, scale: float = 1.0) -> np.ndarray:
    """scale * base^(|n|^order) over an index array; overflow gives inf, scale 0 gives 0."""
    if scale == 0.0:
        return np.zeros(np.shape(ns))
    with np.errstate(over="ignore"):
        p = np.power(base, _index_powers(ns, order))
        if scale != 1.0:
            np.multiply(scale, p, out=p, where=np.isfinite(p))
    return p


def _order(k, least: int = 1, name: str = "order") -> int:
    """k as an int; ValueError naming it unless it is an integer >= least, and not a bool."""
    try:
        whole = not isinstance(k, (bool, np.bool_)) and int(k) == k
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not (whole and k >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {k!r}")
    return int(k)


@dataclass(frozen=True)
class GrowthClass:
    """Coefficient growth bound |F_n| <= constant * base^(|n|^order).

    kind 'test' requires base in (0, 1); kind 'dual' admits base >= 1
    (base exactly 1 covers bounded sequences such as the Dirac comb).
    The base must be finite and the constant a finite nonnegative number;
    constant == 0 marks the degenerate all-zero fit.
    """

    kind: str
    base: float
    order: int
    constant: float = 1.0

    def __post_init__(self):
        if self.kind not in GROWTH_KINDS:
            raise ValueError(f"kind must be one of {GROWTH_KINDS}, got {self.kind!r}")
        if self.kind == "test" and not (0.0 < self.base < 1.0):
            raise ValueError(f"test kind requires base in (0, 1), got {self.base}")
        if self.kind == "dual" and self.base < 1.0:
            raise ValueError(f"dual kind requires base >= 1, got {self.base}")
        if not math.isfinite(self.base):
            raise ValueError(f"base must be finite, got {self.base}")
        object.__setattr__(self, "order", _order(self.order))
        if not (self.constant >= 0 and math.isfinite(self.constant)):
            raise ValueError(f"constant must be nonnegative and finite, got {self.constant}")

    @property
    def degenerate(self) -> bool:
        return self.constant == 0.0

    def bound(self, n: int) -> float:
        return self.bounds(_one_index(n))[0].item()

    def bounds(self, ns: np.ndarray) -> np.ndarray:
        """bound(n) over an index array."""
        return _power_law(ns, self.base, self.order, self.constant)


class _ArrayRule:
    """A rule defined by its array form; the scalar form evaluates one int64 index."""

    def __call__(self, n: int):
        return self.values(_one_index(n))[0].item()


@dataclass(frozen=True)
class PowerRule(_ArrayRule):
    """Lazy coefficient rule n -> base^(|n|^order), for a finite base and an integer order >= 1."""

    base: float
    order: int

    def __post_init__(self):
        if not math.isfinite(self.base):
            raise ValueError(f"power rule base must be finite, got {self.base}")
        object.__setattr__(self, "order", _order(self.order))

    def values(self, ns: np.ndarray) -> np.ndarray:
        return _power_law(ns, self.base, self.order)


@dataclass(frozen=True)
class _EvolvedRule(_ArrayRule):
    """The source sequence damped by the heat multiplier exp(-n^2 t), window and tail alike."""

    source: CoefficientSequence
    t: float

    def values(self, ns: np.ndarray) -> np.ndarray:
        """source(n) exp(-n^2 t), exactly 0 (source not asked) where that factor underflows."""
        damp = _decay(self.t, ns.astype(float) ** 2)
        live = damp != 0.0
        v = self.source.values(ns[live])
        out = np.zeros(ns.shape, dtype=complex)
        out.real[live] = v.real * damp[live]
        out.imag[live] = v.imag * damp[live]
        return out


@dataclass(frozen=True)
class _DifferentiatedRule(_ArrayRule):
    """The source sequence scaled by the derivative factor (i n)^m, window and tail alike."""

    source: CoefficientSequence
    m: int

    def values(self, ns: np.ndarray) -> np.ndarray:
        """source(n) (i n)^m, formed part by part so that an infinite source(n) meets no zero."""
        s = _index_powers(ns, self.m) * (np.sign(ns) if self.m % 2 else 1.0)
        v = self.source.values(ns)
        re, im = v.real * s, v.imag * s
        out = np.empty(re.shape, dtype=complex)
        out.real, out.imag = ((re, im), (-im, re), (-re, -im), (im, -re))[self.m % 4]
        return out


def _verify(ns: np.ndarray, sides, finite: bool = False) -> None:
    """Raise ValueError at the first of ns where a side (name, values, class) breaks its class.

    That is a ratio |value| / bound above the slack, as check_membership
    forms it, a NaN or, with finite, an infinity; the earlier side is named
    first. An infinite value against an infinite bound is left to the
    pairing, whose OverflowError names it.
    """
    with np.errstate(over="ignore"):
        mags = [np.abs(vals) for _, vals, _ in sides]
        bounds = [g.bounds(ns) for _, _, g in sides]
    bad = [((_ratios(v, b) > _SLACK) & ~(np.isinf(v) & np.isinf(b))) | (finite & ~np.isfinite(v))
           for v, b in zip(mags, bounds)]
    i = int(np.argmax(np.logical_or.reduce(bad)))
    for (name, _, g), v, b in zip(sides, mags, bad):
        if b[i]:
            n = int(ns[i])
            why = f"exceeds bound {g.bound(n):.6g}" if np.isfinite(v[i]) else "is not finite"
            raise ValueError(f"declared class of {name} violated at n = {n}: "
                             f"|{name}_n| = {v[i]:.6g} {why}")


@dataclass(frozen=True)
class UltraDistribution:
    """A coefficient sequence with an optional declared growth class.

    When a class is declared, the stored window is validated against its
    bound at construction; a non-finite window entry is refused.
    """

    coeffs: CoefficientSequence
    declared_class: Optional[GrowthClass] = None

    def __post_init__(self):
        if self.declared_class is not None:
            _verify(self.coeffs.indices(), [("F", self.coeffs.coeffs, self.declared_class)],
                    finite=True)

    @property
    def halfwidth(self) -> int:
        return self.coeffs.halfwidth


@dataclass(frozen=True)
class DerivativeBound:
    """Constants of the derivative estimate |f^(m)| <= C * B^m * m^(m/k)."""

    C: float
    B: float
    k: int

    def magnitude(self, m: int) -> float:
        return self.C * self.B**m * (float(m) ** (m / self.k) if m > 0 else 1.0)


@dataclass(frozen=True)
class MembershipResult:
    """check_membership's verdict, its worst ratio |c_n| / bound(n) and that n, and the last
    |n| checked: 2^63 - 1 for a PowerRule tail that is a member at every int64 index."""

    ok: bool
    worst_n: Optional[int]
    worst_ratio: float
    checked_up_to: int

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PairingResult:
    value: complex
    tail_bound: float
    terms: int


@dataclass(frozen=True)
class WeakLimitReport:
    ts: tuple[float, ...]
    magnitudes: tuple[float, ...]
    monotone: bool
    final: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.monotone and self.final <= self.tol


@dataclass(frozen=True)
class PositivityResult:
    """positivity_check's verdict over |p|^2, deg p <= 6; see there for the fields."""

    positive: bool
    min_pairing: float
    route_gap: float

    def __bool__(self) -> bool:
        return self.positive


def _ratios(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|c_n| / bound(n) elementwise; inf where only the bound is 0, where both are inf, or NaN."""
    r = np.where(v == 0.0, 0.0, np.inf)
    with np.errstate(over="ignore"):
        np.divide(v, b, out=r, where=(b > 0.0) & ~(np.isinf(v) & np.isinf(b)))
    r[np.isnan(r)] = np.inf
    return r


def _log_form(rule: PowerRule, g: GrowthClass):
    """ln(|rule(m)| / bound(m)) for m >= 1 as (terms, D): the sum of coef * m^order - D.

    The terms (coef, order) come in increasing order, without zero
    coefficients. Equal orders share one, ln(|b| / B), so that a flat tail
    is exactly -ln c. A zero base gives -inf (ratio 0), else a zero constant inf.
    """
    b, B, k, K = abs(rule.base), g.base, rule.order, g.order
    if b == 0.0 or g.constant == 0.0:
        return [], (math.inf if b == 0.0 else -math.inf)
    if k == K:  # b - B is exact where b is within a factor 2 of B
        a = math.log1p((b - B) / B) if B / 2 <= b <= 2 * B else math.log(b) - math.log(B)
        terms = [(a, k)]
    else:
        terms = sorted([(math.log(b), k), (-math.log(B), K)], key=lambda t: t[1])
    return [t for t in terms if t[0] != 0.0], math.log(g.constant)


def _log_ratio(terms, D: float, ns: np.ndarray) -> np.ndarray:
    """The log ratio of _log_form over tail indices ns >= 1.

    Two terms are formed as m^lo (p + q m^(hi - lo)) - D, so that no
    inf - inf arises where both powers overflow.
    """
    if not terms:
        return np.full(ns.shape, -D)
    (p, lo), *rest = terms
    with np.errstate(over="ignore", invalid="ignore"):
        f = p + rest[0][0] * _index_powers(ns, rest[0][1] - lo) if rest else p
        return _index_powers(ns, lo) * f - D


def _scan(c: CoefficientSequence, g: GrowthClass, tol: float, lo: int, hi: int,
          worst_ratio: float, worst_n: Optional[int]):
    """Check the tail indices lo..hi of c and their negatives in chunks, up to the first stop.

    A scan stops at a ratio above the slack, or where the bound and both
    magnitudes are below tol. Returns the worst ratio and its index (the
    first on ties, n before -n), and the stop; raises ValueError naming
    lo..hi if there is no stop there.
    """
    for ns in _chunks(lo, hi):
        b = g.bounds(ns)
        with np.errstate(over="ignore"):
            vp, vm = np.abs(c.values(ns)), np.abs(c.values(-ns))
        rp, rm = _ratios(vp, b), _ratios(vm, b)
        r = np.maximum(rp, rm)
        stops = (r > _SLACK) | ((b < tol) & (np.maximum(vp, vm) < tol))
        end = int(np.argmax(stops)) if stops.any() else ns.size - 1
        i = int(np.argmax(r[:end + 1]))
        if r[i] > worst_ratio:
            worst_ratio, worst_n = float(r[i]), int(ns[i]) if rp[i] >= rm[i] else -int(ns[i])
        if stops.any():
            return worst_ratio, worst_n, int(ns[end])
    raise ValueError(f"membership undecided: the tail scan of |n| = {lo}..{hi} met neither "
                     f"a violation nor values and bound below tol; raise max_terms")


def _power_tail(c: CoefficientSequence, g: GrowthClass, tol: float, m0: int,
                worst_ratio: float, worst_n: Optional[int]):
    """_scan's result for the tail m0..2^63 - 1 of c, a PowerRule tail, in closed form.

    The log ratio L(m) has at most one interior extremum mc. On either side
    of it L, the rule and the bound are monotone, so the stop test, exp(L)
    above the slack or bound and |rule| below tol, holds there from the
    first index or on a suffix (except where rule and bound cross tol within
    the slack of each other): one _first search per side finds the stop,
    2^63 - 1 without one. Up to it, L peaks at m0, floor(mc), floor(mc) + 1
    or the stop; the first of these where it peaks is the witness.
    """
    rule = c.rule
    terms, D = _log_form(rule, g)
    cuts, tops = [m0, _INT64_MAX + 1], [m0]
    if len(terms) == 2:
        (p, lo), (q, hi) = terms
        r = -lo * p / (hi * q)
        if r > 0.0 and m0 <= (mc := r ** (1.0 / (hi - lo))) < _INT64_MAX:
            cuts.insert(1, int(mc) + 1)
            tops += [int(mc), int(mc) + 1]

    def stops(ms):
        with np.errstate(over="ignore"):
            low = (g.bounds(ms) < tol) & (np.abs(rule.values(ms)) < tol)
            return (np.exp(_log_ratio(terms, D, ms)) > _SLACK) | low

    stop = next((s for a, z in zip(cuts, cuts[1:]) if (s := _first(stops, a, z - 1)) < z),
                _INT64_MAX)
    tops = np.array([m for m in tops if m < stop] + [stop])
    L = _log_ratio(terms, D, tops)
    i = int(np.argmax(L))
    with np.errstate(over="ignore"):
        r = float(np.exp(L[i:i + 1])[0])  # the exp of the stop test
    return (r, int(tops[i]), stop) if r > worst_ratio else (worst_ratio, worst_n, stop)


def check_membership(c: CoefficientSequence, g: GrowthClass,
                     tol: float = 1e-14, max_terms: int = 1_000_000) -> MembershipResult:
    """Test |c_n| <= bound(n), up to a relative slack of 1e-12, over the window and the tail.

    The tail check runs up to its stop: the first violation, or the first
    index where the class bound and the rule values are both below tol.
    The witness reports the worst index and ratio |c_n| / bound(n) up to
    there, and checked_up_to the stop. A PowerRule tail is decided in
    closed form from its log ratio at every int64 index, overflow
    included; one that never stops is a member at every index and reports
    checked_up_to = 2^63 - 1. Any other rule is scanned in chunks up to
    max_terms at most, where inf against inf counts as a violation, and a
    scan that reaches max_terms before its stop raises ValueError. tol
    must be positive and finite, and max_terms an integer.
    """
    tol, max_terms = _tolerance(tol), _integer(max_terms, "max_terms")
    idx = c.indices()
    with np.errstate(over="ignore"):
        r = _ratios(np.abs(c.coeffs), g.bounds(idx))
    i = int(np.argmax(r))
    worst_ratio, worst_n = (float(r[i]), int(idx[i])) if r[i] > 0.0 else (0.0, None)
    checked = c.halfwidth
    if c.rule is not None and worst_ratio <= _SLACK:
        if isinstance(c.rule, PowerRule):
            worst_ratio, worst_n, checked = _power_tail(c, g, tol, c.halfwidth + 1,
                                                        worst_ratio, worst_n)
        else:
            worst_ratio, worst_n, checked = _scan(c, g, tol, c.halfwidth + 1, max_terms,
                                                  worst_ratio, worst_n)
    return MembershipResult(worst_ratio <= _SLACK, worst_n, worst_ratio, checked)


def fit_growth(c: CoefficientSequence, k: int) -> GrowthClass:
    """Least-squares growth classification of a coefficient window.

    Fits log|c_n| against |n|^k over the nonzero coefficients, returning
    the fitted base and, as constant, the largest ratio |c_n| / base^(|n|^k)
    as check_membership forms it, so the window is a member of its fit.
    An all-zero window yields the degenerate marker (test kind, base 0.5,
    constant 0).
    """
    if c.halfwidth < 4:
        raise ValueError(f"window radius {c.halfwidth} < 4 is too small to fit")
    k = _order(k)
    idx = c.indices()
    mags = np.abs(c.coeffs)
    nz = mags > 0.0
    if not np.any(nz):
        return GrowthClass("test", 0.5, k, 0.0)
    x = np.abs(idx[nz]).astype(float) ** k
    y = np.log(mags[nz])
    if np.ptp(x) == 0.0:
        slope = 0.0
    else:
        xm, ym = x.mean(), y.mean()
        slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    base = math.exp(slope)
    kind = "test" if base < 1.0 else "dual"
    constant = float(np.max(_ratios(mags, GrowthClass(kind, base, k).bounds(idx))))
    return GrowthClass(kind, base, k, constant)


def _pair_terms(F: CoefficientSequence, f: CoefficientSequence, ns: np.ndarray,
                deficit_t: Optional[float], classes) -> np.ndarray:
    """Terms f_n conj(F_n), times expm1(-n^2 t) for a deficit pairing, at ns.

    With declared classes (F_class, f_class) both sides are evaluated at
    every index and checked against their bounds; otherwise F is
    evaluated only where f_n != 0. A product is formed only where neither
    factor is 0: an overflowed F_n beyond an underflowed f_n gives 0. A
    product that is not finite raises OverflowError naming the first such n.
    """
    fv = f.values(ns)
    if classes is None:
        Fv = np.zeros_like(fv)
        Fv[fv != 0.0] = F.values(ns[fv != 0.0])
    else:
        Fv = F.values(ns)
        _verify(ns, [("F", Fv, classes[0]), ("f", fv, classes[1])])
    live = (fv != 0.0) & (Fv != 0.0)
    t = np.zeros(ns.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        t[live] = fv[live] * np.conj(Fv[live])
    if not np.isfinite(t).all():
        n = int(ns[np.argmin(np.isfinite(t))])
        raise OverflowError(f"pairing term f_n conj(F_n) at n = {n} is not finite")
    if deficit_t is not None:
        t *= np.expm1(-min(deficit_t, _RATE_CAP) * ns.astype(float) ** 2)
    return t


def _pair_core(F: CoefficientSequence, f: CoefficientSequence,
               F_class: Optional[GrowthClass], f_class: Optional[GrowthClass],
               tol: float, deficit_t: Optional[float] = None) -> PairingResult:
    """2pi * sum f_n conj(F_n) (times expm1(-n^2 t) when deficit_t is given).

    The sum runs over n = 0, then +-1, +-2, ... in index chunks of fixed
    sizes, each added as one numpy sum, so its value is reproducible.
    With classes on both sides the truncation point and tail bound come
    from them, and both are verified, not trusted, on every summed term.
    A side without a rule is 0 past its window: without classes the sum
    ends there, and the tail bound is 0.
    """
    window = max(F.halfwidth, f.halfwidth)
    ends = [c.halfwidth for c in (F, f) if c.rule is None]
    classes, last = None, min(ends + [_MAX_INDEX])
    if F_class is not None and f_class is not None:
        pq = F_class.base * f_class.base
        if pq >= 1.0:
            raise ValueError(f"divergent pairing: base product p*q = {pq:.6g} >= 1")
        for a, b in ((F_class, f_class), (f_class, F_class)):
            if a.base > 1.0 and a.order > b.order:
                raise ValueError(
                    f"divergent pairing: base {a.base:.6g} > 1 of order {a.order} "
                    f"against decay of order {b.order}"
                )
        classes = (F_class, f_class)
        cc = F_class.constant * f_class.constant
        tail = lambda ns: 2.0 * cc * pq**ns / (1.0 - pq)
        # first unsummed |n|: past the windows, where the class tail is below tol
        last = _first(lambda ns: (ns > window) & (tail(ns) < tol), 1, _MAX_INDEX) - 1
    total = _pair_terms(F, f, np.zeros(1, dtype=np.int64), deficit_t, classes)[0]
    n, quiet, recent = 0, 0, [0.0, 0.0]
    for ch in _chunks(1, last):
        t = _pair_terms(F, f, np.stack([ch, -ch], axis=1).ravel(), deficit_t, classes)
        end = ch.size - 1
        if classes is None and not ends:
            # The heuristic tail ends after _QUIET_RUN consecutive |n| > window
            # whose terms are all below tol.
            mag = np.abs(t).reshape(-1, 2).max(axis=1)
            counted = ch > window
            pos = np.arange(ch.size)
            reset = np.maximum.accumulate(np.where(counted & (mag < tol), -1, pos))
            run = np.where(reset >= 0, pos - reset, pos + 1 + quiet)
            hit = np.flatnonzero(run >= _QUIET_RUN)
            end = int(hit[0]) if hit.size else end
            # the tail estimate uses the magnitudes before the index that ends the run
            seen = end if hit.size else end + 1
            recent = (recent + mag[:seen][counted[:seen]][-2:].tolist())[-2:]
            quiet = int(run[end])
        total += t[:2 * end + 2].sum()
        n = int(ch[end])
        if quiet >= _QUIET_RUN:
            break
    prev_mag, last_mag = recent
    if min(ends, default=math.inf) <= _MAX_INDEX:
        bound = 0.0  # the sum has passed a bare window: every term left is 0
    elif classes is not None:
        bound = tail(np.array([max(1, min(n + 1, _MAX_INDEX))]))[0].item()
    elif prev_mag > 0.0 and last_mag > 0.0:
        r = min(last_mag / prev_mag, 0.95)
        bound = 2.0 * last_mag * r / (1.0 - r)
    else:
        bound = 2.0 * _QUIET_RUN * tol
    return PairingResult(complex(TWO_PI * total), TWO_PI * bound, 2 * n + 1)


def pair(F: UltraDistribution, f: CoefficientSequence,
         f_class: Optional[GrowthClass] = None, tol: float = _PAIR_TOL) -> PairingResult:
    """Duality pairing <F, f> = 2pi * sum f_hat(n) conj(F_n), over |n| <= 100 000.

    With growth classes on both sides the truncation point and the
    reported tail bound come from the rigorous estimate
    2 c_F c_f (pq)^n / (1 - pq) at the first unsummed |n|. Both classes
    are verified, not trusted: every summed |F_n| and |f_n| is checked
    against its bound (relative slack 1e-12), and a violation raises
    ValueError naming the first bad n. A class pair whose bound cannot
    converge (pq >= 1, or a growing base of higher order than the decay)
    is refused. A side without a rule is 0 past its window, which ends the
    sum without classes; tail_bound is then 0. Two ruled sides without
    classes stop on a quiet run of terms, and tail_bound is an estimate,
    not a bound. Sums run n = 0, then |n| = 1, 2, ... in index chunks of
    fixed sizes. A non-finite term, such as an overflowed F_n against a
    subnormal f_n, raises OverflowError naming n. The term tolerance tol
    must be positive and finite.
    """
    return _pair_core(F.coeffs, f, F.declared_class, f_class, _tolerance(tol))


def evolve_ultra(F: UltraDistribution, t: float) -> UltraDistribution:
    """Heat evolution F_n -> F_n exp(-n^2 t); exactly diagonal, t=0 is identity.

    Dual classes of order k > 2 with an infinite tail are refused: no
    finite t makes exp(-n^2 t) dominate base^(|n|^k) beyond the window.
    """
    _require_time(t)
    if t == 0.0:
        return F
    g = F.declared_class
    if (g is not None and g.kind == "dual" and g.order > 2
            and F.coeffs.rule is not None):
        raise ValueError(
            "unsmoothable class: quadratic heat decay cannot tame growth of "
            f"order k = {g.order} beyond the stored window"
        )
    c, evolved = F.coeffs, _EvolvedRule(F.coeffs, t)
    rule = None if c.rule is None else evolved
    if isinstance(c.rule, PowerRule) and c.rule.order == 2:
        rule = PowerRule(c.rule.base * math.exp(-t), 2)
    elif isinstance(c.rule, PowerRule) and c.rule.base == 1.0:
        # A constant-1 tail (the comb) evolves to exactly exp(-t)^(n^2).
        rule = PowerRule(math.exp(-t), 2)
    window = evolved.values(c.indices())
    return UltraDistribution(CoefficientSequence(c.halfwidth, window, rule), g)


def smoothing_threshold(g: GrowthClass) -> float:
    """Time t_F past which evolution maps the class into a classical one.

    For a dual class of order 2 with base p, t_F = 2 ln p (plus a 1e-9
    margin against boundary-equality flakiness); for every t >= t_F the
    evolved coefficients satisfy the test-class bound with base
    q = exp(-t_F / 2) and the same constant.
    """
    if g.kind != "dual":
        raise ValueError("smoothing threshold applies to dual growth classes")
    if g.order != 2:
        raise ValueError(
            f"smoothing threshold is established only for order k = 2, got k = {g.order}"
        )
    return 2.0 * math.log(g.base) + _SMOOTHING_MARGIN


def weak_limit_check(F: UltraDistribution, f: CoefficientSequence,
                     t_list: Sequence[float], f_class: Optional[GrowthClass] = None,
                     tol: float = 1e-10) -> WeakLimitReport:
    """Tabulate |<evolved F - F, f>| over decreasing times.

    The weight exp(-n^2 t) - 1 has modulus at most 1, so the class-driven
    truncation of the plain pairing remains valid. Reports whether the
    magnitudes decrease monotonically and end below tol, which must be
    positive and finite.
    """
    _tolerance(tol)
    ts = sorted((float(t) for t in t_list), reverse=True)
    if not ts or ts[-1] <= 0:
        raise ValueError("t_list must be nonempty and strictly positive")
    mags = [abs(evolution_deficit_pair(F, f, t, f_class).value) for t in ts]
    slack = 1e-12 * mags[0]
    monotone = all(b <= a + slack for a, b in zip(mags, mags[1:]))
    return WeakLimitReport(tuple(ts), tuple(mags), monotone, mags[-1], tol)


def evolution_deficit_pair(F: UltraDistribution, f: CoefficientSequence, t: float,
                           f_class: Optional[GrowthClass] = None) -> PairingResult:
    """<evolved F - F, f> for a single time, via the weighted pairing."""
    _require_time(t, positive=True)
    return _pair_core(F.coeffs, f, F.declared_class, f_class, _PAIR_TOL, deficit_t=t)


def derivative_sequence(c: CoefficientSequence, m: int) -> CoefficientSequence:
    """Coefficients of the m-th derivative: c_n -> (i n)^m c_n."""
    m = _order(m, 0, "derivative order")
    if m == 0:
        return c
    rule = _DifferentiatedRule(c, m)
    return CoefficientSequence(c.halfwidth, rule.values(c.indices()),
                               None if c.rule is None else rule)


def derivative_ultra(F: UltraDistribution, m: int) -> UltraDistribution:
    """Distributional derivative; satisfies <F^(m), f> = (-1)^m <F, f^(m)>.

    The polynomial factor n^m breaks the declared growth bound, so the
    result carries no declared class for m > 0.
    """
    seq = derivative_sequence(F.coeffs, m)
    return F if m == 0 else UltraDistribution(seq, declared_class=None)


def derivative_bound_constants(g: GrowthClass) -> DerivativeBound:
    """Constants (C, B, k) of the derivative estimate for a test-kind class.

    With a = ln(1/base): B = (1/a)^(1/k) and C = (2c/k)(1/a)^(1/k); the
    empirical check against C * B^m * m^(m/k) carries a documented slack
    factor absorbing the gamma-to-power conversion.
    """
    if g.kind != "test":
        raise ValueError("derivative bounds apply to test-kind growth classes")
    a = math.log(1.0 / g.base)
    root = (1.0 / a) ** (1.0 / g.order)
    return DerivativeBound(C=2.0 * g.constant / g.order * root, B=root, k=g.order)


def positivity_check(F: UltraDistribution, t: float,
                     seed: int = 12345) -> PositivityResult:  # seed: unused, kept for callers
    """Decide Re<evolved F, |p|^2> >= 0 over all trig polynomials p of degree <= 6.

    With G_n = F_n exp(-n^2 t), Re<evolved F, |p|^2> = 2pi p^H A p for A the Hermitian
    part of the 13 x 13 Toeplitz matrix [G_(k-j)]. One eigh of A gives min_pairing = 2pi
    lambda_min, the least pairing over sum |p_m|^2 = 1, and the witness w = |p|^2. By
    Fejer-Riesz the verdict covers all nonnegative trig polynomials of degree <= 12 and
    no others: 1 + 1.01 cos x passes at t = 1e-3, though its evolution dips to -0.009.
    positive: min_pairing >= -(1e-10 + 2pi * 13 eps * sum |G_n|), covering eigh's round-off.
    route_gap = |<evolved F, w> - <F, evolved w>|, two calls of pair that end at w's window
    |n| <= 12. A non-finite G_n, sum or pairing term raises OverflowError.
    """
    _require_time(t)
    evolved = evolve_ultra(F, t)
    d = _POSITIVITY_DEGREE
    ns = np.arange(-2 * d, 2 * d + 1)
    G = evolved.coeffs.values(ns)
    with np.errstate(over="ignore"):
        size = TWO_PI * float(np.abs(G).sum())
        if not math.isfinite(size):  # argmax finds a NaN first, then the first largest
            raise OverflowError(f"evolved coefficient G_n at n = {int(ns[np.argmax(np.abs(G))])}"
                                " is not finite, or sum |G_n| overflows")
    T = G[ns[d:-d, None] - ns[d:-d] + 2 * d]  # T[k, j] = G_(k - j) for |k|, |j| <= d
    # eigh may fail to converge on huge entries (G_9 = 7.5e227 alone did), so A
    # is scaled by the power of 2 above max |G_n|, which is exact both ways.
    # ldexp scales each part: for a subnormal max |G_n|, 2^-exponent overflows,
    # and numpy's complex division by 2^exponent overflows on the way.
    exponent = math.frexp(float(np.abs(G).max()))[1]
    A = T / 2 + T.conj().T / 2
    np.ldexp(A.real, -exponent, out=A.real)
    np.ldexp(A.imag, -exponent, out=A.imag)
    lam, vecs = np.linalg.eigh(A)
    lam = np.ldexp(lam, exponent)
    p = vecs[:, 0]
    w = UltraDistribution(CoefficientSequence(2 * d, np.correlate(p, p, "full")))  # |p|^2
    gap = pair(evolved, w.coeffs).value - pair(F, evolve_ultra(w, t).coeffs).value
    least = TWO_PI * float(lam[0])
    return PositivityResult(least >= -(_POSITIVITY_TOL + (2 * d + 1) * _EPS * size), least,
                            abs(gap))
