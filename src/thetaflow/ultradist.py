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

Pairing sums accumulate in a fixed symmetric order (n = 0, then
|n| = 1, 2, ...) so results are reproducible regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fourier import TWO_PI, CoefficientSequence
from .semigroups import _require_time

GROWTH_KINDS = ("test", "dual")

# How many consecutive below-tolerance terms end the tail scan when no
# class bound is available to drive the truncation.
_QUIET_RUN = 8


@dataclass(frozen=True)
class GrowthClass:
    """Coefficient growth bound |F_n| <= constant * base^(|n|^order).

    kind 'test' requires base in (0, 1); kind 'dual' admits base >= 1
    (base exactly 1 covers bounded sequences such as the Dirac comb).
    The base must be finite and the constant a nonnegative number;
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
        if int(self.order) != self.order or self.order < 1:
            raise ValueError(f"order must be an integer >= 1, got {self.order}")
        object.__setattr__(self, "order", int(self.order))
        if not self.constant >= 0:
            raise ValueError(f"constant must be nonnegative, got {self.constant}")

    @property
    def degenerate(self) -> bool:
        return self.constant == 0.0

    def bound(self, n: int) -> float:
        try:
            return self.constant * self.base ** (abs(n) ** self.order)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class PowerRule:
    """Lazy coefficient rule n -> base^(|n|^order)."""

    base: float
    order: int

    def __call__(self, n: int) -> float:
        try:
            return self.base ** (abs(n) ** self.order)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class _EvolvedRule:
    """Inner rule damped by the heat multiplier exp(-n^2 t)."""

    inner: Callable[[int], complex]
    t: float

    def __call__(self, n: int) -> complex:
        damp = math.exp(-float(n) * float(n) * self.t)
        if damp == 0.0:
            return 0.0  # avoids inf * 0 when the inner rule has overflowed
        return self.inner(n) * damp


@dataclass(frozen=True)
class _DifferentiatedRule:
    """Inner rule scaled by the derivative factor (i n)^m."""

    inner: Callable[[int], complex]
    m: int

    def __call__(self, n: int) -> complex:
        return self.inner(n) * (1j * n) ** self.m


@dataclass(frozen=True)
class UltraDistribution:
    """A coefficient sequence with an optional declared growth class.

    When a class is declared, the stored window is validated against its
    bound at construction.
    """

    coeffs: CoefficientSequence
    declared_class: Optional[GrowthClass] = None

    def __post_init__(self):
        g = self.declared_class
        if g is not None:
            for n in self.coeffs.indices():
                v = abs(self.coeffs.value(int(n)))
                b = g.bound(int(n))
                if v > b * (1.0 + 1e-12):
                    raise ValueError(
                        f"declared class violated at n = {n}: |F_n| = {v:.6g} "
                        f"exceeds bound {b:.6g}"
                    )

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
    positive: bool
    min_pairing: float
    route_gap: float
    trials: int

    def __bool__(self) -> bool:
        return self.positive


def check_membership(c: CoefficientSequence, g: GrowthClass,
                     tol: float = 1e-14, max_terms: int = 1_000_000) -> MembershipResult:
    """Test |c_n| <= bound(n) over the window and, via the rule, the tail.

    The tail scan runs until both the class bound and the rule values drop
    below tol (or max_terms); it stops at the first tail violation. The
    witness reports the worst index and ratio |c_n| / bound(n) seen.
    """
    worst_ratio = 0.0
    worst_n: Optional[int] = None

    def ratio(v: float, b: float) -> float:
        if b > 0.0:
            return v / b
        return math.inf if v > 0.0 else 0.0

    for n in c.indices():
        r = ratio(abs(c.value(int(n))), g.bound(int(n)))
        if r > worst_ratio:
            worst_ratio, worst_n = r, int(n)
    checked = c.halfwidth
    if c.rule is not None and worst_ratio <= 1.0 + 1e-12:
        n = c.halfwidth + 1
        while n <= max_terms:
            b = g.bound(n)
            vp, vm = abs(c.value(n)), abs(c.value(-n))
            checked = n
            r = max(ratio(vp, b), ratio(vm, b))
            if r > worst_ratio:
                worst_ratio = r
                worst_n = n if ratio(vp, b) >= ratio(vm, b) else -n
            if r > 1.0 + 1e-12:
                break
            if b < tol and max(vp, vm) < tol:
                break
            n += 1
    ok = worst_ratio <= 1.0 + 1e-12
    return MembershipResult(ok, worst_n, worst_ratio, checked)


def fit_growth(c: CoefficientSequence, k: int) -> GrowthClass:
    """Least-squares growth classification of a coefficient window.

    Fits log|c_n| against |n|^k over the nonzero coefficients, returning
    the fitted base and the max-ratio constant. An all-zero window yields
    the degenerate marker (test kind, base 0.5, constant 0).
    """
    if c.halfwidth < 4:
        raise ValueError(f"window radius {c.halfwidth} < 4 is too small to fit")
    if int(k) != k or k < 1:
        raise ValueError(f"order must be an integer >= 1, got {k}")
    k = int(k)
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
    with np.errstate(over="ignore"):
        constant = float(np.max(mags[nz] / np.exp(slope * x)))
    kind = "test" if base < 1.0 else "dual"
    return GrowthClass(kind, base, k, constant)


def _pair_core(F: CoefficientSequence, f: CoefficientSequence,
               F_class: Optional[GrowthClass], f_class: Optional[GrowthClass],
               tol: float, max_terms: int,
               weight: Optional[Callable[[int], complex]] = None) -> PairingResult:
    w = weight if weight is not None else (lambda n: 1.0)

    def term(n: int) -> complex:
        # Short-circuit on exact zeros: with pq < 1 the test side underflows
        # before the dual side overflows, so this avoids 0 * inf artifacts.
        fv = f.value(n)
        if fv == 0.0:
            return 0.0
        Fv = F.value(n)
        if Fv == 0.0:
            return 0.0
        return fv * np.conj(Fv) * w(n)

    window = max(F.halfwidth, f.halfwidth)
    if F_class is not None and f_class is not None:
        pq = F_class.base * f_class.base
        if pq >= 1.0:
            raise ValueError(f"divergent pairing: base product p*q = {pq:.6g} >= 1")
        cc = F_class.constant * f_class.constant
        total = term(0)
        n, tail = 1, 2.0 * cc * pq / (1.0 - pq)
        while n <= max_terms:
            tail = 2.0 * cc * pq**n / (1.0 - pq)
            if n > window and tail < tol:
                break
            total += term(n) + term(-n)
            n += 1
        return PairingResult(complex(TWO_PI * total), TWO_PI * tail, 2 * n - 1)

    # No class bounds: exact over a finite window, heuristic tail otherwise.
    has_rule = F.rule is not None or f.rule is not None
    total = term(0)
    n, quiet = 1, 0
    prev_mag, last_mag = 0.0, 0.0
    while n <= max_terms:
        if n > window and not has_rule:
            return PairingResult(complex(TWO_PI * total), 0.0, 2 * n - 1)
        tp, tm = term(n), term(-n)
        total += tp + tm
        mag = max(abs(tp), abs(tm))
        if n > window:
            if mag < tol:
                quiet += 1
                if quiet >= _QUIET_RUN:
                    break
            else:
                quiet = 0
            prev_mag, last_mag = last_mag, mag
        n += 1
    if prev_mag > 0.0 and last_mag > 0.0:
        r = min(last_mag / prev_mag, 0.95)
        tail = 2.0 * last_mag * r / (1.0 - r)
    else:
        tail = 2.0 * _QUIET_RUN * tol
    return PairingResult(complex(TWO_PI * total), TWO_PI * tail, 2 * n - 1)


def pair(F: UltraDistribution, f: CoefficientSequence,
         f_class: Optional[GrowthClass] = None,
         tol: float = 1e-14, max_terms: int = 100_000) -> PairingResult:
    """Duality pairing <F, f> = 2pi * sum f_hat(n) conj(F_n).

    With growth classes on both sides the truncation point and the
    reported tail bound come from the rigorous estimate
    2 c_F c_f (pq)^n / (1 - pq) at the first unsummed |n|; otherwise the
    sum runs over the stored windows and rules with a heuristic tail
    estimate.
    """
    return _pair_core(F.coeffs, f, F.declared_class, f_class, tol, max_terms)


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
    idx = F.coeffs.indices().astype(float)
    window = F.coeffs.coeffs * np.exp(-idx * idx * t)
    rule = F.coeffs.rule
    if rule is None:
        new_rule = None
    elif isinstance(rule, PowerRule) and rule.order == 2:
        new_rule = PowerRule(rule.base * math.exp(-t), 2)
    elif isinstance(rule, PowerRule) and rule.base == 1.0:
        # A constant-1 tail (the comb) evolves to exactly exp(-t)^(n^2).
        new_rule = PowerRule(math.exp(-t), 2)
    else:
        new_rule = _EvolvedRule(rule, t)
    return UltraDistribution(
        CoefficientSequence(F.coeffs.halfwidth, window, new_rule),
        declared_class=g,
    )


def smoothing_threshold(g: GrowthClass, margin: float = 1e-9) -> float:
    """Time t_F past which evolution maps the class into a classical one.

    For a dual class of order 2 with base p, t_F = 2 ln p (plus a small
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
    return 2.0 * math.log(g.base) + margin


def weak_limit_check(F: UltraDistribution, f: CoefficientSequence,
                     t_list: Sequence[float],
                     f_class: Optional[GrowthClass] = None,
                     tol: float = 1e-10,
                     pair_tol: float = 1e-14,
                     max_terms: int = 100_000) -> WeakLimitReport:
    """Tabulate |<evolved F - F, f>| over decreasing times.

    The weight exp(-n^2 t) - 1 has modulus at most 1, so the class-driven
    truncation of the plain pairing remains valid. Reports whether the
    magnitudes decrease monotonically and end below tol.
    """
    ts = sorted((float(t) for t in t_list), reverse=True)
    if not ts or ts[-1] <= 0:
        raise ValueError("t_list must be nonempty and strictly positive")
    for t in ts:
        _require_time(t)
    mags = []
    for t in ts:
        res = _pair_core(F.coeffs, f, F.declared_class, f_class, pair_tol,
                         max_terms, weight=lambda n: math.expm1(-float(n) ** 2 * t))
        mags.append(abs(res.value))
    slack = 1e-12 * (mags[0] if mags else 0.0)
    monotone = all(b <= a + slack for a, b in zip(mags, mags[1:]))
    return WeakLimitReport(tuple(ts), tuple(mags), monotone, mags[-1], tol)


def evolution_deficit_pair(F: UltraDistribution, f: CoefficientSequence, t: float,
                           f_class: Optional[GrowthClass] = None,
                           tol: float = 1e-14, max_terms: int = 100_000) -> PairingResult:
    """<evolved F - F, f> for a single time, via the weighted pairing."""
    _require_time(t, positive=True)
    return _pair_core(F.coeffs, f, F.declared_class, f_class, tol, max_terms,
                      weight=lambda n: math.expm1(-float(n) ** 2 * t))


def derivative_sequence(c: CoefficientSequence, m: int) -> CoefficientSequence:
    """Coefficients of the m-th derivative: c_n -> (i n)^m c_n."""
    if int(m) != m or m < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {m}")
    m = int(m)
    if m == 0:
        return c
    idx = c.indices()
    window = c.coeffs * (1j * idx.astype(float)) ** m
    rule = None if c.rule is None else _DifferentiatedRule(c.rule, m)
    return CoefficientSequence(c.halfwidth, window, rule)


def derivative_ultra(F: UltraDistribution, m: int) -> UltraDistribution:
    """Distributional derivative; satisfies <F^(m), f> = (-1)^m <F, f^(m)>.

    The polynomial factor n^m breaks the declared growth bound, so the
    result carries no declared class for m > 0.
    """
    seq = derivative_sequence(F.coeffs, m)
    if m == 0:
        return F
    return UltraDistribution(seq, declared_class=None)


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


def _nonneg_trial_coefficients(rng: np.random.Generator, degree: int) -> CoefficientSequence:
    """Coefficients of |p(x)|^2 for a random trig polynomial p of the degree."""
    phat = rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1)

    def p(m: int) -> complex:
        return phat[m + degree] if abs(m) <= degree else 0.0

    out = np.zeros(4 * degree + 1, dtype=complex)
    for n in range(-2 * degree, 2 * degree + 1):
        out[n + 2 * degree] = sum(
            p(m) * np.conj(p(m - n)) for m in range(-degree, degree + 1)
        )
    return CoefficientSequence(2 * degree, out)


def positivity_check(F: UltraDistribution, t: float, trial_count: int = 20,
                     degree: int = 6, seed: int = 12345,
                     tol: float = 1e-10) -> PositivityResult:
    """Sample the operational positivity of the evolved distribution.

    Trial functions are |p|^2 for random trig polynomials p, hence
    pointwise nonnegative. Each trial evaluates <evolved F, f> two ways:
    evolving F, and smoothing f's coefficients by exp(-n^2 t); the routes
    must agree, and positivity holds when every pairing is >= -tol.
    """
    _require_time(t)
    if trial_count < 1:
        raise ValueError("trial_count must be at least 1")
    rng = np.random.default_rng(seed)
    evolved = evolve_ultra(F, t)
    worst = math.inf
    gap = 0.0
    for _ in range(trial_count):
        f = _nonneg_trial_coefficients(rng, degree)
        via_evolved = _pair_core(evolved.coeffs, f, None, None, 1e-14, 100_000)
        damp = np.exp(-f.indices().astype(float) ** 2 * t)
        f_smooth = CoefficientSequence(f.halfwidth, f.coeffs * damp)
        via_smoothed = _pair_core(F.coeffs, f_smooth, None, None, 1e-14, 100_000)
        worst = min(worst, via_evolved.value.real)
        gap = max(gap, abs(via_evolved.value - via_smoothed.value))
    return PositivityResult(worst >= -tol, worst, gap, trial_count)
