"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from thetaflow.checks import random_bandlimited, run_suite
from thetaflow.fourier import CoefficientSequence, PeriodicGrid, SampledFunction
from thetaflow.semigroups import (
    bochner_scalar,
    generator_apply,
    poisson_evolve_kernel,
    subordinate,
    theta_evolve,
)
from thetaflow.theta import ThetaParams, kernel, theta3_bound, theta3_product, theta3_series
from thetaflow.ultradist import (
    GrowthClass,
    PowerRule,
    UltraDistribution,
    check_membership,
    derivative_bound_constants,
    derivative_sequence,
    derivative_ultra,
    evolve_ultra,
    pair,
    positivity_check,
    smoothing_threshold,
    weak_limit_check,
)
from thetaflow.fourier import synthesize


def _finish(num, desc, failures, elapsed=None, budget=None):
    ok = not failures
    if budget is not None and elapsed >= budget:
        ok = False
        failures = failures + [f"runtime {elapsed:.2f}s exceeds budget {budget}s"]
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {desc}{stamp}")
    assert ok, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_bochner_scalar_identity():
    t0 = time.perf_counter()
    failures = []
    for lam in (0.5, 1.0, 2.0, 5.0):
        rel = abs(bochner_scalar(lam) - math.exp(-lam)) / math.exp(-lam)
        if rel >= 1e-9:
            failures.append(f"lambda={lam}: rel error {rel:.3e} >= 1e-9")
    _finish(1, "subordination quadrature reproduces exp(-lambda) to 1e-9",
            failures, time.perf_counter() - t0, budget=1.0)


def test_criterion_2_theta_series_product_consistency():
    t0 = time.perf_counter()
    failures = []
    x = PeriodicGrid.line(64).points
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        p = ThetaParams(q)
        scale = theta3_bound(p)
        gap = float(np.max(np.abs(theta3_series(x, p) - theta3_product(x, p))))
        if gap > 1e-12 * scale:
            failures.append(f"q={q}: series/product gap {gap:.3e} > 1e-12 relative")
    _finish(2, "theta series and product forms agree to 1e-12 relative",
            failures, time.perf_counter() - t0, budget=1.0)


def test_criterion_3_one_dimensional_property_suite():
    t0 = time.perf_counter()
    report = run_suite("thm1", n=256, seed=42)
    failures = [
        f"{r.name}: max_error {r.max_error:.3e} > tol {r.tolerance:.1e}"
        for r in report.records if not r.passed
    ]
    if len(report.records) < 7:
        failures.append(f"only {len(report.records)} records")
    _finish(3, "1-d suite at N=256 (semigroup, kernels, conservation, "
            "positivity, contraction, continuity, adjointness, heat residual)",
            failures, time.perf_counter() - t0, budget=10.0)


def test_criterion_4_subordination_recovers_poisson():
    t0 = time.perf_counter()
    failures = []
    g = PeriodicGrid.line(256)
    f = random_bandlimited(g, 8, np.random.default_rng(42))
    for t in (0.2, 0.5, 1.0, 2.0):
        gap = float(np.max(np.abs(
            subordinate(f, t).values - poisson_evolve_kernel(f, t).values
        )))
        if gap > 1e-7:
            failures.append(f"t={t}: sup gap {gap:.3e} > 1e-7")
    _finish(4, "default subordination rule matches the closed-form kernel path to 1e-7",
            failures, time.perf_counter() - t0, budget=5.0)


def test_criterion_5_generator_first_order_convergence():
    t0 = time.perf_counter()
    g = PeriodicGrid.line(256)
    f = SampledFunction.from_callable(g, lambda x: np.cos(x) + 0.3 * np.sin(4 * x))
    lf = generator_apply(f)
    ts = (1e-2, 1e-3, 1e-4)
    errs = [
        float(np.max(np.abs((theta_evolve(f, t).values - f.values) / t - lf.values)))
        for t in ts
    ]
    order = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
    failures = []
    if not errs[0] > errs[1] > errs[2]:
        failures.append(f"errors not decreasing: {errs}")
    if order < 0.9:
        failures.append(f"observed order {order:.3f} < 0.9")
    _finish(5, f"difference quotient converges to the generator at order {order:.2f}",
            failures, time.perf_counter() - t0)


def test_criterion_6_two_dimensional_property_suite():
    t0 = time.perf_counter()
    report = run_suite("thm2", n=64, seed=42)
    failures = [
        f"{r.name}: max_error {r.max_error:.3e} > tol {r.tolerance:.1e}"
        for r in report.records if not r.passed
    ]
    names = {r.name for r in report.records}
    if "poisson_sqrt2_decay" not in names:
        failures.append("missing sqrt(2)-decay record")
    _finish(6, "2-d suite at N=64 per axis, including exp(-t*sqrt(2)) decay "
            "of the subordinated flow on the diagonal mode",
            failures, time.perf_counter() - t0, budget=30.0)


def test_criterion_7_ultradistribution_suite():
    t0 = time.perf_counter()
    failures = []

    comb = UltraDistribution(
        CoefficientSequence.from_rule(10, PowerRule(1.0, 1)),
        declared_class=GrowthClass("dual", 1.0, 1, 1.0),
    )

    # Coefficient-space semigroup exactness.
    twice = evolve_ultra(evolve_ultra(comb, 0.31), 0.57)
    once = evolve_ultra(comb, 0.88)
    scale = float(np.max(np.abs(once.coeffs.coeffs)))
    gap = float(np.max(np.abs(twice.coeffs.coeffs - once.coeffs.coeffs)))
    if gap > 1e-15 * scale:
        failures.append(f"semigroup coefficients differ by {gap:.3e}")

    # Weak-limit decay of the comb pairing.
    f03 = CoefficientSequence.from_rule(10, PowerRule(0.3, 2))
    report = weak_limit_check(comb, f03, (1.0, 0.1, 0.01),
                              f_class=GrowthClass("test", 0.3, 2, 1.0), tol=1.0)
    if not report.monotone:
        failures.append(f"weak-limit magnitudes not monotone: {report.magnitudes}")

    # Generator duality: <F'', f> = <F, f''> at 1e-10.
    f04 = CoefficientSequence.from_rule(10, PowerRule(0.4, 2))
    lhs = pair(derivative_ultra(comb, 2), f04).value
    rhs = pair(comb, derivative_sequence(f04, 2)).value
    dscale = max(abs(lhs), abs(rhs), 1.0)
    if abs(lhs - rhs) > 1e-10 * dscale:
        failures.append(f"derivative duality gap {abs(lhs - rhs):.3e}")

    # Smoothing threshold sweep.
    for p in (1.5, 2.0, 4.0):
        F = UltraDistribution(
            CoefficientSequence.from_rule(6, PowerRule(p, 2)),
            declared_class=GrowthClass("dual", p, 2, 1.0),
        )
        t_f = smoothing_threshold(F.declared_class)
        target = GrowthClass("test", math.exp(-t_f / 2.0), 2, 1.0)
        if not check_membership(evolve_ultra(F, t_f + 0.1).coeffs, target).ok:
            failures.append(f"p={p}: membership fails above the threshold")
        if check_membership(evolve_ultra(F, t_f / 2.0).coeffs, target).ok:
            failures.append(f"p={p}: membership passes below the threshold")

    # Positivity: the two pairing routes agree.
    poisson_like = UltraDistribution(
        CoefficientSequence.from_rule(24, PowerRule(math.exp(-1.0), 1)))
    res = positivity_check(poisson_like, t=0.3)
    if not res.positive:
        failures.append(f"positive distribution failed, min pairing {res.min_pairing:.3e}")
    if res.route_gap > 1e-10:
        failures.append(f"pairing routes disagree by {res.route_gap:.3e}")

    _finish(7, "coefficient engine: exact semigroup, weak limits, duality, "
            "smoothing threshold sweep, positivity routes",
            failures, time.perf_counter() - t0, budget=5.0)


def test_criterion_8_derivative_growth_bound():
    t0 = time.perf_counter()
    failures = []
    q, slack = 0.5, 10.0
    c = CoefficientSequence.from_rule(12, PowerRule(q, 2))
    bound = derivative_bound_constants(GrowthClass("test", q, 2, 1.0))
    grid = PeriodicGrid.line(256)
    for m in range(1, 13):
        observed = float(np.max(np.abs(synthesize(derivative_sequence(c, m), grid).values)))
        allowed = slack * bound.magnitude(m)
        if observed > allowed:
            failures.append(f"m={m}: |f^({m})| = {observed:.3e} > {allowed:.3e}")
    _finish(8, "spectral derivatives stay below C*B^m*m^(m/2) with slack 10",
            failures, time.perf_counter() - t0, budget=1.0)


def test_criterion_9_kernel_concentration():
    t0 = time.perf_counter()
    failures = []
    g = PeriodicGrid.line(512)
    x = g.points
    outside = (x >= 0.5) & (x <= 2 * np.pi - 0.5)
    masses = []
    for t in (0.5, 0.1, 0.05, 0.01):
        k = kernel(t, g)
        masses.append(float(np.sum(k.values.real[outside])) * g.spacing())
    if not all(b < a for a, b in zip(masses, masses[1:])):
        failures.append(f"masses not strictly decreasing: {masses}")
    if masses[-1] >= 0.01:
        failures.append(f"mass outside |x|<0.5 at t=0.01 is {masses[-1]:.3e} >= 0.01")
    _finish(9, "kernel mass outside |x| < 0.5 shrinks monotonically toward 0",
            failures, time.perf_counter() - t0)
