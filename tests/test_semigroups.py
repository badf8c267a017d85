import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaflow import fourier, semigroups
from thetaflow.checks import random_bandlimited, random_nonnegative, run_suite
from thetaflow.fourier import PeriodicGrid, SampledFunction, circular_convolve
from thetaflow.semigroups import (
    SubordinationError,
    SubordinationQuadrature,
    bochner_scalar,
    generator_apply,
    heat_residual,
    poisson_evolve_d,
    poisson_evolve_kernel,
    poisson_evolve_multiplier,
    poisson_kernel,
    subordinate,
    theta_evolve,
    theta_evolve_d,
)
from thetaflow.theta import kernel

E_MINUS_1 = 0.36787944117144233    # exp(-1)
E_MINUS_HALF = 0.6065306597126334  # exp(-0.5)
E_MINUS_08 = 0.4493289641172216    # exp(-0.8)


def _grid(n=128):
    return PeriodicGrid.line(n)


def _cos(grid, k=1):
    return SampledFunction.from_callable(grid, lambda x: np.cos(k * x))


def _count_fft_calls(monkeypatch):
    """Record the name of every np.fft transform called from here on, n-d or one axis.

    A real inverse is a run of per-axis passes, ifft over all axes but the
    last and then irfft, so its irfft counts one inverse.
    """
    calls = []
    for name in ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


class TestMultiplierSpec:
    """What each multiplier flow specifies: its time check and its symbol."""

    def test_negative_time(self):
        for flow in (theta_evolve, poisson_evolve_multiplier):
            with pytest.raises(ValueError, match="nonnegative"):
                flow(_cos(_grid(8)), -0.5)

    def test_laplacian_symbol(self):
        g = _grid(8)
        for k in range(4):
            out = generator_apply(_cos(g, k))
            assert np.allclose(out.values, -k * k * np.cos(k * g.points),
                               rtol=0, atol=1e-13)


class TestThetaEvolve:
    def test_preserves_constants(self):
        g = _grid()
        out = theta_evolve(SampledFunction.constant(g, 1.0), 0.7)
        assert np.allclose(out.values.real, 1.0, atol=1e-14)

    def test_eigenfunction(self):
        t, g = 0.3, _grid()
        out = theta_evolve(_cos(g, 3), t)
        assert np.allclose(out.values.real, math.exp(-9 * t) * np.cos(3 * g.points),
                           atol=1e-14)

    def test_identity_at_zero_time(self):
        g = _grid()
        f = _cos(g)
        assert theta_evolve(f, 0.0) is f

    def test_matches_kernel_convolution(self):
        t, g = 0.4, PeriodicGrid.line(256)
        f = random_bandlimited(g, 8, np.random.default_rng(2))
        via_multiplier = theta_evolve(f, t)
        via_kernel = circular_convolve(f, kernel(t, g))
        assert np.max(np.abs(via_multiplier.values - via_kernel.values)) < 1e-10

    def test_real_stays_real(self):
        g = _grid()
        f = random_bandlimited(g, 8, np.random.default_rng(3))
        out = theta_evolve(f, 0.2)
        assert out.kind == "real"
        assert np.max(np.abs(out.values.imag)) < 1e-13

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            theta_evolve(_cos(_grid()), -0.1)


class TestPoissonEvolve:
    def test_preserves_constants(self):
        g = _grid()
        out = poisson_evolve_multiplier(SampledFunction.constant(g, 1.0), 1.3)
        assert np.allclose(out.values.real, 1.0, atol=1e-14)

    def test_eigenfunction(self):
        g = _grid()
        out = poisson_evolve_multiplier(_cos(g), 0.5)
        assert np.allclose(out.values.real, E_MINUS_HALF * np.cos(g.points),
                           atol=1e-14)

    def test_multiplier_matches_kernel_path(self):
        g = PeriodicGrid.line(256)
        f = random_bandlimited(g, 8, np.random.default_rng(4))
        for t in (0.3, 1.0):
            a = poisson_evolve_multiplier(f, t)
            b = poisson_evolve_kernel(f, t)
            assert np.max(np.abs(a.values - b.values)) < 1e-10

    def test_kernel_unit_mass(self):
        g = PeriodicGrid.line(256)
        assert poisson_kernel(0.4, g).integral() == pytest.approx(1.0, abs=1e-12)

    def test_kernel_flattens_at_large_time(self):
        g = _grid()
        k = poisson_kernel(40.0, g)
        assert np.allclose(k.values.real, 1.0 / (2 * np.pi), atol=1e-12)

    def test_kernel_path_on_eigenfunction(self):
        t, g = 0.6, PeriodicGrid.line(256)
        out = poisson_evolve_kernel(_cos(g, 2), t)
        assert np.max(np.abs(out.values.real - math.exp(-2 * t) * np.cos(2 * g.points))) < 1e-10

    def test_kernel_rejects_zero_time(self):
        with pytest.raises(ValueError, match="positive"):
            poisson_evolve_kernel(_cos(_grid()), 0.0)

    def test_semigroup_law(self):
        g = PeriodicGrid.line(256)
        f = random_bandlimited(g, 8, np.random.default_rng(20))
        for t1, t2 in ((0.1, 0.5), (0.5, 1.3), (1.3, 0.1)):
            twice = poisson_evolve_multiplier(poisson_evolve_multiplier(f, t2), t1)
            once = poisson_evolve_multiplier(f, t1 + t2)
            assert np.max(np.abs(twice.values - once.values)) < 1e-11

    def test_preserves_positivity(self):
        g = PeriodicGrid.line(256)
        f = random_nonnegative(g, 8, np.random.default_rng(21))
        for t in (0.1, 0.5, 1.3):
            assert float(np.min(poisson_evolve_multiplier(f, t).values.real)) >= -1e-12

    def test_kernel_is_nonnegative(self):
        g = PeriodicGrid.line(256)
        assert float(np.min(poisson_kernel(0.2, g).values.real)) >= 0.0


def _poisson_excess(n, t):
    """coth(n t / 2) - 1 = 2 / (exp(n t) - 1), without overflow."""
    return 2.0 * math.exp(-n * t) / -math.expm1(-n * t)


class TestPoissonKernelResolution:
    """poisson_kernel refuses exactly where its samples' mass passes 1 + 1e-14."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 2048).map(lambda half: 2 * half), st.floats(1e-4, 2.0))
    def test_sampled_mass_is_coth(self, n, t):
        # Poisson summation: (1/N) sum_j P_r(x_j) = coth(N t / 2) for the Abel kernel
        # P_r = (1 - r^2) / (1 - 2r cos x + r^2), here without cancellation:
        # 1 - 2r cos x + r^2 = (1 - r)^2 + 4r sin^2(x/2).
        g = PeriodicGrid.line(n)
        r, gap = math.exp(-t), -math.expm1(-t)
        samples = gap * (1.0 + r) / (gap * gap + 4.0 * r * np.sin(g.points / 2) ** 2)
        mass = 1.0 + _poisson_excess(n, t)
        assert float(np.mean(samples)) == pytest.approx(mass, rel=1e-12)
        if _poisson_excess(n, t) <= 1e-14:
            assert poisson_kernel(t, g).integral() == pytest.approx(mass, rel=1e-12)
        else:
            with pytest.raises(ValueError, match="does not resolve the Poisson kernel"):
                poisson_kernel(t, g)

    @pytest.mark.parametrize("n", [4, 16, 64, 128, 4096])
    def test_boundary_follows_the_excess(self, n):
        g = PeriodicGrid.line(n)
        with pytest.raises(ValueError, match=fr"grid \({n},\) .* at t = 1e-09") as info:
            poisson_kernel(1e-9, g)
        named = float(re.search(r"needs t >= (\S+)$", str(info.value)).group(1))
        least = math.log1p(2e14) / n
        assert least <= named <= least * 1.01
        digit = 10.0 ** (math.floor(math.log10(named)) - 2)
        for t in (named, named - digit, least * (1 + 1e-9), least * (1 - 1e-9)):
            if _poisson_excess(n, t) <= 1e-14:
                assert poisson_kernel(t, g).integral() == pytest.approx(1.0, abs=1e-13)
            else:
                with pytest.raises(ValueError, match="does not resolve"):
                    poisson_kernel(t, g)
        with pytest.raises(ValueError):  # the named time is the least one, to three digits
            poisson_evolve_kernel(_cos(g), named - digit)

    @pytest.mark.parametrize("n, t", [(65536, 1e-3), (4096, math.log1p(2e14) / 4096 * (1 + 1e-9))])
    def test_mass_has_no_cancellation_error(self, n, t):
        # Formed as 1 - 2r cos x + r^2, the denominator cancelled near x = 0:
        # the mass at (65536, 1e-3) was off by 2.9e-11, at the 4096-point
        # boundary by 1.5e-13.
        assert poisson_kernel(t, PeriodicGrid.line(n)).integral() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n, t", [(65536, 1e-3), (4096, math.log1p(2e14) / 4096 * (1 + 1e-9))])
    def test_mass_is_coth_to_rounding(self, n, t):
        # Sampled at the float points 2pi j / N, whose error near 2pi shifts
        # sin(x/2), the mass at (65536, 1e-3) was off by -8.2e-14.
        values = poisson_kernel(t, PeriodicGrid.line(n)).values
        mass = math.fsum(values) * (2.0 * math.pi / n)
        assert abs(mass - (1.0 + _poisson_excess(n, t))) <= 1e-15

    def test_tiny_time_is_refused_not_nan(self):
        # On 64 points, 1 - 2r cos x + r^2 once rounded to 0 at t = 1e-9: all NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="needs t >= 0.515"):
                poisson_evolve_kernel(_cos(_grid(64)), 1e-9)


class TestSubordination:
    def test_scalar_identity(self):
        assert bochner_scalar(1.0) == pytest.approx(E_MINUS_1, rel=1e-9)
        for lam in (0.5, 1.0, 2.0, 5.0):
            assert bochner_scalar(lam) == pytest.approx(math.exp(-lam), rel=1e-9)

    def test_scalar_at_zero(self):
        assert bochner_scalar(0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, -1.0])
    def test_scalar_refuses_a_lam_not_finite_and_nonnegative(self, lam):
        # inf once reached math.floor(-inf) in the node count: an OverflowError.
        with pytest.raises(ValueError, match=f"lambda must be finite and nonnegative, got {lam}"):
            bochner_scalar(lam)

    def test_cosine(self):
        g = _grid()
        out = subordinate(_cos(g), 0.8)
        assert np.max(np.abs(out.values.real - E_MINUS_08 * np.cos(g.points))) < 1e-8

    def test_constant(self):
        g = _grid()
        out = subordinate(SampledFunction.constant(g, 1.0), 1.5)
        assert np.allclose(out.values.real, 1.0, atol=1e-10)

    def test_matches_direct_multiplier(self):
        g = PeriodicGrid.line(256)
        f = random_bandlimited(g, 8, np.random.default_rng(5))
        for t in (0.2, 0.5, 1.0, 2.0):
            a = subordinate(f, t)
            b = poisson_evolve_multiplier(f, t)
            assert np.max(np.abs(a.values - b.values)) < 1e-7

    def test_requested_accuracy_failure_raises(self):
        g = _grid()
        for t, tol in ((0.5, 1e-16), (0.7, 1e-18)):
            with pytest.raises(SubordinationError, match="estimated"):
                subordinate(_cos(g), t, SubordinationQuadrature(tol=tol))

    def test_reasonable_tolerance_passes(self):
        # At t = 0.7 the rule errs by ~2e-14 and estimates ~2e-14.
        g = _grid()
        for t, tol, exact in ((0.5, 1e-6, E_MINUS_HALF), (0.7, 1e-8, math.exp(-0.7))):
            out = subordinate(_cos(g), t, SubordinationQuadrature(tol=tol))
            assert np.max(np.abs(out.values.real - exact * np.cos(g.points))) < 1e-8

    def test_quadrature_validation(self):
        with pytest.raises(ValueError, match="nodes"):
            SubordinationQuadrature(nodes=4)
        with pytest.raises(ValueError, match="u_max"):
            SubordinationQuadrature(u_max=0.5)

    @pytest.mark.parametrize("nodes", [64.0, "64", 1.5, None])
    def test_non_integer_nodes_rejected(self, nodes):
        with pytest.raises(ValueError, match="nodes must be an integer"):
            SubordinationQuadrature(nodes=nodes)

    def test_numpy_integer_nodes_accepted(self):
        quad = SubordinationQuadrature(nodes=np.int64(48))
        assert quad.nodes == 48 and type(quad.nodes) is int

    def test_node_cap_refused_before_any_rule_is_built(self):
        with pytest.raises(ValueError, match="at most 1024 nodes, got 1025"):
            SubordinationQuadrature(nodes=1025)

    def test_time_that_needs_more_nodes_than_allowed_is_refused(self):
        # (ln 72 - ln 1e-3) / 0.15 + 1 = 75 nodes at the default u_max.
        with pytest.raises(ValueError, match=r"t = 0.001 needs 75 subordination nodes, "
                                             r"more than the 64 allowed"):
            subordinate(_cos(_grid(16)), 1e-3, SubordinationQuadrature(nodes=64))
        out = subordinate(_cos(_grid(16)), 1e-3, SubordinationQuadrature(nodes=75))
        assert np.max(np.abs(out.values - math.exp(-1e-3) * np.cos(_grid(16).points))) < 1e-13

    def test_default_cap_reaches_far_below_any_grid(self):
        # 1024 nodes reach every t above 12 * 6 * exp(-1024 * 0.15) = 1.41e-65.
        g = _grid(16)
        for t in (1e-64, 1.42e-65):
            assert np.max(np.abs(subordinate(_cos(g), t).values - np.cos(g.points))) < 1e-13
        with pytest.raises(ValueError, match="needs 1025 subordination nodes"):
            subordinate(_cos(g), 1.41e-65)

    def test_node_cap_is_usable(self):
        out = subordinate(_cos(_grid(16)), 0.8, SubordinationQuadrature(nodes=1024))
        assert np.max(np.abs(out.values - E_MINUS_08 * np.cos(_grid(16).points))) < 1e-12

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError, match="positive"):
            subordinate(_cos(_grid()), 0.0)

    @pytest.mark.parametrize("u_max", [751.0, 1e4, 1e308])
    def test_u_max_past_the_exp_underflow_rejected(self, u_max):
        # Past u = 745 exp(-u) is 0.0, so a larger u_max would only add nodes
        # of weight 0.0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="u_max must be .* at most 750, got"):
                SubordinationQuadrature(u_max=u_max)

    @pytest.mark.parametrize("u_max", [27.9, 1.5])
    def test_u_max_below_28_rejected(self, u_max):
        # At 1.5 the symbol silently erred by 5.7e-2 at t = 0.8, truncated by erfc(sqrt(u_max)).
        with pytest.raises(ValueError, match=re.escape(
                f"u_max must be finite, at least 28 and at most 750, got {u_max}")):
            SubordinationQuadrature(u_max=u_max)

    def test_least_u_max_keeps_the_stated_bound(self):
        assert _rule_error_bound(1e300, 28.0) <= 1.9e-13
        g = _grid(16)
        out = subordinate(_cos(g), 0.8, SubordinationQuadrature(u_max=28.0))
        assert np.max(np.abs(out.values - E_MINUS_08 * np.cos(g.points))) < 2e-13

    def test_u_max_at_the_cap_is_usable(self):
        g = _grid(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = subordinate(_cos(g), 0.8, SubordinationQuadrature(u_max=750.0))
        assert np.max(np.abs(out.values - E_MINUS_08 * np.cos(g.points))) < 1e-13

    @pytest.mark.parametrize("u_max", [math.nan, math.inf, -math.inf])
    def test_non_finite_u_max_rejected(self, u_max):
        with pytest.raises(ValueError, match="u_max"):
            SubordinationQuadrature(u_max=u_max)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, tol):
        # A nan tol used to switch the Bochner-defect check off silently.
        with pytest.raises(ValueError, match="tol"):
            SubordinationQuadrature(nodes=8, tol=tol)

    def test_tolerance_met_on_wide_band_2d_input(self):
        # The error estimate bounds the actual error: here ~1e-12, well
        # inside a 1e-6 request.
        g = PeriodicGrid((256, 256))
        f = random_bandlimited(g, 64, np.random.default_rng(12))
        out = subordinate(f, 0.8, SubordinationQuadrature(tol=1e-6))
        direct = poisson_evolve_d(f, 0.8)
        assert np.max(np.abs(out.values - direct.values)) < 1e-10

    def test_error_check_reuses_the_flow_transform(self, monkeypatch):
        f = random_bandlimited(PeriodicGrid((256, 256)), 64, np.random.default_rng(12))
        calls = _count_fft_calls(monkeypatch)
        subordinate(f, 0.8, SubordinationQuadrature(tol=1.0))
        assert calls == ["rfftn", "ifft", "irfft"]


def _full_spectrum_defect(f, n2, symbol, t):
    """Bochner defect summed over the full fftn spectrum of f, mode by mode."""
    _, index = fourier._mode_table(f.grid.sizes, False)
    amplitude = np.abs(np.fft.fftn(f.values)) / f.grid.npoints
    weight = np.bincount(index.ravel(), weights=amplitude.ravel(), minlength=n2.size)
    return float(weight @ np.abs(symbol - np.exp(-t * np.sqrt(n2))))


class TestBochnerDefect:
    @pytest.mark.parametrize("sizes", [(256,), (64, 48), (8, 6, 4), (128, 128)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("t", [0.05, 0.8, 3.0])
    def test_matches_the_full_spectrum_sum(self, sizes, kind, t):
        # White noise fills every mode, the Nyquist columns included.
        rng = np.random.default_rng(31)
        values = rng.standard_normal(sizes)
        if kind == "complex":
            values = values + 1j * rng.standard_normal(sizes)
        f = SampledFunction(PeriodicGrid(sizes), values, kind=kind)
        spectrum = fourier._Spectrum(f)
        # The default rule is exact to ~1e-14; a perturbation keeps the defect clear of 0.
        symbol = semigroups._subordination_symbol(
            spectrum.n2, t, SubordinationQuadrature()) + 1e-6 * np.cos(spectrum.n2)
        expected = _full_spectrum_defect(f, spectrum.n2, symbol, t)
        assert expected > 0
        got = semigroups._bochner_defect(spectrum, symbol, t)
        assert got == pytest.approx(expected, rel=1e-13, abs=0)


def _reference_symbol(n2, t, quad):
    """The trapezoid rule in ln s node by node, or None past the node cap.

    Node k adds its term c_k exp(-r_k |n|^2) on every mode where
    |n|^2 <= (ln c_k - ln 2^-1022) / r_k, i.e. where the term is a normal
    double, and nowhere if c_k underflows to 0.
    """
    top = 0.5 * math.log(quad.u_max)
    count = max(math.floor((top + math.log(12.0) - math.log(t)) / 0.15) + 1, 0)
    if count > quad.nodes:
        return None
    s = np.exp(top - 0.15 * np.arange(count))
    c = 2.0 / math.sqrt(math.pi) * 0.15 * s * np.exp(-s * s)
    acc = np.zeros_like(n2)
    for sk, ck in zip(s, c):
        half_lam = 0.5 * t / sk  # squared by multiplication, as an array ** 2 is
        rate = half_lam * half_lam
        if ck > 0.0:
            normal = n2 <= (math.log(ck) - math.log(2.0 ** -1022)) / rate
            acc += np.where(normal, ck * np.exp(-rate * n2), 0.0)
    return np.where(n2 == 0, 1.0, acc)


SYMBOL_TIMES = [1e-300, 1e-6, 0.01, 0.8, 3.0, 71.9, 72.1, 1e153, 1e300, 1.7e308]


def _rule_error_bound(t, u_max):
    """The a-priori bound of SubordinationQuadrature on |S(|n|^2) - exp(-t|n|)|."""
    h, delta = 0.15, 0.012
    strip = 2.0 / math.sqrt(math.sin(2 * delta)) / math.expm1(2 * math.pi * (math.pi / 4 - delta) / h)
    low = (2.0 / math.sqrt(math.pi) * min(t / 12.0, math.sqrt(u_max)) * math.exp(-36.0)
           * h / -math.expm1(-h))
    return strip + low + math.erfc(math.sqrt(u_max))


class TestSubordinationSymbol:
    """The symbol equals the node-by-node sum over every mode, bit for bit."""

    @pytest.mark.parametrize("rule", [(1024, 36.0), (8, 28.0), (64, 36.0), (200, 750.0)])
    @pytest.mark.parametrize("sizes", [(4,), (256,), (512,), (64, 64), (128, 128),
                                       (256, 256), (8, 6, 4)])
    def test_matches_the_reference_loop(self, sizes, rule):
        n2, _ = fourier._mode_table(sizes, True)
        quad = SubordinationQuadrature(nodes=rule[0], u_max=rule[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in SYMBOL_TIMES:
                expected = _reference_symbol(n2, t, quad)
                if expected is None:
                    with pytest.raises(ValueError, match="subordination nodes, more than"):
                        semigroups._subordination_symbol(n2, t, quad)
                else:
                    got = semigroups._subordination_symbol(n2, t, quad)
                    assert got.tobytes() == expected.tobytes(), t

    def test_bochner_scalar_matches_the_reference_loop(self):
        quad = SubordinationQuadrature()
        assert bochner_scalar(0.0) == _reference_symbol(np.zeros(1), 1.0, quad)[0] == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (1e-60, 0.5, 1.0, 5.0, 745.0, 1e300):
                assert bochner_scalar(lam) == _reference_symbol(np.ones(1), lam, quad)[0]
        with pytest.raises(ValueError, match="needs 4.* subordination nodes"):
            bochner_scalar(1e-300)

    @pytest.mark.parametrize("n, t, count", [(256, 0.8, 30), (65536, 1e-3, 75),
                                             (65536, 1e-5, 106)])
    def test_node_count_is_logarithmic_in_one_over_t(self, n, t, count):
        n2, _ = fourier._mode_table((n,), True)
        semigroups._subordination_symbol(n2, t, SubordinationQuadrature(nodes=count))
        with pytest.raises(ValueError, match=f"needs {count} subordination nodes"):
            semigroups._subordination_symbol(n2, t, SubordinationQuadrature(nodes=count - 1))

    @pytest.mark.parametrize("n, t", [(256, 0.2), (1024, 0.05), (4096, 0.01),
                                      (65536, 1e-3), (65536, 1e-5)])
    def test_default_rule_within_its_bound(self, n, t):
        # The 64-node Gauss-Legendre rule it replaced missed by 7.3e-10 ... 3.2e-4 here.
        n2, _ = fourier._mode_table((n,), True)
        symbol = semigroups._subordination_symbol(n2, t, SubordinationQuadrature())
        assert _rule_error_bound(t, 36.0) <= 1.2e-13
        assert np.max(np.abs(symbol - np.exp(-t * np.sqrt(n2)))) <= _rule_error_bound(t, 36.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-6, 50.0), st.integers(2, 2 ** 15).map(lambda half: 2 * half),
           st.sampled_from([28.0, 36.0, 750.0]))
    def test_symbol_within_the_stated_bound(self, t, n, u_max):
        n2, _ = fourier._mode_table((n,), True)
        symbol = semigroups._subordination_symbol(n2, t, SubordinationQuadrature(u_max=u_max))
        assert np.max(np.abs(symbol - np.exp(-t * np.sqrt(n2)))) <= _rule_error_bound(t, u_max)


class TestGenerator:
    def test_cosine_eigenfunction(self):
        g = _grid()
        out = generator_apply(_cos(g, 2))
        assert np.allclose(out.values.real, -4.0 * np.cos(2 * g.points), atol=1e-12)

    def test_annihilates_constants(self):
        g = _grid()
        out = generator_apply(SampledFunction.constant(g, 1.0))
        assert np.max(np.abs(out.values)) < 1e-13

    def test_difference_quotient_converges_first_order(self):
        g = _grid()
        f = SampledFunction.from_callable(
            g, lambda x: np.cos(x) + 0.3 * np.sin(4 * x))
        lf = generator_apply(f)
        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            dq = (theta_evolve(f, t).values - f.values) / t
            errs.append(float(np.max(np.abs(dq - lf.values))))
        assert errs[0] > errs[1] > errs[2]
        order = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
        assert order >= 0.9


class TestHeatResidual:
    def test_cosine(self):
        g = _grid()
        dt = 1e-4
        assert heat_residual(_cos(g), (0.5 - dt, 0.5, 0.5 + dt)) < 1e-6

    def test_constant_is_exact(self):
        g = _grid()
        f = SampledFunction.constant(g, 1.0)
        assert heat_residual(f, (0.299, 0.3, 0.301)) < 1e-12

    def test_random_eight_modes(self):
        g = PeriodicGrid.line(256)
        f = random_bandlimited(g, 8, np.random.default_rng(6))
        dt = 1e-4
        assert heat_residual(f, (0.3 - dt, 0.3, 0.3 + dt)) < 1e-6

    def test_coarse_grid_warns(self):
        g = _grid()
        with pytest.warns(UserWarning, match="spacing"):
            heat_residual(_cos(g), (0.1, 0.3, 0.5))

    def test_one_forward_transform(self, monkeypatch):
        g = PeriodicGrid((64, 48))
        f = random_bandlimited(g, 6, np.random.default_rng(21))
        ts = (0.3 - 2e-4, 0.3 - 1e-4, 0.3, 0.3 + 1e-4)
        states = [theta_evolve_d(f, t).values for t in ts]
        ref = max(
            float(np.max(np.abs((states[i + 1] - states[i - 1]) / (ts[i + 1] - ts[i - 1])
                                - generator_apply(theta_evolve_d(f, ts[i])).values)))
            for i in (1, 2))
        # The reference loop has transformed f already: count on a fresh copy.
        fresh = SampledFunction(g, f.values, kind="real")
        calls = _count_fft_calls(monkeypatch)
        resid = heat_residual(fresh, ts)
        assert calls.count("rfftn") == 1
        assert abs(resid - ref) <= 1e-11
        calls.clear()
        assert heat_residual(fresh, ts) == resid
        assert calls.count("rfftn") == 0

    def test_validation(self):
        g = _grid()
        with pytest.raises(ValueError, match="at least 3"):
            heat_residual(_cos(g), (0.1, 0.2))
        with pytest.raises(ValueError, match="positive"):
            heat_residual(_cos(g), (0.0, 0.1, 0.2))
        with pytest.raises(ValueError, match="increasing"):
            heat_residual(_cos(g), (0.3, 0.2, 0.4))


class TestMultidim:
    @pytest.mark.parametrize("kind", ["heat", "poisson", "laplacian"])
    def test_every_kind_on_any_grid(self, kind):
        flow, symbol = {
            "heat": (lambda f: theta_evolve(f, 0.3), lambda n2: math.exp(-0.3 * n2)),
            "poisson": (lambda f: poisson_evolve_multiplier(f, 0.3),
                        lambda n2: math.exp(-0.3 * math.sqrt(n2))),
            "laplacian": (generator_apply, lambda n2: -n2),
        }[kind]
        g = PeriodicGrid((8, 6, 4))
        x = g.meshgrid()
        # cos(n.x) for every n with 0 <= n_j < N_j / 2: an eigenfunction of each flow.
        for n in np.ndindex(4, 3, 2):
            f = SampledFunction(g, np.cos(sum(k * xj for k, xj in zip(n, x))), kind="real")
            n2 = sum(k * k for k in n)
            assert np.allclose(flow(f).values, symbol(n2) * f.values, rtol=0, atol=1e-13)

    def test_product_eigenfunction(self):
        g = PeriodicGrid((64, 64))
        x1, x2 = g.meshgrid()
        f = SampledFunction(g, (np.cos(x1) * np.cos(x2)).astype(complex), kind="real")
        out = theta_evolve_d(f, 0.3)
        assert np.max(np.abs(out.values - math.exp(-0.6) * f.values)) < 1e-14

    def test_preserves_constants(self):
        g = PeriodicGrid((32, 32))
        out = theta_evolve_d(SampledFunction.constant(g, 1.0), 0.9)
        assert np.allclose(out.values.real, 1.0, atol=1e-14)

    def test_axis_permutation_invariance(self):
        g = PeriodicGrid((64, 64))
        f = random_bandlimited(g, 5, np.random.default_rng(8))
        ft = SampledFunction(g, f.values.T.copy(), kind="real")
        a = theta_evolve_d(f, 0.4).values
        b = theta_evolve_d(ft, 0.4).values.T
        assert np.max(np.abs(a - b)) < 1e-13

    def test_poisson_d1_reduces_exactly(self):
        g = PeriodicGrid.line(128)
        f = random_bandlimited(g, 8, np.random.default_rng(9))
        a = poisson_evolve_d(f, 0.7)
        b = poisson_evolve_multiplier(f, 0.7)
        assert np.array_equal(a.values, b.values)

    def test_poisson_single_axis_mode(self):
        g = PeriodicGrid((32, 32))
        x1, _ = g.meshgrid()
        f = SampledFunction(g, np.cos(x1).astype(complex), kind="real")
        out = poisson_evolve_d(f, 0.9)
        assert np.max(np.abs(out.values - math.exp(-0.9) * f.values)) < 1e-13

    def test_poisson_diagonal_mode_sqrt2_decay(self):
        g = PeriodicGrid((64, 64))
        x1, x2 = g.meshgrid()
        f = SampledFunction(g, (np.cos(x1) * np.cos(x2)).astype(complex), kind="real")
        t = 0.8
        out = poisson_evolve_d(f, t)
        sqrt2_decay = math.exp(-t * math.sqrt(2.0))
        tensor_decay = math.exp(-2 * t)
        assert np.max(np.abs(out.values - sqrt2_decay * f.values)) < 1e-10
        assert abs(sqrt2_decay - tensor_decay) > 0.1  # genuinely different laws

    def test_poisson_d_agrees_with_subordination(self):
        g = PeriodicGrid((32, 32))
        f = random_bandlimited(g, 4, np.random.default_rng(10))
        t = 0.6
        direct = poisson_evolve_d(f, t)
        via_quad = subordinate(f, t)
        assert np.max(np.abs(direct.values - via_quad.values)) < 1e-7


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteTime:
    @pytest.mark.parametrize("t", NON_FINITE)
    # Explicit ids: the _d names are aliases and would share a __name__.
    @pytest.mark.parametrize("flow", [theta_evolve, theta_evolve_d, subordinate,
                                      poisson_evolve_d, poisson_evolve_multiplier,
                                      poisson_evolve_kernel],
                             ids=["theta_evolve", "theta_evolve_d", "subordinate",
                                  "poisson_evolve_d", "poisson_evolve_multiplier",
                                  "poisson_evolve_kernel"])
    def test_flows(self, flow, t):
        with pytest.raises(ValueError, match="finite"):
            flow(_cos(_grid(16)), t)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_sampled_times(self, t):
        # -inf is refused by the positivity check before the finiteness one.
        with pytest.raises(ValueError, match="finite|positive"):
            heat_residual(_cos(_grid(16)), (0.1, 0.2, t) if t > 0 else (t, 0.1, 0.2))


class TestRealPath:
    @pytest.mark.parametrize("op", [
        lambda f: poisson_evolve_multiplier(f, 0.3),
        generator_apply,
        lambda f: circular_convolve(f, kernel(0.1, f.grid)),
    ])
    @pytest.mark.parametrize("sizes", [(256,), (32, 48)])
    def test_real_kind_output_is_exactly_real(self, op, sizes):
        f = random_bandlimited(PeriodicGrid(sizes), 6, np.random.default_rng(13))
        out = op(f)
        assert out.kind == "real"
        assert not np.any(out.values.imag)

    @pytest.mark.parametrize("make", [
        lambda f: theta_evolve(f, 0.2),
        lambda f: poisson_evolve_multiplier(f, 0.3),
        lambda f: poisson_evolve_kernel(f, 0.6),
        lambda f: subordinate(f, 0.8),
        lambda f: subordinate(f, 0.8, SubordinationQuadrature(tol=1e-6)),
        generator_apply,
        lambda f: circular_convolve(f, f),
        lambda f: kernel(0.1, f.grid),
        lambda f: poisson_kernel(0.6, f.grid),
    ])
    def test_real_outputs_are_frozen_float64(self, make):
        out = make(random_bandlimited(_grid(64), 6, np.random.default_rng(15)))
        assert out.kind == "real" and out.values.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            out.values[0] = 1.0

    def test_complex_outputs_stay_complex128(self):
        g = PeriodicGrid((32, 48))
        f = SampledFunction(g, random_bandlimited(g, 6, np.random.default_rng(16)).values)
        for out in (theta_evolve(f, 0.2), subordinate(f, 0.8), generator_apply(f),
                    circular_convolve(f, kernel(0.1, g))):
            assert out.kind == "complex" and out.values.dtype == np.complex128

    def test_real_flows_skip_the_imaginary_part_check(self, monkeypatch):
        f = random_bandlimited(PeriodicGrid((32, 48)), 6, np.random.default_rng(17))
        k = kernel(0.1, f.grid)
        calls = []
        monkeypatch.setattr(fourier, "_stray_imag", lambda v: calls.append(1) or 0.0)
        theta_evolve(f, 0.2)
        subordinate(f, 0.8)
        circular_convolve(f, k)
        assert calls == []

    def test_matches_complex_path(self):
        g = PeriodicGrid((32, 48))
        f = random_bandlimited(g, 6, np.random.default_rng(14))
        fc = SampledFunction(g, f.values, kind="complex")
        for op in (generator_apply, lambda h: theta_evolve_d(h, 0.2),
                   lambda h: subordinate(h, 0.8)):
            ref = op(fc).values
            assert np.max(np.abs(op(f).values - ref)) < 1e-13 * np.max(np.abs(ref))


HUGE_TIMES = [1e160, 1e300, 1.7e308]


class TestHugeTimes:
    """At these times only the mean survives; t^2 and t |n|^2 overflow on the way."""

    @pytest.mark.parametrize("t", HUGE_TIMES)
    @pytest.mark.parametrize("flow", [theta_evolve, poisson_evolve_multiplier, subordinate])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_flow_returns_the_grid_mean(self, flow, t, kind):
        g = PeriodicGrid((16, 12))
        f = random_bandlimited(g, 4, np.random.default_rng(21))
        f = SampledFunction(g, f.values + 0.3, kind=kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = flow(f, t)
        assert out.kind == kind
        assert np.max(np.abs(out.values - np.mean(f.values))) < 1e-14

    @pytest.mark.parametrize("t", HUGE_TIMES)
    def test_bochner_defect_check_passes(self, t):
        f = _cos(_grid(64), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = subordinate(f, t, SubordinationQuadrature(tol=1e-14))
        assert np.max(np.abs(out.values)) < 1e-15

    def test_decay_is_the_plain_exponential_wherever_that_is_finite(self):
        n2, _ = fourier._mode_table((64, 48), False)
        for x in (n2, np.sqrt(n2)):
            for rate in (0.0, 1e-3, 1.0, 745.0, 746.0, 999.0, 1e3, 1e3 + 1, 1e10, 1e300):
                with np.errstate(over="raise"):
                    try:
                        plain = np.exp(-rate * x)
                    except FloatingPointError:
                        continue
                assert semigroups._decay(rate, x).tobytes() == plain.tobytes()


class TestOverflow:
    """A flow whose result overflows on finite data raises instead of returning nan."""

    def test_laplacian_of_data_near_the_float_limit(self):
        g = _grid(64)
        f = SampledFunction(g, 1e306 * np.cos(20 * g.points), kind="real")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="Fourier multiplier"):
                generator_apply(f)

    @pytest.mark.parametrize("flow", [
        lambda f: theta_evolve(f, 0.1),
        lambda f: poisson_evolve_kernel(f, 0.8),
    ], ids=["multiplier", "convolution"])
    def test_transform_overflow(self, flow):
        g = _grid(64)
        f = SampledFunction.from_callable(g, lambda x: 1e308 * (0.5 + 0.5 * np.cos(x)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflowed"):
                flow(f)

    def test_non_finite_data_is_not_an_overflow(self):
        values = np.cos(_grid(16).points)
        values[3] = math.nan
        out = theta_evolve(SampledFunction(_grid(16), values, kind="real"), 0.1)
        assert np.isnan(out.values).all()


def _fresh(f):
    """A copy of f that has not been transformed yet."""
    return SampledFunction(f.grid, f.values, kind=f.kind)


_KEPT_FLOWS = {
    "heat": lambda f: theta_evolve(f, 0.3),
    "poisson": lambda f: poisson_evolve_multiplier(f, 0.3),
    "subordinate": lambda f: subordinate(f, 0.8),
    "subordinate_tol": lambda f: subordinate(f, 0.8, SubordinationQuadrature(tol=1e-6)),
    "laplacian": generator_apply,
    "convolve": lambda f: circular_convolve(f, f),
}


class TestSpectrumIsKept:
    """A SampledFunction is transformed forward once, whatever flows follow."""

    @pytest.mark.parametrize("sizes", [(64,), (65536,), (64, 48), (256, 256), (8, 6, 4)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_first_and_second_call_give_the_bits_of_a_fresh_copy(self, sizes, kind):
        # Mixed-kind convolutions: tests/test_fourier.py::TestKeptSpectrum.
        rng = np.random.default_rng(31)
        vals = rng.normal(size=sizes)
        if kind == "complex":
            vals = vals + 1j * rng.normal(size=sizes)
        f = SampledFunction(PeriodicGrid(sizes), vals, kind=kind)
        expected = {name: flow(_fresh(f)).values.tobytes() for name, flow in _KEPT_FLOWS.items()}
        for _ in range(2):
            for name, flow in _KEPT_FLOWS.items():
                assert flow(f).values.tobytes() == expected[name], name

    def test_flows_after_the_first_make_no_forward_transform(self, monkeypatch):
        f = random_bandlimited(PeriodicGrid((64, 48)), 6, np.random.default_rng(32))
        calls = _count_fft_calls(monkeypatch)
        for flow in _KEPT_FLOWS.values():
            flow(f)
        assert calls.count("rfftn") == 1
        assert calls.count("irfft") == len(_KEPT_FLOWS)
        assert not {"fftn", "fft", "rfft"} & set(calls)

    @pytest.mark.parametrize("sizes, forward", [((64, 48), ["fft", "rfft"]),
                                                ((8, 6, 4), ["fft", "fft", "rfft"])])
    def test_a_kernel_brings_its_spectrum(self, sizes, forward, monkeypatch):
        f = random_bandlimited(PeriodicGrid(sizes), 1, np.random.default_rng(34))
        circular_convolve(f, f)
        calls = _count_fft_calls(monkeypatch)
        k = kernel(2.5, f.grid)
        assert calls == forward  # one per axis factor, no rfftn of the samples
        calls.clear()
        circular_convolve(f, k)
        assert calls == ["ifft"] * (len(sizes) - 1) + ["irfft"]

    def test_self_convolution_transforms_once(self, monkeypatch):
        f = random_bandlimited(PeriodicGrid.line(64), 10, np.random.default_rng(40))
        calls = _count_fft_calls(monkeypatch)
        circular_convolve(f, f)
        assert calls == ["rfftn", "irfft"]

    def test_real_operand_of_a_complex_convolution_keeps_no_full_spectrum(self, monkeypatch):
        g = PeriodicGrid.line(64)
        f = random_bandlimited(g, 10, np.random.default_rng(41))
        h = SampledFunction(g, np.exp(1j * g.points))
        calls = _count_fft_calls(monkeypatch)
        first = circular_convolve(f, h)
        assert "_spectrum" not in vars(f) and calls == ["fftn", "fftn", "ifftn"]
        calls.clear()
        assert circular_convolve(f, h).values.tobytes() == first.values.tobytes()
        assert calls == ["fftn", "ifftn"]  # f again; h's spectrum is kept
        calls.clear()
        fourier._Spectrum(f, True).spec
        fourier._Spectrum(f, True).spec
        assert calls == ["rfftn"]

    def test_thm1_transforms_each_function_once(self, monkeypatch):
        calls = _count_fft_calls(monkeypatch)
        assert run_suite("thm1").all_pass
        assert calls.count("rfftn") == 9  # 57 when every flow transformed its input

    @pytest.mark.parametrize("flow", [
        lambda f: theta_evolve(f, 0.1),
        lambda f: circular_convolve(f, f),
    ], ids=["multiplier", "convolution"])
    def test_kept_overflowed_spectrum_raises_on_every_use(self, flow):
        g = _grid(64)
        f = SampledFunction.from_callable(g, lambda x: 1e308 * (0.5 + 0.5 * np.cos(x)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(OverflowError, match="overflowed"):
                    flow(f)
        assert not np.isfinite(fourier._Spectrum(f, True).spec).all()

    def test_two_threads_sharing_one_function_get_the_same_bits(self):
        f = random_bandlimited(PeriodicGrid((256, 256)), 32, np.random.default_rng(33))
        expected = [flow(_fresh(f)).values.tobytes() for flow in _KEPT_FLOWS.values()]
        start = threading.Barrier(2, timeout=60)
        results = [None, None]

        def worker(slot):
            start.wait()
            results[slot] = [flow(f).values.tobytes() for flow in _KEPT_FLOWS.values()]

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let both threads race to keep the spectrum
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results[0] == expected and results[1] == expected
        assert fourier._Spectrum(f, True).spec.tobytes() == np.fft.rfftn(f.values).tobytes()


def _traced_peak_mib(fn):
    """Peak traced allocation while fn runs, above what was allocated before, in MiB."""
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if not running:
            tracemalloc.stop()


class TestFlowMemory:
    """A flow allocates its product and its result, and a result owns its array."""

    def test_kept_spectrum_heat_flow_allocates_two_arrays(self):
        # A 256 x 129 product (0.50 MiB) and the 256 x 256 result (0.50 MiB).
        f = random_bandlimited(PeriodicGrid((256, 256)), 64, np.random.default_rng(50))
        theta_evolve(f, 0.1)  # keeps the spectrum and builds the mode tables
        assert _traced_peak_mib(lambda: theta_evolve(f, 0.2)) <= 1.2

    def test_kept_spectrum_line_flow_gathers_no_symbol_copy(self):
        # The symbol on the 32 769 distinct |n|^2 (0.25 MiB), already in mode
        # order on a line, the product and the result (0.50 MiB each).
        f = random_bandlimited(PeriodicGrid.line(65536), 64, np.random.default_rng(53))
        theta_evolve(f, 0.1)
        assert _traced_peak_mib(lambda: theta_evolve(f, 0.2)) <= 1.4

    def test_kernel_convolution_allocates_four_arrays(self):
        # The kernel's samples and spectrum, the product and the result.
        g = PeriodicGrid((256, 256))
        f = random_bandlimited(g, 64, np.random.default_rng(51))
        circular_convolve(f, f)  # keeps f's spectrum
        assert _traced_peak_mib(lambda: circular_convolve(f, kernel(1e-3, g))) <= 2.3

    @pytest.mark.parametrize("sizes", [(64,), (64, 48), (8, 6, 4)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_results_are_read_only_and_share_no_memory(self, sizes, kind):
        rng = np.random.default_rng(52)
        vals = rng.normal(size=sizes) + (1j * rng.normal(size=sizes) if kind == "complex" else 0)
        f = SampledFunction(PeriodicGrid(sizes), vals, kind=kind)
        for name, flow in _KEPT_FLOWS.items():
            out = flow(f)
            spec = fourier._Spectrum(f).spec
            assert not out.values.flags.writeable, name
            assert not np.shares_memory(out.values, f.values), name
            assert not np.shares_memory(out.values, spec), name


def _normalized(sizes, halfwidth, seed):
    """Band-limited real data scaled to max |f| = 1, as the grid_2d benchmark draws it."""
    f = random_bandlimited(PeriodicGrid(sizes), halfwidth, np.random.default_rng(seed))
    return SampledFunction(f.grid, f.values / np.max(np.abs(f.values)), kind="real")


def _inverse_columns(monkeypatch):
    """Record the columns argument of every _Spectrum.inverse from here on."""
    seen = []
    inverse = fourier._Spectrum.inverse

    def spy(self, spec, out, operation, operands, columns=None):
        seen.append(columns)
        return inverse(self, spec, out, operation, operands, columns)

    monkeypatch.setattr(fourier._Spectrum, "inverse", spy)
    return seen


# The stated bound of the cut: every output sample moves by less than 2^54 2^-1022.
_CUT_BOUND = 2.0 ** 54 * 2.0 ** -1022


class TestCutAndSkip:
    """Multi-axis real flows set to 0 the symbol values below _CUT / P and skip their columns.

    Setting fourier._CUT to 0 switches the cut off: no value is then below
    it, and the complex passes run over every column.
    """

    @pytest.mark.parametrize("sizes, halfwidth", [((256, 256), 16), ((8, 6, 4), 1)])
    @pytest.mark.parametrize("t", [0.05, 0.2, 1.0])
    def test_same_bits_as_the_uncut_flow(self, sizes, halfwidth, t, monkeypatch):
        f = _normalized(sizes, halfwidth, 60)
        cut = theta_evolve(f, t).values
        monkeypatch.setattr(fourier, "_CUT", 0.0)
        assert theta_evolve(f, t).values.tobytes() == cut.tobytes()

    @pytest.mark.parametrize("t, columns", [(0.05, 117), (0.2, 59), (1.0, 27)])
    def test_transformed_columns_on_256_squared(self, t, columns, monkeypatch):
        # sigma = e^(-t |n|^2) and P = 1013 here: |n|^2 <= (969 ln 2 + ln P) / t stays live,
        # and the count is the same for any P from e^1.2 to e^12.
        f = _normalized((256, 256), 16, 60)
        theta_evolve(f, 0.1)
        assert 1e3 < fourier._Spectrum(f).peak() < 1.1e3
        seen = _inverse_columns(monkeypatch)
        theta_evolve(f, t)
        monkeypatch.setattr(fourier, "_CUT", 0.0)
        theta_evolve(f, t)
        assert seen == [columns, 129]

    def test_the_cut_sits_at_sigma_p_equal_2_to_the_minus_969(self, monkeypatch):
        # f = 2^-900 cos x has P = 128 2^-900, on the two modes n = (+-1, 0), so
        # sigma P = e^-t 2^-893 passes 2^-969 at t = 76 ln 2; mode 0 holds round-off.
        g = PeriodicGrid((16, 16))
        f = SampledFunction.from_callable(g, lambda x, y: 2.0 ** -900 * np.cos(x))
        assert fourier._Spectrum(f).peak() == pytest.approx(2.0 ** -893, rel=1e-15)
        edge = 76 * math.log(2.0)
        dropped, kept = theta_evolve(f, edge * 1.001).values, theta_evolve(f, edge * 0.999).values
        monkeypatch.setattr(fourier, "_CUT", 0.0)
        assert 0 < np.max(np.abs(theta_evolve(f, edge * 1.001).values - dropped)) < _CUT_BOUND
        assert kept.tobytes() == theta_evolve(f, edge * 0.999).values.tobytes()

    def test_lines_and_convolutions_are_not_cut(self, monkeypatch):
        seen = _inverse_columns(monkeypatch)
        line = _normalized((256,), 16, 61)
        theta_evolve(line, 1.0)
        plane = _normalized((64, 48), 8, 62)
        circular_convolve(plane, kernel(0.1, plane.grid))
        complex_plane = SampledFunction(plane.grid, plane.values + 1j, kind="complex")
        theta_evolve(complex_plane, 1.0)
        assert seen == [None, None, None]

    def test_zero_function_transforms_no_column(self, monkeypatch):
        seen = _inverse_columns(monkeypatch)
        zero = SampledFunction(PeriodicGrid((16, 16)), np.zeros((16, 16)), kind="real")
        for flow in (lambda f: theta_evolve(f, 0.1), generator_apply):
            assert np.all(flow(zero).values == 0.0)
        assert seen == [0, 0]

    def test_cut_zeroes_the_dead_values_and_counts_the_live_columns(self):
        f = _normalized((64, 48), 8, 63)
        spectrum = fourier._Spectrum(f)
        symbol = np.exp(-5.0 * spectrum.n2) * np.where(spectrum.n2 % 2 == 0, 1.0, -1.0)
        given = symbol.tobytes()
        cut, columns = spectrum._cut(symbol)
        dead = np.abs(symbol) * spectrum.peak() < fourier._CUT
        assert dead.any() and not dead.all()
        assert symbol.tobytes() == given  # the caller's symbol is left as it is
        assert np.all(cut[dead] == 0.0)
        assert np.array_equal(np.signbit(cut[dead]), np.signbit(symbol[dead]))
        assert cut[~dead].tobytes() == symbol[~dead].tobytes()
        assert columns == math.isqrt(int(spectrum.n2[~dead].max())) + 1

    def test_an_infinite_sigma_p_is_live_without_a_warning(self):
        # |sigma| P passes the largest double at |n|^2 = 29, where the data have no mode;
        # forming it once raised a RuntimeWarning. Found by the sweep below.
        f = SampledFunction(PeriodicGrid((8, 6, 4)),
                            _normalized((8, 6, 4), 1, 0).values * 1e306, kind="real")
        spectrum = fourier._Spectrum(f)
        assert math.isfinite(spectrum.peak()) and spectrum.peak() * 29 == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = generator_apply(f).values
        assert np.all(np.isfinite(out))

    def test_overflowed_spectrum_is_not_cut_and_raises(self, monkeypatch):
        g = PeriodicGrid((64, 48))
        f = SampledFunction.from_callable(
            g, lambda x, y: 1e308 * (0.5 + 0.25 * np.cos(x) + 0.25 * np.cos(y)))
        seen = _inverse_columns(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for flow in (lambda f: theta_evolve(f, 1.0), lambda f: subordinate(f, 0.8),
                         generator_apply):
                with pytest.raises(OverflowError, match="overflowed"):
                    flow(f)
        assert seen == [None, None, None]
        assert not math.isfinite(fourier._Spectrum(f).peak())

    def test_peak_is_kept_beside_the_spectrum_and_copies_start_without_it(self):
        f = _normalized((16, 12), 4, 64)
        theta_evolve(f, 0.5)
        assert vars(f)["_peak"] == float(np.max(np.abs(np.fft.rfftn(f.values).view(float))))
        g = _fresh(f)
        assert "_peak" not in vars(g) and "_spectrum" not in vars(g)


_SWEEP_FLOWS = {
    "heat": theta_evolve,
    "poisson": poisson_evolve_multiplier,
    "subordinate": subordinate,
    "generator": lambda f, t: generator_apply(f),
    "kernel": lambda f, t: circular_convolve(f, kernel(t, f.grid)),
}


def _flow_or_refusal(flow, f, t):
    """flow(f, t) under warnings-as-errors: its values if finite, else the named refusal's type."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = _SWEEP_FLOWS[flow](f, t).values
        except (ValueError, OverflowError) as refusal:
            assert str(refusal)
            return type(refusal)
    assert np.all(np.isfinite(values))
    return values


class TestExtremeMultiAxisInputs:
    """Multi-axis flows give a finite result or a named refusal, within the cut's bound of the uncut flow."""

    @settings(max_examples=200, deadline=None)
    @given(sizes=st.sampled_from([(8, 6, 4), (16, 16), (64, 48)]),
           scale=st.none() | st.integers(-320, 308),
           t=st.floats(5e-324, 1e300),
           seed=st.integers(0, 2**32 - 1),
           flow=st.sampled_from(sorted(_SWEEP_FLOWS)))
    def test_finite_or_refused_and_within_the_bound_of_the_uncut_flow(self, sizes, scale, t,
                                                                     seed, flow):
        grid = PeriodicGrid(sizes)
        if scale is None:
            values = np.zeros(sizes)
        else:  # the widest band the grid takes, so that many |n|^2 carry data
            values = _normalized(sizes, min(sizes) // 2 - 1, seed).values * 10.0 ** scale
        cut = _flow_or_refusal(flow, SampledFunction(grid, values, kind="real"), t)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fourier, "_CUT", 0.0)
            uncut = _flow_or_refusal(flow, SampledFunction(grid, values, kind="real"), t)
        if isinstance(cut, type) or isinstance(uncut, type):
            assert cut is uncut
        else:
            assert np.max(np.abs(cut - uncut)) < _CUT_BOUND
