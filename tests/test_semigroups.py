import math

import numpy as np
import pytest

from thetaflow import fourier
from thetaflow.checks import random_bandlimited, random_nonnegative
from thetaflow.fourier import PeriodicGrid, SampledFunction, circular_convolve
from thetaflow.semigroups import (
    MultiplierSpec,
    SubordinationError,
    SubordinationQuadrature,
    apply_multiplier,
    bochner_scalar,
    generator_apply,
    heat_residual,
    maximal_function,
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


def _count_rfftn(monkeypatch):
    """Record every np.fft.rfftn call from here on; returns the record list."""
    calls = []
    original = np.fft.rfftn

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counting)
    return calls


class TestMultiplierSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            MultiplierSpec("diffusion", 1.0)

    def test_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MultiplierSpec("heat", -0.5)

    def test_laplacian_symbol(self):
        g = _grid(8)
        sym = MultiplierSpec("laplacian").on_grid(g)
        assert np.array_equal(sym, -(g.frequencies().astype(float) ** 2))


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


class TestSubordination:
    def test_scalar_identity(self):
        assert bochner_scalar(1.0) == pytest.approx(E_MINUS_1, rel=1e-9)
        for lam in (0.5, 1.0, 2.0, 5.0):
            assert bochner_scalar(lam) == pytest.approx(math.exp(-lam), rel=1e-9)

    def test_scalar_at_zero(self):
        assert bochner_scalar(0.0) == pytest.approx(1.0, abs=1e-12)

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
        # At t = 0.7 the 64-node rule errs by ~2e-14 and estimates ~2e-14.
        g = _grid()
        for t, tol, exact in ((0.5, 1e-6, E_MINUS_HALF), (0.7, 1e-8, math.exp(-0.7))):
            out = subordinate(_cos(g), t, SubordinationQuadrature(tol=tol))
            assert np.max(np.abs(out.values.real - exact * np.cos(g.points))) < 1e-8

    def test_quadrature_validation(self):
        with pytest.raises(ValueError, match="nodes"):
            SubordinationQuadrature(nodes=4)
        with pytest.raises(ValueError, match="u_max"):
            SubordinationQuadrature(u_max=0.5)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError, match="positive"):
            subordinate(_cos(_grid()), 0.0)

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
        calls = _count_rfftn(monkeypatch)
        resid = heat_residual(f, ts)
        assert len(calls) == 1
        assert abs(resid - ref) <= 1e-11

    def test_validation(self):
        g = _grid()
        with pytest.raises(ValueError, match="at least 3"):
            heat_residual(_cos(g), (0.1, 0.2))
        with pytest.raises(ValueError, match="positive"):
            heat_residual(_cos(g), (0.0, 0.1, 0.2))
        with pytest.raises(ValueError, match="increasing"):
            heat_residual(_cos(g), (0.3, 0.2, 0.4))


class TestMaximalFunction:
    def test_bounded_by_max_for_nonnegative_input(self):
        g = PeriodicGrid.line(256)
        f = random_nonnegative(g, 8, np.random.default_rng(7))
        star = maximal_function(f)
        assert float(np.max(star.values.real)) <= float(np.max(f.values.real)) + 1e-12

    def test_cosine_approaches_abs_as_tmin_drops(self):
        g = _grid()
        f = _cos(g)
        for tmin in (1e-2, 1e-4):
            star = maximal_function(f, np.geomspace(tmin, 10, 64))
            expected = math.exp(-tmin) * np.abs(np.cos(g.points))
            assert np.all(star.values.real >= expected - 1e-12)
            gap = float(np.max(np.abs(star.values.real - np.abs(np.cos(g.points)))))
            assert gap <= 2 * tmin

    def test_l2_bound_observed(self):
        # Observed constant for the sampled sup; asserts finiteness with
        # the empirical factor-2 margin.
        g = PeriodicGrid.line(256)
        for seed in range(3):
            f = random_bandlimited(g, 8, np.random.default_rng(seed))
            star = maximal_function(f)
            assert star.norm(2) <= 2.0 * f.norm(2)

    def test_empty_times_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            maximal_function(_cos(_grid()), [])

    def test_one_forward_transform(self, monkeypatch):
        g = PeriodicGrid((64, 48))
        f = random_bandlimited(g, 6, np.random.default_rng(22))
        ref = np.zeros(g.sizes)
        for t in np.geomspace(1e-3, 10.0, 64):
            ref = np.maximum(ref, np.abs(theta_evolve_d(f, t).values))
        calls = _count_rfftn(monkeypatch)
        star = maximal_function(f)
        assert len(calls) == 1
        assert np.max(np.abs(star.values.real - ref)) <= 1e-15


class TestMultidim:
    @pytest.mark.parametrize("kind", ["heat", "poisson", "laplacian"])
    def test_every_kind_on_any_grid(self, kind):
        g = PeriodicGrid((8, 6, 4))
        n2 = sum(k.astype(float) ** 2 for k in np.meshgrid(
            *(g.frequencies(a) for a in range(3)), indexing="ij"))
        expected = {"heat": np.exp(-0.3 * n2), "poisson": np.exp(-0.3 * np.sqrt(n2)),
                    "laplacian": -n2}[kind]
        assert np.allclose(MultiplierSpec(kind, 0.3).on_grid(g), expected,
                           rtol=1e-15, atol=0)

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
    @pytest.mark.parametrize("kind", ["heat", "poisson", "laplacian"])
    def test_multiplier_spec(self, kind, t):
        with pytest.raises(ValueError, match="finite"):
            MultiplierSpec(kind, t)

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
            maximal_function(_cos(_grid(16)), [0.1, t])
        with pytest.raises(ValueError, match="finite|positive"):
            heat_residual(_cos(_grid(16)), (0.1, 0.2, t) if t > 0 else (t, 0.1, 0.2))


class TestRealPath:
    @pytest.mark.parametrize("op", [
        lambda f: apply_multiplier(f, MultiplierSpec("poisson", 0.3)),
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
        lambda f: poisson_evolve_kernel(f, 0.3),
        lambda f: subordinate(f, 0.8),
        lambda f: subordinate(f, 0.8, SubordinationQuadrature(tol=1e-6)),
        generator_apply,
        lambda f: circular_convolve(f, f),
        lambda f: kernel(0.1, f.grid),
        lambda f: poisson_kernel(0.3, f.grid),
        maximal_function,
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
