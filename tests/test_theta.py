import copy
import functools
import math
import re
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaflow.checks import random_bandlimited
from thetaflow.fourier import _EXP_ZERO, PeriodicGrid, circular_convolve
from thetaflow.theta import (
    ThetaParams,
    _image_terms,
    _reduce_angle,
    _theta3_images,
    _product_factors,
    _series_terms,
    kernel,
    theta3_bound,
    theta3_product,
    theta3_series,
)

NON_FINITE = [math.nan, math.inf, -math.inf]


def loop_terms(q, tol):
    """Terms a series loop adds, from n = 1, until 2 q^(n^2) < tol."""
    n = 1
    while not 2.0 * q ** (n * n) < tol:
        n += 1
    return n - 1


def series_oracle(x, q, terms=200):
    """Direct summation of the defining cosine series."""
    total = 1.0
    for n in range(1, terms + 1):
        term = 2.0 * q ** (n * n) * math.cos(n * x)
        total += term
        if abs(2.0 * q ** (n * n)) < 1e-17:
            break
    return total


# Frozen from series_oracle (cross-checked against mpmath.jtheta):
THETA_AT_0_QE1 = 1.772637204826652     # theta3(0, e^-1)
THETA_BOUND_HALF = 2.128936827211877   # theta3(0, 0.5)


class TestThetaParams:
    def test_nome_range(self):
        with pytest.raises(ValueError, match="nome out of range"):
            ThetaParams(1.0)
        with pytest.raises(ValueError, match="nome out of range"):
            ThetaParams(-0.1)

    def test_from_time(self):
        p = ThetaParams.from_time(2.0)
        assert p.q == pytest.approx(math.exp(-2.0))
        assert p.time == pytest.approx(2.0)

    def test_from_time_rejects_zero(self):
        with pytest.raises(ValueError, match="Dirac comb"):
            ThetaParams.from_time(0.0)

    @pytest.mark.parametrize("tol", NON_FINITE)
    def test_non_finite_tol_rejected(self, tol):
        # A nan tol used to run max_terms array passes before failing, and
        # an infinite one silently truncated theta3 to 1.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ThetaParams(0.5, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ThetaParams.from_time(0.5, tol=tol)


class TestSeries:
    def test_q_zero_is_one(self):
        p = ThetaParams(0.0)
        for x in (0.0, 1.0, np.pi, 5.5):
            assert theta3_series(x, p) == 1.0

    def test_value_at_origin(self):
        p = ThetaParams(math.exp(-1.0))
        v = theta3_series(0.0, p)
        assert v == pytest.approx(series_oracle(0.0, math.exp(-1.0)), rel=1e-15)
        assert v == pytest.approx(THETA_AT_0_QE1, rel=1e-15)

    def test_alternating_value_at_pi(self):
        q = 0.3
        assert theta3_series(np.pi, ThetaParams(q)) == pytest.approx(
            series_oracle(np.pi, q), rel=1e-14
        )

    def test_vectorized_matches_scalar(self):
        p = ThetaParams(0.4)
        xs = np.linspace(0, 2 * np.pi, 17)
        vec = theta3_series(xs, p)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == pytest.approx(theta3_series(float(x), p), rel=1e-15)

    @given(st.floats(-20.0, 20.0), st.floats(0.0, 1.0 - 1e-6))
    @settings(max_examples=80, deadline=None)
    def test_positivity(self, x, q):
        assert theta3_series(x, ThetaParams(q)) >= 0.0

    def test_positivity_below_truncation_floor(self):
        # Near-1 nome far from the peak: the true value underflows the
        # truncation error, and the clamp must keep the result at 0.
        assert theta3_series(20.0, ThetaParams(0.9921875)) >= 0.0

    @given(st.floats(-10.0, 10.0), st.floats(0.0, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_evenness(self, x, q):
        p = ThetaParams(q)
        scale = theta3_bound(p)
        assert abs(theta3_series(x, p) - theta3_series(-x, p)) <= 1e-13 * scale

    def test_periodicity_exact_on_dyadic_points(self):
        # x + 2pi is an exact float sum for these x, so the reduced angles
        # coincide bitwise and the values must be identical.
        p = ThetaParams(0.7)
        for x in (0.5, 0.25, 1.0, 1.5, 2.0):
            assert theta3_series(x + 2 * np.pi, p) == theta3_series(x, p)

    def test_periodicity_random_points(self):
        rng = np.random.default_rng(0)
        p = ThetaParams(0.8)
        for x in rng.uniform(0, 2 * np.pi, 50):
            a, b = theta3_series(x + 2 * np.pi, p), theta3_series(x, p)
            assert abs(a - b) <= 1e-13 * theta3_bound(p)

    def test_term_count_refused_up_front(self):
        # q = 1 - 1e-12 needs ~5.7e6 terms; the loop ran 1e6 array passes
        # (69 s on 4096 points) before raising.
        x = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="max_terms"):
            theta3_series(x, ThetaParams(1.0 - 1e-12))
        assert time.perf_counter() - t0 < 0.1

    def test_term_count_on_exact_boundaries(self):
        # tol = 2 q^(n^2) keeps term n, as the series loop did; a count
        # from logarithms alone dropped it for some of these pairs.
        for q in (0.05, 0.3, 0.5, 0.7, 0.9, 0.99):
            for n in (1, 2, 3, 5, 8, 13):
                tol = 2.0 * q ** (n * n)
                assert _series_terms(q, tol) == loop_terms(q, tol) == n

    @given(st.floats(0.0, 0.999), st.floats(1e-300, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_term_count_matches_the_loop(self, q, tol):
        assert _series_terms(q, tol) == loop_terms(q, tol)


class TestProduct:
    def test_empty_product(self):
        assert theta3_product(1.23, ThetaParams(0.0)) == 1.0

    def test_agrees_with_series(self):
        for q in (0.1, 0.5, 0.9):
            p = ThetaParams(q)
            for x in (0.0, 1.0, np.pi):
                assert abs(theta3_product(x, p) - theta3_series(x, p)) < 1e-12

    def test_near_one_nome_stays_nonnegative(self):
        v = theta3_product(np.pi, ThetaParams(0.99))
        assert v >= 0.0

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_first_factor_equal_to_one(self, q):
        # At cos x = (1/(1-q^2) - 1 - q^2) / 2q the first factor is 1 to
        # rounding; stopping there returned 1.0 (0.959 at q = 0.5).
        x = math.acos((1.0 / (1.0 - q * q) - 1.0 - q * q) / (2.0 * q))
        p = ThetaParams(q)
        assert abs(theta3_product(x, p) - theta3_series(x, p)) < 1e-12

    def test_reported_angle(self):
        p = ThetaParams(0.5)
        assert theta3_product(1.4873662401842818, p) == pytest.approx(0.9591307822443896,
                                                                      abs=1e-12)

    @given(st.floats(-20.0, 20.0), st.floats(0.0, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_relative_error_within_tol(self, x, q):
        p = ThetaParams(q, tol=1e-10)
        ref = theta3_series(x, ThetaParams(q, tol=1e-16))
        assert abs(theta3_product(x, p) - ref) <= 1e-10 * ref + 1e-13

    def test_factor_count_refused_up_front(self):
        # q = 1 - 1e-7 needs ~2.4e8 factors; the loop ran 1e6 of them (13 s) before raising.
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="factors"):
            theta3_product(1.0, ThetaParams(1.0 - 1e-7))
        assert time.perf_counter() - t0 < 0.1

    def test_factor_count_meets_its_bound(self):
        for q in (1e-300, 0.1, 0.5, 0.9, 0.99):
            n = _product_factors(q, 1e-14)
            tail = lambda n: (2 + q) * q ** (2 * n + 1) / ((1 - q ** (2 * n + 1)) * (1 - q * q))
            assert tail(n) <= math.log1p(1e-14)
            assert n == 0 or tail(n - 1) > math.log1p(1e-14)


class TestBound:
    def test_q_zero(self):
        assert theta3_bound(ThetaParams(0.0)) == 1.0

    def test_value_and_domination(self):
        p = ThetaParams(0.5)
        b = theta3_bound(p)
        assert b == pytest.approx(THETA_BOUND_HALF, rel=1e-15)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-10, 10, 100)
        assert np.all(theta3_series(xs, p) <= b + 1e-15)

    def test_bounds_multidim_kernel(self):
        t = 0.5
        g = PeriodicGrid((32, 32))
        b = theta3_bound(ThetaParams.from_time(t))
        k = kernel(t, g)
        assert float(np.max(k.values.real)) * (2 * np.pi) ** 2 <= b**2 + 1e-12


class TestKernel:
    def test_unit_mass(self):
        g = PeriodicGrid.line(256)
        assert kernel(1.0, g).integral() == pytest.approx(1.0, abs=1e-13)

    def test_nonnegative(self):
        g = PeriodicGrid.line(256)
        assert float(np.min(kernel(0.5, g).values.real)) >= 0.0

    def test_peak_at_origin(self):
        t = 0.8
        g = PeriodicGrid.line(128)
        k = kernel(t, g)
        peak = float(np.max(k.values.real))
        assert peak == k.values.real[0]
        assert peak == pytest.approx(
            theta3_bound(ThetaParams.from_time(t)) / (2 * np.pi), rel=1e-14
        )

    def test_mass_concentrates_as_t_drops(self):
        g = PeriodicGrid.line(512)
        x = g.points
        outside = (x > 0.5) & (x < 2 * np.pi - 0.5)
        masses = []
        for t in (0.1, 0.05, 0.01):
            k = kernel(t, g)
            masses.append(float(np.sum(k.values.real[outside])) * g.spacing())
        assert masses[0] > masses[1] > masses[2] > 0.0

    def test_rejects_nonpositive_time(self):
        g = PeriodicGrid.line(64)
        with pytest.raises(ValueError, match="Dirac comb"):
            kernel(0.0, g)
        with pytest.raises(ValueError, match="Dirac comb"):
            kernel(-1.0, g)

    def test_rejects_time_the_grid_cannot_resolve(self):
        # On 8 points the samples at t = 1e-3 have mass theta3(0, exp(-0.064)) = 7.006;
        # the grid resolves t >= ln(2e14) / 64 = 0.5145.
        g = PeriodicGrid.line(8)
        with pytest.raises(ValueError, match=r"grid \(8,\) does not resolve the heat kernel "
                           r"at t = 0.001 .*; needs t >= 0.515$"):
            kernel(1e-3, g)
        assert kernel(0.515, g).integral() == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ValueError, match="needs t >= 0.515"):
            kernel(0.514, g)

    def test_fine_grid_resolves_times_below_1e_3(self):
        k = kernel(5e-4, PeriodicGrid.line(65536))
        assert k.integral() == pytest.approx(1.0, abs=1e-13)

    def test_multidim_kernel_mass(self):
        g = PeriodicGrid((64, 64))
        assert kernel(0.7, g).integral() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tol", NON_FINITE + [0.0, -1e-14])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            kernel(0.5, PeriodicGrid.line(64), tol=tol)

    @pytest.mark.parametrize("t", NON_FINITE)
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            kernel(t, PeriodicGrid.line(64))


class TestKernelSpectrum:
    """A multi-axis kernel arrives with its spectrum, the outer product of its axis spectra."""

    @pytest.mark.parametrize("sizes, times", [
        ((64, 48), (0.02, 0.3, 2.0)), ((256, 256), (1e-3, 0.05, 1.0)),
        ((8, 6, 4), (2.5, 5.0)), ((32, 16, 24), (0.2, 0.7)),
    ])
    def test_kept_spectrum_is_within_a_few_eps_of_rfftn(self, sizes, times):
        for t in times:
            k = kernel(t, PeriodicGrid(sizes))
            kept = vars(k)["_spectrum"]
            assert not kept.flags.writeable
            exact = np.fft.rfftn(k.values)
            peak = np.max(np.abs(exact))
            assert np.max(np.abs(kept - exact)) <= 8 * EPS * peak, t

    def test_lines_keep_no_spectrum(self):
        assert "_spectrum" not in vars(kernel(0.1, PeriodicGrid.line(64)))

    @pytest.mark.parametrize("sizes", [(64, 48), (8, 6, 4)])
    def test_a_copy_convolves_within_a_few_eps_of_the_original(self, sizes):
        g = PeriodicGrid(sizes)
        f = random_bandlimited(g, 1, np.random.default_rng(70))
        k = kernel(4.0, g)
        clone = copy.copy(k)
        assert "_spectrum" not in vars(clone)
        assert clone.values.tobytes() == k.values.tobytes()
        kept, fresh = circular_convolve(f, k).values, circular_convolve(f, clone).values
        assert np.max(np.abs(kept - fresh)) <= 8 * EPS * np.max(np.abs(fresh))


def _image_sum(x, t, images=range(-3, 5)):
    """Closed-form periodised Gaussian sqrt(pi/t) sum_k exp(-(x - 2pi k)^2 / 4t)."""
    return math.sqrt(math.pi / t) * sum(np.exp(-(x - 2 * np.pi * k) ** 2 / (4.0 * t))
                                        for k in images)


# The loops of theta3_series, theta3_product and _theta3_images as plain
# allocating code: each pass allocates fresh arrays, every angle is reduced
# by np.mod and every image is summed over every sample. The library's
# in-place loops must give the same bits.

def series_loop(x, params):
    q = params.q
    xr = np.mod(np.asarray(x, dtype=float), 2 * np.pi)
    total = np.ones_like(xr)
    z = np.cos(xr) + 1j * np.sin(xr)
    power = z
    for n in range(1, _series_terms(q, params.tol) + 1):
        if n > 1:
            power = power * z
        total = total + 2.0 * q ** (n * n) * power.real
    total = np.maximum(total, 0.0)
    return total if total.ndim else float(total)


def product_loop(x, params):
    q = params.q
    xr = np.mod(np.asarray(x, dtype=float), 2 * np.pi)
    total = np.ones_like(xr)
    if q > 0.0:
        cx = np.cos(xr)
        for n in range(1, _product_factors(q, params.tol) + 1):
            b, e = q ** (2 * n - 1), 1.0 - q ** (2 * n)
            factor = cx * (2.0 * b * e) + (1.0 + b * b) * e
            assert not np.any(factor < 0.0)
            total = total * factor
    return total if total.ndim else float(total)


def images_loop(x, t, tol):
    xr = np.mod(np.asarray(x, dtype=float), 2 * np.pi)
    total = np.zeros_like(xr)
    terms = _image_terms(t, tol)
    for k in range(1 - terms, terms + 1):
        total = total + np.exp(-(xr - 2 * np.pi * k) ** 2 / (4.0 * t))
    return math.sqrt(math.pi / t) * total


def kernel_loop(t, grid, tol=1e-14):
    params = ThetaParams.from_time(t, tol=tol)
    if 2 * _image_terms(t, tol) < _series_terms(params.q, tol):
        theta = lambda x: images_loop(x, t, tol)
    else:
        theta = lambda x: series_loop(x, params)
    factors = []
    for a, n in enumerate(grid.sizes):
        half = theta(grid.axis_points(a)[:n // 2 + 1]) / (2 * np.pi)
        factors.append(np.concatenate([half, half[1:n // 2][::-1]]))
    vals = factors[0]
    for f in factors[1:]:
        vals = np.multiply.outer(vals, f)
    return vals


def same_bits(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) and (
        np.asarray(a).tobytes() == np.asarray(b).tobytes())


_RNG = np.random.default_rng(15)
ANGLES = {
    "grid": PeriodicGrid.line(4096).points,
    "sorted": np.sort(_RNG.uniform(0.0, 2 * np.pi, 1000)),
    "unsorted": _RNG.uniform(0.0, 2 * np.pi, 1000),
    "negative": -_RNG.uniform(0.0, 50.0, 500),
    "sorted_wide": np.sort(_RNG.uniform(-20.0, 20.0, 500)),
    "large": _RNG.uniform(-1e10, 1e10, 500),
    "two_dim": _RNG.uniform(-10.0, 10.0, (12, 20)),
    "edges": np.array([0.0, -0.0, np.pi, 2 * np.pi, np.nextafter(2 * np.pi, 0.0),
                       1e-300, -1e-300, 1e10]),
    "empty": np.zeros(0),
}
SCALARS = [0.0, -0.0, 1.0, -1.0, np.pi, 2 * np.pi, 3.5e5, 1e10]


class TestSameBitsAsTheLoops:
    """The in-place loops, windows and skipped reduction change no bit of any output."""

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 0.9, 0.99])
    def test_series_and_product(self, q):
        p = ThetaParams(q)
        for x in list(ANGLES.values()) + SCALARS:
            assert same_bits(theta3_series(x, p), series_loop(x, p))
            assert same_bits(theta3_product(x, p), product_loop(x, p))

    @pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0, 30.0])
    @pytest.mark.parametrize("tol", [1e-14, 1e-8])
    def test_images(self, t, tol):
        for x in list(ANGLES.values()) + SCALARS:
            assert same_bits(_theta3_images(x, t, tol), images_loop(x, t, tol))

    @pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2, 0.1, 1.0])
    def test_images_at_the_window_edges(self, t):
        # Angles at 2pi k -/+ w (1 -/+ 1e-9), w = sqrt(4t _EXP_ZERO): just
        # inside and just outside the window of each image.
        w = math.sqrt(4.0 * t * _EXP_ZERO)
        x = np.array([2 * np.pi * k + s * w * (1.0 + e)
                      for k in range(-2, 3) for s in (-1, 1) for e in (-1e-9, 1e-9)])
        for angles in (x, np.sort(x), np.sort(np.mod(x, 2 * np.pi))):
            assert same_bits(_theta3_images(angles, t, 1e-14), images_loop(angles, t, 1e-14))

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 512, 4096, 65536])
    def test_kernel_on_lines(self, n):
        g = PeriodicGrid.line(n)
        times = [t for t in np.geomspace(1e-4, 3.0, 9) if 2 * math.exp(-n * n * t) <= 1e-14]
        for t in times + [1e-3, 1e-2] * (n == 65536):
            assert same_bits(kernel(t, g).values, kernel_loop(t, g))

    @pytest.mark.parametrize("sizes", [(96, 64), (256, 256)])
    def test_kernel_on_planes(self, sizes):
        g = PeriodicGrid(sizes)
        for t in (8.2e-3, 0.05, 0.3, 1.0, 2.6):
            assert same_bits(kernel(t, g).values, kernel_loop(t, g))

    def test_kernel_times_span_the_crossover(self):
        routes = {2 * _image_terms(t, 1e-14) < _series_terms(math.exp(-t), 1e-14)
                  for t in (8.2e-3, 0.05, 0.3, 1.0, 2.6)}
        assert routes == {True, False}

    def test_angles_in_range_skip_reduction(self):
        x = PeriodicGrid.line(64).points
        assert _reduce_angle(x) is x
        assert not np.shares_memory(_reduce_angle(x - 1.0), x)

    @pytest.mark.parametrize("form", [
        lambda x: theta3_series(x, ThetaParams(0.5)),
        lambda x: theta3_product(x, ThetaParams(0.5)),
        lambda x: _theta3_images(x, 0.01, 1e-14),
    ], ids=["series", "product", "images"])
    def test_negative_zero_is_kept_and_harmless(self, form):
        # np.mod turned -0.0 into +0.0; kept as it is, it gives the same
        # bits, since every form is even in x.
        x = np.array([-0.0, 1.0])
        assert np.signbit(_reduce_angle(x)[0])
        assert same_bits(form(x), form(np.array([0.0, 1.0])))
        assert same_bits(form(-0.0), form(0.0))


class TestKernelRoute:
    TIMES = np.geomspace(1e-3, 3.0, 25)

    def test_pass_counts(self):
        # Image passes 2K against series terms at tol = 1e-14.
        for t, images, terms in ((1e-3, 2, 181), (1e-2, 2, 57), (1.0, 4, 5), (1.5, 6, 4)):
            assert 2 * _image_terms(t, 1e-14) == images
            assert _series_terms(math.exp(-t), 1e-14) == terms

    def test_series_terms_match_the_series_loop(self):
        for t in self.TIMES:
            q = math.exp(-t)
            assert _series_terms(q, 1e-14) == loop_terms(q, 1e-14)

    def test_image_terms_is_smallest_meeting_tol(self):
        def bound(k, t):
            return (2 * math.sqrt(math.pi / t) * math.exp(-math.pi ** 2 * k * k / t)
                    / -math.expm1(-math.pi ** 2 / t))
        for t in (0.5, 1.0, 3.0, 10.0, 100.0):
            for tol in (1e-6, 1e-14):
                k = _image_terms(t, tol)
                assert bound(k, t) < tol
                assert k == 1 or bound(k - 1, t) >= tol

    def test_times_span_the_crossover(self):
        picks = {2 * _image_terms(t, 1e-14) < _series_terms(math.exp(-t), 1e-14)
                 for t in self.TIMES}
        assert picks == {True, False}

    @pytest.mark.parametrize("sizes", [(512,), (96, 64)])
    def test_matches_series(self, sizes):
        # (96, 64) resolves t >= 8.2e-3 only; (512,) resolves every time here.
        g = PeriodicGrid(sizes)
        resolved = [t for t in self.TIMES if sum(2 * math.exp(-n * n * t) for n in sizes) <= 1e-14]
        assert len(resolved) == (len(self.TIMES) if sizes == (512,) else 18)
        for t in resolved:
            p = ThetaParams.from_time(t)
            factors = [theta3_series(g.axis_points(a), p) / (2 * np.pi)
                       for a in range(g.dims)]
            ref = factors[0] if g.dims == 1 else np.multiply.outer(*factors)
            vals = kernel(t, g).values.real
            assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(ref)

    def test_small_time_on_fine_line(self, monkeypatch):
        # At t = 1e-3 the image route runs no cosine pass, and each image
        # exponentiates only the samples within sqrt(4t _EXP_ZERO) = 1.73
        # of its centre (about 55 % of the line for both images together);
        # its values are nonnegative without a clamp.
        cos_calls, exp_elements = [], []

        def counting_cos(*args, **kwargs):
            cos_calls.append(1)
            return original_cos(*args, **kwargs)

        def counting_exp(x, *args, **kwargs):
            exp_elements.append(np.size(x))
            return original_exp(x, *args, **kwargs)

        original_cos, original_exp = np.cos, np.exp
        monkeypatch.setattr(np, "cos", counting_cos)
        monkeypatch.setattr(np, "exp", counting_exp)
        g = PeriodicGrid.line(65536)
        vals = kernel(1e-3, g).values.real
        monkeypatch.undo()
        assert not cos_calls
        assert len(exp_elements) == 2 * _image_terms(1e-3, 1e-14)
        assert sum(exp_elements) < 65536
        exact = _image_sum(g.points, 1e-3) / (2 * np.pi)
        assert np.max(np.abs(vals - exact)) <= 1e-14 * np.max(exact)
        assert float(np.min(vals)) >= 0.0
        assert kernel(1e-3, g).integral() == pytest.approx(1.0, abs=1e-13)


def _named_time(error):
    return float(re.search(r"needs t >= (\S+)$", str(error)).group(1))


class TestAliasExcess:
    """kernel refuses exactly where the alias excess sum_axes 2 exp(-N^2 t) passes tol."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 2048).map(lambda half: 2 * half), st.floats(1e-4, 2.0))
    def test_sampled_mass_is_theta3_at_the_aliased_nome(self, n, t):
        # Poisson summation: (1/N) sum_j theta3(x_j, exp(-t)) = theta3(0, exp(-N^2 t)).
        g = PeriodicGrid.line(n)
        aliased = theta3_series(0.0, ThetaParams(math.exp(-n * n * t)))
        for samples in (_theta3_images(g.points, t, 1e-14),
                        theta3_series(g.points, ThetaParams.from_time(t))):
            assert float(np.mean(samples)) == pytest.approx(aliased, rel=1e-12)
        if 2 * math.exp(-n * n * t) <= 1e-14:
            assert kernel(t, g).integral() == pytest.approx(aliased, rel=1e-12)
        else:
            with pytest.raises(ValueError, match="does not resolve the heat kernel"):
                kernel(t, g)

    @pytest.mark.parametrize("sizes", [(4,), (8,), (64,), (4096,), (64, 64), (96, 64),
                                       (4, 6, 8)])
    @pytest.mark.parametrize("tol", [1e-14, 1e-8])
    def test_boundary_follows_the_excess(self, sizes, tol):
        g = PeriodicGrid(sizes)
        with pytest.raises(ValueError, match=fr"grid \({', '.join(map(str, sizes))},?\)") as info:
            kernel(1e-6, g, tol)
        named = _named_time(info.value)
        least = math.log(2 * len(sizes) / tol) / min(sizes) ** 2  # exact for equal sizes
        assert least <= named <= least * 1.01
        digit = 10.0 ** (math.floor(math.log10(named)) - 2)
        for t in (named, named - digit, least * (1 + 1e-9), least * (1 - 1e-9)):
            if sum(2 * math.exp(-n * n * t) for n in sizes) <= tol:
                # The alias excess, plus at most tol from truncating the form.
                assert kernel(t, g, tol).integral() == pytest.approx(1.0, abs=max(2 * tol, 1e-13))
            else:
                with pytest.raises(ValueError, match="does not resolve"):
                    kernel(t, g, tol)
        if len(set(sizes)) == 1:  # the named time is the least one, to three digits
            with pytest.raises(ValueError):
                kernel(named - digit, g, tol)

    def test_subnormal_tol_still_names_a_time(self):
        # 2 / tol overflows to inf at tol = 5e-324; its logarithm does not.
        with pytest.raises(ValueError, match=r"needs t >= 11.7$"):
            kernel(1e-3, PeriodicGrid.line(8), tol=5e-324)


class TestNonFiniteAngle:
    @pytest.mark.parametrize("x", NON_FINITE)
    @pytest.mark.parametrize("form", [
        lambda x: theta3_series(x, ThetaParams(0.5)),
        lambda x: theta3_product(x, ThetaParams(0.5)),
        lambda x: _theta3_images(x, 1.0, 1e-14),
    ], ids=["series", "product", "images"])
    def test_refused_by_every_form(self, form, x):
        with pytest.raises(ValueError, match="angle must be finite"):
            form(np.array([0.0, x, 1.0]))
        with pytest.raises(ValueError, match="angle must be finite"):
            form(x)


# ------------------------------------------------------------ ground truth

GROUND_NOMES = [0.1, 0.5, 0.9, 0.99, 0.999]
EPS = np.finfo(float).eps


@functools.cache
def _jtheta(q, name):
    """mpmath.jtheta(3, x/2, q), 30 digits, on ANGLES[name] reduced as the forms reduce it."""
    xr = _reduce_angle(np.asarray(ANGLES[name], dtype=float))
    with mpmath.workdps(30):
        vals = [float(mpmath.jtheta(3, mpmath.mpf(a) / 2, q)) for a in xr.ravel().tolist()]
    return np.array(vals).reshape(xr.shape)


def _jtheta_peak(q):
    with mpmath.workdps(30):
        return float(mpmath.jtheta(3, 0, q))


def _cancellation(q, factors):
    """sum_n ((1 + b) / (1 - b))^2 over the factors, b = q^(2n-1): the most a
    factor at cos x < 0 can amplify its own rounding, summed."""
    b = q ** (2.0 * np.arange(1, factors + 1) - 1.0)
    return float(np.sum(((1.0 + b) / (1.0 - b)) ** 2))


class TestGroundTruth:
    """The forms and the kernel against mpmath.jtheta(3, x/2, q) at 30 digits.

    The forms evaluate theta3 at the angle reduced mod the float 2pi, so
    that is where the reference is taken. Bounds, derived a priori, with
    eps = 2^-52 and theta3(0, q) the sup of theta3 over the circle:

    - reference: jtheta sums the same cosine series, whose terms reach
      theta3(0, q) in size, so its 30 digits are absolute, within
      1e-30 theta3(0, q), and relative only where theta3 is not far
      below its peak.
    - series, T terms: the tail left out is at most tol / (1 - q). cos x
      and sin x are within an ulp, each complex multiply adds at most
      sqrt(5) eps / 2 relative (Brent, Percival and Zimmermann, Math.
      Comp. 76, 2007), so z^n is within about 3 n eps of e^(inx); scaling
      each term and summing T + 1 of them add a few eps times
      sum |terms| <= theta3(0, q). Together: tol / (1 - q) + 8 T eps
      theta3(0, q).
    - product, F factors: the tail left out is a relative tol. A factor
      at cos x >= 0 adds no two terms of opposite sign, so it rounds to a
      few eps relative (its Euler part 1 - q^(2n) cancels too, by
      q^(2n) / (1 - q^(2n)), which summed over n stays below F); at
      cos x < 0 factor n cancels by up to ((1 + b) / (1 - b))^2, b =
      q^(2n-1), the most it can amplify its own rounding. Together:
      tol + 8 K eps relative, with K = F at cos x >= 0 and K the sum of
      those ratios at cos x < 0.
    - kernel, P passes (series terms, or 2K images with K from
      _image_terms): the series bound above, or for the image route its
      truncation tol and a few eps of sqrt(pi/t) <= theta3(0, q) per
      image, since an exp's relative error grows with its argument a as
      a eps while its value falls as exp(-a). Both fit (tol / (1 - q) +
      8 P eps theta3(0, q)) / 2pi, at the node x_min(j, N-j) the kernel
      samples at index j.
    """

    @pytest.mark.parametrize("q", GROUND_NOMES)
    def test_series(self, q):
        p = ThetaParams(q)
        peak = _jtheta_peak(q)
        bound = p.tol / (1.0 - q) + 8 * _series_terms(q, p.tol) * EPS * peak + 1e-30 * peak
        for name, x in ANGLES.items():
            assert np.all(np.abs(theta3_series(x, p) - _jtheta(q, name)) <= bound), name

    @pytest.mark.parametrize("q", GROUND_NOMES)
    def test_product(self, q):
        p = ThetaParams(q)
        factors = _product_factors(q, p.tol)
        floor = 1e-30 * _jtheta_peak(q)
        for name, x in ANGLES.items():
            ref = _jtheta(q, name)
            cancel = np.where(np.cos(_reduce_angle(np.asarray(x, dtype=float))) >= 0.0,
                              factors, _cancellation(q, factors))
            bound = (p.tol + 8 * cancel * EPS) * ref + floor
            assert np.all(np.abs(theta3_product(x, p) - ref) <= bound), name

    @pytest.mark.parametrize("q", GROUND_NOMES)
    def test_kernel(self, q):
        t = -math.log(q)
        p = ThetaParams.from_time(t)  # its nome is q to an ulp; the reference takes it as it is
        g = PeriodicGrid.line(ANGLES["grid"].size)
        assert np.array_equal(g.points, ANGLES["grid"])
        images = 2 * _image_terms(t, p.tol)
        passes = min(images, _series_terms(p.q, p.tol))
        peak = _jtheta_peak(p.q)
        bound = (p.tol / (1.0 - p.q) + 8 * passes * EPS * peak + 1e-30 * peak) / (2 * np.pi)
        j = np.arange(g.sizes[0])
        ref = _jtheta(p.q, "grid")[np.minimum(j, g.sizes[0] - j)] / (2 * np.pi)
        assert np.all(np.abs(kernel(t, g).values.real - ref) <= bound)

    def test_nomes_span_both_kernel_routes(self):
        routes = {2 * _image_terms(-math.log(q), 1e-14) < _series_terms(q, 1e-14)
                  for q in GROUND_NOMES}
        assert routes == {True, False}


class TestKernelEvenness:
    """x_(N-j) takes the value sampled at x_j: the sampled kernel is even, bit for bit."""

    TIMES = [float(t) for t in np.geomspace(1e-4, 3.0, 9)] + [1.0]

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 16, 96, 256, 4096, 65536])
    def test_lines(self, n):
        g = PeriodicGrid.line(n)
        times = [t for t in self.TIMES if 2 * math.exp(-n * n * t) <= 1e-14]
        assert times
        for t in times:
            v = kernel(t, g).values
            assert np.all(v[1:] == v[:0:-1]), t

    def test_lines_take_both_routes(self):
        routes = {2 * _image_terms(t, 1e-14) < _series_terms(math.exp(-t), 1e-14)
                  for t in self.TIMES}
        assert routes == {True, False}

    @pytest.mark.parametrize("sizes", [(96, 64), (256, 256)])
    def test_planes(self, sizes):
        g = PeriodicGrid(sizes)
        for t in (8.2e-3, 0.05, 0.3, 1.0, 2.6):  # both routes
            v = kernel(t, g).values
            assert np.all(v[1:, :] == v[:0:-1, :]), t
            assert np.all(v[:, 1:] == v[:, :0:-1]), t


_ANGLE = st.one_of(st.floats(-1e308, 1e308), st.sampled_from([-0.0, np.nextafter(2 * np.pi, 0.0)]))


def _finite_nonnegative_or_refused(evaluate):
    """evaluate() under warnings-as-errors: a finite result >= 0 with no nan, or a named refusal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            v = np.asarray(evaluate())
        except (ValueError, RuntimeError) as refusal:
            assert str(refusal)
            return
    assert np.all(np.isfinite(v)) and np.all(v >= 0.0)


class TestExtremeInputs:
    """No input gives a warning, a nan or a negative value: only a result or a named refusal."""

    @settings(max_examples=120, deadline=None)
    @given(st.floats(0.0, 0.99), st.one_of(_ANGLE, st.lists(_ANGLE, max_size=16)))
    def test_forms(self, q, x):
        # At q <= 0.99 both forms stay within 2 000 terms or factors (1 853 at 0.99).
        p = ThetaParams(q)
        assert _series_terms(q, p.tol) <= 2000 and (q == 0.0 or _product_factors(q, p.tol) <= 2000)
        _finite_nonnegative_or_refused(lambda: theta3_series(x, p))
        _finite_nonnegative_or_refused(lambda: theta3_product(x, p))

    @settings(max_examples=120, deadline=None)
    @given(st.floats(1e-6, 1e300), st.integers(2, 2048).map(lambda half: 2 * half))
    def test_kernel(self, t, n):
        _finite_nonnegative_or_refused(lambda: kernel(t, PeriodicGrid.line(n)).values)
