import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaflow.fourier import PeriodicGrid
from thetaflow.theta import (
    MIN_KERNEL_TIME,
    ThetaParams,
    _image_terms,
    _series_terms,
    kernel,
    theta3_bound,
    theta3_product,
    theta3_series,
)

NON_FINITE = [math.nan, math.inf, -math.inf]


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

    def test_rejects_time_below_cap(self):
        g = PeriodicGrid.line(64)
        with pytest.raises(ValueError, match="cap"):
            kernel(MIN_KERNEL_TIME / 2, g)

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


def _image_sum(x, t, images=range(-3, 5)):
    """Closed-form periodised Gaussian sqrt(pi/t) sum_k exp(-(x - 2pi k)^2 / 4t)."""
    return math.sqrt(math.pi / t) * sum(np.exp(-(x - 2 * np.pi * k) ** 2 / (4.0 * t))
                                        for k in images)


class TestKernelRoute:
    TIMES = np.geomspace(1e-3, 3.0, 25)

    def test_pass_counts(self):
        # Image passes 2K against series terms at tol = 1e-14.
        for t, images, terms in ((1e-3, 2, 181), (1e-2, 2, 57), (1.0, 4, 5), (1.5, 6, 4)):
            assert 2 * _image_terms(t, 1e-14) == images
            assert _series_terms(t, 1e-14) == terms

    def test_series_terms_match_the_series_loop(self):
        for t in self.TIMES:
            q, n = math.exp(-t), 1
            while 2.0 * q ** (n * n) >= 1e-14:
                n += 1
            assert _series_terms(t, 1e-14) == n - 1

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
        picks = {2 * _image_terms(t, 1e-14) < _series_terms(t, 1e-14) for t in self.TIMES}
        assert picks == {True, False}

    @pytest.mark.parametrize("sizes", [(512,), (96, 64)])
    def test_matches_series(self, sizes):
        g = PeriodicGrid(sizes)
        for t in self.TIMES:
            p = ThetaParams.from_time(t)
            factors = [theta3_series(g.axis_points(a), p) / (2 * np.pi)
                       for a in range(g.dims)]
            ref = factors[0] if g.dims == 1 else np.multiply.outer(*factors)
            vals = kernel(t, g).values.real
            assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(ref)

    def test_small_time_on_fine_line(self, monkeypatch):
        # At t = 1e-3 the image route runs no cosine pass; its values are
        # nonnegative without a clamp.
        cos_calls = []

        def counting_cos(*args, **kwargs):
            cos_calls.append(1)
            return original_cos(*args, **kwargs)

        original_cos = np.cos
        monkeypatch.setattr(np, "cos", counting_cos)
        g = PeriodicGrid.line(65536)
        vals = kernel(1e-3, g).values.real
        monkeypatch.undo()
        assert not cos_calls
        exact = _image_sum(g.points, 1e-3) / (2 * np.pi)
        assert np.max(np.abs(vals - exact)) <= 1e-14 * np.max(exact)
        assert float(np.min(vals)) >= 0.0
        assert kernel(1e-3, g).integral() == pytest.approx(1.0, abs=1e-13)
