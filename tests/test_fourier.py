import numpy as np
import pytest

from thetaflow.fourier import (
    CoefficientSequence,
    PeriodicGrid,
    SampledFunction,
    analyze,
    circular_convolve,
    synthesize,
)
from thetaflow.io import load_function, save_function
from thetaflow.theta import kernel


def analyze_direct(f):
    """O(N^2) reference transform on a 1-d grid, the oracle for analyze."""
    n = f.grid.sizes[0]
    hw = n // 2 - 1
    modes = np.arange(-hw, hw + 1)
    return CoefficientSequence(hw, np.exp(-1j * np.outer(modes, f.grid.points)) @ f.values / n)


def convolve_direct(f, g):
    """O(N^2) direct-sum convolution on a 1-d grid, the oracle for circular_convolve."""
    n = f.grid.sizes[0]
    fv, gv = f.values, g.values
    out = np.array([sum(fv[k] * gv[(j - k) % n] for k in range(n)) for j in range(n)])
    return SampledFunction(f.grid, out * f.grid.spacing(), kind="complex")


def _random_real(grid, halfwidth, seed):
    rng = np.random.default_rng(seed)
    x = grid.points
    vals = np.zeros_like(x)
    for n in range(1, halfwidth + 1):
        a, b = rng.normal(), rng.normal()
        vals += a * np.cos(n * x) + b * np.sin(n * x)
    vals += rng.normal()
    return SampledFunction(grid, vals.astype(complex), kind="real")


class TestPeriodicGrid:
    def test_basic_layout(self):
        g = PeriodicGrid.line(8)
        assert g.dims == 1 and g.npoints == 8
        assert g.spacing() == pytest.approx(2 * np.pi / 8)
        assert np.allclose(g.points, 2 * np.pi * np.arange(8) / 8)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError, match="underresolved"):
            PeriodicGrid.line(2)

    def test_rejects_odd_size(self):
        with pytest.raises(ValueError, match="even"):
            PeriodicGrid((7,))

    @pytest.mark.parametrize("size", [6.7, "8", 8.0])
    def test_non_integral_size_refused(self, size):
        with pytest.raises(ValueError, match="integer"):
            PeriodicGrid((size,))

    def test_numpy_integer_sizes_accepted(self):
        g = PeriodicGrid((np.int64(8), np.int32(6)))
        assert g.sizes == (8, 6) and all(type(n) is int for n in g.sizes)

    def test_frequencies_are_integers(self):
        g = PeriodicGrid.line(8)
        assert set(g.frequencies()) == {0, 1, 2, 3, -4, -3, -2, -1}

    def test_multidim_cell_volume(self):
        g = PeriodicGrid((8, 16))
        assert g.cell_volume == pytest.approx((2 * np.pi / 8) * (2 * np.pi / 16))


class TestSampledFunction:
    def test_real_kind_rejects_large_imag(self):
        g = PeriodicGrid.line(8)
        with pytest.raises(ValueError, match="imaginary"):
            SampledFunction(g, np.full(8, 1.0 + 0.1j), kind="real")

    def test_real_kind_tolerance_is_shared_with_csv_loading(self, tmp_path):
        # SampledFunction accepts kind='real' exactly where load_function
        # infers it: max |im| <= 1e-9 * max(1, max |re|).
        g = PeriodicGrid.line(8)
        path = tmp_path / "f.csv"
        edge = 1e-9 * 3.0
        for im, real in ((edge, True), (np.nextafter(edge, 1.0), False)):
            vals = np.full(8, 3.0) + 1j * im
            save_function(SampledFunction(g, vals), path)
            assert (load_function(path).kind == "real") is real
            if real:
                SampledFunction(g, vals, kind="real")
            else:
                with pytest.raises(ValueError, match="imaginary part"):
                    SampledFunction(g, vals, kind="real")

    def test_values_are_frozen(self):
        g = PeriodicGrid.line(8)
        f = SampledFunction.constant(g, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_real_kind_is_stored_as_float64(self):
        g = PeriodicGrid.line(8)
        for vals in (np.arange(8), np.linspace(0, 1, 8), np.full(8, 2.0 + 1e-12j)):
            f = SampledFunction(g, vals, kind="real")
            assert f.values.dtype == np.float64 and not f.values.flags.writeable
            assert np.array_equal(f.values, np.real(vals))
        assert SampledFunction.from_callable(g, np.cos).values.dtype == np.float64
        assert SampledFunction.constant(g, 1.0).values.dtype == np.float64

    def test_complex_kind_is_stored_as_complex128(self):
        g = PeriodicGrid.line(8)
        for vals in (np.arange(8), np.full(8, 1.0 + 0.5j, dtype=np.complex64)):
            assert SampledFunction(g, vals).values.dtype == np.complex128
        assert SampledFunction.constant(g, 1j).values.dtype == np.complex128

    def test_mean_and_integral_follow_the_kind(self):
        g = PeriodicGrid.line(8)
        real = SampledFunction.constant(g, 2.0)
        assert type(real.mean()) is float and type(real.integral()) is float
        assert real.integral() == pytest.approx(4 * np.pi)
        cplx = SampledFunction.constant(g, 2.0 + 1j)
        assert type(cplx.mean()) is complex and cplx.mean() == 2.0 + 1j

    def test_shape_mismatch(self):
        g = PeriodicGrid.line(8)
        with pytest.raises(ValueError, match="shape"):
            SampledFunction(g, np.zeros(9, dtype=complex))


class TestAnalyze:
    def test_constant(self):
        g = PeriodicGrid.line(8)
        c = analyze(SampledFunction.constant(g, 1.0))
        assert c[0] == pytest.approx(1.0, abs=1e-15)
        assert all(abs(c[n]) < 1e-15 for n in range(1, c.halfwidth + 1))

    def test_single_mode(self):
        g = PeriodicGrid.line(16)
        f = SampledFunction.from_callable(g, lambda x: np.cos(2 * x))
        c = analyze(f)
        assert c[2] == pytest.approx(0.5, abs=1e-15)
        assert c[-2] == pytest.approx(0.5, abs=1e-15)
        others = [abs(c[n]) for n in range(-c.halfwidth, c.halfwidth + 1)
                  if abs(n) != 2]
        assert max(others) < 1e-15

    def test_theta_coefficients(self):
        # Oracle: the cosine-series definition, summed term by term.
        q = 0.5
        g = PeriodicGrid.line(64)
        x = g.points
        vals = np.ones_like(x)
        for n in range(1, 25):
            vals += 2.0 * q ** (n * n) * np.cos(n * x)
        f = SampledFunction(g, vals.astype(complex) / (2 * np.pi), kind="real")
        c = analyze(f)
        for n in range(-10, 11):
            assert c[n] == pytest.approx(q ** (n * n) / (2 * np.pi), rel=1e-12)

    def test_matches_direct_transform(self):
        g = PeriodicGrid.line(32)
        f = _random_real(g, 10, seed=7)
        fast, slow = analyze(f), analyze_direct(f)
        assert np.allclose(fast.coeffs, slow.coeffs, atol=1e-13)

    def test_conjugate_symmetry_of_real_input(self):
        g = PeriodicGrid.line(64)
        for seed in range(5):
            c = analyze(_random_real(g, 20, seed=seed))
            scale = np.max(np.abs(c.coeffs))
            assert c.conjugate_symmetry_defect() <= 1e-13 * scale

    def test_parseval(self):
        g = PeriodicGrid.line(128)
        f = _random_real(g, 30, seed=3)
        c = analyze(f)
        lhs = np.sum(np.abs(c.coeffs) ** 2)
        rhs = np.sum(np.abs(f.values) ** 2) / g.npoints
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_nyquist_warning(self):
        g = PeriodicGrid.line(8)
        f = SampledFunction.from_callable(g, lambda x: np.cos(4 * x))
        with pytest.warns(UserWarning, match="Nyquist"):
            analyze(f)

    def test_rejects_multidim(self):
        g = PeriodicGrid((8, 8))
        f = SampledFunction.constant(g, 1.0)
        with pytest.raises(ValueError, match="1-d"):
            analyze(f)


class TestSynthesize:
    def test_constant(self):
        g = PeriodicGrid.line(8)
        f = synthesize(CoefficientSequence.from_dict({0: 1.0}), g)
        assert np.allclose(f.values, 1.0, atol=1e-15)
        assert f.kind == "real"

    def test_cosine(self):
        g = PeriodicGrid.line(16)
        f = synthesize(CoefficientSequence.from_dict({1: 0.5, -1: 0.5}), g)
        assert np.allclose(f.values.real, np.cos(g.points), atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        hw = 7
        coeffs = rng.normal(size=2 * hw + 1) + 1j * rng.normal(size=2 * hw + 1)
        c = CoefficientSequence(hw, coeffs)
        back = analyze(synthesize(c, PeriodicGrid.line(32)))
        for n in range(-hw, hw + 1):
            assert back[n] == pytest.approx(c[n], rel=1e-12)

    def test_aliasing_rejected(self):
        c = CoefficientSequence(10, np.ones(21, dtype=complex))
        with pytest.raises(ValueError, match="aliasing"):
            synthesize(c, PeriodicGrid.line(16))


class TestCircularConvolve:
    def test_delta_identity(self):
        g = PeriodicGrid.line(32)
        f = _random_real(g, 10, seed=5)
        delta = np.zeros(32)
        delta[0] = 1.0 / g.spacing()
        d = SampledFunction(g, delta.astype(complex), kind="real")
        out = circular_convolve(f, d)
        assert np.allclose(out.values, f.values, atol=1e-12)

    def test_delta_shift(self):
        g = PeriodicGrid.line(32)
        f = _random_real(g, 10, seed=6)
        delta = np.zeros(32)
        delta[3] = 1.0 / g.spacing()
        d = SampledFunction(g, delta.astype(complex), kind="real")
        out = circular_convolve(f, d)
        assert np.allclose(out.values, np.roll(f.values, 3), atol=1e-12)

    def test_theta_kernel_eigenfunction(self):
        t = 0.7
        g = PeriodicGrid.line(128)
        f = SampledFunction.from_callable(g, np.cos)
        out = circular_convolve(f, kernel(t, g))
        assert np.allclose(out.values.real, np.exp(-t) * np.cos(g.points), atol=1e-13)

    def test_matches_direct_sum(self):
        g = PeriodicGrid.line(64)
        f = _random_real(g, 20, seed=8)
        h = _random_real(g, 20, seed=9)
        fast, slow = circular_convolve(f, h), convolve_direct(f, h)
        assert np.max(np.abs(fast.values - slow.values)) < 1e-10

    @pytest.mark.parametrize("n_points", [64, 512])
    def test_coefficientwise_product(self, n_points):
        g = PeriodicGrid.line(n_points)
        f = _random_real(g, 12, seed=10)
        h = _random_real(g, 12, seed=12)
        cf, ch = analyze(f), analyze(h)
        conv = analyze(circular_convolve(f, h))
        for n in range(-conv.halfwidth, conv.halfwidth + 1):
            assert conv[n] == pytest.approx(2 * np.pi * cf[n] * ch[n], abs=1e-10)

    def test_grid_mismatch(self):
        f = SampledFunction.constant(PeriodicGrid.line(16), 1.0)
        h = SampledFunction.constant(PeriodicGrid.line(32), 1.0)
        with pytest.raises(ValueError, match="mismatch"):
            circular_convolve(f, h)


class TestCoefficientSequence:
    def test_rule_extends_window(self):
        c = CoefficientSequence.from_rule(3, lambda n: 2.0 ** -abs(n))
        assert c[2] == pytest.approx(0.25)
        assert c[5] == pytest.approx(2.0**-5)

    def test_no_rule_gives_zero_outside(self):
        c = CoefficientSequence.from_dict({0: 1.0})
        assert c[3] == 0.0

    def test_length_validation(self):
        with pytest.raises(ValueError, match="coefficients"):
            CoefficientSequence(2, np.ones(4, dtype=complex))

    def test_non_integral_halfwidth_refused(self):
        with pytest.raises(ValueError, match="integer"):
            CoefficientSequence(2.5, np.ones(6))

    def test_numpy_integer_halfwidth_accepted(self):
        c = CoefficientSequence(np.int64(2), np.ones(5))
        assert type(c.halfwidth) is int and list(c.indices()) == [-2, -1, 0, 1, 2]
