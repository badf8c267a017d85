import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest

from thetaflow import fourier
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

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_constructor_and_with_values_copy_the_callers_array(self, kind):
        g = PeriodicGrid.line(8)
        a = np.arange(8.0) if kind == "real" else np.arange(8.0) + 1j
        f = SampledFunction(g, a, kind=kind)
        h = f.with_values(a)
        before = a.copy()
        a[:] = -5.0
        assert np.array_equal(f.values, before) and np.array_equal(h.values, before)

    def test_adopt_checks_kind_dtype_and_shape(self):
        g = PeriodicGrid.line(8)
        a = np.zeros(8)
        f = SampledFunction._adopt(g, a, "real")
        assert f.values is a and not a.flags.writeable and f.kind == "real"
        with pytest.raises(ValueError, match="kind"):
            SampledFunction._adopt(g, np.zeros(8), "Real")
        with pytest.raises(TypeError, match="adopt"):
            SampledFunction._adopt(g, np.zeros(8), "complex")
        with pytest.raises(TypeError, match="adopt"):
            SampledFunction._adopt(g, np.zeros(16)[::2], "real")
        with pytest.raises(ValueError, match="shape"):
            SampledFunction._adopt(g, np.zeros(9), "real")

    @pytest.mark.parametrize("p", [np.nan, -np.inf, -1.0, 0.0, 0.5])
    def test_norm_refuses_p_outside_one_to_inf(self, p):
        # nan gave nan, -inf the sup norm, -1 about 5.8e-17 and 0 a ZeroDivisionError.
        f = SampledFunction.from_callable(PeriodicGrid.line(8), np.cos)
        with pytest.raises(ValueError, match=f"p = {p}"):
            f.norm(p)

    def test_norm_at_the_ends_of_its_range(self):
        f = SampledFunction.constant(PeriodicGrid.line(8), -3.0)
        assert f.norm(1) == pytest.approx(6 * np.pi)
        assert f.norm(2) == pytest.approx(3 * np.sqrt(2 * np.pi))
        assert f.norm(np.inf) == 3.0


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

    def test_bool_halfwidth_refused(self):
        # True passed as halfwidth 1.
        with pytest.raises(ValueError, match="integer"):
            CoefficientSequence(True, np.ones(3))

    def test_numpy_integer_halfwidth_accepted(self):
        c = CoefficientSequence(np.int64(2), np.ones(5))
        assert type(c.halfwidth) is int and list(c.indices()) == [-2, -1, 0, 1, 2]

    @pytest.mark.parametrize("ns, first", [
        ([9.9, -3.2], "9.9"), ([3, 9.9], "9.9"), ([2.0], "2.0"), ([3, True], "True"),
        (np.array([False, True]), "False"), (np.array([[1, 2], [3, 4]]) / 2, "0.5"),
        (["3"], "'3'")])
    def test_non_integer_indices_are_refused_not_truncated(self, ns, first):
        for rule in (None, lambda n: 1.0):
            c = CoefficientSequence(3, np.arange(7.0), rule)
            with pytest.raises(ValueError, match=f"got {re.escape(first)}$"):
                c.values(ns)

    @pytest.mark.parametrize("ns", [[2**63], [-(2**63) - 1], [3, 2**64],
                                    np.array([2**63], dtype=np.uint64)])
    def test_indices_past_int64_overflow(self, ns):
        with pytest.raises(OverflowError):
            CoefficientSequence(3, np.arange(7.0), lambda n: 1.0).values(ns)

    def test_integer_indices_of_any_type_pass(self):
        c = CoefficientSequence(3, np.arange(7.0), lambda n: 0.5 ** abs(n))
        expected = c.values(np.array([-5, 0, 2]))
        for ns in ([-5, 0, 2], (-5, np.uint64(0), np.int8(2)), np.array([-5, 0, 2], np.int16),
                   np.array([[-5, 0, 2]], dtype=object)):
            assert c.values(ns).ravel().tobytes() == expected.tobytes()
        assert c.values([]).shape == (0,)


class CountingRule:
    """Opaque rule n -> 0.9^|n| e^(0.7 i n) that records each index it is asked; raises at fail_at."""

    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.asked = []

    def __call__(self, n):
        self.asked.append(n)
        if n == self.fail_at:
            raise ArithmeticError(f"no value at n = {n}")
        return 0.9 ** abs(n) * np.exp(0.7j * n)


def _kept_count(c):
    """How many indices of c's tail hold a kept value."""
    kept = vars(c)["_kept"].store.get("kept")
    return 0 if kept is None else int(kept[1].sum())


class TestKeptTail:
    """An opaque rule is asked once per index |n| <= 100 000; array rules are not kept."""

    def test_values_ask_only_new_indices_in_the_order_asked(self):
        rule = CountingRule()
        c = CoefficientSequence(2, np.zeros(5), rule)
        first = c.values([7, -3, 5, 1])
        assert rule.asked == [7, -3, 5]  # window indices never
        again = c.values([9, 5, -3, 8])
        assert rule.asked == [7, -3, 5, 9, 8]
        expected = np.array([0.9 ** abs(n) * np.exp(0.7j * n) for n in (7, -3, 5, 1)])
        expected[3] = 0.0
        assert first.tobytes() == expected.tobytes()
        assert again.tobytes() == c.values([9, 5, -3, 8]).tobytes()
        assert rule.asked == [7, -3, 5, 9, 8]

    @pytest.mark.parametrize("n", [0, 3, -3, 4, -99_999, 100_000, -100_001, 2**62])
    def test_value_reads_the_kept_values(self, n):
        rule = CountingRule()
        c = CoefficientSequence(3, np.arange(7.0), rule)
        assert c.value(n) == c.values([n])[0] == c[n]
        assert rule.asked.count(n) == (0 if abs(n) <= 3 else 1 if abs(n) <= 100_000 else 3)

    @pytest.mark.parametrize("n, error", [
        (7.5, ValueError), (-100_000.5, ValueError), (True, ValueError), (1.5, ValueError),
        (2**64, OverflowError), (-(2**64), OverflowError)])
    def test_value_item_and_values_refuse_alike(self, n, error):
        # value(n) once handed 7.5 to the rule, read c_1 for True and raised
        # numpy's IndexError for 1.5, which values([n]) refuses.
        rule = CountingRule()
        c = CoefficientSequence(3, np.arange(7.0), rule)
        for read in (c.value, c.__getitem__, lambda n: c.values([n])):
            with pytest.raises(error, match=None if error is OverflowError
                               else f"an index must be an integer, got {n!r}$"):
                read(n)
        assert rule.asked == [] and _kept_count(c) == 0

    def test_a_flag_set_while_the_values_are_read_is_not_taken(self):
        # A second thread keeps n = 5, its value then its flag, while this
        # read takes the values. The read took the flags after the values,
        # saw the flag and returned the placeholder it had read before.
        rule = CountingRule()
        c = CoefficientSequence(2, np.zeros(5), rule)
        slot, kept = 100_005, CountingRule()(5)
        flags = np.zeros(200_001, dtype=bool)

        class WrittenWhileRead(np.ndarray):
            def __getitem__(self, key):
                read = np.asarray(self)[key]
                np.asarray(self)[slot], flags[slot] = kept, True
                return read

        values = np.full(200_001, 123.0 + 0j).view(WrittenWhileRead)  # 123: never written
        vars(c)["_kept"].store["kept"] = (values, flags)
        assert c.values([5])[0] == kept
        assert rule.asked == [5]

    def test_a_rule_that_raises_leaves_nothing_kept(self):
        rule = CountingRule(fail_at=7)
        c = CoefficientSequence(2, np.zeros(5), rule)
        with pytest.raises(ArithmeticError, match="n = 7"):
            c.values(np.arange(3, 12))
        assert rule.asked == [3, 4, 5, 6, 7] and _kept_count(c) == 0
        with pytest.raises(ArithmeticError, match="n = 7"):
            c.values(np.arange(3, 12))
        assert rule.asked[5:] == [3, 4, 5, 6, 7] and _kept_count(c) == 0
        c.values(np.arange(3, 7))
        assert _kept_count(c) == 4

    def test_indices_past_100_000_are_not_kept(self):
        rule = CountingRule()
        c = CoefficientSequence(0, np.ones(1), rule)
        ns = [100_000, 100_001, -100_000, -100_001, -(2**63), 2**63 - 1]
        for _ in range(2):
            c.values(ns)
        assert rule.asked == ns + ns[1:2] + ns[3:]
        assert _kept_count(c) == 2
        # The tail alone: an index past the range is not read from the slot n = 0 would use.
        tail = vars(c)["_kept"]
        tail.values(np.array([0]))
        tail.values(np.array([0, 2**62]))
        tail.values(np.array([2**62]))
        assert rule.asked[-3:] == [0, 2**62, 2**62]

    def test_nothing_is_allocated_before_a_value_is_kept(self):
        c = CoefficientSequence(0, np.ones(1), CountingRule(fail_at=5))
        c.values([100_001, -(2**63)])
        with pytest.raises(ArithmeticError):
            c.values([4, 5])
        assert vars(c)["_kept"].store == {}
        c.values([4])
        values, flags = vars(c)["_kept"].store["kept"]
        assert values.shape == flags.shape == (200_001,) and flags.sum() == 1

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)),
        dataclasses.replace, lambda c: dataclasses.replace(c, halfwidth=1, coeffs=np.ones(3))])
    def test_copies_start_with_nothing_kept(self, duplicate):
        c = CoefficientSequence(1, np.ones(3), CountingRule())
        c.values(np.arange(-40, 41))
        d = duplicate(c)
        assert _kept_count(c) == 78 and _kept_count(d) == 0
        assert vars(d)["_kept"] is not vars(c)["_kept"]
        assert d.values([5]).tobytes() == c.values([5]).tobytes()
        assert _kept_count(d) == 1

    def test_array_rules_and_windows_keep_nothing(self):
        class ArrayRule:
            def __init__(self):
                self.calls = 0

            def __call__(self, n):
                return self.values(np.array([n]))[0]

            def values(self, ns):
                self.calls += 1
                return 0.5 ** np.abs(ns)

        rule = ArrayRule()
        c = CoefficientSequence(1, np.ones(3), rule)
        for _ in range(2):
            c.values(np.arange(2, 9))
        assert rule.calls == 2 and vars(c)["_kept"] is None
        assert vars(CoefficientSequence(1, np.ones(3)))["_kept"] is None


class TestKeptSpectrum:
    """_Spectrum keeps the kind-matching spectrum on the function, outside its fields."""

    @pytest.mark.parametrize("sizes", [(64, 48), (65536,), (256, 256)])
    @pytest.mark.parametrize("kinds", [("real", "real"), ("real", "complex"),
                                       ("complex", "real"), ("complex", "complex")])
    @pytest.mark.parametrize("kept", ["none", "f", "h", "both"])
    def test_convolution_bits_do_not_depend_on_what_is_kept(self, sizes, kinds, kept):
        # Past numpy's 256 KiB temporary-elision threshold, the * operator
        # on a kept f_hat and a fresh h_hat computes h_hat * f_hat, and
        # complex products round differently in the two orders.
        rng = np.random.default_rng(45)
        f, h = (SampledFunction(PeriodicGrid(sizes), rng.normal(size=sizes)
                                + (1j * rng.normal(size=sizes) if kind == "complex" else 0),
                                kind=kind) for kind in kinds)
        for x in {"none": (), "f": (f,), "h": (h,), "both": (f, h)}[kept]:
            fourier._Spectrum(x, x.kind == "real").spec
        real = kinds == ("real", "real")
        fwd = np.fft.rfftn if real else np.fft.fftn
        spec = np.multiply(fwd(f.values), fwd(h.values))
        if real:
            ref = np.fft.irfftn(spec, s=sizes, axes=tuple(range(len(sizes))))
        else:
            ref = np.fft.ifftn(spec)
        assert circular_convolve(f, h).values.tobytes() == (ref * f.grid.cell_volume).tobytes()

    def test_kept_spectrum_is_read_only(self):
        for f in (_random_real(PeriodicGrid.line(8), 2, seed=42),
                  SampledFunction(PeriodicGrid.line(8), np.exp(1j * np.arange(8)))):
            spec = fourier._Spectrum(f, f.kind == "real").spec
            assert fourier._Spectrum(f, f.kind == "real").spec is spec
            assert not spec.flags.writeable
            with pytest.raises(ValueError):
                spec[0] = 0.0

    @pytest.mark.parametrize("clone", [
        lambda f: f.with_values(f.values), dataclasses.replace, copy.copy, copy.deepcopy,
        lambda f: pickle.loads(pickle.dumps(f)),
    ], ids=["with_values", "replace", "copy", "deepcopy", "pickle"])
    def test_copies_start_without_a_spectrum(self, clone):
        # deepcopy and pickle used to give writable values; with a kept
        # spectrum beside them, a write would then flow stale data.
        f = _random_real(PeriodicGrid.line(16), 4, seed=46)
        fourier._Spectrum(f, True).spec
        assert "_spectrum" in vars(f)
        g = clone(f)
        assert "_spectrum" not in vars(g) and g.kind == f.kind and g.grid == f.grid
        assert g.values.tobytes() == f.values.tobytes() and not g.values.flags.writeable

    def test_fields_eq_and_repr_ignore_the_spectrum(self):
        f = _random_real(PeriodicGrid.line(16), 4, seed=44)
        before = repr(f)
        fourier._Spectrum(f, True).spec
        assert repr(f) == before
        assert [field.name for field in dataclasses.fields(f)] == ["grid", "values", "kind"]
        assert f == f
        assert f != SampledFunction.constant(PeriodicGrid.line(8), 1.0)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("kept", [False, True])
    def test_analyze_gives_the_bits_of_fft(self, kind, kept):
        # analyze reads _Spectrum's full fftn, which is kept for complex-kind f;
        # fft and fftn give the same bits in 1-d.
        rng = np.random.default_rng(47)
        vals = rng.normal(size=64) + (1j * rng.normal(size=64) if kind == "complex" else 0)
        f = SampledFunction(PeriodicGrid.line(64), vals, kind=kind)
        if kept:
            circular_convolve(f, f)
        spec = np.fft.fft(f.values) / 64
        expected = np.concatenate([spec[64 - 31:], spec[:32]])
        with pytest.warns(UserWarning, match="Nyquist"):  # white noise fills every mode
            coeffs = analyze(f).coeffs
        assert coeffs.tobytes() == expected.tobytes()
        assert ("_spectrum" in vars(f)) == (kept or kind == "complex")


class TestModeTable:
    @pytest.mark.parametrize("sizes", [(4,), (64,), (65536,), (4, 4), (64, 48), (8, 6, 4)])
    @pytest.mark.parametrize("half", [True, False])
    def test_index_is_the_identity_exactly_when_no_value_repeats(self, sizes, half):
        n2, index = fourier._mode_table(sizes, half)
        line_half = half and len(sizes) == 1
        assert (n2.size == index.size) == line_half
        if line_half:
            assert np.array_equal(index, np.arange(index.size))


class TestIdentityEquality:
    """Both value classes hold arrays: == and hash() are by identity and never raise."""

    def test_sampled_function(self):
        g = PeriodicGrid.line(8)
        f, h = SampledFunction.constant(g, 1.0), SampledFunction.constant(g, 1.0)
        assert f == f and not f == h and f != h  # == used to raise on the values array
        assert hash(f) == hash(f) and len({f, h}) == 2  # hash() used to raise TypeError

    def test_coefficient_sequence(self):
        c, d = CoefficientSequence(1, np.ones(3)), CoefficientSequence(1, np.ones(3))
        assert c == c and not c == d and c != d
        assert hash(c) == hash(c) and len({c, d}) == 2
