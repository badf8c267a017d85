import itertools
import json
import math

import numpy as np
import pytest

from thetaflow import checks
from thetaflow.checks import EVOLVE_TIMES, random_bandlimited, random_nonnegative, run_suite
from thetaflow.fourier import PeriodicGrid, _place_modes, analyze, circular_convolve
from thetaflow.semigroups import theta_evolve
from thetaflow.theta import kernel

# Halfwidths and grids of the placement tests; the last three alias (2 hw + 1 > N).
PLACEMENTS = [(8, (64,)), (4, (8, 6)), (8, (4,)), (8, (6,)), (4, (4, 8))]


def _loop_place(cube, sizes):
    """Reference spectrum placement: one mode at a time in lexicographic order."""
    hw = cube.shape[0] // 2
    spec = np.zeros(sizes, dtype=complex)
    for modes in itertools.product(range(-hw, hw + 1), repeat=len(sizes)):
        spec[tuple(m % n for m, n in zip(modes, sizes))] = cube[tuple(m + hw for m in modes)]
    return spec


class TestRandomData:
    def test_bandlimited_is_real_and_limited(self):
        g = PeriodicGrid.line(64)
        f = random_bandlimited(g, 5, np.random.default_rng(0))
        assert f.kind == "real"
        c = analyze(f)
        outside = [abs(c[n]) for n in range(6, c.halfwidth + 1)]
        assert max(outside) < 1e-14

    def test_bandlimited_2d(self):
        g = PeriodicGrid((16, 16))
        f = random_bandlimited(g, 3, np.random.default_rng(1))
        assert f.values.shape == (16, 16)
        assert float(np.max(np.abs(f.values.imag))) < 1e-12

    def test_nonnegative(self):
        g = PeriodicGrid.line(64)
        f = random_nonnegative(g, 5, np.random.default_rng(2))
        assert float(np.min(f.values.real)) >= 0.0

    @pytest.mark.parametrize("hw, sizes", PLACEMENTS)
    def test_mode_placement_matches_the_loop(self, hw, sizes):
        rng = np.random.default_rng(3)
        shape = (2 * hw + 1,) * len(sizes)
        cube = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(_place_modes(cube, sizes), _loop_place(cube, sizes))

    @pytest.mark.parametrize("hw, sizes", PLACEMENTS)
    def test_nonnegative_draws_re_then_im_mode_by_mode(self, hw, sizes):
        grid = PeriodicGrid(sizes)
        rng = np.random.default_rng(5)
        shape = (2 * hw + 1,) * len(sizes)
        draws = [rng.normal() + 1j * rng.normal() for _ in range(math.prod(shape))]
        p = np.fft.ifftn(_loop_place(np.reshape(draws, shape), sizes)) * grid.npoints
        f = random_nonnegative(grid, hw, np.random.default_rng(5))
        assert np.array_equal(f.values, np.abs(p) ** 2)

    @pytest.mark.parametrize("sizes, hw, axis", [((8, 6, 4), 3, 4), ((64,), 32, 64),
                                                 ((16, 12), 6, 12)])
    def test_bandlimited_refuses_an_aliasing_halfwidth_before_any_draw(self, sizes, hw, axis):
        # (8, 6, 4) with halfwidth 3 used to fail as "kind='real' but max imaginary part ...".
        rng = np.random.default_rng(8)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"aliasing: axis size {axis} cannot hold "
                                             rf"halfwidth {hw} \(needs at least {2 * hw + 2}\)"):
            random_bandlimited(PeriodicGrid(sizes), hw, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("draw", [random_bandlimited, random_nonnegative])
    @pytest.mark.parametrize("hw, message", [(-1, "halfwidth must be >= 0"),
                                             (2.5, "halfwidth must be an integer"),
                                             (2.0, "halfwidth must be an integer")])
    def test_halfwidth_is_a_nonnegative_integer(self, draw, hw, message):
        # -1 failed inside numpy, and 2.5 and 2.0 with a TypeError.
        with pytest.raises(ValueError, match=message):
            draw(PeriodicGrid.line(16), hw, np.random.default_rng(0))

    def test_bandlimited_takes_the_least_unaliased_grid(self):
        f = random_bandlimited(PeriodicGrid((8, 6, 4)), 1, np.random.default_rng(8))
        assert f.kind == "real" and f.values.shape == (8, 6, 4)

    def test_seeded_reproducibility(self):
        g = PeriodicGrid.line(32)
        a = random_bandlimited(g, 4, np.random.default_rng(7))
        b = random_bandlimited(g, 4, np.random.default_rng(7))
        assert np.array_equal(a.values, b.values)


class TestSuites:
    def test_thm1_all_pass(self):
        report = run_suite("thm1", n=256, seed=42)
        failing = [r.name for r in report.records if not r.passed]
        assert report.all_pass, f"failing records: {failing}"
        assert len(report.records) >= 7

    def test_thm2_all_pass(self):
        report = run_suite("thm2", n=64, seed=42)
        failing = [r.name for r in report.records if not r.passed]
        assert report.all_pass, f"failing records: {failing}"
        names = {r.name for r in report.records}
        assert "poisson_sqrt2_decay" in names

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="suite"):
            run_suite("thm9")

    @pytest.mark.parametrize("suite", ["thm1", "thm2"])
    def test_zero_grid_size_is_refused(self, suite):
        with pytest.raises(ValueError, match="underresolved"):
            run_suite(suite, n=0)

    @pytest.mark.parametrize("suite, n, data_minimum", [("thm1", 8, 18), ("thm1", 16, 18),
                                                        ("thm2", 8, 10)])
    def test_grid_too_small_for_the_data_is_refused(self, suite, n, data_minimum):
        # The data needs 2 hw + 2 points; the kernels' alias excess needs 22.
        with pytest.raises(ValueError,
                           match=fr"needs n >= 22 \({data_minimum} for its random data.*got {n}$"):
            run_suite(suite, n=n)

    @pytest.mark.parametrize("suite", ["thm1", "thm2"])
    def test_grid_too_coarse_for_the_kernels_is_refused(self, suite):
        # At n = 20 the Chapman-Kolmogorov residual reached 2.6e-9 (thm1) and 3.3e-9 (thm2).
        with pytest.raises(ValueError, match=r"needs n >= 22 .*22 for the alias excess of "
                           r"its kernels at st/\(s \+ t\) = 0.05 to stay within 1e-10\), got 20"):
            run_suite(suite, n=20)

    @pytest.mark.parametrize("suite, n", [("thm1", 22), ("thm2", 22)])
    def test_smallest_grid_runs(self, suite, n):
        report = run_suite(suite, n=n)
        assert report.environment["n"] == n and report.all_pass

    def test_report_serialization_is_deterministic(self):
        a = run_suite("thm1", n=64, seed=1)
        b = run_suite("thm1", n=64, seed=1)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_record_fields(self):
        report = run_suite("thm1", n=64, seed=3)
        d = report.to_dict()
        assert d["suite"] == "thm1"
        assert d["environment"]["n"] == 64
        for rec in d["records"]:
            assert set(rec) == {"name", "detail", "max_error", "tolerance", "pass"}
            assert rec["pass"] == (rec["max_error"] <= rec["tolerance"])


class TestRecordsSampleEachTimeOnce:
    """The semigroup and Chapman-Kolmogorov records reuse the flows and kernels they repeat."""

    @pytest.mark.parametrize("sizes", [(64,), (22, 22)])
    def test_same_errors_from_fewer_calls(self, sizes, monkeypatch):
        grid = PeriodicGrid(sizes)
        f = random_bandlimited(grid, 4, np.random.default_rng(5))
        twice = max(float(np.max(np.abs(theta_evolve(theta_evolve(f, t2), t1).values
                                        - theta_evolve(f, t1 + t2).values)))
                    for t1, t2 in itertools.product(EVOLVE_TIMES, repeat=2))
        ck = max(float(np.max(np.abs(circular_convolve(kernel(s, grid), kernel(t, grid)).values
                                     - kernel(s + t, grid).values)))
                 for s, t in itertools.combinations_with_replacement(EVOLVE_TIMES, 2))
        calls = {"theta_evolve": 0, "kernel": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(checks, "theta_evolve", counted("theta_evolve", theta_evolve))
        monkeypatch.setattr(checks, "kernel", counted("kernel", kernel))
        assert checks._record_semigroup(f).max_error == twice
        assert checks._record_chapman_kolmogorov(grid).max_error == ck
        assert calls == {"theta_evolve": 21, "kernel": 9}  # 27 and 18 without reuse


class TestSqrt2DecayIsSubordinated:
    """thm2's poisson_sqrt2_decay record measures the subordinated flow, as its detail says."""

    def test_record_goes_through_subordinate(self, monkeypatch):
        calls = []

        def heat_instead(f, t):
            calls.append(t)
            return theta_evolve(f, t)  # damps cos(x1)cos(x2) by exp(-2t), not exp(-t sqrt 2)

        monkeypatch.setattr(checks, "subordinate", heat_instead)
        record = checks._record_sqrt2_decay(PeriodicGrid((22, 22)))
        assert calls == list(checks.SQRT2_TIMES)
        assert not record.passed
