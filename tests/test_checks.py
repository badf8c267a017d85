import itertools
import json
import math

import numpy as np
import pytest

from thetaflow.checks import _place_modes, random_bandlimited, random_nonnegative, run_suite
from thetaflow.fourier import PeriodicGrid, analyze

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

    @pytest.mark.parametrize("suite, n, minimum", [("thm1", 8, 18), ("thm1", 16, 18),
                                                   ("thm2", 8, 10)])
    def test_grid_too_small_for_the_data_is_refused(self, suite, n, minimum):
        with pytest.raises(ValueError, match=f"needs n >= {minimum} .*got {n}"):
            run_suite(suite, n=n)

    @pytest.mark.parametrize("suite, n", [("thm1", 18), ("thm2", 10)])
    def test_smallest_grid_runs(self, suite, n):
        assert run_suite(suite, n=n).environment["n"] == n

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
