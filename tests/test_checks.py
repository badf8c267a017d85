import json

import numpy as np
import pytest

from thetaflow.checks import random_bandlimited, random_nonnegative, run_suite
from thetaflow.fourier import PeriodicGrid, analyze


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
