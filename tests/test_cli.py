import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetaflow import fourier
from thetaflow import io as tio
from thetaflow.cli import main
from thetaflow.fourier import CoefficientSequence, PeriodicGrid, SampledFunction
from thetaflow.io import (
    load_coefficients,
    load_function,
    load_ultra,
    save_coefficients,
    save_function,
    save_ultra,
    ultra_from_dict,
    ultra_to_dict,
)
from thetaflow.theta import ThetaParams, theta3_series
from thetaflow.ultradist import GrowthClass, PowerRule, UltraDistribution


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(*args):
    """Run a fresh interpreter that imports thetaflow from the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _write_cos(path, n=128, k=1):
    g = PeriodicGrid.line(n)
    f = SampledFunction.from_callable(g, lambda x: np.cos(k * x))
    save_function(f, path)
    return f


def _cos_csv_lines(tmp_path, n=16):
    p = tmp_path / "cos.csv"
    _write_cos(p, n=n)
    return p.read_text().splitlines()


def _reference_save(f, path):
    """Reference writer: one csv row per grid point, repr of every cell."""
    d = f.grid.dims
    header = ["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]
    coords = [m.reshape(-1) for m in f.grid.meshgrid()]
    flat = f.values.reshape(-1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["re", "im"])
        for i in range(flat.size):
            row = [repr(float(c[i])) for c in coords]
            row += [repr(float(flat[i].real)), repr(float(flat[i].imag))]
            writer.writerow(row)


def _reference_load(path):
    """Reference reader: the csv row loop, float() of every cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("line 1: empty CSV file") from None
        d = tio._parse_header(header)
        rows, lines = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(f"line {lineno}: expected {d + 2} columns, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            lines.append(lineno)
    if not rows:
        raise ValueError("line 2: no data rows")
    table = np.asarray(rows)
    finite = np.isfinite(table)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(f"line {lines[i]}: non-finite value {float(table[i, j])!r}")
    grid = tio._reconstruct_grid(table[:, :d])
    vals = (table[:, d] + 1j * table[:, d + 1]).reshape(grid.sizes)
    return SampledFunction(grid, vals, kind="complex" if fourier._stray_imag(vals) else "real")


def _outcome(load, path):
    """(grid, kind, dtype, values) of a load, or the message it raises."""
    try:
        f = load(path)
    except ValueError as exc:
        return str(exc)
    return f.grid, f.kind, f.values.dtype, f.values


def _same_outcome(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a[:3] == b[:3] and np.array_equal(a[3], b[3])


# Edits of a valid 4-point CSV (rows on file lines 2-5) that the csv row
# loop and np.loadtxt may read differently; each must load alike or fail
# alike under the library reader and the reference row loop.
def _insert(at, text):
    return lambda lines: lines[:at] + [text] + lines[at:]


def _cell(row, col, text):
    def edit(lines):
        cols = lines[row].split(",")
        cols[col] = text
        return lines[:row] + [",".join(cols)] + lines[row + 1:]
    return edit


READER_EDITS = {
    "blank_line": _insert(3, ""),
    "whitespace_line": _insert(3, "   "),
    "whitespace_first": _insert(1, " "),
    "hash_line": _insert(3, "#"),
    "hash_comment": _cell(2, 2, "0.0 # c"),
    "quoted_field": _cell(2, 1, '"4.0"'),
    "underscore_digits": _cell(2, 1, "4_0"),
    "arabic_indic_digit": _cell(2, 1, "\u0664"),
    "padded_field": _cell(2, 1, " 4.0 "),
    "trailing_comma": lambda lines: lines[:2] + [lines[2] + ","] + lines[3:],
    "empty_field": _cell(2, 1, ""),
    "nan_after_blank": lambda lines: _cell(4, 1, "nan")(_insert(2, "")(lines)),
    "infinity": _cell(3, 1, "Infinity"),
    "hex": _cell(3, 1, "0x1p-2"),
    "header_only": lambda lines: lines[:1],
    "blank_body": lambda lines: lines[:1] + ["", ""],
    "whitespace_body": lambda lines: lines[:1] + ["", "  "],
}
READER_ENDINGS = {"crlf": ("\r\n", True), "lone_cr": ("\r", True),
                  "no_final_newline": ("\n", False)}
# Cell texts that float() and np.loadtxt may read differently, or not at all.
CELL_TEXTS = st.lists(st.sampled_from(list("0123456789.e-_\" ") + ["nan", "inf"]),
                      max_size=6).map("".join)


def _write_edited(path, edit, ending="crlf"):
    """The 4-point reference CSV at path, its lines changed by edit."""
    _reference_save(SampledFunction(PeriodicGrid.line(4), np.array([1.0, -2.5, 3.25, 0.5])), path)
    lines = edit(Path(path).read_text().splitlines())
    sep, final = READER_ENDINGS[ending]
    Path(path).write_bytes((sep.join(lines) + (sep if final else "")).encode())


class TestFunctionCsv:
    def test_round_trip_1d(self, tmp_path):
        g = PeriodicGrid.line(32)
        rng = np.random.default_rng(0)
        f = SampledFunction(g, rng.normal(size=32) + 1j * rng.normal(size=32))
        p = tmp_path / "f.csv"
        save_function(f, p)
        back = load_function(p)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_round_trip_2d_preserves_order(self, tmp_path):
        g = PeriodicGrid((8, 6))
        rng = np.random.default_rng(1)
        f = SampledFunction(g, rng.normal(size=(8, 6)).astype(complex), kind="real")
        p = tmp_path / "f2.csv"
        save_function(f, p)
        back = load_function(p)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)
        header = p.read_text().splitlines()[0]
        assert header == "x1,x2,re,im"

    def test_real_kind_survives(self, tmp_path):
        p = tmp_path / "c.csv"
        _write_cos(p)
        f = load_function(p)
        assert f.kind == "real"
        assert f.values.dtype == np.float64 and not f.values.flags.writeable

    def test_perturbed_node_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        _write_cos(p, n=16)
        lines = p.read_text().splitlines()
        cols = lines[3].split(",")
        cols[0] = repr(float(cols[0]) + 1e-3)
        lines[3] = ",".join(cols)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="spacing|lexicographic|non-uniform"):
            load_function(p)

    def test_bad_float_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,re,im\n0.0,1.0,0.0\nnot_a_number,1.0,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_function(p)

    def test_wrong_column_count_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,re,im\n0.0,1.0,0.0\n1.0,2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_function(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n0.0,1.0,0.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_function(p)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_value_reports_line(self, tmp_path, raw, column):
        p = tmp_path / "bad.csv"
        lines = _cos_csv_lines(tmp_path)
        cols = lines[3].split(",")
        cols[column] = raw
        lines[3] = ",".join(cols)
        lines.insert(2, "")  # a skipped blank line still counts
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 5: non-finite value {raw}"):
            load_function(p)

    @pytest.mark.parametrize("lines, lineno", [
        (['x,"{}",im', "0.0,1.0,0.0"], 1),
        (["x,re,im", '0.0,"{}",0.0'], 2),
        (["x,re,im", "0.0,1.0,0.0", '3.14,"{}",0.0'], 3),
    ])
    def test_over_long_field_reports_line(self, tmp_path, lines, lineno):
        # csv refuses a field over 131 072 characters, loadtxt a quoted one.
        p = tmp_path / "long.csv"
        p.write_text("\r\n".join(lines).format("1" * 200_001) + "\r\n")
        with pytest.raises(ValueError, match=f"^line {lineno}: field larger than field limit"):
            load_function(p)

    def test_shuffled_rows_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        _write_cos(p, n=16)
        lines = p.read_text().splitlines()
        lines[2], lines[5] = lines[5], lines[2]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="lexicographic"):
            load_function(p)

    @pytest.mark.parametrize("edit", READER_EDITS)
    @pytest.mark.parametrize("ending", READER_ENDINGS)
    def test_reader_matches_row_loop(self, tmp_path, edit, ending):
        p = tmp_path / "e.csv"
        _write_edited(p, READER_EDITS[edit], ending)
        ref = _outcome(_reference_load, p)
        assert _same_outcome(_outcome(load_function, p), ref), ref

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_cells_load_as_the_row_loop(self, data):
        edits = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2), CELL_TEXTS),
                                   min_size=1, max_size=3))
        ending = data.draw(st.sampled_from(list(READER_ENDINGS)))

        def edit(lines):
            for row, col, text in edits:
                lines = _cell(row, col, text)(lines)
            return lines

        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "e.csv"
            _write_edited(p, edit, ending)
            ref = _outcome(_reference_load, p)
            assert _same_outcome(_outcome(load_function, p), ref), ref

    @pytest.mark.parametrize("edit, row_loop, loads", [
        (lambda lines: lines, 0, True),
        (READER_EDITS["quoted_field"], 1, True),
        (READER_EDITS["empty_field"], 1, False),
    ])
    def test_file_is_opened_once(self, tmp_path, monkeypatch, edit, row_loop, loads):
        p = tmp_path / "e.csv"
        _write_edited(p, edit)
        opened, row_tables, row_table = [], [], tio._row_table

        def spy_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        def spy_row_table(fh, d):
            row_tables.append(d)
            return row_table(fh, d)

        monkeypatch.setattr(tio, "open", spy_open, raising=False)
        monkeypatch.setattr(tio, "_row_table", spy_row_table)
        assert isinstance(_outcome(load_function, p), tuple) == loads
        assert opened == [p]
        assert len(row_tables) == row_loop

    @pytest.mark.parametrize("header", ['x,re,"im', 'x,re,"im\r\n"', '"x\r\n",re,im'])
    def test_header_is_line_one_alone(self, tmp_path, header):
        # A quoted header field that ran onto later lines once took them into the header.
        p = tmp_path / "h.csv"
        _write_edited(p, lambda lines: [header] + lines[1:])
        with pytest.raises(ValueError, match="^line 1: header must end in 're,im'"):
            load_function(p)

    def test_grid_is_refused_by_one_comparison(self, tmp_path):
        p = tmp_path / "bad.csv"
        lines = _cos_csv_lines(tmp_path)
        cols = lines[3].split(",")
        cols[0] = repr(float(cols[0]) + 1e-3)
        p.write_text("\n".join([*lines[:3], ",".join(cols), *lines[4:]]) + "\n")
        with pytest.raises(ValueError, match=r"^rows are not the uniform nodes 2\*pi\*j/N "
                                             r"of grid \(16,\) in lexicographic grid order$"):
            load_function(p)

    @pytest.mark.parametrize("sizes", [(6,), (4, 6), (4, 4, 6), (4, 4, 4, 6)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_writer_matches_reference_bytes(self, tmp_path, sizes, kind):
        rng = np.random.default_rng(len(sizes))
        n = math.prod(sizes)
        special = np.array([-0.0, 5e-324, -2.2e-308, 1e300, -1e300, 1e-300, -1e-300, 0.1])
        re = np.resize(special, n) * rng.choice([1.0, 3.0], size=n)
        vals = re if kind == "real" else re + 1j * np.roll(np.resize(special, n), 3)
        f = SampledFunction(PeriodicGrid(sizes), vals.reshape(sizes), kind=kind)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_function(f, new)
        _reference_save(f, ref)
        assert new.read_bytes() == ref.read_bytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_bit_identical(self, data):
        sizes = tuple(data.draw(st.lists(st.sampled_from([4, 6, 8]), min_size=1, max_size=3)))
        kind = data.draw(st.sampled_from(["real", "complex"]))
        n = math.prod(sizes)
        floats = st.floats(allow_nan=False, allow_infinity=False)
        vals = np.array(data.draw(st.lists(floats, min_size=n, max_size=n)))
        if kind == "complex":
            vals = vals + 1j * np.array(data.draw(st.lists(floats, min_size=n, max_size=n)))
            assume(fourier._stray_imag(vals))
        f = SampledFunction(PeriodicGrid(sizes), vals.reshape(sizes), kind=kind)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "f.csv"
            save_function(f, p)
            back = load_function(p)
        assert back.grid == f.grid and back.kind == f.kind
        assert back.values.dtype == f.values.dtype
        assert back.values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_kind_decided_by_one_stray_imag_call(self, tmp_path, monkeypatch, kind):
        g = PeriodicGrid((16, 16))
        x1, x2 = g.meshgrid()
        vals = np.cos(x1) + (1e-12j if kind == "real" else 0.5j) * np.sin(x2)
        p = tmp_path / "f.csv"
        save_function(SampledFunction(g, vals, kind=kind), p)
        ref = _reference_load(p)
        calls, stray_imag = [], fourier._stray_imag

        def spy(v):
            calls.append(1)
            return stray_imag(v)

        monkeypatch.setattr(fourier, "_stray_imag", spy)
        monkeypatch.setattr(tio, "_stray_imag", spy)
        f = load_function(p)
        assert len(calls) == 1
        assert f.kind == ref.kind == kind
        assert f.values.dtype == ref.values.dtype
        assert np.array_equal(f.values, ref.values)

    def test_clean_file_skips_row_loop(self, tmp_path, monkeypatch):
        p = tmp_path / "c.csv"
        f = _write_cos(p, n=16)
        monkeypatch.setattr(tio, "_row_table", lambda fh, d: pytest.fail("row loop used"))
        assert np.array_equal(load_function(p).values, f.values)


class TestCoefficientJson:
    def test_round_trip(self, tmp_path):
        c = CoefficientSequence.from_dict({0: 1.0, 2: 0.5 - 0.25j, -2: 0.5 + 0.25j})
        p = tmp_path / "c.json"
        save_coefficients(c, p)
        back = load_coefficients(p)
        assert back.halfwidth == 2
        assert np.array_equal(back.coeffs, c.coeffs)


class TestUltraJson:
    def test_round_trip_with_power_rule(self, tmp_path):
        F = UltraDistribution(
            CoefficientSequence.from_rule(4, PowerRule(2.0, 2)),
            declared_class=GrowthClass("dual", 2.0, 2, 1.0),
        )
        p = tmp_path / "F.json"
        save_ultra(F, p)
        back = load_ultra(p)
        assert isinstance(back.coeffs.rule, PowerRule)
        assert back.coeffs.rule.base == 2.0
        assert back.declared_class == F.declared_class
        assert np.array_equal(back.coeffs.coeffs, F.coeffs.coeffs)

    def test_schema_shape(self):
        F = UltraDistribution(CoefficientSequence.from_dict({0: 1.0}))
        d = ultra_to_dict(F)
        assert d["rule"] == "none" and d["class"] is None
        assert d["window"] == [{"n": 0, "re": 1.0, "im": 0.0}]
        assert ultra_from_dict(d).coeffs[0] == 1.0

    def test_non_power_rule_not_serializable(self):
        F = UltraDistribution(CoefficientSequence.from_rule(2, lambda n: 1.0))
        with pytest.raises(ValueError, match="power"):
            ultra_to_dict(F)


class TestCommands:
    def test_heat_on_constant_is_identity(self, tmp_path, capsys):
        g = PeriodicGrid.line(64)
        init = tmp_path / "const1.csv"
        out = tmp_path / "u.csv"
        save_function(SampledFunction.constant(g, 1.0), init)
        code = main(["heat", "--init", str(init), "--t", "0.5", "--out", str(out)])
        assert code == 0
        u = load_function(out)
        assert np.max(np.abs(u.values - 1.0)) < 1e-12

    def test_heat_at_zero_time_drops_the_round_off_of_a_real_csv(self, tmp_path):
        # A real CSV's im column may hold round-off; it is dropped on load,
        # so even the t = 0 echo writes 0.0 there.
        g = PeriodicGrid.line(16)
        x = g.points
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        save_function(SampledFunction(g, np.cos(x) + 1e-12j * np.sin(3 * x)), init)
        assert main(["heat", "--init", str(init), "--t", "0", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == [repr(float(v)) for v in np.cos(x)]
        assert all(r[2] == "0.0" for r in rows)

    def test_heat_on_2d_function(self, tmp_path):
        g = PeriodicGrid((16, 16))
        x1, x2 = g.meshgrid()
        f = SampledFunction(g, (np.cos(x1) * np.cos(x2)).astype(complex), kind="real")
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        save_function(f, init)
        assert main(["heat", "--init", str(init), "--t", "0.3",
                     "--out", str(out)]) == 0
        u = load_function(out)
        assert u.grid == g
        assert np.max(np.abs(u.values - math.exp(-0.6) * f.values)) < 1e-12

    def test_poisson_subordination_amplitude(self, tmp_path):
        init = tmp_path / "cosx.csv"
        out = tmp_path / "u.csv"
        _write_cos(init)
        code = main(["poisson", "--method", "subordination", "--t", "0.8",
                     "--init", str(init), "--out", str(out)])
        assert code == 0
        u = load_function(out)
        amplitude = float(np.max(u.values.real))
        assert amplitude == pytest.approx(0.4493289641172216, abs=1e-8)

    def test_poisson_methods_agree(self, tmp_path):
        init = tmp_path / "cosx.csv"
        _write_cos(init, k=2)
        outs = {}
        for method in ("multiplier", "kernel", "subordination"):
            out = tmp_path / f"{method}.csv"
            assert main(["poisson", "--method", method, "--t", "0.5",
                         "--init", str(init), "--out", str(out)]) == 0
            outs[method] = load_function(out).values
        assert np.max(np.abs(outs["multiplier"] - outs["kernel"])) < 1e-10
        assert np.max(np.abs(outs["multiplier"] - outs["subordination"])) < 1e-7

    @pytest.mark.parametrize("n, t, resolved", [
        (64, "0.6", True), (128, "0.3", True), (256, "0.3", True), (4096, "0.5", True),
        (16, "0.5", False), (32, "0.8", False), (128, "0.25", False),
        (64, "0.01", False), (64, "1e-9", False),
    ])
    def test_poisson_kernel_route_agrees_or_refuses(self, tmp_path, capsys, n, t, resolved):
        # The samples' mass is coth(n t / 2); the kernel route needs it within 1e-14 of 1.
        # At n = 64 it once wrote u(0) = 3.221 at t = 0.01 and NaN at t = 1e-9.
        init = tmp_path / "f.csv"
        _write_cos(init, n=n)
        assert (2 * math.exp(-n * float(t)) / -math.expm1(-n * float(t)) <= 1e-14) == resolved
        codes, outs = {}, {}
        for method in ("multiplier", "kernel", "subordination"):
            outs[method] = tmp_path / f"{method}.csv"
            codes[method] = main(["poisson", "--method", method, "--t", t,
                                  "--init", str(init), "--out", str(outs[method])])
        if resolved:
            assert codes == dict.fromkeys(outs, 0)
            values = {m: load_function(path).values for m, path in outs.items()}
            for method in ("kernel", "subordination"):
                assert np.max(np.abs(values[method] - values["multiplier"])) < 1e-10
        else:
            assert codes["kernel"] == 1 and not outs["kernel"].exists()
            least = math.log1p(2e14) / n
            named = capsys.readouterr().err.rsplit("needs t >= ", 1)[1]
            assert least <= float(named) <= least * 1.01

    def test_check_least_grid_is_22(self, tmp_path, capsys):
        # At n = 20 the Chapman-Kolmogorov record failed on a resolution artefact (exit 2).
        report = tmp_path / "r.json"
        assert main(["check", "--suite", "thm1", "--n", "20", "--report", str(report)]) == 1
        assert "needs n >= 22" in capsys.readouterr().err
        assert not report.exists()
        assert main(["check", "--suite", "thm2", "--n", "22", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["all_pass"] is True

    def test_theta_eval(self, capsys):
        assert main(["theta", "eval", "--x", "1.0", "--q", "0.5"]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(theta3_series(1.0, ThetaParams(0.5)), rel=1e-15)

    def test_theta_eval_product_form(self, capsys):
        assert main(["theta", "eval", "--x", "2.0", "--q", "0.3",
                     "--form", "product"]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(theta3_series(2.0, ThetaParams(0.3)), abs=1e-12)

    def test_theta_eval_product_where_first_factor_is_one(self, capsys):
        assert main(["theta", "eval", "--x", "1.4873662401842818", "--q", "0.5",
                     "--form", "product"]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(0.9591307822443896, abs=1e-12)

    def test_theta_eval_product_refuses_too_many_factors(self, capsys):
        t0 = time.perf_counter()
        assert main(["theta", "eval", "--x", "1.0", "--q", "0.9999999",
                     "--form", "product"]) == 1
        assert time.perf_counter() - t0 < 0.5
        assert "max_terms" in capsys.readouterr().err

    def test_theta_eval_series_refuses_too_many_terms(self, capsys):
        t0 = time.perf_counter()
        assert main(["theta", "eval", "--form", "series", "--q", "0.999999999999",
                     "--x", "1"]) == 1
        assert time.perf_counter() - t0 < 0.5
        assert "max_terms" in capsys.readouterr().err

    def test_theta_eval_invalid_nome_exits_one(self, capsys):
        assert main(["theta", "eval", "--x", "1.0", "--q", "1.5"]) == 1
        assert "nome out of range" in capsys.readouterr().err

    def test_malformed_csv_exits_one_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,re,im\n0.0,oops,0.0\n")
        out = tmp_path / "u.csv"
        assert main(["heat", "--init", str(bad), "--t", "0.1",
                     "--out", str(out)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_csv_exits_one_without_output(self, tmp_path, capsys):
        # A single nan used to pass and produce an all-NaN output file.
        bad, out = tmp_path / "bad.csv", tmp_path / "u.csv"
        lines = _cos_csv_lines(tmp_path)
        lines[4] = lines[4].rsplit(",", 2)[0] + ",nan,0.0"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["heat", "--init", str(bad), "--t", "0.1", "--out", str(out)]) == 1
        assert "line 5: non-finite value nan" in capsys.readouterr().err
        assert not out.exists()

    def test_check_suite_passes_and_reports(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["check", "--suite", "thm1", "--n", "128",
                     "--report", str(report)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "all pass" in stdout
        data = json.loads(report.read_text())
        assert data["all_pass"] is True
        assert len(data["records"]) >= 7
        names = {r["name"] for r in data["records"]}
        assert {"semigroup_law", "chapman_kolmogorov", "conservation",
                "positivity", "contractivity", "strong_continuity",
                "self_adjointness", "heat_equation"} <= names

    def test_check_report_byte_identical(self, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            assert main(["check", "--suite", "thm1", "--n", "64",
                         "--report", str(r), "--seed", "7"]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_ultra_evolve_and_membership(self, tmp_path, capsys):
        F = UltraDistribution(
            CoefficientSequence.from_rule(6, PowerRule(2.0, 2)),
            declared_class=GrowthClass("dual", 2.0, 2, 1.0),
        )
        fpath = tmp_path / "F.json"
        gpath = tmp_path / "G.json"
        save_ultra(F, fpath)
        t = 2.0 * math.log(2.0) + 0.1
        assert main(["ultra", "evolve", "--dist", str(fpath), "--t", str(t),
                     "--out", str(gpath)]) == 0
        q = math.exp(-math.log(2.0))
        assert main(["ultra", "check-membership", "--dist", str(gpath),
                     "--kind", "test", "--base", repr(q), "--order", "2",
                     "--constant", "1.0"]) == 0
        assert "member: true" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, declared, code, printed", [
        (["--kind", "test", "--base", "0.1", "--order", "1"], True, 0,
         "member: false (worst ratio 15625 at n = -6"),
        ([], True, 0, "member: true "),
        ([], False, 1, "error: no growth class"),
        (["--kind", "test", "--base", "0.1"], True, 1,
         "error: give --kind, --base and --order together or none; missing --order\n"),
        (["--order", "1"], False, 1,
         "error: give --kind, --base and --order together or none; missing --kind, --base\n"),
    ])
    def test_membership_class_flags_all_or_none(self, tmp_path, capsys, flags, declared,
                                               code, printed):
        # --kind test --base 0.1 alone once fell back to the declared class: member: true.
        fpath = tmp_path / "F.json"
        save_ultra(UltraDistribution(
            CoefficientSequence.from_rule(6, PowerRule(0.5, 1)),
            declared_class=GrowthClass("test", 0.5, 1, 1.0) if declared else None,
        ), fpath)
        assert main(["ultra", "check-membership", "--dist", str(fpath), *flags]) == code
        captured = capsys.readouterr()
        assert (captured.out if code == 0 else captured.err).startswith(printed)

    def test_membership_past_max_terms_is_an_error(self, capsys, monkeypatch):
        # A tail without a closed form whose scan reaches max_terms first is undecided:
        # one error line and exit 1, where it printed "member: true". Files hold power
        # rules only, so the handler is given the distribution directly.
        F = UltraDistribution(CoefficientSequence.from_rule(4, lambda n: 0.999999 ** abs(n)))
        monkeypatch.setattr("thetaflow.cli.load_ultra", lambda path: F)
        assert main(["ultra", "check-membership", "--dist", "F.json", "--kind", "test",
                     "--base", "0.9999989", "--order", "1", "--constant", "1.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: membership undecided: the tail scan of "
                                       "|n| = 5..1000000 ")

    def test_ultra_evolve_comb_serializes(self, tmp_path):
        F = UltraDistribution(
            CoefficientSequence.from_rule(6, PowerRule(1.0, 1)),
            declared_class=GrowthClass("dual", 1.0, 1, 1.0),
        )
        fpath, gpath = tmp_path / "comb.json", tmp_path / "out.json"
        save_ultra(F, fpath)
        assert main(["ultra", "evolve", "--dist", str(fpath), "--t", "1.0",
                     "--out", str(gpath)]) == 0
        back = load_ultra(gpath)
        assert isinstance(back.coeffs.rule, PowerRule)
        assert back.coeffs.rule.base == pytest.approx(math.exp(-1.0))

    def test_ultra_pair(self, tmp_path, capsys):
        F = UltraDistribution(
            CoefficientSequence.from_rule(8, PowerRule(1.0, 1)),
            declared_class=GrowthClass("dual", 1.0, 1, 1.0),
        )
        fpath = tmp_path / "F.json"
        save_ultra(F, fpath)
        seq = CoefficientSequence.from_rule(10, PowerRule(0.5, 2))
        spath = tmp_path / "f.json"
        save_coefficients(seq, spath)
        assert main(["ultra", "pair", "--dist", str(fpath), "--seq", str(spath),
                     "--test-base", "0.5", "--test-order", "2"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("value: ")[1].split(" +")[0])
        oracle = 2 * math.pi * (1 + 2 * sum(0.5 ** (n * n) for n in range(1, 20)))
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_ultra_pair_ends_at_a_bare_seq_window(self, tmp_path, capsys):
        # A --seq file has no rule: its terms past |n| = 10 are 0. The sum
        # walked to 37 terms and reported a tail bound of 1.005e-12.
        F = UltraDistribution(
            CoefficientSequence.from_rule(8, PowerRule(1.0, 1)),
            declared_class=GrowthClass("dual", 1.0, 1, 1.0),
        )
        fpath, spath = tmp_path / "F.json", tmp_path / "f.json"
        save_ultra(F, fpath)
        save_coefficients(CoefficientSequence.from_rule(10, PowerRule(0.5, 2)), spath)
        assert main(["ultra", "pair", "--dist", str(fpath), "--seq", str(spath)]) == 0
        assert capsys.readouterr().out.endswith("(tail bound 0.000e+00, 21 terms)\n")

    def test_ultra_pair_verifies_declared_test_class(self, tmp_path, capsys):
        F = UltraDistribution(
            CoefficientSequence.from_rule(8, PowerRule(1.0, 1)),
            declared_class=GrowthClass("dual", 1.0, 1, 1.0),
        )
        fpath, spath = tmp_path / "F.json", tmp_path / "f.json"
        save_ultra(F, fpath)
        save_coefficients(CoefficientSequence.from_rule(8, PowerRule(0.999, 1)), spath)
        assert main(["ultra", "pair", "--dist", str(fpath), "--seq", str(spath),
                     "--test-base", "0.5", "--test-order", "1"]) == 1
        captured = capsys.readouterr()
        assert "violated at n = 1:" in captured.err
        assert captured.out == ""

    def test_ultra_evolve_refuses_infinite_window(self, tmp_path, capsys):
        # Such a file once loaded, then ended in an OverflowError traceback.
        F = UltraDistribution(CoefficientSequence.from_rule(60, PowerRule(1.5, 2)))
        data = ultra_to_dict(F)
        data["class"] = {"kind": "dual", "base": 1.5, "k": 2, "c": 1.0}
        fpath, gpath = tmp_path / "F.json", tmp_path / "G.json"
        fpath.write_text(json.dumps(data))
        assert main(["ultra", "evolve", "--dist", str(fpath), "--t", "2.0",
                     "--out", str(gpath)]) == 1
        assert "is not finite" in capsys.readouterr().err
        assert not gpath.exists()

    @pytest.mark.parametrize("command", ["evolve", "check-membership", "pair"])
    def test_refuses_an_index_past_the_pairing_range(self, tmp_path, capsys, command):
        # One entry at n = 10^6 built a 2 000 001-entry window (32 MB).
        big = [{"n": 1_000_000, "re": 1.0, "im": 0.0}]
        fpath, spath, gpath = tmp_path / "F.json", tmp_path / "f.json", tmp_path / "G.json"
        fpath.write_text(json.dumps({"window": big, "rule": "none",
                                     "class": {"kind": "dual", "base": 2.0, "k": 1}}))
        spath.write_text(json.dumps(big))
        argv = {"evolve": ["--dist", str(fpath), "--t", "1.0", "--out", str(gpath)],
                "check-membership": ["--dist", str(fpath)],
                "pair": ["--dist", str(tmp_path / "ok.json"), "--seq", str(spath)]}[command]
        save_ultra(UltraDistribution(CoefficientSequence.from_dict({0: 1.0})), tmp_path / "ok.json")
        assert main(["ultra", command, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coefficient entry 0: |n| = 1000000 is past 100000")
        assert "Traceback" not in err
        assert not gpath.exists()

    def test_writers_refuse_a_window_past_the_pairing_range(self, tmp_path):
        wide = CoefficientSequence(100_001, np.zeros(200_003))
        for save in (save_coefficients, lambda c, p: save_ultra(UltraDistribution(c), p)):
            path = tmp_path / "w.json"
            with pytest.raises(ValueError, match="halfwidth 100001 has no file form"):
                save(wide, path)
            assert not path.exists()
        edge = CoefficientSequence.from_dict({100_000: 1.0, -100_000: 2.0})
        save_coefficients(edge, tmp_path / "edge.json")
        assert load_coefficients(tmp_path / "edge.json").coeffs.tobytes() == edge.coeffs.tobytes()

    def test_overflow_error_exits_one(self, tmp_path, monkeypatch, capsys):
        def overflow(F, t):
            raise OverflowError("absolute value too large")
        monkeypatch.setattr("thetaflow.ultradist.evolve_ultra", overflow)
        fpath = tmp_path / "F.json"
        save_ultra(UltraDistribution(CoefficientSequence.from_dict({0: 1.0})), fpath)
        assert main(["ultra", "evolve", "--dist", str(fpath), "--t", "1.0",
                     "--out", str(tmp_path / "G.json")]) == 1
        assert "error: absolute value too large" in capsys.readouterr().err

    def test_env_tolerance_override(self, monkeypatch, capsys):
        monkeypatch.setenv("THETA_TOL", "1e-3")
        assert main(["theta", "eval", "--x", "0.0", "--q", "0.9"]) == 0
        loose = float(capsys.readouterr().out.strip())
        monkeypatch.delenv("THETA_TOL")
        assert main(["theta", "eval", "--x", "0.0", "--q", "0.9"]) == 0
        tight = float(capsys.readouterr().out.strip())
        assert loose != tight  # fewer series terms under the loose tolerance
        assert loose == pytest.approx(tight, abs=1e-2)

    def test_env_tolerance_must_be_positive(self, monkeypatch, capsys):
        monkeypatch.setenv("THETA_TOL", "-1")
        assert main(["theta", "eval", "--x", "0.0", "--q", "0.5"]) == 1
        assert "THETA_TOL" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_env_tolerance_must_be_finite(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("THETA_TOL", raw)
        assert main(["theta", "eval", "--x", "0.0", "--q", "0.5"]) == 1
        assert "THETA_TOL" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [["heat"], ["poisson", "--method", "subordination"]])
    def test_non_finite_time_exits_one(self, tmp_path, capsys, command, t):
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        _write_cos(init, n=16)
        assert main([*command, "--init", str(init), f"--t={t}",
                     "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--u-max", "nan"], ["--u-max", "inf"],
                                      ["--quad-tol", "nan"], ["--quad-tol", "inf"]])
    @pytest.mark.parametrize("command", [["subordinate"],
                                         ["poisson", "--method", "subordination"]])
    def test_non_finite_quadrature_exits_one(self, tmp_path, capsys, command, flag):
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        _write_cos(init, n=16)
        assert main([*command, "--init", str(init), "--t", "0.8", *flag,
                     "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--u-max", "nan"], ["--nodes", "3"], ["--quad-tol", "-1"],
                                      ["--u-max", "nan", "--nodes", "3", "--quad-tol", "-1"]])
    @pytest.mark.parametrize("method", ["multiplier", "kernel"])
    def test_quadrature_flags_are_checked_for_every_method(self, tmp_path, capsys, method, flag):
        # Only subordination used these flags, so the other methods took bad ones and exited 0.
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        _write_cos(init, n=64)
        command = ["poisson", "--method", method, "--init", str(init), "--t", "0.8"]
        assert main([*command, *flag, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        assert main([*command, "--out", str(out)]) == 0

    @pytest.mark.parametrize("u_max", ["751", "1e308"])
    def test_u_max_past_the_exp_underflow_exits_one(self, tmp_path, u_max):
        # At 1e308, 4 s^2 once overflowed with a RuntimeWarning; -W error makes one fatal.
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        _write_cos(init, n=16)
        proc = _run_python("-W", "error", "-m", "thetaflow.cli", "subordinate",
                           "--init", str(init), "--t", "0.8", "--u-max", u_max,
                           "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr == ("error: u_max must be finite, at least 28 and at most 750, "
                               f"got {float(u_max)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["subordinate"],
                                         ["poisson", "--method", "subordination"]])
    def test_u_max_below_28_exits_one(self, tmp_path, capsys, command):
        # --u-max 1.5 used to exit 0 with a symbol error of 5.7e-2 at t = 0.8.
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        _write_cos(init, n=16)
        assert main([*command, "--init", str(init), "--t", "0.8", "--u-max", "27.9",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: u_max must be finite, at least 28 and "
                                           "at most 750, got 27.9\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["subordinate"],
                                         ["poisson", "--method", "subordination"]])
    def test_node_count_over_the_cap_exits_one(self, tmp_path, capsys, command):
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        _write_cos(init, n=16)
        assert main([*command, "--init", str(init), "--t", "0.8", "--nodes", "1025",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: at most 1024 nodes, got 1025\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["subordinate"],
                                         ["poisson", "--method", "subordination"]])
    def test_time_that_needs_more_nodes_exits_one(self, tmp_path, capsys, command):
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        _write_cos(init, n=16)
        assert main([*command, "--init", str(init), "--t", "1e-3", "--nodes", "64",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: t = 0.001 needs 75 subordination nodes, "
                                           "more than the 64 allowed\n")
        assert not out.exists()

    def test_subordination_matches_the_multiplier_at_small_time(self, tmp_path):
        # The 64-node Gauss-Legendre rule this replaced missed by 6.4e-5 here.
        init = tmp_path / "f.csv"
        _write_cos(init, n=4096)
        outs = {}
        for method in ("subordination", "multiplier"):
            outs[method] = tmp_path / f"{method}.csv"
            assert main(["poisson", "--method", method, "--init", str(init), "--t", "0.01",
                         "--out", str(outs[method])]) == 0
        gap = np.abs(load_function(outs["subordination"]).values
                     - load_function(outs["multiplier"]).values)
        assert float(np.max(gap)) <= 1e-13

    def test_subordinate_is_poisson_by_subordination(self, tmp_path):
        init = tmp_path / "f.csv"
        g = PeriodicGrid((16, 12))
        x1, x2 = g.meshgrid()
        save_function(SampledFunction(g, (np.cos(x1) + np.sin(2 * x2)).astype(complex),
                                      kind="real"), init)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        quad = ["--nodes", "48", "--u-max", "30"]
        assert main(["subordinate", "--init", str(init), "--t", "0.6", *quad,
                     "--out", str(a)]) == 0
        assert main(["poisson", "--method", "subordination", "--init", str(init),
                     "--t", "0.6", *quad, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_check_zero_grid_size_exits_one(self, tmp_path, capsys):
        # --n 0 used to fall back to the suite's default size and pass.
        report = tmp_path / "r.json"
        assert main(["check", "--suite", "thm1", "--n", "0",
                     "--report", str(report)]) == 1
        assert "grid underresolved" in capsys.readouterr().err
        assert not report.exists()

    def test_check_grid_too_small_exits_one(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["check", "--suite", "thm1", "--n", "16",
                     "--report", str(report)]) == 1
        assert capsys.readouterr().err == (
            "error: suite 'thm1' needs n >= 22 (18 for its random data with modes up to 8, "
            "22 for the alias excess of its kernels at st/(s + t) = 0.05 to stay within 1e-10), "
            "got 16\n")
        assert not report.exists()

    def test_bad_env_tolerance_refused_by_every_command(self, tmp_path, monkeypatch, capsys):
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        _write_cos(init, n=16)
        monkeypatch.setenv("THETA_TOL", "nan")
        assert main(["heat", "--init", str(init), "--t", "0.1", "--out", str(out)]) == 1
        assert "THETA_TOL" in capsys.readouterr().err
        assert not out.exists()

    def test_check_thm1_large_grid_stays_real(self, capsys):
        # Complex-FFT round-off times the n^2 Laplacian symbol once broke
        # the real-kind invariant at this size.
        assert main(["check", "--suite", "thm1", "--n", "16384"]) == 0
        assert "all pass" in capsys.readouterr().out

    @pytest.mark.parametrize("t", ["1e160", "1e300", "1.7e308"])
    @pytest.mark.parametrize("command", [["heat"], ["poisson"],
                                         ["poisson", "--method", "subordination"],
                                         ["subordinate"]])
    def test_huge_time_writes_the_mean(self, tmp_path, command, t):
        # subordinate once wrote an all-NaN CSV here: t * t overflowed.
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        g = PeriodicGrid((16, 12))
        x1, x2 = g.meshgrid()
        save_function(SampledFunction(g, 0.5 + np.cos(x1) * np.sin(2 * x2)), init)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--init", str(init), "--t", t, "--out", str(out)]) == 0
        assert np.max(np.abs(load_function(out).values - 0.5)) < 1e-14

    @pytest.mark.parametrize("command", [
        ["heat", "--t", "0.1"], ["subordinate", "--t", "0.8"],
        ["subordinate", "--t", "0.8", "--quad-tol", "1e-6"],
        ["poisson", "--method", "multiplier", "--t", "0.8"],
        ["poisson", "--method", "kernel", "--t", "0.8"],
        ["poisson", "--method", "subordination", "--t", "0.8"],
    ])
    def test_transform_overflow_exits_one(self, tmp_path, capsys, command):
        # Finite input whose transform overflows once wrote an all-NaN CSV.
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        g = PeriodicGrid.line(64)
        save_function(SampledFunction.from_callable(
            g, lambda x: 1e308 * (0.5 + 0.5 * np.cos(x))), init)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--init", str(init), "--out", str(out)]) == 1
        assert "overflowed double precision" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry, field, message", [
        ({"re": "nan"}, "window", "coefficient n = 0 is not finite"),
        ({"im": "-inf"}, "window", "coefficient n = 0 is not finite"),
        ({"base": "nan"}, "rule", "power rule base must be finite"),
    ])
    def test_ultra_evolve_refuses_non_finite_json(self, tmp_path, capsys, entry, field,
                                                  message):
        # A nan window entry was once written back out as a bare NaN.
        data = ultra_to_dict(UltraDistribution(
            CoefficientSequence.from_rule(2, PowerRule(0.5, 1))))
        target = data["window"][2] if field == "window" else data["rule"]
        target.update(entry)
        fpath, gpath = tmp_path / "F.json", tmp_path / "G.json"
        fpath.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ultra", "evolve", "--dist", str(fpath), "--t", "0.1",
                         "--out", str(gpath)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not gpath.exists()

    def test_failed_ultra_evolve_keeps_the_out_file(self, tmp_path, capsys):
        # The tail 0.5^|n| exp(-t n^2) has no file form; the refusal came after
        # --out was opened, which left an existing file empty.
        fpath, gpath = tmp_path / "F.json", tmp_path / "G.json"
        save_ultra(UltraDistribution(CoefficientSequence.from_rule(2, PowerRule(0.5, 1))), fpath)
        gpath.write_bytes(b"kept\n")
        assert main(["ultra", "evolve", "--dist", str(fpath), "--t", "0.1",
                     "--out", str(gpath)]) == 1
        assert "only for k = 2 or b = 1" in capsys.readouterr().err
        assert gpath.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda d: {**d, "class": {"base": 0.5, "k": 2}}, "class has no field 'kind'"),
        (lambda d: {**d, "window": [{"n": 0, "re": 1.0}]}, "coefficient entry 0 has no field 'im'"),
        (lambda d: [d], "distribution JSON must be an object"),
        (lambda d: {**d, "window": {"n": 0, "re": 1.0, "im": 0.0}}, "must be a JSON array"),
        (lambda d: {**d, "window": [{"n": 0.5, "re": 1.0, "im": 0.0}]},
         "coefficient entry 0: field 'n' must be an integer, got 0.5"),
        (lambda d: {**d, "rule": {"type": "power", "base": 0.5, "k": 0}},
         "order must be an integer >= 1, got 0"),
        (lambda d: {**d, "rule": {"type": "power", "base": 0.5, "k": -1}},
         "order must be an integer >= 1, got -1"),
        (lambda d: {**d, "rule": {"type": "power", "base": 0.5, "k": 1.9}},
         "rule: field 'k' must be an integer, got 1.9"),
        (lambda d: {**d, "class": {"kind": "test", "base": 0.5, "k": 1.9}},
         "class: field 'k' must be an integer, got 1.9"),
    ])
    def test_ultra_evolve_refuses_malformed_json(self, tmp_path, capsys, edit, message):
        # These ended in a KeyError, AttributeError, TypeError or
        # ZeroDivisionError traceback, or n and k were silently truncated.
        data = ultra_to_dict(UltraDistribution(
            CoefficientSequence.from_rule(2, PowerRule(0.5, 2)), GrowthClass("test", 0.5, 2)))
        fpath, gpath = tmp_path / "F.json", tmp_path / "G.json"
        fpath.write_text(json.dumps(edit(data)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ultra", "evolve", "--dist", str(fpath), "--t", "0.1",
                         "--out", str(gpath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not gpath.exists()

    def test_ultra_pair_refuses_non_finite_sequence(self, tmp_path, capsys):
        fpath, spath = tmp_path / "F.json", tmp_path / "s.json"
        save_ultra(UltraDistribution(CoefficientSequence.from_dict({0: 1.0})), fpath)
        spath.write_text(json.dumps([{"n": 0, "re": "inf", "im": 0.0}]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ultra", "pair", "--dist", str(fpath), "--seq", str(spath)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: coefficient n = 0 is not finite")
        assert captured.out == ""

    @pytest.mark.parametrize("seq, edit, message", [
        ([{"n": True, "re": 2, "im": 0}], None,
         "coefficient entry 0: field 'n' must be an integer, got True"),
        ([{"n": 0, "re": False, "im": 0}], None,
         "coefficient entry 0: field 're' must be a number, got False"),
        ([{"n": 0, "re": 1, "im": True}], None,
         "coefficient entry 0: field 'im' must be a number, got True"),
        (None, lambda d: {**d, "window": [{"n": True, "re": 1.0, "im": 0.0}]},
         "coefficient entry 0: field 'n' must be an integer, got True"),
        (None, lambda d: {**d, "rule": {"type": "power", "base": 0.5, "k": True}},
         "rule: field 'k' must be an integer, got True"),
        (None, lambda d: {**d, "rule": {"type": "power", "base": True, "k": 2}},
         "rule: field 'base' must be a number, got True"),
        (None, lambda d: {**d, "class": {"kind": "test", "base": 0.5, "k": True}},
         "class: field 'k' must be an integer, got True"),
        (None, lambda d: {**d, "class": {"kind": "test", "base": 0.5, "k": 2, "c": True}},
         "class: field 'c' must be a number, got True"),
    ])
    def test_ultra_pair_refuses_json_booleans(self, tmp_path, capsys, seq, edit, message):
        # A JSON true was read as 1: {"n": true, "re": 2} loaded as c_1 = 2, "k": true as order 1.
        data = ultra_to_dict(UltraDistribution(
            CoefficientSequence.from_rule(2, PowerRule(0.5, 2)), GrowthClass("test", 0.5, 2)))
        fpath, spath = tmp_path / "F.json", tmp_path / "s.json"
        fpath.write_text(json.dumps(edit(data) if edit else data))
        spath.write_text(json.dumps(seq or [{"n": 1, "re": 0.5, "im": 0.0}]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ultra", "pair", "--dist", str(fpath), "--seq", str(spath)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("form", ["series", "product"])
    def test_theta_eval_refuses_non_finite_angle(self, capsys, form, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["theta", "eval", f"--x={x}", "--q", "0.5", "--form", form]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: angle must be finite")
        assert captured.out == ""


class TestProcess:
    def test_module_entry_point(self):
        proc = _run_python("-m", "thetaflow.cli", "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: thetaflow")

    def test_import_leaves_scipy_integrate_unloaded(self):
        proc = _run_python("-c", "import sys, thetaflow; "
                                 "print('scipy.integrate' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_header_only_csv_prints_one_error_line(self, tmp_path):
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        init.write_text("x,re,im\n")
        proc = _run_python("-m", "thetaflow.cli", "heat", "--init", str(init),
                           "--t", "0.1", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr == "error: line 2: no data rows\n"
        assert not out.exists()

    def test_runs_without_scipy(self, tmp_path):
        # A None entry in sys.modules makes every import of scipy fail.
        script = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import thetaflow as tf
from thetaflow.cli import main
from thetaflow.io import save_function

g = tf.PeriodicGrid((16, 12))
x1, x2 = g.meshgrid()
f = tf.SampledFunction(g, (np.cos(x1) + np.sin(2 * x2)).astype(complex), kind="real")
direct = tf.poisson_evolve_multiplier(f, 0.6).values
for quad in (None, tf.SubordinationQuadrature(tol=1e-6)):
    assert np.max(np.abs(tf.subordinate(f, 0.6, quad).values - direct)) < 1e-7
d = {str(tmp_path)!r}
save_function(f, d + "/f.csv")
for argv in (["poisson", "--method", "subordination", "--t", "0.6"],
             ["subordinate", "--t", "0.6", "--quad-tol", "1e-6"]):
    assert main([*argv, "--init", d + "/f.csv", "--out", d + "/u.csv"]) == 0
assert main(["check", "--suite", "thm2"]) == 0
print("scipy" in sys.modules and sys.modules["scipy"] is None)
"""
        proc = _run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "True"

    def test_over_long_csv_field_prints_one_error_line(self, tmp_path):
        init, out = tmp_path / "f.csv", tmp_path / "u.csv"
        init.write_text('x,re,im\r\n0.0,"' + "1" * 200_001 + '",0.0\r\n')
        proc = _run_python("-m", "thetaflow.cli", "heat", "--init", str(init),
                           "--t", "0.1", "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: line 2: field larger than field limit")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_import_loads_no_submodule(self):
        proc = _run_python("-c", "import sys, thetaflow; "
                                 "print([m for m in sys.modules if m.startswith('thetaflow.')])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_flow_commands_load_only_io_and_semigroups(self, tmp_path):
        _write_cos(tmp_path / "f.csv", n=32)
        script = f"""
import sys
from thetaflow.cli import main
d = {str(tmp_path)!r}
assert main(["heat", "--init", d + "/f.csv", "--t", "0.1", "--out", d + "/u.csv"]) == 0
assert main(["poisson", "--method", "subordination", "--init", d + "/u.csv",
             "--t", "0.8", "--out", d + "/v.csv"]) == 0
print(sorted(m for m in sys.modules if m.startswith("thetaflow")))
print("numpy.polynomial" in sys.modules)
"""
        proc = _run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        loaded, polynomial = proc.stdout.strip().splitlines()
        assert loaded == str(["thetaflow", "thetaflow.cli", "thetaflow.fourier",
                              "thetaflow.io", "thetaflow.semigroups"])
        assert polynomial == "False"  # the subordination rule needs no Gauss-Legendre nodes

    def test_loading_a_csv_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique without a return_* flag checks for a masked array, which
        # imports numpy.ma (numpy 2.4): 10-14 ms of every CLI process.
        g = PeriodicGrid((8, 6))
        x1, x2 = g.meshgrid()
        save_function(SampledFunction(g, np.cos(x1) + np.sin(2 * x2)), tmp_path / "f.csv")
        script = f"""
import sys
from thetaflow.cli import main
from thetaflow.io import load_function
d = {str(tmp_path)!r}
load_function(d + "/f.csv")
print("numpy.ma" in sys.modules)
assert main(["heat", "--init", d + "/f.csv", "--t", "0.1", "--out", d + "/u.csv"]) == 0
assert main(["poisson", "--method", "subordination", "--init", d + "/u.csv",
             "--t", "0.8", "--out", d + "/v.csv"]) == 0
print("numpy.ma" in sys.modules)
"""
        proc = _run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_flow_commands_run_with_theta_checks_ultradist_blocked(self, tmp_path):
        # A None entry in sys.modules makes every import of that module fail.
        _write_cos(tmp_path / "f.csv", n=64)  # resolves the Poisson kernel at t >= 0.515
        script = f"""
import sys
for name in ("ultradist", "checks", "theta"):
    sys.modules["thetaflow." + name] = None
from thetaflow.cli import main
d = {str(tmp_path)!r}
for argv in (["heat"], ["poisson", "--method", "multiplier"],
             ["poisson", "--method", "kernel"], ["poisson", "--method", "subordination"]):
    assert main([*argv, "--init", d + "/f.csv", "--t", "0.6", "--out", d + "/u.csv"]) == 0
print(all(sys.modules["thetaflow." + name] is None for name in ("ultradist", "checks", "theta")))
"""
        proc = _run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"
