"""CSV and JSON serialization for grid functions, coefficients and distributions.

CSV function format: header ``x,re,im`` in one dimension or
``x1,...,xd,re,im`` in d dimensions, rows in lexicographic grid order,
CRLF line ends. Floats are written with repr, so save/load round-trips
are lossless; the writer takes the repr of each axis node once and writes
one block per last-axis row. The reader parses the body with
``np.loadtxt``. A body that loadtxt refuses, that has the wrong column
count or no rows, or that holds a non-finite value goes through the
row-by-row ``csv`` loop instead: that loop alone names a bad line, and it
also accepts what ``float()`` takes and loadtxt does not (quoted fields,
``4_0``, non-ASCII digits). Where both accept a body they give the same
values. Blank lines are skipped but keep their line numbers.
Coefficient sequences serialize as a JSON array of ``{n, re, im}``;
distributions as ``{window, rule, class}`` where only power rules
(``base^(|n|^k)``) have a serialized form.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

from .fourier import TWO_PI, CoefficientSequence, PeriodicGrid, SampledFunction, _stray_imag
from .ultradist import GrowthClass, PowerRule, UltraDistribution

_COORD_ATOL = 1e-9


def save_function(f: SampledFunction, path) -> None:
    d = f.grid.dims
    header = ["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]
    *lead, last = [list(map(repr, f.grid.axis_points(a).tolist())) for a in range(d)]
    rows = f.values.reshape(-1, len(last))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header + ["re", "im"]) + "\r\n")
        for prefix, row in zip(itertools.product(*lead), rows):
            head = "".join(x + "," for x in prefix)
            res = map(repr, row.real.tolist())
            ims = itertools.repeat("0.0") if f.kind == "real" else map(repr, row.imag.tolist())
            fh.write("".join(f"{head}{x},{re},{im}\r\n" for x, re, im in zip(last, res, ims)))


def load_function(path) -> SampledFunction:
    parsed = _loadtxt_table(path)
    table, d = parsed if parsed is not None else _row_table(path)
    grid = _reconstruct_grid(table[:, :d])
    vals = table[:, d:].view(complex)[:, 0]  # no copy: (re, im) pairs are adjacent
    if _stray_imag(vals):
        return SampledFunction(grid, vals.reshape(grid.sizes), kind="complex")
    return SampledFunction(grid, table[:, d].reshape(grid.sizes), kind="real")


def _loadtxt_table(path) -> tuple[np.ndarray, int] | None:
    """The parsed table and d by np.loadtxt, or None where the row loop must decide."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            return None
        d = _parse_header(header)
        # loadtxt warns on a body without rows; the row loop names that error.
        body = itertools.dropwhile(lambda line: not line.strip("\r\n"), fh)
        first = next(body, None)
        if first is None:
            return None
        try:
            table = np.loadtxt(itertools.chain([first], body), delimiter=",",
                               ndmin=2, comments=None)
        except ValueError:
            return None
    if table.shape[1] != d + 2 or not np.isfinite(table).all():
        return None
    return table, d


def _row_table(path) -> tuple[np.ndarray, int]:
    """The parsed table and d, row by row; raises naming the first bad line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("line 1: empty CSV file") from None
        d = _parse_header(header)
        rows, lines = [], []  # lines: file line of each data row
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(
                    f"line {lineno}: expected {d + 2} columns, got {len(row)}"
                )
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
    return table, d


def _parse_header(header: list[str]) -> int:
    cols = [h.strip() for h in header]
    if len(cols) < 3 or cols[-2:] != ["re", "im"]:
        raise ValueError(f"line 1: header must end in 're,im', got {header}")
    coord_cols = cols[:-2]
    if coord_cols == ["x"]:
        return 1
    expected = [f"x{i + 1}" for i in range(len(coord_cols))]
    if coord_cols != expected:
        raise ValueError(
            f"line 1: coordinate columns must be 'x' or 'x1..xd', got {coord_cols}"
        )
    return len(coord_cols)


def _reconstruct_grid(coords: np.ndarray) -> PeriodicGrid:
    nrows, d = coords.shape
    axes = []
    for a in range(d):
        vals = np.unique(coords[:, a])
        n = vals.size
        expected = TWO_PI * np.arange(n) / n
        if not np.allclose(vals, expected, rtol=0.0, atol=_COORD_ATOL):
            raise ValueError(
                f"inconsistent grid spacing: axis {a + 1} samples are not the "
                f"uniform nodes 2*pi*j/{n}"
            )
        axes.append(vals)
    sizes = tuple(len(v) for v in axes)
    if math.prod(sizes) != nrows:
        raise ValueError(
            f"non-uniform grid: {nrows} rows cannot tile axis sizes {sizes}"
        )
    grid = PeriodicGrid(sizes)
    expected = np.stack([m.reshape(-1) for m in grid.meshgrid()], axis=1)
    if not np.allclose(coords, expected, rtol=0.0, atol=_COORD_ATOL):
        raise ValueError("rows are not in lexicographic grid order")
    return grid


def save_coefficients(c: CoefficientSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(_coeff_entries(c), fh, indent=2)


def _coeff_entries(c: CoefficientSequence) -> list[dict]:
    return [
        {"n": int(n), "re": float(c.coeffs[i].real), "im": float(c.coeffs[i].imag)}
        for i, n in enumerate(c.indices())
    ]


def _entries_to_sequence(entries, rule=None) -> CoefficientSequence:
    table = {}
    for e in entries:
        table[int(e["n"])] = complex(float(e["re"]), float(e["im"]))
    if not table:
        table = {0: 0.0}
    return CoefficientSequence.from_dict(table, rule=rule)


def load_coefficients(path) -> CoefficientSequence:
    with open(path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, list):
        raise ValueError("coefficient JSON must be an array of {n, re, im}")
    return _entries_to_sequence(entries)


def ultra_to_dict(F: UltraDistribution) -> dict:
    rule = F.coeffs.rule
    if rule is None:
        rule_obj = "none"
    elif isinstance(rule, PowerRule):
        rule_obj = {"type": "power", "base": rule.base, "k": rule.order}
    else:
        raise ValueError("only power rules have a serialized form")
    g = F.declared_class
    cls_obj = None if g is None else {
        "kind": g.kind, "base": g.base, "k": g.order, "c": g.constant,
    }
    return {"window": _coeff_entries(F.coeffs), "rule": rule_obj, "class": cls_obj}


def ultra_from_dict(data: dict) -> UltraDistribution:
    rule_obj = data.get("rule", "none")
    if rule_obj == "none" or rule_obj is None:
        rule = None
    elif isinstance(rule_obj, dict) and rule_obj.get("type") == "power":
        rule = PowerRule(float(rule_obj["base"]), int(rule_obj["k"]))
    else:
        raise ValueError(f"unknown rule spec {rule_obj!r}")
    seq = _entries_to_sequence(data.get("window", []), rule=rule)
    cls_obj = data.get("class")
    declared = None if cls_obj is None else GrowthClass(
        cls_obj["kind"], float(cls_obj["base"]), int(cls_obj["k"]),
        float(cls_obj.get("c", 1.0)),
    )
    return UltraDistribution(seq, declared_class=declared)


def save_ultra(F: UltraDistribution, path) -> None:
    with open(path, "w") as fh:
        json.dump(ultra_to_dict(F), fh, indent=2)


def load_ultra(path) -> UltraDistribution:
    with open(path) as fh:
        return ultra_from_dict(json.load(fh))
