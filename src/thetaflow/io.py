"""CSV and JSON serialization for grid functions, coefficients and distributions.

CSV function format: header ``x,re,im`` in one dimension or
``x1,...,xd,re,im`` in d dimensions, rows in lexicographic grid order.
Floats are written with repr, so save/load round-trips are lossless;
a non-finite value is refused at load with its line number.
Coefficient sequences serialize as a JSON array of ``{n, re, im}``;
distributions as ``{window, rule, class}`` where only power rules
(``base^(|n|^k)``) have a serialized form.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .fourier import TWO_PI, CoefficientSequence, PeriodicGrid, SampledFunction, _stray_imag
from .ultradist import GrowthClass, PowerRule, UltraDistribution

_COORD_ATOL = 1e-9


def save_function(f: SampledFunction, path) -> None:
    d = f.grid.dims
    header = ["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]
    mesh = f.grid.meshgrid()
    coords = [m.reshape(-1) for m in mesh]
    flat = f.values.reshape(-1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["re", "im"])
        for i in range(flat.size):
            row = [repr(float(c[i])) for c in coords]
            row += [repr(float(flat[i].real)), repr(float(flat[i].imag))]
            writer.writerow(row)


def load_function(path) -> SampledFunction:
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
    grid = _reconstruct_grid(table[:, :d])
    vals = (table[:, d] + 1j * table[:, d + 1]).reshape(grid.sizes)
    return SampledFunction(grid, vals, kind="complex" if _stray_imag(vals) else "real")


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
