"""CSV and JSON serialization for grid functions, coefficients and distributions.

CSV function format: header ``x,re,im`` in one dimension or
``x1,...,xd,re,im`` in d dimensions, rows in lexicographic grid order,
CRLF line ends. Floats are written with repr, so save/load round-trips
are lossless; the writer takes the repr of each axis node once and writes
one block per last-axis row. The reader opens the file once, parses the
header (line 1 alone) once and the body with ``np.loadtxt``. A body that
loadtxt refuses, that has the wrong column count or no rows, or that holds
a non-finite value is read again by the row-by-row ``csv`` loop: that loop
alone names a bad line, and it also accepts what ``float()`` takes and
loadtxt does not (quoted fields, ``4_0``, non-ASCII digits). Where both
accept a body they give the same values. Blank lines are skipped but keep
their line numbers. One comparison decides the grid: the distinct values
of each axis give its size, and every row must lie within 1e-9 of its
node 2 pi j / N, in lexicographic order.
Coefficient sequences serialize as a JSON array of ``{n, re, im}``;
distributions as ``{window, rule, class}`` where only power rules
(``base^(|n|^k)``) have a serialized form. A missing or ill-typed JSON
field is refused with a ValueError naming it; ``n`` and ``k`` must be
JSON integers, and ``|n|`` at most 100 000, the largest index a pairing
sums (the window is sized from it); the writers refuse a wider window.
"""

from __future__ import annotations

import cmath
import csv
import itertools
import json
import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from .fourier import _MAX_INDEX, CoefficientSequence, PeriodicGrid, SampledFunction, _stray_imag

if TYPE_CHECKING:  # imported where used, so function I/O never loads ultradist
    from .ultradist import UltraDistribution

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
    with open(path, newline="") as fh:
        header = fh.readline()  # not next(fh), which disables fh.tell()
        if not header:
            raise ValueError("line 1: empty CSV file")
        d = _parse_header(next(_csv_rows([header])))
        body = fh.tell()
        table = _loadtxt_table(fh, d)
        if table is None:
            fh.seek(body)
            table = _row_table(fh, d)
    grid = _reconstruct_grid(table[:, :d])
    vals = table[:, d:].view(complex)[:, 0]  # no copy: (re, im) pairs are adjacent
    if _stray_imag(vals):
        return SampledFunction(grid, vals.reshape(grid.sizes), kind="complex")
    return SampledFunction(grid, table[:, d].reshape(grid.sizes), kind="real")


def _loadtxt_table(fh, d: int) -> np.ndarray | None:
    """The body of fh parsed by np.loadtxt, or None where the row loop must decide."""
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
    return table


def _row_table(fh, d: int) -> np.ndarray:
    """The body of fh parsed row by row; raises naming the first bad line."""
    rows, lines = [], []  # lines: file line of each data row
    for lineno, row in enumerate(_csv_rows(fh, after=1), start=2):
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
    return table


def _csv_rows(lines, after: int = 0):
    """The csv rows of lines, which follow file line after; a csv.Error names its line."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"line {after + reader.line_num}: {exc}") from None


def _parse_header(header: list[str]) -> int:
    cols = [h.strip() for h in header]
    # A last field that ends in a line break holds a quote left open on line 1.
    if len(cols) < 3 or cols[-2:] != ["re", "im"] or header[-1].endswith(("\r", "\n")):
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
    """The grid whose nodes coords lists in lexicographic order."""
    nrows, d = coords.shape
    # return_counts keeps np.unique off its masked-array check, which imports numpy.ma
    sizes = tuple(np.unique(coords[:, a], return_counts=True)[1].size for a in range(d))
    if math.prod(sizes) != nrows:
        raise ValueError(
            f"non-uniform grid: {nrows} rows cannot tile axis sizes {sizes}"
        )
    grid = PeriodicGrid(sizes)
    expected = np.stack([m.reshape(-1) for m in grid.meshgrid()], axis=1)
    if not np.allclose(coords, expected, rtol=0.0, atol=_COORD_ATOL):
        raise ValueError(f"rows are not the uniform nodes 2*pi*j/N of grid {sizes} "
                         "in lexicographic grid order")
    return grid


def save_coefficients(c: CoefficientSequence, path) -> None:
    entries = _coeff_entries(c)  # before the file is opened: a refusal leaves it as it was
    with open(path, "w") as fh:
        json.dump(entries, fh, indent=2)


def _coeff_entries(c: CoefficientSequence) -> list[dict]:
    if c.halfwidth > _MAX_INDEX:  # so every file written here loads back
        raise ValueError(f"a window of halfwidth {c.halfwidth} has no file form: "
                         f"a coefficient file holds |n| <= {_MAX_INDEX}")
    return [
        {"n": int(n), "re": float(c.coeffs[i].real), "im": float(c.coeffs[i].imag)}
        for i, n in enumerate(c.indices())
    ]


def _field(obj, name: str, where: str, convert=float):
    """convert(obj[name]); a missing field, or one convert refuses, is a ValueError naming it.

    float takes what float() takes, so "nan" and "inf" strings reach the
    finiteness checks; operator.index takes integers only. Neither takes a bool.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    if name not in obj:
        raise ValueError(f"{where} has no field {name!r}")
    try:
        if isinstance(obj[name], bool) and convert is not str:
            raise TypeError
        return convert(obj[name])
    except (TypeError, ValueError):
        what = "an integer" if convert is operator.index else "a number"
        raise ValueError(f"{where}: field {name!r} must be {what}, got {obj[name]!r}") from None


def _entries_to_sequence(entries, rule=None) -> CoefficientSequence:
    if not isinstance(entries, list):
        raise ValueError("a coefficient window must be a JSON array of {n, re, im}")
    table = {}
    for i, e in enumerate(entries):
        where = f"coefficient entry {i}"
        n = _field(e, "n", where, operator.index)
        if abs(n) > _MAX_INDEX:  # the window is sized from |n|
            raise ValueError(f"{where}: |n| = {abs(n)} is past {_MAX_INDEX}, "
                             "the largest index a pairing sums")
        value = complex(_field(e, "re", where), _field(e, "im", where))
        if not cmath.isfinite(value):
            raise ValueError(f"coefficient n = {n} is not finite: {value}")
        table[n] = value
    if not table:
        table = {0: 0.0}
    return CoefficientSequence.from_dict(table, rule=rule)


def load_coefficients(path) -> CoefficientSequence:
    with open(path) as fh:
        return _entries_to_sequence(json.load(fh))


def ultra_to_dict(F: UltraDistribution) -> dict:
    from .ultradist import PowerRule

    rule = F.coeffs.rule
    if rule is None:
        rule_obj = "none"
    elif isinstance(rule, PowerRule):
        rule_obj = {"type": "power", "base": rule.base, "k": rule.order}
    else:
        raise ValueError("only power rules have a serialized form: the evolved tail "
                         "b^(|n|^k) exp(-t n^2) is one only for k = 2 or b = 1")
    g = F.declared_class
    cls_obj = None if g is None else {
        "kind": g.kind, "base": g.base, "k": g.order, "c": g.constant,
    }
    return {"window": _coeff_entries(F.coeffs), "rule": rule_obj, "class": cls_obj}


def ultra_from_dict(data: dict) -> UltraDistribution:
    from .ultradist import GrowthClass, PowerRule, UltraDistribution

    if not isinstance(data, dict):
        raise ValueError("distribution JSON must be an object {window, rule, class}")
    rule_obj = data.get("rule", "none")
    if rule_obj == "none" or rule_obj is None:
        rule = None
    elif isinstance(rule_obj, dict) and rule_obj.get("type") == "power":
        rule = PowerRule(_field(rule_obj, "base", "rule"),
                         _field(rule_obj, "k", "rule", operator.index))
    else:
        raise ValueError(f"unknown rule spec {rule_obj!r}")
    seq = _entries_to_sequence(data.get("window", []), rule=rule)
    cls_obj = data.get("class")
    declared = None if cls_obj is None else GrowthClass(
        _field(cls_obj, "kind", "class", str), _field(cls_obj, "base", "class"),
        _field(cls_obj, "k", "class", operator.index),
        _field(cls_obj, "c", "class") if "c" in cls_obj else 1.0,
    )
    return UltraDistribution(seq, declared_class=declared)


def save_ultra(F: UltraDistribution, path) -> None:
    data = ultra_to_dict(F)  # before the file is opened: a refusal leaves it as it was
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def load_ultra(path) -> UltraDistribution:
    with open(path) as fh:
        return ultra_from_dict(json.load(fh))
