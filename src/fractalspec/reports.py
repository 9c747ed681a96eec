"""Deterministic JSON/CSV emission for command-line runs.

Identical inputs must produce byte-identical artifacts, so no timestamps or
environment data are ever written, keys are sorted, and floats are rendered
with 17 significant digits (full round-trip precision), which the stock
json encoder does not guarantee.

Numbers are formatted a column at a time: :func:`_cells` checks a whole
numpy array for non-finite values once and formats it in one C-level pass
(``"%.17g"`` over ``tolist()``), so the cost of an artifact is a few calls
per column, not per cell.  CSV tables arrive as a tuple of 1-D columns and
JSON payloads carry ndarrays, which are nested by shape here; the bytes are
those of rendering the same values one by one.  A derived column must be
computed as the scalar code would compute it: ``|z|`` is
``np.hypot(re, im)``, which equals ``abs(complex)`` bit for bit, while
``np.abs`` on a complex array differs in the last digit on about a third of
a Fourier table.

A report is its artifact: a dataclass renders as ``{field: value}`` over
its fields, except those declared with ``field(metadata={"artifact":
False})`` (bulk arrays that go out as CSV rows), and a named tuple as its
``_asdict()``; each value is then rendered by the rules above.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from math import prod
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "1"

__all__ = ["SCHEMA_VERSION", "fmt_float", "render_json", "write_text", "render_csv"]

_BOOL_TEXT = ("false", "true")
CSV_BLOCK = 4096  # rows per formatting block of render_csv


def _non_finite(value) -> ValueError:
    return ValueError(f"refusing to serialize non-finite float {float(value)!r}")


def fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise _non_finite(x)
    return format(float(x), ".17g")


def _cells(column: np.ndarray) -> list[str]:
    """One JSON/CSV cell per value of a 1-D bool, integer or float array."""
    kind = column.dtype.kind
    if kind == "b":
        return list(map(_BOOL_TEXT.__getitem__, column.tolist()))
    if kind in "iu":
        return list(map(str, column.tolist()))
    if kind == "f":
        finite = np.isfinite(column)
        if not finite.all():
            raise _non_finite(column[np.argmin(finite)])
        return list(map("%.17g".__mod__, column.tolist()))
    raise TypeError(f"cannot serialize {column.dtype} values")


def _nest(cells: list[str], shape: tuple, indent: int, compact: bool) -> str:
    """Join row-major cells into nested lists of ``shape``, laid out as
    :func:`render_json` lays out the equivalent Python lists at ``indent``."""
    if not shape:
        return cells[0]
    for axis in range(len(shape) - 1, -1, -1):
        n = shape[axis]
        if n == 0:
            cells = ["[]"] * prod(shape[:axis])
            continue
        if compact:
            head, sep, tail = "[", ", ", "]"
        else:
            pad = "  " * (indent + axis)
            head, sep, tail = f"[\n{pad}  ", f",\n{pad}  ", f"\n{pad}]"
        cells = [head + sep.join(cells[k : k + n]) + tail for k in range(0, len(cells), n)]
    return cells[0]


def _coerce(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        shown = (f.name for f in fields(obj) if f.metadata.get("artifact", True))
        return {name: getattr(obj, name) for name in shown}
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        return obj._asdict()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def render_json(obj, indent: int = 0, compact: bool = False) -> str:
    """Render with sorted keys and 17-significant-digit floats."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "biuf":
        return _nest(_cells(obj.ravel()), obj.shape, indent, compact)
    obj = _coerce(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            (json.dumps(str(key)), render_json(obj[key], indent + 1, compact))
            for key in sorted(obj, key=str)
        ]
        if compact:
            return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
        child = "  " * (indent + 1)
        body = ",\n".join(f"{child}{k}: {v}" for k, v in items)
        return "{\n" + body + "\n" + "  " * indent + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [render_json(v, indent + 1, compact) for v in obj]
        if compact:
            return "[" + ", ".join(items) + "]"
        child = "  " * (indent + 1)
        body = ",\n".join(f"{child}{v}" for v in items)
        return "[\n" + body + "\n" + "  " * indent + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_csv(header: list[str], columns, comments: list[str] | None = None) -> str:
    """Fixed-header CSV preceded by '#' comment lines (config echo).

    ``columns`` holds one 1-D numpy array per header field, all of one
    length.  Rows are formatted CSV_BLOCK at a time, so only one block's
    cell strings are alive next to the text.
    """
    if len({len(column) for column in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(header))
    rows = len(columns[0]) if columns else 0
    for start in range(0, rows, CSV_BLOCK):
        block = [column[start : start + CSV_BLOCK] for column in columns]
        try:
            cells = [_cells(column) for column in block]
        except ValueError:
            # name the first non-finite value in row order, as a row-wise pass would
            _cells(np.column_stack(block).ravel())
            raise
        lines.append("\n".join(map(",".join, zip(*cells))))
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    Path(path).write_text(text)
