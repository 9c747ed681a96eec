"""Column-wise emission against the per-value renderer it replaced.

``oracle_json`` and ``oracle_csv`` are the row-wise renderers kept verbatim
as the reference: every artifact must keep their bytes, and a non-finite
value must raise their message, naming the first one in row-major order.
"""

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fractalspec.reports import CSV_BLOCK, fmt_float, render_csv, render_json


def _oracle_coerce(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def _oracle_float(x):
    if not np.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite float {x!r}")
    return format(float(x), ".17g")


def oracle_json(obj, indent=0, compact=False):
    obj = _oracle_coerce(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, float):
        return _oracle_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            (json.dumps(str(key)), oracle_json(obj[key], indent + 1, compact))
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
        items = [oracle_json(v, indent + 1, compact) for v in obj]
        if compact:
            return "[" + ", ".join(items) + "]"
        child = "  " * (indent + 1)
        body = ",\n".join(f"{child}{v}" for v in items)
        return "[\n" + body + "\n" + "  " * indent + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def oracle_csv(header, rows, comments=None):
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for value in row:
            value = _oracle_coerce(value)
            if isinstance(value, bool):
                cells.append("true" if value else "false")
            elif isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            elif isinstance(value, float):
                cells.append(_oracle_float(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def outcome(render, *args, **kwargs):
    """The rendered text, or the type and message of the error raised."""
    try:
        return render(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, 3.0, -2.0, 2.0**53, 1e16]
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
)
DTYPES = st.sampled_from([np.float64, np.int64, np.uint8, np.bool_])


def _elements(dtype):
    if dtype is np.float64:
        return FLOATS
    return None  # hypothesis' default covers the whole integer or bool range


@st.composite
def finite_arrays(draw, max_dims=3):
    dtype = draw(DTYPES)
    shape = draw(st.lists(st.integers(0, 4), max_size=max_dims).map(tuple))
    return draw(arrays(dtype, shape, elements=_elements(dtype)))


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    dtypes = draw(st.lists(DTYPES, min_size=1, max_size=4))
    return tuple(draw(arrays(dtype, n, elements=_elements(dtype))) for dtype in dtypes)


def with_non_finite(draw, array):
    """A float copy of ``array`` with NaN or infinities at drawn positions."""
    array = array.astype(float)
    flat = array.reshape(-1)
    if flat.size:
        positions = draw(st.lists(st.integers(0, flat.size - 1), min_size=1, max_size=3))
        for pos in positions:
            flat[pos] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return array


class TestJson:
    @given(array=finite_arrays(), indent=st.integers(0, 3), compact=st.booleans())
    @example(array=np.array([[0.1, -0.0], [5e-324, 1e308], [3.0, 2.0]]), indent=1, compact=False)
    @example(array=np.zeros((2, 0, 3)), indent=0, compact=False)
    @example(array=np.zeros((0, 2)), indent=2, compact=True)
    def test_array_matches_oracle(self, array, indent, compact):
        assert render_json(array, indent, compact) == oracle_json(array, indent, compact)

    @given(a=finite_arrays(), b=finite_arrays(), compact=st.booleans())
    def test_arrays_nested_in_dicts_match_oracle(self, a, b, compact):
        payload = {"config": {"grid": "0:1:0.5"}, "rows": a, "nested": {"deep": [b, 1, 0.5]}, "n": np.int64(3)}
        assert render_json(payload, compact=compact) == oracle_json(payload, compact=compact)

    @settings(max_examples=60)
    @given(data=st.data(), array=finite_arrays(), compact=st.booleans())
    def test_non_finite_raises_like_oracle(self, data, array, compact):
        array = with_non_finite(data.draw, array)
        payload = {"a": array}
        assert outcome(render_json, payload, compact=compact) == outcome(oracle_json, payload, compact=compact)

    def test_non_finite_named_in_row_major_order(self):
        array = np.array([[1.0, np.inf], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="non-finite float inf$"):
            render_json(array)
        with pytest.raises(ValueError, match="non-finite float nan$"):
            render_json(array.T)

    def test_scalars_and_strings_unchanged(self):
        payload = {"s": "a\"b", "f": np.float64(0.1), "none": None, "b": np.bool_(True), "z": 1 + 2j}
        assert render_json(payload) == oracle_json(payload)
        assert fmt_float(0.1) == "0.10000000000000001"
        with pytest.raises(ValueError, match="non-finite float -inf"):
            fmt_float(-np.inf)


class Row(NamedTuple):
    r: int
    gamma: float


@dataclass(frozen=True)
class Report:
    name: str
    rows: tuple[Row, ...]
    table: np.ndarray = field(metadata={"artifact": False})
    inner: Row | None = None


class TestReports:
    def test_fields_render_as_their_dict(self):
        report = Report("x", (Row(1, 0.5), Row(2, 0.25)), np.arange(3.0), Row(3, 1e-3))
        expected = {
            "name": "x",
            "rows": [{"r": 1, "gamma": 0.5}, {"r": 2, "gamma": 0.25}],
            "inner": {"r": 3, "gamma": 1e-3},
        }
        for compact in (False, True):
            assert render_json(report, compact=compact) == oracle_json(expected, compact=compact)

    def test_nested_in_payload(self):
        payload = {"report": Report("y", (), np.zeros(0)), "n": 1}
        assert json.loads(render_json(payload)) == {
            "report": {"name": "y", "rows": [], "inner": None},
            "n": 1,
        }

    def test_report_class_is_not_rendered(self):
        with pytest.raises(TypeError):
            render_json(Report)


class TestCsv:
    @given(columns=tables())
    @example(columns=(np.array([0.1, -0.0, 5e-324, 1e308]), np.array([1, 2, 3, 4]), np.array([True, False] * 2)))
    @example(columns=(np.empty(0), np.empty(0, dtype=np.int64)))
    def test_table_matches_oracle(self, columns):
        header = [f"c{k}" for k in range(len(columns))]
        comments = ["config: {}", "schema_version: 1"]
        expected = oracle_csv(header, list(zip(*columns)), comments)
        assert render_csv(header, columns, comments) == expected

    @settings(max_examples=60)
    @given(data=st.data(), columns=tables())
    def test_non_finite_raises_like_oracle(self, data, columns):
        bad = data.draw(st.sets(st.integers(0, len(columns) - 1), min_size=1))
        columns = tuple(with_non_finite(data.draw, c) if k in bad else c for k, c in enumerate(columns))
        header = [f"c{k}" for k in range(len(columns))]
        rows = list(zip(*columns))
        assert outcome(render_csv, header, columns) == outcome(oracle_csv, header, rows)

    def test_non_finite_named_in_row_order(self):
        # column 0 fails first, but row 0 of column 1 comes first row-wise
        columns = (np.array([1.0, np.nan]), np.array([np.inf, 1.0]))
        with pytest.raises(ValueError, match="non-finite float inf$"):
            render_csv(["a", "b"], columns)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            render_csv(["a", "b"], (np.zeros(2), np.zeros(3)))

    @pytest.mark.parametrize("rows", [CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 3])
    def test_blocks_match_oracle(self, rows):
        rng = np.random.default_rng(rows)
        columns = (rng.normal(size=rows), rng.integers(-9, 9, size=rows), rng.random(rows) < 0.5)
        expected = oracle_csv(["x", "n", "b"], list(zip(*columns)), ["c"])
        assert render_csv(["x", "n", "b"], columns, ["c"]) == expected

    def test_non_finite_named_across_blocks(self):
        # the first non-finite value in row order sits in the second block
        a, b = np.zeros(2 * CSV_BLOCK), np.zeros(2 * CSV_BLOCK)
        a[CSV_BLOCK + 5], b[CSV_BLOCK + 2], a[-1] = np.nan, -np.inf, np.inf
        with pytest.raises(ValueError, match="non-finite float -inf$"):
            render_csv(["a", "b"], (a, b))

    def test_ragged_last_block_rejected(self):
        with pytest.raises(ValueError):
            render_csv(["a", "b"], (np.zeros(CSV_BLOCK + 1), np.zeros(CSV_BLOCK + 2)))
