"""The exact number parser and the rationals a system keeps.

``float(parse(v))`` must give the float the earlier float-only parser gave
(kept below as the reference), and each system must store ``float()`` of
its rationals, rows in the order of its floats.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalspec.errors import ValidationError
from fractalspec.exact import parse
from fractalspec.systems import make_system, parse_number, parse_system, scale_system


def float_parse_number(value):
    """Reference: the float-only parser that :func:`parse` replaced."""
    try:
        number = float(Fraction(value)) if isinstance(value, str) and "/" in value else float(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        number = math.nan
    if isinstance(value, (bool, np.bool_)) or not math.isfinite(number):
        raise ValidationError(f"not a finite number: {value!r}")
    return number


def outcome(parser, value):
    try:
        return parser(value)
    except ValidationError as exc:
        return str(exc)


decimals = st.builds(
    lambda sign, whole, frac, exp: f"{sign}{whole}{frac}{exp}",
    st.sampled_from(["", "-", "+", " "]),
    st.sampled_from(["", "0", "1", "7", "123456789", "1_000", "00003"]),
    st.sampled_from(["", ".", ".5", ".1", ".333333333333333333333", "._5"]),
    st.one_of(
        st.just(""),
        st.integers(-400, 400).map("e{}".format),
        st.integers(-(10**9), 10**9).map("E{}".format),  # huge exponents
    ),
)
numbers = st.one_of(
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.builds("{}/{}".format, st.integers(-(10**30), 10**30), st.integers(-4, 10**30)),
    decimals,
    st.sampled_from(["nan", "-inf", "1e400", "5e-324", "2e-324", "1e-400000000", "", "1/3 ", "abc"]),
)


@settings(max_examples=500, deadline=None)
@given(numbers)
def test_float_of_the_rational_is_the_float_parse(value):
    # the same values accepted, the same messages, the same bits (a zero
    # loses its sign: the rational 0 has none)
    old, new = outcome(float_parse_number, value), outcome(parse_number, value)
    if isinstance(old, str):
        assert new == old
    else:
        assert new.hex() == old.hex() or new == old == 0.0


@settings(max_examples=300, deadline=None)
@given(decimals.filter(lambda s: "E" not in s))
def test_decimal_string_keeps_its_written_value(text):
    value = outcome(float_parse_number, text)
    if isinstance(value, float) and value != 0.0:
        assert parse(text) == Fraction(Decimal(text.replace("_", "")))


@pytest.mark.parametrize(
    "value, rational",
    [
        ("0.1", Fraction(1, 10)),
        ("1/3", Fraction(1, 3)),
        (0.1, Fraction(*(0.1).as_integer_ratio())),
        (np.int64(-7), Fraction(-7)),
        (Fraction(2, 3), Fraction(2, 3)),
        ("1e-400000000", Fraction(0)),  # below the float range: no 10**400000000
        ("-0.0", Fraction(0)),
    ],
)
def test_parse_values(value, rational):
    assert parse(value) == rational and type(parse(value).numerator) is int


def test_numpy_free_parse_rejects_numpy_booleans():
    for value in (np.True_, np.False_, True):
        with pytest.raises(ValidationError, match="^not a finite number: "):
            parse(value)


rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=4, unique_by=float), st.integers(1, 4))
def test_system_stores_the_floats_of_its_rationals(digits, r):
    text = [f"{q.numerator}/{q.denominator}" for q in digits]
    s = scale_system(parse_system({"d": 1, "R": ["7/2"], "B": text, "L": text[::-1]}), r)
    for name in "RBL":
        rows = getattr(s.exact, name)
        assert getattr(s, name).tolist() == [[float(x) for x in row] for row in rows]
    assert sorted(q for (q,) in s.exact.B) == sorted(digits)
    assert s.exact.R == ((Fraction(7 * r, 2),),)


def test_float_built_system_keeps_binary_values():
    s = make_system([[2.0, 1.0], [0.0, 2.0]], [[0.1, 0.0], [0.0, 0.0]], [[0.0, -0.0], [1.0, 3.0]])
    assert s.exact.B == ((0, 0), (Fraction(0.1), 0))
    assert s.exact.L == ((0, 0), (1, 3)) and s.L.tolist() == [[0.0, 0.0], [1.0, 3.0]]
    assert not np.signbit(s.L).any()  # -0.0 is stored as float(0)
