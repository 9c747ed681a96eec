"""A system's numbers as exact rationals (:func:`parse`, :class:`Rationals`),
and the exact questions on them: integrality (:func:`is_integral`) and one
step of the witness walk (:func:`is_weight_one_step`).  Imports no numpy.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from numbers import Integral

from .errors import ValidationError

Rationals = namedtuple("Rationals", "R B L")  # of a system, each a tuple of rows of Fractions


def parse(value) -> Fraction:
    """The exact rational of a number or a numeric string.

    An int or a Fraction reads at its value, any other number at the binary
    value of its float, and a ``"p/q"`` or decimal string at its written
    value, so ``float(parse(v))`` has the bits of ``float(v)`` but for the
    sign of a zero.  A decimal whose float is 0 reads as 0: no 10**exponent
    is formed for a huge exponent.  Anything that is not a finite number
    (p/0, nan, inf, beyond the float range, a boolean such as JSON ``true``,
    not a number at all) is a :class:`ValidationError`.
    """
    exact = None
    try:
        if isinstance(value, str) and "/" in value:
            exact = Fraction(value)
        number = float(value if exact is None else exact)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        number = math.nan
    numpy = sys.modules.get("numpy")  # a numpy boolean exists only once numpy is imported
    if isinstance(value, bool) or (numpy and isinstance(value, numpy.bool_)) or not math.isfinite(number):
        raise ValidationError(f"not a finite number: {value!r}")
    if exact is not None or isinstance(value, Fraction):
        return value if exact is None else exact
    if isinstance(value, str):  # float() read it, so its exponent is in range unless it is 0
        return Fraction(value) if number else Fraction(0)
    return Fraction(int(value)) if isinstance(value, Integral) else Fraction(number)


def is_integral(q: Rationals) -> bool:
    """Whether R, L and R^n b . l for n = 1..d are integers.

    Then R^n b . l is an integer for every n >= 1: the characteristic
    polynomial of R^T is monic with integer coefficients, so each
    (R^T)^(n-1) is an integer combination of (R^T)^j, j < d, and
    b . (R^T)^n l = sum_j a_j b . (R^T)^(j+1) l.  The argument needs exact
    integers: a near-integral R such as 4 + 1e-10 passes every test within
    1e-9 up to n = d but drifts off the integers as n grows.
    """
    if any(x.denominator != 1 for rows in (q.R, q.L) for row in rows for x in row):
        return False
    den = math.lcm(*(x.denominator for row in q.B for x in row))
    powered = [[int(x * den) for x in row] for row in q.B]
    R, L = ([[int(x) for x in row] for row in rows] for rows in (q.R, q.L))
    for _ in R:  # d times
        powered = [[sum(x * y for x, y in zip(r, p)) for r in R] for p in powered]  # den R^n b
        if any(sum(x * y for x, y in zip(p, l)) % den for p in powered for l in L):
            return False
    return True


def is_weight_one_step(q: Rationals, j: int, here, image) -> bool:
    """Whether the dual map of l = L[j] takes the float point ``here``
    exactly to ``image`` with weight |chi(here - l)|^2 = 1: (b - b_0) .
    (here - l) is an integer for every b, so all N exponentials agree, and
    R^T image + l = here, with no inverse taken."""
    here, image = ([Fraction(x) for x in point] for point in (here, image))
    phase = [sum(x * (y - z) for x, y, z in zip(b, here, q.L[j])) for b in q.B]
    back = [sum(x * y for x, y in zip(col, image)) + y for col, y in zip(zip(*q.R), q.L[j])]
    return all((p - phase[0]).denominator == 1 for p in phase) and back == here
