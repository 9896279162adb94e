"""Rounding and text of sign * sqrt(r) on ``Fraction``: the test oracle for
the int functions of ``multiplets.exactnum``.

These are the bodies that ``SignedRadical.to_float``, ``as_rational`` and
``__str__`` had before they called ``radical_float``, ``radical_parts``
and ``radical_text``: the rational test is two ``isqrt`` of the reduced
radicand, a rational value floats through ``Fraction.__float__``, and any
other through ``math.sqrt`` of the radicand's float. They live here, not
in ``src/``, because the package has one rounding and one text of a
radical; ``tests/test_radical_oracle.py`` requires equal float bits and
equal text from both.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_square(r: Fraction) -> bool:
    p, q = r.numerator, r.denominator
    return math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q


def as_rational(sign: int, r: Fraction) -> Fraction:
    """sign * sqrt(r) for a rational square r."""
    return Fraction(sign * math.isqrt(r.numerator), math.isqrt(r.denominator))


def to_float(sign: int, r: Fraction) -> float:
    if sign == 0:
        return 0.0
    if is_square(r):
        return float(as_rational(sign, r))
    return sign * math.sqrt(float(r))


def text(sign: int, r: Fraction) -> str:
    if sign == 0:
        return "0"
    prefix = "-" if sign < 0 else ""
    if is_square(r):
        return prefix + str(abs(as_rational(sign, r)))
    return f"{prefix}sqrt({r})"
