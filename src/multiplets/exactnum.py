"""Exact arithmetic for real amplitudes of the form sign * sqrt(p/q).

Every amplitude in a coupled-basis expansion is a single product of
Clebsch-Gordan coefficients, hence a signed square root of a rational.
This module is the one place that reduces, tests, rounds and prints that
number, by four functions on ints: ``radical_parts``, ``ratio_root``,
``radical_float`` and ``radical_text``. The engine, the table rows and
``recouple`` call them on integer forms (r, k), and :class:`SignedRadical`
on its own sign and radicand, so each value has one float and one text.
``SignedRadical`` multiplies, negates, floats, prints and round-trips
through JSON. It does not add: a sum of coupled amplitudes is formed on
integers, as ``sqrt(r)`` times an integer combination
(``multiplets.coupling``, ``multiplets.operators``).
:meth:`SignedRadical.as_rational` raises :class:`NotClosedError` for an
irrational value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "NotClosedError",
    "SignedRadical",
    "radical_float",
    "radical_parts",
    "radical_text",
    "ratio_root",
]


class NotClosedError(ArithmeticError):
    """The exact result is not of the form sign * sqrt(p/q)."""


def radical_parts(p: int, q: int, k: int) -> tuple[int, int, int, tuple[int, int] | None]:
    """sqrt(p/q) * k, p/q in lowest terms and k nonzero, as its sign, its
    radicand p k^2 / q in lowest terms (num, den), and (a, b) with a/b its
    absolute value when that is rational, else None. Only k^2 and q share
    factors."""
    g = math.gcd(k * k, q)
    num, den = p * (k * k // g), q // g
    a, b = math.isqrt(num), math.isqrt(den)
    return 1 if k > 0 else -1, num, den, (a, b) if a * a == num and b * b == den else None


def radical_float(p: int, q: int, k: int) -> float:
    """The nearest double to sqrt(p/q) * k, k nonzero: exact division when
    the value is rational, else one ``math.sqrt`` of the correctly rounded
    radicand. Int division rounds correctly, as ``Fraction.__float__`` does."""
    sign, num, den, root = radical_parts(p, q, k)
    return sign * (root[0] / root[1] if root else math.sqrt(num / den))


def radical_text(num: int, den: int, root: tuple[int, int] | None) -> str:
    """The unsigned text of sqrt(num/den), from ``radical_parts``: "a" or
    "a/b" when ``root`` is (a, b), else "sqrt(num)" or "sqrt(num/den)"."""
    p, q = root or (num, den)
    text = str(p) if q == 1 else f"{p}/{q}"
    return text if root else "sqrt(" + text + ")"


def ratio_root(p: int, q: int, p_first: int, q_first: int) -> tuple[int, int] | None:
    """(a, b) with (a/b)^2 = (p/q) / (p_first/q_first), or None when that
    ratio is no rational square: the package's one test of whether two
    radicals are rational multiples of each other. One ``isqrt``."""
    b = q * p_first
    a = math.isqrt(p * q_first * b)
    return (a, b) if a * a == p * q_first * b else None


@dataclass(frozen=True)
class SignedRadical:
    """The exact real number ``sign * sqrt(radicand)``.

    ``sign`` is -1, 0 or +1 and ``radicand`` is a non-negative rational.
    ``Fraction`` keeps the radicand in lowest terms with a positive
    denominator, and the zero value is canonically (0, 0), so equality
    and hashing are structural.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self) -> None:
        if type(self.sign) is not int or self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be the int -1, 0 or +1, got {self.sign!r}")
        if not isinstance(self.radicand, Fraction):
            object.__setattr__(self, "radicand", Fraction(self.radicand))
        if self.radicand < 0:
            raise ValueError(f"radicand must be non-negative, got {self.radicand}")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign is zero exactly when the radicand is zero")

    @classmethod
    def zero(cls) -> "SignedRadical":
        return cls(0, Fraction(0))

    @classmethod
    def sqrt(cls, radicand: Fraction | int, sign: int = 1) -> "SignedRadical":
        """sign * sqrt(radicand) for a non-negative rational radicand."""
        radicand = Fraction(radicand)
        if radicand == 0:
            return cls.zero()
        return cls(sign, radicand)

    def __hash__(self) -> int:
        # The radicand is in lowest terms, so its two integers identify it;
        # hashing them skips Fraction's modular hash.
        return hash((self.sign, self.radicand.numerator, self.radicand.denominator))

    def __bool__(self) -> bool:
        return self.sign != 0

    def __neg__(self) -> "SignedRadical":
        return SignedRadical(-self.sign, self.radicand)

    def __mul__(self, other: "SignedRadical") -> "SignedRadical":
        if not isinstance(other, SignedRadical):
            return NotImplemented
        sign = self.sign * other.sign
        if sign == 0:
            return SignedRadical.zero()
        return SignedRadical(sign, self.radicand * other.radicand)

    def squared(self) -> Fraction:
        """The exact square; equals the radicand for any valid value."""
        return self.radicand

    def _parts(self) -> tuple[int, int, int, tuple[int, int] | None]:
        """``radical_parts`` of a nonzero value: k is the sign."""
        return radical_parts(self.radicand.numerator, self.radicand.denominator, self.sign)

    def as_rational(self) -> Fraction:
        """Exact rational value; raises NotClosedError when irrational."""
        if self.sign == 0:
            return Fraction(0)
        root = self._parts()[3]
        if root is None:
            raise NotClosedError(f"{self} is irrational")
        return Fraction(self.sign * root[0], root[1])

    def to_float(self) -> float:
        """Nearest double, by ``radical_float``."""
        if self.sign == 0:
            return 0.0
        return radical_float(self.radicand.numerator, self.radicand.denominator, self.sign)

    def to_json_dict(self) -> dict:
        """JSON form {"sign": s, "num": "p", "den": "q"} for sign*sqrt(p/q)."""
        return {
            "sign": self.sign,
            "num": str(self.radicand.numerator),
            "den": str(self.radicand.denominator),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SignedRadical":
        """Inverse of ``to_json_dict``: the keys are exactly sign, num and den,
        sign is a JSON integer in {-1, 0, 1}, and num and den are ASCII digits."""
        sign, num, den = data.get("sign"), data.get("num"), data.get("den")
        if (set(data) != {"sign", "num", "den"} or type(sign) is not int or sign not in (-1, 0, 1)
                or not all(type(s) is str and s.isascii() and s.isdigit() for s in (num, den))):
            raise ValueError(f"malformed radical {data!r}")
        try:
            radicand = Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed radical {data!r}") from exc
        return cls(sign, radicand)

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        sign, num, den, root = self._parts()
        return ("-" if sign < 0 else "") + radical_text(num, den, root)

    def __repr__(self) -> str:
        return f"SignedRadical({self.sign}, {self.radicand!r})"

