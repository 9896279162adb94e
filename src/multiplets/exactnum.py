"""Exact arithmetic for real amplitudes of the form sign * sqrt(p/q).

Every amplitude in a coupled-basis expansion is a single product of
Clebsch-Gordan coefficients, hence a signed square root of a rational.
This module provides that one value type: it multiplies, negates, floats,
prints and round-trips through JSON. It does not add: a sum of coupled
amplitudes is formed on integers, as ``sqrt(r)`` times an integer
combination (``multiplets.coupling``, ``multiplets.operators``).
:meth:`SignedRadical.as_rational` raises :class:`NotClosedError` for an
irrational value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["NotClosedError", "SignedRadical"]


class NotClosedError(ArithmeticError):
    """The exact result is not of the form sign * sqrt(p/q)."""


def _is_square(r: Fraction) -> bool:
    p, q = r.numerator, r.denominator
    return math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q


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
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
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
    def one(cls) -> "SignedRadical":
        return cls(1, Fraction(1))

    @classmethod
    def sqrt(cls, radicand: Fraction | int, sign: int = 1) -> "SignedRadical":
        """sign * sqrt(radicand) for a non-negative rational radicand."""
        radicand = Fraction(radicand)
        if radicand == 0:
            return cls.zero()
        return cls(sign, radicand)

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "SignedRadical":
        """The rational ``value`` itself, stored as sign * sqrt(value**2)."""
        value = Fraction(value)
        if value == 0:
            return cls.zero()
        return cls(1 if value > 0 else -1, value * value)

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

    def is_rational(self) -> bool:
        return self.sign == 0 or _is_square(self.radicand)

    def as_rational(self) -> Fraction:
        """Exact rational value; raises NotClosedError when irrational."""
        if self.sign == 0:
            return Fraction(0)
        if not _is_square(self.radicand):
            raise NotClosedError(f"{self} is irrational")
        p, q = self.radicand.numerator, self.radicand.denominator
        return Fraction(self.sign * math.isqrt(p), math.isqrt(q))

    def to_float(self) -> float:
        """Nearest double; exact whenever the radicand is a perfect square."""
        if self.sign == 0:
            return 0.0
        if _is_square(self.radicand):
            return float(self.as_rational())
        return self.sign * math.sqrt(float(self.radicand))

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
        prefix = "-" if self.sign < 0 else ""
        if _is_square(self.radicand):
            return prefix + str(abs(self.as_rational()))
        return f"{prefix}sqrt({self.radicand})"

    def __repr__(self) -> str:
        return f"SignedRadical({self.sign}, {self.radicand!r})"

