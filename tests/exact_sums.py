"""Exact sums of ``SignedRadical`` values, for the exact identities in the tests.

The package never adds radicals: the expansion engine and ``verify`` sum
integers times one common radical. The tests that check orthonormality
(CG and Gram identities) need a true sum, so it lives here. Terms are
grouped as the engine groups amplitudes: two terms share a group when
their radicands differ by a rational square, found with ``isqrt`` on the
ratio's numerator and denominator. Nothing is factored, so a radicand
with large prime factors costs no more than a small one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from multiplets.exactnum import NotClosedError, SignedRadical


def _square_root(value: Fraction) -> Fraction | None:
    """The rational square root of ``value``, or None if it is irrational."""
    p, q = math.isqrt(value.numerator), math.isqrt(value.denominator)
    return Fraction(p, q) if p * p == value.numerator and q * q == value.denominator else None


def radical_sum(terms: Iterable[SignedRadical]) -> SignedRadical:
    """Exact sum of radicals, or NotClosedError if it is not one radical.

    Each group keeps its first radicand b and the rational c of c sqrt(b),
    so orderings that would trip a pairwise add (e.g. sqrt(2) + sqrt(3)
    - sqrt(3) - sqrt(2)) still sum exactly.
    """
    groups: list[list] = []  # [b, c] per group
    for term in terms:
        if not term:
            continue
        for group in groups:
            root = _square_root(term.radicand / group[0])
            if root is not None:
                group[1] += term.sign * root
                break
        else:
            groups.append([term.radicand, Fraction(term.sign)])
    groups = [(b, c) for b, c in groups if c]
    if not groups:
        return SignedRadical.zero()
    if len(groups) > 1:
        parts = ", ".join(f"{c}*sqrt({b})" for b, c in groups)
        raise NotClosedError(f"sum is not a single radical: {parts}")
    (b, c), = groups
    return SignedRadical(1 if c > 0 else -1, c * c * b)
