"""``cg`` against sympy's Clebsch-Gordan coefficients.

Every (j1, m1, j2, m2, j, m) with j1, j2 <= 4, j in the triangle range and
m = m1 + m2 within j (7,809 coefficients) must have the same exact sign
and the same exact square as ``sympy.physics.quantum.cg.CG``, which also
follows the Condon-Shortley convention.
"""

from fractions import Fraction

import pytest

from multiplets.coupling import Spin, SpinProjection, cg

sympy = pytest.importorskip("sympy")
from sympy.physics.quantum.cg import CG  # noqa: E402

TWO_J_MAX = 8


def _half(doubled):
    return sympy.Rational(doubled, 2)


def _cases(tj1, tj2):
    for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                if abs(tm1 + tm2) <= tj:
                    yield tj1, tm1, tj2, tm2, tj, tm1 + tm2


def test_case_count():
    count = sum(1 for tj1 in range(TWO_J_MAX + 1) for tj2 in range(TWO_J_MAX + 1)
                for _ in _cases(tj1, tj2))
    assert count == 7809


@pytest.mark.parametrize("tj2", range(TWO_J_MAX + 1))
@pytest.mark.parametrize("tj1", range(TWO_J_MAX + 1))
def test_cg_matches_sympy(tj1, tj2):
    for args in _cases(tj1, tj2):
        tj1, tm1, tj2, tm2, tj, tm = args
        ours = cg(Spin(tj1), SpinProjection(tm1), Spin(tj2), SpinProjection(tm2),
                  Spin(tj), SpinProjection(tm))
        theirs = CG(*(_half(x) for x in args)).doit()
        square = theirs ** 2
        assert square.is_Rational, (args, theirs)
        assert ours.squared() == Fraction(int(square.p), int(square.q)), args
        assert ours.sign == int(sympy.sign(theirs)), args
