"""The int functions of ``multiplets.exactnum`` against ``tests/oracle_radical.py``.

``radical_parts``, ``radical_float``, ``radical_text`` and ``ratio_root``
are the package's one reduction, rounding, text and rational test of
sign * sqrt(p/q) * k; ``SignedRadical.to_float``, ``as_rational`` and
``str`` call them. Each must give the oracle's float bit for bit (compared
by ``float.hex``) and its text character for character, for p and q of 1
to 30 digits, perfect squares among them, and 0 < |k| <= 10**6.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from multiplets.exactnum import (
    SignedRadical,
    radical_float,
    radical_parts,
    radical_text,
    ratio_root,
)

import oracle_radical

digits = st.integers(1, 30).flatmap(lambda d: st.integers(10 ** (d - 1), 10 ** d - 1))
squares = st.integers(1, 10 ** 15 - 1).map(lambda a: a * a)
# A positive rational p/q in lowest terms, with p and q of 1 to 30 digits
# (before reduction) or perfect squares.
radicands = st.builds(Fraction, st.one_of(digits, squares), st.one_of(digits, squares))
ks = st.integers(-10 ** 6, 10 ** 6).filter(bool)


def _sign(k):
    return 1 if k > 0 else -1


@settings(max_examples=400, deadline=None)
@given(radicands, ks)
def test_radical_float_rounds_as_the_oracle(r, k):
    want = oracle_radical.to_float(_sign(k), r * k * k)
    assert radical_float(r.numerator, r.denominator, k).hex() == want.hex()


@settings(max_examples=400, deadline=None)
@given(radicands, ks)
def test_radical_parts_reduce_and_test_as_the_oracle(r, k):
    sign, num, den, root = radical_parts(r.numerator, r.denominator, k)
    value = r * k * k
    assert (sign, num, den) == (_sign(k), value.numerator, value.denominator)
    if oracle_radical.is_square(value):
        assert Fraction(*root) == abs(oracle_radical.as_rational(sign, value))
    else:
        assert root is None


@settings(max_examples=400, deadline=None)
@given(radicands, ks)
def test_radical_text_prints_as_the_oracle(r, k):
    sign, num, den, root = radical_parts(r.numerator, r.denominator, k)
    text = ("-" if sign < 0 else "") + radical_text(num, den, root)
    assert text == oracle_radical.text(_sign(k), r * k * k)


@settings(max_examples=400, deadline=None)
@given(radicands, st.sampled_from([-1, 1]))
def test_signed_radical_methods_match_the_oracle(r, sign):
    radical = SignedRadical(sign, r)
    assert radical.to_float().hex() == oracle_radical.to_float(sign, r).hex()
    assert str(radical) == oracle_radical.text(sign, r)
    if oracle_radical.is_square(r):
        assert radical.as_rational() == oracle_radical.as_rational(sign, r)


def test_zero_matches_the_oracle():
    zero = SignedRadical.zero()
    assert zero.to_float().hex() == oracle_radical.to_float(0, Fraction(0)).hex()
    assert str(zero) == oracle_radical.text(0, Fraction(0)) == "0"


@settings(max_examples=400, deadline=None)
@given(radicands, radicands, st.one_of(st.just(Fraction(1)), radicands))
def test_ratio_root_is_the_rational_test_of_the_ratio(r, r_first, scale):
    # r scaled by a rational square is a rational multiple of r.
    for p_q in (r, r_first * scale * scale):
        ratio = p_q / r_first
        root = ratio_root(p_q.numerator, p_q.denominator, r_first.numerator,
                          r_first.denominator)
        if oracle_radical.is_square(ratio):
            assert root is not None and Fraction(*root) ** 2 == ratio
        else:
            assert root is None
