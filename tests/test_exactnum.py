import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multiplets.exactnum import NotClosedError, SignedRadical

from exact_sums import radical_sum


def sqrt_of(p, q=1, sign=1):
    return SignedRadical.sqrt(Fraction(p, q), sign)


def rational(value):
    """The rational ``value`` as sign * sqrt(value**2)."""
    return SignedRadical.sqrt(value * value, 1 if value >= 0 else -1)


class TestConstruction:
    def test_zero_is_canonical(self):
        assert SignedRadical.zero() == SignedRadical(0, Fraction(0))
        assert not SignedRadical.zero()

    def test_sign_zero_requires_zero_radicand(self):
        with pytest.raises(ValueError):
            SignedRadical(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            SignedRadical(1, Fraction(0))

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            SignedRadical(1, Fraction(-1, 2))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            SignedRadical(2, Fraction(1))

    @pytest.mark.parametrize("sign", [True, False, 1.0], ids=["true", "false", "float"])
    def test_non_int_sign_rejected(self, sign):
        # True == 1, so a bool sign would compare equal to the int one and
        # be written to JSON as true, which from_json_dict refuses.
        with pytest.raises(ValueError, match="sign"):
            SignedRadical(sign, Fraction(1) if sign else Fraction(0))
        with pytest.raises(ValueError, match="sign"):
            SignedRadical.sqrt(Fraction(1, 2), sign)

    def test_sqrt_of_zero_collapses_sign(self):
        assert SignedRadical.sqrt(Fraction(0), sign=-1) == SignedRadical.zero()

    def test_equality_is_structural(self):
        assert sqrt_of(2, 4) == sqrt_of(1, 2)
        assert hash(sqrt_of(2, 4)) == hash(sqrt_of(1, 2))


class TestMultiplication:
    def test_perfect_square_product(self):
        # sqrt(1/2) * sqrt(1/2) = 1/2
        product = sqrt_of(1, 2) * sqrt_of(1, 2)
        assert product == SignedRadical(1, Fraction(1, 4))
        assert product.as_rational() == Fraction(1, 2)

    def test_rational_reduction(self):
        assert sqrt_of(2, 3, sign=-1) * sqrt_of(1, 2) == sqrt_of(1, 3, sign=-1)

    def test_absorbing_zero(self):
        assert SignedRadical.zero() * sqrt_of(7, 5) == SignedRadical.zero()

    def test_sign_rules(self):
        assert (sqrt_of(1, 2, -1) * sqrt_of(1, 3, -1)).sign == 1
        assert (sqrt_of(1, 2, -1) * sqrt_of(1, 3)).sign == -1


def add(*terms):
    return radical_sum(terms)


class TestAddition:
    """The test helper ``exact_sums.radical_sum``: the package itself
    never adds radicals."""

    def test_same_radical_doubles(self):
        # sqrt(1/6) + sqrt(1/6) = sqrt(4/6) = sqrt(2/3)
        assert add(sqrt_of(1, 6), sqrt_of(1, 6)) == sqrt_of(2, 3)

    def test_cancellation(self):
        assert add(sqrt_of(1, 2), sqrt_of(1, 2, -1)) == SignedRadical.zero()

    def test_irrational_ratio_not_closed(self):
        with pytest.raises(NotClosedError):
            add(sqrt_of(1, 2), sqrt_of(1, 3))

    def test_zero_is_identity(self):
        assert add(sqrt_of(1, 2), SignedRadical.zero()) == sqrt_of(1, 2)

    def test_subtraction(self):
        assert add(sqrt_of(2, 3), -sqrt_of(1, 6)) == sqrt_of(1, 6)

    def test_sum_regroups_across_classes(self):
        # Pairwise adds would fail immediately; the grouped sum is exact.
        terms = [sqrt_of(2), sqrt_of(3), sqrt_of(3, sign=-1), sqrt_of(2, sign=-1)]
        assert radical_sum(terms) == SignedRadical.zero()

    def test_sum_cancels_down_to_single_class(self):
        terms = [sqrt_of(2), sqrt_of(3), sqrt_of(3, sign=-1)]
        assert radical_sum(terms) == sqrt_of(2)

    def test_sum_with_leftover_classes_raises(self):
        with pytest.raises(NotClosedError):
            radical_sum([sqrt_of(2), sqrt_of(3), sqrt_of(5, sign=-1)])

    @pytest.mark.parametrize("p", [(2**31 - 1) * (2**61 - 1), 2**61 - 1, (2**31 - 1) ** 3],
                             ids=["two_primes", "prime", "cube"])
    def test_large_prime_radicands_sum_quickly(self, p):
        # Nothing is factored: a radicand with prime factors far above any
        # trial-division bound groups like a small one.
        start = time.perf_counter()
        assert add(sqrt_of(1, p), sqrt_of(1, p)) == sqrt_of(4, p)
        assert add(sqrt_of(1, p), sqrt_of(9, 4 * p), sqrt_of(1, p, -1)) == sqrt_of(9, 4 * p)
        with pytest.raises(NotClosedError):
            add(sqrt_of(1, p), sqrt_of(2, p))
        assert time.perf_counter() - start < 1.0


class TestFloat:
    def test_perfect_square_is_exact(self):
        assert sqrt_of(1, 4).to_float() == 0.5

    def test_zero(self):
        assert SignedRadical.zero().to_float() == 0.0

    def test_sqrt_half(self):
        value = sqrt_of(1, 2, -1).to_float()
        assert value == pytest.approx(-0.7071067811865476, abs=1e-16)


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=50
)
nonneg_rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(50), max_denominator=50
)


@given(nonneg_rationals, nonneg_rationals, st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
def test_product_matches_float_product(ra, rb, sa, sb):
    a = SignedRadical.sqrt(ra, sa)
    b = SignedRadical.sqrt(rb, sb)
    exact = (a * b).to_float()
    floated = a.to_float() * b.to_float()
    assert abs(exact - floated) <= 2 * math.ulp(max(abs(exact), abs(floated), 1e-300))


@given(rationals)
def test_square_of_rational_floats_exactly(r):
    radical = rational(r)
    assert radical.to_float() == float(abs(r)) * (1 if r >= 0 else -1)
    assert radical.squared() == r * r


@given(nonneg_rationals, st.sampled_from([-1, 1]))
def test_signed_sqrt_of_square_is_identity(r, sign):
    a = SignedRadical.sqrt(r, sign)
    assert SignedRadical.sqrt(a.squared(), a.sign if a.sign else 1) == a or not a


@given(nonneg_rationals, nonneg_rationals, st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
def test_addition_commutes_when_closed(ra, rb, sa, sb):
    a = SignedRadical.sqrt(ra, sa)
    b = SignedRadical.sqrt(rb, sb)
    try:
        left = add(a, b)
    except NotClosedError:
        with pytest.raises(NotClosedError):
            add(b, a)
        return
    assert left == add(b, a)


@given(nonneg_rationals, rationals, rationals, rationals)
def test_addition_associates_on_shared_class(base, c1, c2, c3):
    # Rational multiples of one radical stay closed under every grouping.
    def scaled(c):
        return rational(c) * SignedRadical.sqrt(base)

    a, b, c = scaled(c1), scaled(c2), scaled(c3)
    assert add(add(a, b), c) == add(a, add(b, c)) == add(a, b, c)


class TestJson:
    def test_round_trip(self):
        amp = sqrt_of(2, 3, -1)
        data = json.loads(json.dumps(amp.to_json_dict()))
        assert SignedRadical.from_json_dict(data) == amp

    def test_schema(self):
        assert sqrt_of(1, 2).to_json_dict() == {"sign": 1, "num": "1", "den": "2"}
        assert SignedRadical.zero().to_json_dict() == {"sign": 0, "num": "0", "den": "1"}

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            SignedRadical.from_json_dict({"sign": 1, "num": "x", "den": "2"})
        with pytest.raises(ValueError):
            SignedRadical.from_json_dict({"sign": 1})


class TestFormatting:
    def test_rational_renders_without_sqrt(self):
        assert str(sqrt_of(1, 4)) == "1/2"
        assert str(sqrt_of(1, 4, -1)) == "-1/2"
        assert str(SignedRadical(1, Fraction(1))) == "1"

    def test_irrational_renders_with_sqrt(self):
        assert str(sqrt_of(2, 3, -1)) == "-sqrt(2/3)"
        assert str(SignedRadical.zero()) == "0"
