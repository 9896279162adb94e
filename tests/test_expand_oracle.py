"""Differential tests of the expansion engine on integer forms.

``multiplets.coupling`` expands each subtree into (r, {mask: k}), the
amplitude at mask being sqrt(r) * k with coprime integers k, and builds
each state as ``StateVector(n, IntegerAmplitudes(r, ints), True)``. It
must give exactly the states that the engine on ``SignedRadical`` objects
gives, ``tests/oracle_expand.py``: the same configurations with equal
values. The integer form must hold on every state, ``to_array`` must give
the float of each amplitude bit for bit, ``exactnum.radical_float`` must
round each (r, k) of the engine as ``tests/oracle_radical.py`` does,
``IntegerAmplitudes`` must build each radical only when it is read, and
``StateVector`` must check the norm and range of the integer form as it
checks any other amplitudes.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from multiplets import coupling
from multiplets.coupling import (
    CouplingTree,
    IntegerAmplitudes,
    StateVector,
    all_coupling_trees,
    dense_index,
    enumerate_multiplets,
    expand,
    full_basis,
)
from multiplets.exactnum import SignedRadical, radical_float
from multiplets.registry import named_state

import oracle_expand
import oracle_radical
from test_recouple_oracle import _balanced, _sequential


def _random_tree(rng, n):
    items = [str(i) for i in rng.sample(range(1, n + 1), n)]
    while len(items) > 1:
        k = rng.randrange(len(items) - 1)
        items[k:k + 2] = [f"({items[k]} {items[k + 1]})"]
    return CouplingTree.parse(items[0])


def _assert_same(state, reference):
    assert state.n == reference.n and state.exact and reference.exact
    assert state.amplitudes == reference.amplitudes
    assert all(type(amp) is SignedRadical for amp in state.amplitudes.values())


def _assert_basis_matches_oracle(tree):
    memo = {}
    basis = full_basis(tree)
    assert [label for label, _ in basis] == enumerate_multiplets(tree)
    for label, state in basis:
        _assert_same(state, oracle_expand._expansion(label, memo))


SMALL_TREES = [tree for n in range(2, 6) for tree in all_coupling_trees(range(1, n + 1))]
EIGHT_QUBIT_TREES = [_sequential(8), _balanced(8)]


class TestEngineAgainstOracle:
    @pytest.mark.parametrize("tree", SMALL_TREES, ids=str)
    def test_every_label_of_every_small_tree(self, tree):
        _assert_basis_matches_oracle(tree)
        for label in enumerate_multiplets(tree):
            _assert_same(expand(label), oracle_expand.expand(label))

    @pytest.mark.parametrize("tree", [_sequential(8), _balanced(8)], ids=str)
    def test_eight_qubit_bases(self, tree):
        _assert_basis_matches_oracle(tree)

    def test_sampled_ten_qubit_labels(self):
        rng = random.Random(10)
        for _ in range(20):
            label = rng.choice(enumerate_multiplets(_random_tree(rng, 10)))
            _assert_same(expand(label), oracle_expand.expand(label))


@pytest.fixture
def cold_branch_plans():
    """``coupling._branch_plan`` reads ``_cg_doubled`` once per process and
    keeps the plan, so a patched ``_cg_doubled`` is read only from a cold
    plan cache: clear it before the patch and again after the test."""
    coupling._branch_plan.cache_clear()
    yield
    coupling._branch_plan.cache_clear()


class TestIntegerForm:
    @pytest.mark.parametrize("tree", SMALL_TREES + EIGHT_QUBIT_TREES, ids=str)
    def test_states_are_a_radical_times_coprime_integers(self, tree):
        for label, state in full_basis(tree):
            r, ints = state.amplitudes.radicand, state.amplitudes.ints
            assert type(r) is Fraction and r > 0
            assert all(type(k) is int and k != 0 for k in ints.values())
            assert math.gcd(*ints.values()) == 1
            assert r * sum(k * k for k in ints.values()) == 1
            assert all(type(mask) is int and 0 <= mask < 1 << tree.n for mask in ints)
            weight = (tree.n + label.total_m.two_m) // 2
            assert {mask.bit_count() for mask in ints} == {weight}

    @pytest.mark.parametrize("tree", SMALL_TREES + EIGHT_QUBIT_TREES, ids=str)
    def test_to_array_gives_the_floats_of_each_amplitude(self, tree):
        for _, state in full_basis(tree):
            dense = state.to_array()
            want = np.zeros(1 << tree.n, dtype=complex)
            for config, amp in state.amplitudes.items():
                want[dense_index(config, tree.n)] = amp.to_float()
            assert np.array_equal(dense, want)

    def test_amp_float_rounds_as_to_float(self):
        trees = [tree for n in range(2, 7) for tree in all_coupling_trees(range(1, n + 1))]
        parts = {(state.amplitudes.radicand, k)
                 for tree in trees + [_sequential(8), _sequential(10)]
                 for _, state in full_basis(tree) for k in state.amplitudes.ints.values()}
        assert len(parts) == 2188
        for r, k in parts:
            want = oracle_radical.to_float(1 if k > 0 else -1, r * k * k)
            assert radical_float(r.numerator, r.denominator, k).hex() == want.hex()

    def test_amplitudes_are_built_on_first_use(self, monkeypatch):
        state = expand(enumerate_multiplets(_sequential(4))[5])
        built = []
        monkeypatch.setattr(coupling, "SignedRadical",
                            lambda sign, value: built.append(sign * value) or SignedRadical(sign, value))
        amplitudes = state.amplitudes
        assert isinstance(amplitudes, IntegerAmplitudes)
        r, ints = amplitudes.radicand, amplitudes.ints
        assert len(set(ints.values())) < len(ints) == len(amplitudes)
        assert list(amplitudes) == list(ints)
        assert all(mask in amplitudes for mask in ints) and -1 not in amplitudes
        assert amplitudes._values == {} and built == []
        first = {mask: amplitudes[mask] for mask in ints}
        assert sorted(built) == sorted((1 if k > 0 else -1) * r * k * k for k in set(ints.values()))
        assert amplitudes._values.keys() == set(ints.values())
        assert all(first[mask] is amplitudes._values[k] for mask, k in ints.items())
        assert all(amplitudes[mask] is first[mask] for mask in ints)
        assert len(built) == len(set(ints.values()))
        assert amplitudes == {mask: SignedRadical(1 if k > 0 else -1, r * k * k)
                              for mask, k in ints.items()}

    def test_an_irrational_branch_ratio_is_refused(self, monkeypatch, cold_branch_plans):
        cg = coupling._cg_doubled

        def skewed(*args):
            return SignedRadical(1, Fraction(1, 3)) if args == (1, 1, 1, -1, 2, 0) else cg(*args)

        monkeypatch.setattr(coupling, "_cg_doubled", skewed)
        label = enumerate_multiplets(CouplingTree.parse("(1 2)"))[1]  # S = 1, m = 0
        with pytest.raises(ValueError, match="irrational"):
            expand(label)


def _engine_state(n, r, ints):
    return StateVector(n, IntegerAmplitudes(r, ints), True)


class TestTrustedConstructor:
    """``StateVector`` on ``IntegerAmplitudes``: the engine's one path."""

    def test_checks_the_norm(self):
        half = Fraction(1, 2)
        state = _engine_state(2, half, {0: 1, 3: -1})
        assert state.amplitudes == {0: SignedRadical(1, half), 3: SignedRadical(-1, half)}
        with pytest.raises(ValueError, match="norm\\^2 = 3/2, expected 1"):
            _engine_state(2, half, {0: 1, 1: 1, 3: 1})
        with pytest.raises(ValueError, match="norm\\^2 = 5/8, expected 1"):
            _engine_state(2, Fraction(1, 8), {0: 2, 3: 1})

    def test_checks_the_configurations(self):
        with pytest.raises(ValueError, match="configuration out of range for 1 particles"):
            _engine_state(1, Fraction(1), {2: 1})
        with pytest.raises(ValueError, match="configuration out of range for 1 particles"):
            _engine_state(1, Fraction(1), {-1: 1})

    def test_keeps_the_integer_form(self):
        amplitudes = IntegerAmplitudes(Fraction(1, 2), {3: 1, 0: -1})
        state = _engine_state(2, Fraction(1, 2), amplitudes.ints)
        assert StateVector(2, amplitudes, True).amplitudes is amplitudes
        assert state == StateVector.exact_state(2, state.amplitudes)
        assert repr(amplitudes) == "IntegerAmplitudes(Fraction(1, 2), {3: 1, 0: -1})"

    def test_ghz_is_the_integer_form_of_the_old_build(self):
        ghz = named_state("ghz3")
        amp = SignedRadical.sqrt(Fraction(1, 2))
        old = StateVector.exact_state(3, {0b111: amp, 0b000: amp})
        assert isinstance(ghz.amplitudes, IntegerAmplitudes)
        assert ghz == old and ghz.amplitudes == old.amplitudes
        assert ghz.to_array().tobytes() == old.to_array().tobytes()

    def test_outside_values_keep_full_validation(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector.exact_state(1, {0: SignedRadical.sqrt(0.5)})
        with pytest.raises(TypeError):
            StateVector.exact_state(1, {0: 1.0})
