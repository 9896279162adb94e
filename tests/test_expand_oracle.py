"""Differential tests of the expansion engine on interned value ids.

``multiplets.coupling`` expands on ids into a process-wide table of exact
values and builds each state through one trusted constructor. It must give
exactly the states that the engine on ``SignedRadical`` objects gives,
``tests/oracle_expand.py``: the same configurations with equal values.
The interned products must equal ``SignedRadical.__mul__``, and the
trusted constructor must keep the checks of ``StateVector``.
"""

import functools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from multiplets import coupling
from multiplets.coupling import (
    CouplingTree,
    StateVector,
    all_coupling_trees,
    enumerate_multiplets,
    expand,
    full_basis,
)
from multiplets.exactnum import SignedRadical

import oracle_expand
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


@functools.lru_cache(maxsize=None)
def _nonzero_cgs():
    values = []
    for tj1 in range(5):
        for tj2 in range(5):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        if abs(tm1 + tm2) <= tj:
                            value = coupling._cg_doubled(tj1, tm1, tj2, tm2, tj, tm1 + tm2)
                            if value:
                                values.append(value)
    return values


CG_VALUES = st.integers(min_value=0, max_value=10**6).map(
    lambda k: _nonzero_cgs()[k % len(_nonzero_cgs())]
)


class TestValueTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(CG_VALUES, min_size=1, max_size=6))
    def test_interned_products_equal_signed_radical_products(self, factors):
        ids = [coupling._intern(value) for value in factors]
        assert [coupling._VALUES[vid] for vid in ids] == factors
        product = functools.reduce(coupling._product, ids)
        assert coupling._VALUES[product] == functools.reduce(operator.mul, factors)
        assert functools.reduce(coupling._product, reversed(ids)) == product

    def test_one_is_id_zero(self):
        assert coupling._VALUES[0] == SignedRadical.one()
        assert coupling._intern(SignedRadical.one()) == 0

    def test_zero_is_never_interned(self):
        with pytest.raises(ValueError):
            coupling._intern(SignedRadical.zero())

    def test_states_share_the_table_instances(self):
        basis = full_basis(_sequential(6))
        table = {id(value) for value in coupling._VALUES}
        for _, state in basis:
            assert all(id(amp) in table for amp in state.amplitudes.values())


class TestTrustedConstructor:
    def test_checks_the_norm(self):
        half = coupling._intern(SignedRadical.sqrt(0.5))
        assert StateVector._from_value_ids(2, {0: half, 3: half}).norm_squared() == 1
        with pytest.raises(ValueError, match="norm"):
            StateVector._from_value_ids(2, {0: half, 1: half, 3: half})

    def test_checks_the_configurations(self):
        with pytest.raises(ValueError, match="out of range"):
            StateVector._from_value_ids(1, {2: 0})
        with pytest.raises(ValueError, match="out of range"):
            StateVector._from_value_ids(1, {-1: 0})

    def test_outside_values_keep_full_validation(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector.exact_state(1, {0: SignedRadical.sqrt(0.5)})
        with pytest.raises(TypeError):
            StateVector.exact_state(1, {0: 1.0})
