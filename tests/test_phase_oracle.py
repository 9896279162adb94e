"""Exact checks of the Condon-Shortley phases of the coupled basis.

``verify`` checks that each state is an eigenvector of the Casimirs and
S_z, which holds for either sign of a state. Two exact checks in Python
ints and ``Fraction``s pin the signs. They read the engine's integer form
through ``IntegerAmplitudes`` and do not use the Racah sum:

- ladder: S_- |S, m> = sqrt((S + m)(S - m + 1)) |S, m - 1>. Lowering the
  integers k_m of |S, m> (for each set bit of a mask, k goes to the mask
  with that bit cleared) gives g * k_(m-1), with g the positive gcd and
  g^2 = (S + m)(S - m + 1) r_(m-1) / r_m;
- top state: at each internal node, with children L and R and spins
  (j1, j2, J), the integer dot product of the node's |J, J> with
  |j1, j1>_L |j2, J - j1>_R is positive. The children and the non-root
  nodes come from ``coupling._expand_node`` with one shared memo; the
  root's |S, S> comes from the basis under test.

Both hold on every tree with n <= 5 and on the sequential and balanced
n = 8 and 10 trees. On the first multiplet of the sequential and balanced
n = 4, 8 and 12 trees, negating its m = S - 1 member fails the ladder
check alone, and negating the whole multiplet fails the top-state check
alone, at the root alone.
"""

import math
from fractions import Fraction

import pytest

from multiplets import coupling
from multiplets.coupling import (
    IntegerAmplitudes,
    StateVector,
    all_coupling_trees,
    enumerate_multiplets,
    expand,
    full_basis,
)

from test_recouple_oracle import _balanced, _sequential


def _multiplets(basis):
    """(label, state) pairs grouped by intermediate spins, in basis order."""
    groups = {}
    for label, state in basis:
        groups.setdefault(label.intermediates, []).append((label, state))
    return list(groups.values())


def _lowered(ints):
    """The integers of S_- applied to sqrt(r) * ints, over sqrt(r)."""
    out = {}
    for mask, k in ints.items():
        rest = mask
        while rest:
            bit = rest & -rest
            out[mask ^ bit] = out.get(mask ^ bit, 0) + k
            rest ^= bit
    return {mask: k for mask, k in out.items() if k}


def _ladder_failures(basis):
    """The labels (S, m) whose state does not lower to that of (S, m - 1)."""
    failures = []
    for members in _multiplets(basis):
        for (label, high), (_, low) in zip(members, members[1:]):
            two_s, two_m = label.total_spin.two_j, label.total_m.two_m
            lowered = _lowered(high.amplitudes.ints)
            g = math.gcd(*lowered.values())
            squared = Fraction((two_s + two_m) * (two_s - two_m + 2), 4)
            if (lowered != {mask: g * k for mask, k in low.amplitudes.ints.items()}
                    or g * g != squared * low.amplitudes.radicand / high.amplitudes.radicand):
                failures.append(label)
    return failures


def _top_failures(tree, basis):
    """(intermediates, node position) of each node whose |J, J> has a
    nonpositive overlap with |j1, j1>_L |j2, J - j1>_R."""
    postorder = tree._postorder
    nodes, n = postorder[1], tree.n
    memo = {}
    failures = []
    for members in _multiplets(basis):
        label, state = members[0]
        assert label.total_m.two_m == label.total_spin.two_j
        spins = (1,) * n + tuple(spin.two_j for spin in label.intermediates)
        for pos in range(n, len(spins)):
            left, right, _ = nodes[pos - n]
            two_j1, two_j = spins[left], spins[pos]
            if pos == len(spins) - 1:
                top = state.amplitudes.ints
            else:
                top = coupling._expand_node(pos, postorder, spins, two_j, memo)[2]
            ints_left = coupling._expand_node(left, postorder, spins, two_j1, memo)[2]
            ints_right = coupling._expand_node(right, postorder, spins, two_j - two_j1, memo)[2]
            dot = sum(top.get(mask_l | mask_r, 0) * k_l * k_r
                      for mask_l, k_l in ints_left.items() for mask_r, k_r in ints_right.items())
            if dot <= 0:
                failures.append((label.intermediates, pos))
    return failures


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_small_tree_keeps_the_phase_convention(n):
    for tree in all_coupling_trees(range(1, n + 1)):
        basis = full_basis(tree)
        assert _ladder_failures(basis) == []
        assert _top_failures(tree, basis) == []


@pytest.mark.parametrize("tree", [_sequential(8), _balanced(8), _sequential(10), _balanced(10)],
                         ids=str)
def test_large_trees_keep_the_phase_convention(tree):
    basis = full_basis(tree)
    assert _ladder_failures(basis) == []
    assert _top_failures(tree, basis) == []


MUTATED_TREES = [make(n) for n in (4, 8, 12) for make in (_sequential, _balanced)]


def _first_multiplet(tree):
    # The checks work one multiplet at a time, so the mutated multiplet
    # is all they need; at n = 12 that spares the whole basis.
    labels = enumerate_multiplets(tree)
    return [(label, expand(label)) for label in labels
            if label.intermediates == labels[0].intermediates]


def _negated(state):
    amplitudes = state.amplitudes
    ints = {mask: -k for mask, k in amplitudes.ints.items()}
    return StateVector(state.n, IntegerAmplitudes(amplitudes.radicand, ints), True)


@pytest.mark.parametrize("tree", MUTATED_TREES, ids=str)
def test_one_negated_member_fails_the_ladder_check_only(tree):
    members = _first_multiplet(tree)
    assert len(members) == tree.n + 1
    assert _ladder_failures(members) == [] and _top_failures(tree, members) == []
    label, state = members[1]  # m = S - 1
    mutated = members[:1] + [(label, _negated(state))] + members[2:]
    # Both of its ladder steps, from m = S and to m = S - 2, fail.
    assert _ladder_failures(mutated) == [members[0][0], label]
    assert _top_failures(tree, mutated) == []


@pytest.mark.parametrize("tree", MUTATED_TREES, ids=str)
def test_a_negated_multiplet_fails_the_top_state_check_only(tree):
    members = _first_multiplet(tree)
    mutated = [(label, _negated(state)) for label, state in members]
    assert _ladder_failures(mutated) == []
    root = 2 * tree.n - 2
    assert _top_failures(tree, mutated) == [(members[0][0].intermediates, root)]
