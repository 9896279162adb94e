"""Expansion on ``SignedRadical`` objects: the test oracle for the engine.

This is the engine that ``multiplets.coupling`` ran before it worked on
integer forms (r, {mask: k}): every amplitude is a fresh
``SignedRadical.__mul__`` product, keyed by sorted (particle, 2m) tuples
that are turned into
configuration integers at the end, and the state is built through
``StateVector.exact_state``, which validates every amplitude and sums the
exact norm. It lives here, not in ``src/``, because the package has one
expansion engine; ``tests/test_expand_oracle.py`` requires equal
amplitude dicts from both.
"""

from __future__ import annotations

from fractions import Fraction

from multiplets.coupling import CoupledLabel, StateVector, _cg_doubled
from multiplets.exactnum import SignedRadical


def _expand_node(pos: int, indices: tuple[int, ...], nodes: tuple, spins: tuple[int, ...],
                 two_m: int, memo: dict[tuple, dict]) -> dict[tuple, SignedRadical]:
    """Expansion of the node at ``pos``, keyed by sorted (particle, two_m) tuples.

    ``indices`` holds the leaves' particles in leaf order, ``nodes`` the
    (left, right, first) of each internal node, and ``spins`` the doubled
    spins by position. Leaf projections fix every intermediate
    projection, so each key is reached once and each amplitude is a
    single CG product. ``memo`` maps (pos, the subtree's
    slice of ``spins``, two_m) to the subtree's expansion, so a subtree
    reached again, by another path or another label of the same tree, is
    not expanded twice. The root's key is unique per label: never stored.
    """
    if pos < len(indices):
        return {((indices[pos], two_m),): SignedRadical(1, Fraction(1))}
    left, right, first = nodes[pos - len(indices)]
    key = (pos, spins[first:pos + 1], two_m)
    out = memo.get(key)
    if out is not None:
        return out
    j_left, j_right = spins[left], spins[right]
    out = {}
    for two_ml in range(-j_left, j_left + 1, 2):
        two_mr = two_m - two_ml
        if abs(two_mr) > j_right:
            continue
        coeff = _cg_doubled(j_left, two_ml, j_right, two_mr, spins[pos], two_m)
        if not coeff:
            continue
        # Scaling the smaller side by the CG first costs one product per
        # pair; a leaf side makes it one product per amplitude.
        small, large = sorted((_expand_node(left, indices, nodes, spins, two_ml, memo),
                               _expand_node(right, indices, nodes, spins, two_mr, memo)),
                              key=len)
        for key_s, amp_s in small.items():
            scaled = coeff * amp_s
            for key_l, amp_l in large.items():
                out[tuple(sorted(key_s + key_l))] = scaled * amp_l
    if pos < len(spins) - 1:
        memo[key] = out
    return out


def _expansion(label: CoupledLabel, memo: dict[tuple, dict]) -> StateVector:
    """``expand`` with a subtree memo that the caller may share between
    labels of one tree."""
    indices, nodes = label.tree.particles(), label.tree._postorder[1]
    n = len(indices)
    spins = (1,) * n + tuple(spin.two_j for spin in label.intermediates)
    amps: dict[int, SignedRadical] = {}
    for key, amp in _expand_node(len(spins) - 1, indices, nodes, spins,
                                 label.total_m.two_m, memo).items():
        config = 0
        for index, two_m in key:
            if two_m > 0:
                config |= 1 << (n - index)
        amps[config] = amp
    return StateVector.exact_state(n, amps)


def expand(label: CoupledLabel) -> StateVector:
    return _expansion(label, {})
