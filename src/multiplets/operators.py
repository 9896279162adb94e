"""A tree's commuting spin operators, and the exact check of a coupled basis.

hbar is set to 1, so squared-spin eigenvalues read s(s+1) and projections
read m. Vectors live in the dense up-first basis order (index 0 is all
spins up), matching ``StateVector.to_array``.

Two spins 1/2 obey s_i . s_j = P_ij / 2 - 1/4, with P_ij their exchange
(Dirac, Proc. R. Soc. A 123, 714 (1929)). So the Casimir of a particle
set A is 3|A|/4 - |A|(|A| - 1)/4 + (the sum over i < j in A of P_ij), and
S_z is the diagonal popcount(config) - n/2. A tree's commuting set is
one Casimir per internal node, in the postorder of ``node_names()``, then
S_z; the k-th Casimir is that of the particles ``node_particles()[k]``.

``verify_basis`` checks a whole basis of expanded states exactly. Each
state is one integer column of its popcount sector: the expansion
engine's form sqrt(r) times coprime integers, ``IntegerAmplitudes``; it
takes no other state. Four times a Casimir minus its eigenvalue maps
integer columns to integer columns, so every (Casimir, sector) is one
integer product shared by all the sector's states, and a correct state
gives exactly zero.

The float form of the same operators, which applies P_ij as a bit swap
on dense vectors, is the test oracle of ``verify_basis``
(tests/oracle_verify.py), beside the scipy Kronecker products of
tests/oracle_operators.py. ``verify_eigenstate`` takes either one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coupling import CoupledLabel, CouplingTree, IntegerAmplitudes, StateVector

__all__ = ["verify_eigenstate", "LabeledOperator", "commuting_set", "verify_basis"]

# Every integer of a column stays below this, so 4 X + c M (X a sum of at
# most C(n, 2) gathered entries, |c| < 4 n^2) cannot reach 2^63 for n <= 64.
_INT_LIMIT = 1 << 40


def verify_eigenstate(op, psi: StateVector | np.ndarray, eigenvalue: float,
                      tol: float = 1e-12) -> tuple[bool, float]:
    """Residual norm ||op psi - eigenvalue psi|| in floats, and whether it
    is <= tol, for any ``op`` whose ``apply`` maps a dense vector to one."""
    arr = psi.to_array() if isinstance(psi, StateVector) else np.asarray(psi)
    residual = float(np.linalg.norm(op.apply(arr) - eigenvalue * arr))
    return residual <= tol, residual


@dataclass(frozen=True)
class LabeledOperator:
    """A member of a tree's commuting set: its name and its label-read
    eigenvalue. The k-th Casimir is that of ``tree.node_particles()[k]``."""

    name: str
    eigenvalue_of: Callable[[CoupledLabel], float]


def commuting_set(tree: CouplingTree) -> list[LabeledOperator]:
    """The commuting operators a tree's coupled states diagonalize.

    One Casimir per internal node in postorder (the root Casimir is the
    total squared spin) plus the total z projection. Expected eigenvalues
    are read off a label: s(s+1) for each intermediate spin and m for the
    projection.
    """
    members = [
        LabeledOperator(f"{name}^2",
                        lambda lab, k=k: float(lab.intermediates[k].casimir_eigenvalue()))
        for k, name in enumerate(tree.node_names())
    ]
    members.append(LabeledOperator("S_z", lambda lab: float(lab.total_m.m)))
    return members


# --------------------------------------------------------------------------
# The exact, sector-batched check


def verify_basis(tree: CouplingTree,
                 basis: Sequence[tuple[CoupledLabel, StateVector]]) -> np.ndarray:
    """Exact residual of each state of ``basis`` under each member of
    ``commuting_set(tree)``, as a (states, members) float array.

    Every state must be an expanded one, sqrt(r) times coprime integers
    (``IntegerAmplitudes``), with all its masks in one popcount sector.
    A residual is ||(op - eigenvalue) psi||, with the eigenvalue read off
    the state's label. It is exactly 0.0 for an eigenvector. S_z is checked
    too: a state outside its label's popcount sector has norm 1, so its
    residual is |delta m|. The Casimir of a node over particles A is
    checked per popcount sector as R = 4 X + (3|A| - |A|(|A| - 1) -
    2s(2s + 2)) M, with M the sector's integer columns and X the sum of
    P_ij M over i < j in A, built up the tree by position: X_node = X_left
    + X_right + (P_ij M over i in left, j in right), C(n, 2) row gathers
    per sector in all. A failing check reports sqrt(r * sum(R^2) / 16),
    the float square root of the exact squared residual. Raises ValueError for any other
    state, a state that spans several popcount sectors, or an integer of
    2^40 or more.
    """
    n = tree.n
    if any(state.n != n or not isinstance(state.amplitudes, IntegerAmplitudes)
           for _, state in basis):
        raise ValueError(f"verification needs expanded states of {n} particles")
    particles, nodes = tree._postorder
    config = np.arange(1 << n)
    popcount = sum(config >> bit & 1 for bit in range(n))
    rank = np.empty(1 << n, dtype=np.intp)
    for w in range(n + 1):
        rank[popcount == w] = np.arange(math.comb(n, w))
    integers = [(state.amplitudes.radicand, state.amplitudes.ints) for _, state in basis]
    weights = [next(iter(ints)).bit_count() for _, ints in integers]
    two_j = np.array([[spin.two_j for spin in label.intermediates] for label, _ in basis])
    out = np.zeros((len(basis), len(nodes) + 1))
    for s, (label, _) in enumerate(basis):  # S_z: |delta m| off the label's sector
        out[s, -1] = abs(weights[s] - (n + label.total_m.two_m) // 2)
    for w in sorted(set(weights)):
        in_sector = [s for s, weight in enumerate(weights) if weight == w]
        sector = [integers[s][1] for s in in_sector]
        lengths = [len(ints) for ints in sector]
        masks = np.fromiter(itertools.chain.from_iterable(sector), np.int64, sum(lengths))
        try:
            values = np.fromiter(itertools.chain.from_iterable(ints.values() for ints in sector),
                                 np.int64, sum(lengths))
        except OverflowError:  # an integer of 2^63 or more
            raise ValueError("a state needs integers of 2^40 or more") from None
        if values.max() >= _INT_LIMIT or values.min() <= -_INT_LIMIT:
            raise ValueError("a state needs integers of 2^40 or more")
        if (popcount[masks] != w).any():
            raise ValueError("a state spans several popcount sectors")
        configs = config[popcount == w]
        matrix = np.zeros((len(configs), len(in_sector)), dtype=np.int64)
        matrix[rank[masks], np.repeat(np.arange(len(in_sector)), lengths)] = values
        del masks, values
        exchanges: dict[int, np.ndarray] = {}  # by position, until the parent takes it
        for slot, (left, right, _) in enumerate(nodes):
            below = [exchanges.pop(child) for child in (left, right) if child in exchanges]
            total = sum(below[1:], below[0]) if below else np.zeros_like(matrix)
            for i in particles[left]:
                for j in particles[right]:
                    differ = (configs >> (n - i) ^ configs >> (n - j)) & 1
                    total += matrix[rank[configs ^ differ * (1 << (n - i) | 1 << (n - j))]]
            exchanges[n + slot] = total
            size = len(particles[n + slot])
            spins = two_j[in_sector, slot]
            residual = 4 * total + (3 * size - size * (size - 1) - spins * (spins + 2)) * matrix
            for c in np.flatnonzero(residual.any(axis=0)).tolist():
                s = in_sector[c]
                squares = sum(x * x for x in residual[:, c].tolist())
                out[s, slot] = math.sqrt(integers[s][0] * squares / 16)
    return out
