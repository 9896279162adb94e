"""The float ``verify`` loop: the test oracle for ``multiplets.report.run_verify``.

This is the loop that ``run_verify`` ran before its check became exact
and sector-batched: every state is made a dense float array with
``StateVector.to_array``, and each member of ``commuting_set`` is applied
to it as an ``ExchangeOperator`` with ``verify_eigenstate``, one mat-vec
per (state, member). It shares with the exact check only the tree, the
labels and the member list, so ``tests/test_verify_oracle.py`` can check
one against the other. It takes an optional basis, so that the oracle
can also judge mutated states, and it has no particle cap.

``verify_basis_by_sector`` is the exact check as it ran before the
package's ``check_forms`` took the states as a stream into blocks of
popcount sectors: one int64 matrix per sector, built from a whole list
of expanded states, with the swap rows of each pair built per sector.
Its residual array must be bit-equal to the package's.

``ExchangeOperator`` is the float form of the package's operators, on
dense vectors: a Casimir is a constant plus one exchange P_ij per pair of
its particles, and P_ij swaps bits n - i and n - j of a dense index (the
dense index is the bit complement of the configuration, and a bit swap
commutes with the complement). S_z is the diagonal n/2 - (down spins).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from multiplets.coupling import (
    CoupledLabel,
    CouplingTree,
    IntegerAmplitudes,
    StateVector,
    full_basis,
)
from multiplets.operators import _INT_LIMIT, LabeledOperator, commuting_set, verify_eigenstate


@dataclass(frozen=True, eq=False)
class ExchangeOperator:
    """On ``n`` qubits: the Casimir of the particles ``sites``, a constant
    plus one exchange per pair, or the total S_z, a diagonal, when
    ``sites`` is None. The dense diagonal and swap rows are built on the
    first ``apply``."""

    n: int
    sites: tuple[int, ...] | None = None

    @classmethod
    def of(cls, tree: CouplingTree, member: LabeledOperator) -> "ExchangeOperator":
        """The operator of ``member``, a member of ``commuting_set(tree)``:
        the k-th Casimir is that of ``tree.node_particles()[k]``."""
        sites = dict(zip((f"{name}^2" for name in tree.node_names()), tree.node_particles()))
        return cls(tree.n, sites.get(member.name))

    @functools.cached_property
    def _dense(self) -> tuple[float | np.ndarray, np.ndarray]:
        n = self.n
        index = np.arange(1 << n)
        if self.sites is None:
            down = sum(index >> bit & 1 for bit in range(n))
            return n / 2 - down, np.empty((0, 1 << n), dtype=np.intp)
        # Flip both bits of a pair where they differ: that swaps them.
        rows = [index ^ (index >> (n - i) ^ index >> (n - j)) % 2 * (1 << (n - i) | 1 << (n - j))
                for i, j in itertools.combinations(self.sites, 2)]
        size = len(self.sites)
        swaps = np.array(rows, dtype=np.intp).reshape(len(rows), 1 << n)
        return (3 * size - size * (size - 1)) / 4, swaps

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Operator-vector product, not normalized."""
        diagonal, swaps = self._dense
        if psi.shape != swaps.shape[1:]:
            raise ValueError(f"state has shape {psi.shape}, operator {swaps.shape[1:]}")
        return diagonal * psi + psi[swaps].sum(axis=0)


def run_verify(tree: CouplingTree, tol: float = 1e-12,
               basis: Sequence[tuple[CoupledLabel, StateVector]] | None = None) -> dict:
    """The report of ``multiplets.report.run_verify``, with float residuals."""
    members = [(member, ExchangeOperator.of(tree, member)) for member in commuting_set(tree)]
    results = []
    all_ok = True
    for label, exact in full_basis(tree) if basis is None else basis:
        state = exact.to_array()
        checks = []
        for member, operator in members:
            expected = member.eigenvalue_of(label)
            ok, residual = verify_eigenstate(operator, state, expected, tol)
            all_ok = all_ok and ok
            checks.append({
                "operator": member.name,
                "eigenvalue": expected,
                "residual": residual,
                "pass": ok,
            })
        results.append({"label": label.quantum_numbers(), "checks": checks})
    return {"tree": tree.spec(), "tol": tol, "pass": all_ok, "results": results}


def verify_basis_by_sector(tree: CouplingTree,
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
    the float square root of the exact squared residual. Raises
    ValueError for any other state, a state that spans several popcount
    sectors, or an integer of 2^40 or more.
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
