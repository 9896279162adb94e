"""The float ``verify`` loop: the test oracle for ``multiplets.report.run_verify``.

This is the loop that ``run_verify`` ran before its check became exact
and sector-batched: every state is made a dense float array with
``StateVector.to_array``, and each member of ``commuting_set`` is applied
to it as an ``ExchangeOperator`` with ``verify_eigenstate``, one mat-vec
per (state, member). It shares with the exact check only the tree, the
labels and the member list, so ``tests/test_verify_oracle.py`` can check
one against the other. It takes an optional basis, so that the oracle
can also judge mutated states, and it has no particle cap.

``ExchangeOperator`` is the float form of the package's operators, on
dense vectors: a Casimir is a constant plus one exchange P_ij per pair of
its particles, and P_ij swaps bits n - i and n - j of a dense index (the
dense index is the bit complement of the configuration, and a bit swap
commutes with the complement). S_z is the diagonal n/2 - (down spins).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from multiplets.coupling import CoupledLabel, CouplingTree, StateVector, full_basis
from multiplets.operators import LabeledOperator, commuting_set, verify_eigenstate


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
