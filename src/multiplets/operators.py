"""A tree's commuting spin operators as exchange operators, and verification.

hbar is set to 1, so squared-spin eigenvalues read s(s+1) and projections
read m. Vectors live in the dense up-first basis order (index 0 is all
spins up), matching ``StateVector.to_array``.

Two spins 1/2 obey s_i . s_j = P_ij / 2 - 1/4, with P_ij their exchange
(Dirac, Proc. R. Soc. A 123, 714 (1929)). So the Casimir of a particle
set A is 3|A|/4 - |A|(|A| - 1)/4 + (the sum over i < j in A of P_ij), and
S_z is the diagonal popcount(config) - n/2. On a dense index P_ij swaps
bits n - i and n - j: the dense index is the bit complement of the
configuration, and a bit swap commutes with the complement. A real
diagonal plus involutive permutations is Hermitian by construction.
The scipy Kronecker products are kept only as a test oracle, in tests/.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coupling import CoupledLabel, CouplingTree, StateVector

__all__ = ["ExchangeOperator", "verify_eigenstate", "LabeledOperator", "commuting_set"]


@dataclass(frozen=True, eq=False)
class ExchangeOperator:
    """``diagonal * psi`` (a scalar or one real entry per dense index) plus
    ``psi`` gathered through each row of ``swaps``, one row per exchange."""

    diagonal: float | np.ndarray
    swaps: np.ndarray

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Operator-vector product, not normalized."""
        if psi.shape != self.swaps.shape[1:]:
            raise ValueError(f"state has shape {psi.shape}, operator {self.swaps.shape[1:]}")
        return self.diagonal * psi + psi[self.swaps].sum(axis=0)


def _casimir(n: int, sites: Sequence[int]) -> ExchangeOperator:
    index = np.arange(1 << n)
    # Flip both bits of a pair where they differ: that swaps them.
    rows = [index ^ (index >> (n - i) ^ index >> (n - j)) % 2 * (1 << (n - i) | 1 << (n - j))
            for i, j in itertools.combinations(sites, 2)]
    size = len(sites)
    swaps = np.array(rows, dtype=np.intp).reshape(len(rows), 1 << n)
    return ExchangeOperator((3 * size - size * (size - 1)) / 4, swaps)


def _total_sz(n: int) -> ExchangeOperator:
    index = np.arange(1 << n)
    down = sum(index >> bit & 1 for bit in range(n))
    return ExchangeOperator(n / 2 - down, np.empty((0, 1 << n), dtype=np.intp))


def verify_eigenstate(op: ExchangeOperator, psi: StateVector | np.ndarray,
                      eigenvalue: float, tol: float = 1e-12) -> tuple[bool, float]:
    """Residual norm ||op psi - eigenvalue psi|| and whether it is <= tol."""
    arr = psi.to_array() if isinstance(psi, StateVector) else np.asarray(psi)
    residual = float(np.linalg.norm(op.apply(arr) - eigenvalue * arr))
    return residual <= tol, residual


@dataclass(frozen=True)
class LabeledOperator:
    """A member of a tree's commuting set with its label-read eigenvalue."""

    name: str
    operator: ExchangeOperator
    eigenvalue_of: Callable[[CoupledLabel], float]


def commuting_set(tree: CouplingTree) -> list[LabeledOperator]:
    """The commuting operators a tree's coupled states diagonalize.

    One Casimir per internal node (the root Casimir is the total squared
    spin) plus the total z projection. Expected eigenvalues are read off
    a label: s(s+1) for each intermediate spin and m for the projection.
    """
    n = tree.n
    members = [
        LabeledOperator(f"{name}^2", _casimir(n, tree.node_particles(node)),
                        lambda lab, k=k: float(lab.intermediates[k].casimir_eigenvalue()))
        for k, (node, name) in enumerate(zip(tree.internal_nodes(), tree.node_names()))
    ]
    members.append(LabeledOperator("S_z", _total_sz(n), lambda lab: float(lab.total_m.m)))
    return members
