"""Kronecker-product spin operators: the test oracle for ``multiplets.operators``.

These are the scipy sparse matrices that ``multiplets.operators`` built
before it applied every Casimir as a constant plus particle exchanges:
each site operator is a Kronecker product of 2 x 2 spin matrices with
identities, a Casimir is the sum over x, y and z of the squared summed
site operators, and ``SparseOperator`` checks that the result is square
and Hermitian. ``commuting_set`` here builds the same members, with the
same names and eigenvalues, from these matrices, and ``joint_eigenbasis``
diagonalizes them jointly. They share nothing with the exchange form but
the tree, so ``tests/test_operator_oracle.py`` can check one against the
other. They live here, not in ``src/``, because the package has one
verification path and does not need scipy at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from multiplets.coupling import CoupledLabel, CouplingTree, StateVector

_HERMITIAN_TOL = 1e-14

_SPIN_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex),
    "z": np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """A sparse operator on the 2**n dimensional qubit space."""

    matrix: sp.csr_matrix

    def __post_init__(self) -> None:
        rows, cols = self.matrix.shape
        if rows != cols:
            raise ValueError("operator matrix must be square")
        defect = abs(self.matrix - self.matrix.getH())
        if defect.nnz and defect.max() > _HERMITIAN_TOL:
            raise ValueError("operator is not Hermitian")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def apply(self, psi: StateVector | np.ndarray) -> np.ndarray:
        """Matrix-vector product, not normalized."""
        arr = psi.to_array() if isinstance(psi, StateVector) else np.asarray(psi)
        if arr.shape != (self.dim,):
            raise ValueError(f"state has dimension {arr.shape}, operator {self.dim}")
        return self.matrix @ arr


def site_operator(n: int, k: int, axis: str) -> SparseOperator:
    """The spin-1/2 operator along ``axis`` acting on particle k alone."""
    if not 1 <= k <= n:
        raise ValueError(f"site {k} out of range for {n} particles")
    if axis not in _SPIN_HALF:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    left = sp.identity(1 << (k - 1), dtype=complex, format="csr")
    right = sp.identity(1 << (n - k), dtype=complex, format="csr")
    local = sp.csr_matrix(_SPIN_HALF[axis])
    return SparseOperator(sp.kron(sp.kron(left, local), right).tocsr())


def subset_casimir(n: int, subset: Iterable[int]) -> SparseOperator:
    """(sum over the subset of spin vectors) squared, as a sparse operator."""
    sites = sorted(set(subset))
    if not sites:
        raise ValueError("subset must be non-empty")
    if sites[0] < 1 or sites[-1] > n:
        raise ValueError(f"subset {sites} out of range for {n} particles")
    total = sp.csr_matrix((1 << n, 1 << n), dtype=complex)
    for axis in "xyz":
        component = sp.csr_matrix((1 << n, 1 << n), dtype=complex)
        for k in sites:
            component = component + site_operator(n, k, axis).matrix
        total = total + component @ component
    return SparseOperator(total.tocsr())


def total_sz(n: int) -> SparseOperator:
    """The diagonal operator summing every particle's z spin."""
    total = sp.csr_matrix((1 << n, 1 << n), dtype=complex)
    for k in range(1, n + 1):
        total = total + site_operator(n, k, "z").matrix
    return SparseOperator(total.tocsr())


@dataclass(frozen=True)
class Member:
    """A member of a tree's commuting set, as a matrix, with its
    label-read eigenvalue."""

    name: str
    operator: SparseOperator
    eigenvalue_of: Callable[[CoupledLabel], float]


def commuting_set(tree: CouplingTree) -> list[Member]:
    """The commuting operators a tree's coupled states diagonalize.

    One Casimir per internal node (the root Casimir is the total squared
    spin) plus the total z projection. Expected eigenvalues are read off
    a label: s(s+1) for each intermediate spin and m for the projection.
    """
    n = tree.n
    members: list[Member] = []
    for position, (particles, name) in enumerate(zip(tree.node_particles(), tree.node_names())):
        op = subset_casimir(n, particles)

        def casimir_value(label: CoupledLabel, pos: int = position) -> float:
            return float(label.intermediates[pos].casimir_eigenvalue())

        members.append(Member(f"{name}^2", op, casimir_value))
    members.append(Member("S_z", total_sz(n), lambda label: float(label.total_m.m)))
    return members


def joint_eigenbasis(operators: Sequence[SparseOperator], *, resolution: float = 0.25,
                     tol: float = 1e-8) -> dict[tuple[float, ...], np.ndarray]:
    """Simultaneous eigenbasis of commuting Hermitian operators.

    Works by sequentially refining eigenspaces, rounding eigenvalues to
    the nearest multiple of ``resolution`` (spin spectra are quarters).
    Only fully resolved (one dimensional) joint eigenspaces are returned,
    keyed by their eigenvalue tuple.
    """
    if not operators:
        raise ValueError("need at least one operator")
    dim = operators[0].dim
    blocks: list[tuple[tuple[float, ...], np.ndarray]] = [
        ((), np.eye(dim, dtype=complex))
    ]
    for op in operators:
        dense = op.to_dense()
        refined: list[tuple[tuple[float, ...], np.ndarray]] = []
        for values, basis in blocks:
            m = basis.conj().T @ dense @ basis
            m = (m + m.conj().T) / 2
            eigvals, eigvecs = np.linalg.eigh(m)
            rounded = np.round(eigvals / resolution) * resolution
            if np.max(np.abs(eigvals - rounded)) > tol:
                raise ValueError("eigenvalue off the expected spin grid")
            for value in sorted(set(rounded.tolist()), reverse=True):
                cols = np.isclose(rounded, value)
                refined.append((values + (float(value),), basis @ eigvecs[:, cols]))
        blocks = refined
    out: dict[tuple[float, ...], np.ndarray] = {}
    for values, basis in blocks:
        if basis.shape[1] == 1:
            vec = basis[:, 0]
            out[values] = vec / np.linalg.norm(vec)
    return out
