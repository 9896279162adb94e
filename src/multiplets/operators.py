"""A tree's commuting spin operators, and the exact check of a coupled basis.

hbar is set to 1, so squared-spin eigenvalues read s(s+1) and projections
read m. Vectors live in the dense up-first basis order (index 0 is all
spins up), matching ``StateVector.to_array``.

Two spins 1/2 obey s_i . s_j = P_ij / 2 - 1/4, with P_ij their exchange
(Dirac, Proc. R. Soc. A 123, 714 (1929)). So the Casimir of a particle
set A is 3|A|/4 - |A|(|A| - 1)/4 + (the sum over i < j in A of P_ij), and
S_z is the diagonal popcount(config) - n/2.

``verify_basis`` checks a whole basis exactly, on integer columns: sqrt(r)
times integers in one popcount sector. An engine-built state is
one column, its integer form; any other state is split per popcount into
columns of amplitudes whose radicands differ by rational squares, the
expansion engine's own test. Four times a Casimir minus its eigenvalue
maps integer columns to integer columns, so every (Casimir, sector) is
one integer product shared by all the sector's states, and a correct
state gives exactly zero.

The float form of the same operators, which applies P_ij as a bit swap
on dense vectors, is the test oracle of ``verify_basis``
(tests/oracle_verify.py), beside the scipy Kronecker products of
tests/oracle_operators.py. ``verify_eigenstate`` takes either one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .coupling import CoupledLabel, CouplingTree, StateVector, _ratio_root

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
    """A member of a tree's commuting set: its name, the particles of its
    node (None for the total S_z), and its label-read eigenvalue."""

    name: str
    sites: tuple[int, ...] | None
    eigenvalue_of: Callable[[CoupledLabel], float]


def commuting_set(tree: CouplingTree) -> list[LabeledOperator]:
    """The commuting operators a tree's coupled states diagonalize.

    One Casimir per internal node in postorder (the root Casimir is the
    total squared spin) plus the total z projection. Expected eigenvalues
    are read off a label: s(s+1) for each intermediate spin and m for the
    projection.
    """
    members = [
        LabeledOperator(f"{name}^2", tree.node_particles(node),
                        lambda lab, k=k: float(lab.intermediates[k].casimir_eigenvalue()))
        for k, (node, name) in enumerate(zip(tree.internal_nodes(), tree.node_names()))
    ]
    members.append(LabeledOperator("S_z", None, lambda lab: float(lab.total_m.m)))
    return members


# --------------------------------------------------------------------------
# The exact, sector-batched check


def _columns(state: StateVector) -> list[tuple[int, Fraction, dict[int, int]]]:
    """``state`` as integer columns (popcount, r, {mask: k}) of amplitudes
    sqrt(r) * k. An engine-built state is one column, its own integer form.
    In any other, an amplitude joins the first column of its popcount whose
    first radicand differs from its own by a rational square, else starts
    a column; each column is scaled by the lcm of its denominators. Raises
    ValueError if a column needs a common denominator, or an integer, of
    2^40 or more.
    """
    if state._integer is not None:
        r, ints = state._integer
        return [(next(iter(ints)).bit_count(), r, ints)]
    groups: list[tuple[int, int, int, dict[int, Fraction]]] = []
    for mask, amp in state.amplitudes.items():
        p, q = amp.radicand.numerator, amp.radicand.denominator
        for weight, p_first, q_first, coefficients in groups:
            root = weight == mask.bit_count() and _ratio_root(p, q, p_first, q_first)
            if root:
                coefficients[mask] = Fraction(amp.sign * root[0], root[1])
                break
        else:
            groups.append((mask.bit_count(), p, q, {mask: Fraction(amp.sign)}))
    columns = []
    for weight, p_first, q_first, coefficients in groups:
        lcm = math.lcm(*(c.denominator for c in coefficients.values()))
        ints = {mask: int(c * lcm) for mask, c in coefficients.items()}
        if lcm >= _INT_LIMIT or max(map(abs, ints.values())) >= _INT_LIMIT:
            raise ValueError("a state needs integers of 2^40 or more")
        columns.append((weight, Fraction(p_first, q_first * lcm * lcm), ints))
    return columns


def verify_basis(tree: CouplingTree,
                 basis: Sequence[tuple[CoupledLabel, StateVector]]) -> np.ndarray:
    """Exact residual of each state of ``basis`` under each member of
    ``commuting_set(tree)``, as a (states, members) float array.

    A residual is ||(op - eigenvalue) psi||, with the eigenvalue read off
    the state's label. It is exactly 0.0 for an eigenvector; otherwise it
    is the float square root of the exact squared norm (for a state of one
    column per sector) or of a float sum of exact terms (for several). S_z is checked
    too: an entry outside the label's popcount adds (delta m)^2 amp^2. The
    Casimir of a node over particles A is checked per popcount sector as
    R = 4 X + (3|A| - |A|(|A| - 1) - 2s(2s + 2)) M, with M the sector's
    integer columns and X the sum of P_ij M over i < j in A, built up the
    tree: X_node = X_left + X_right + (P_ij M over i in left, j in right),
    C(n, 2) row gathers per sector in all. Raises ValueError if an integer
    of a column, or the common denominator that an outside state's column
    needs, reaches 2^40.
    """
    n = tree.n
    if any(state.n != n or not state.exact for _, state in basis):
        raise ValueError(f"verification needs exact states of {n} particles")
    nodes = tree.internal_nodes()
    particles = {id(node): tree.node_particles(node) for node in nodes + tree.leaves()}
    config = np.arange(1 << n)
    popcount = sum(config >> bit & 1 for bit in range(n))
    rank = np.empty(1 << n, dtype=np.intp)
    for w in range(n + 1):
        rank[popcount == w] = np.arange(math.comb(n, w))
    # (state, popcount, r, {mask: k}) per column, ordered by state.
    columns = [(s, *column) for s, (_, state) in enumerate(basis) for column in _columns(state)]
    two_j = np.array([[spin.two_j for spin in label.intermediates] for label, _ in basis])
    label_weight = [(n + label.total_m.two_m) // 2 for label, _ in basis]
    norm2: dict[tuple[int, int], list] = {}

    def add(key: tuple[int, int], factor: Fraction, cols: list[int], vectors) -> None:
        # factor * ||sum over cols of sqrt(r) * vector||^2: an exact part, plus
        # the float cross terms sqrt(r r') of columns whose radicals differ.
        radicands = [columns[c][2] for c in cols]
        total = norm2.setdefault(key, [Fraction(0), 0.0])
        for r, vector in zip(radicands, vectors):
            total[0] += factor * r * sum(x * x for x in vector)
        for (ra, va), (rb, vb) in itertools.combinations(zip(radicands, vectors), 2):
            total[1] += 2 * float(factor) * sum(x * y for x, y in zip(va, vb)) * math.sqrt(ra * rb)

    for c, (s, weight, _, ints) in enumerate(columns):
        if weight != label_weight[s]:  # entries off the label's S_z sector
            add((s, len(nodes)), Fraction((weight - label_weight[s]) ** 2), [c],
                [list(ints.values())])
    for w in sorted({weight for _, weight, _, _ in columns}):
        in_sector = [c for c, column in enumerate(columns) if column[1] == w]
        sector = [columns[c][3] for c in in_sector]
        lengths = [len(ints) for ints in sector]
        masks = np.fromiter(itertools.chain.from_iterable(sector), np.int64, sum(lengths))
        values = np.fromiter(itertools.chain.from_iterable(ints.values() for ints in sector),
                             np.int64, sum(lengths))
        if (popcount[masks] != w).any():
            raise ValueError("a column spans several popcount sectors")
        if np.abs(values).max() >= _INT_LIMIT:
            raise ValueError("a state needs integers of 2^40 or more")
        configs = config[popcount == w]
        matrix = np.zeros((len(configs), len(in_sector)), dtype=np.int64)
        matrix[rank[masks], np.repeat(np.arange(len(in_sector)), lengths)] = values
        del masks, values
        state_of = np.array([columns[c][0] for c in in_sector])  # sorted
        exchanges: dict[int, np.ndarray] = {}
        for slot, node in enumerate(nodes):
            below = [exchanges.pop(id(child)) for child in (node.left, node.right)
                     if id(child) in exchanges]
            total = sum(below[1:], below[0]) if below else np.zeros_like(matrix)
            for i in particles[id(node.left)]:
                for j in particles[id(node.right)]:
                    differ = (configs >> (n - i) ^ configs >> (n - j)) & 1
                    total += matrix[rank[configs ^ differ * (1 << (n - i) | 1 << (n - j))]]
            exchanges[id(node)] = total
            size = len(particles[id(node)])
            spins = two_j[state_of, slot]
            residual = 4 * total + (3 * size - size * (size - 1) - spins * (spins + 2)) * matrix
            for s in np.unique(state_of[residual.any(axis=0)]).tolist():
                cols = range(*np.searchsorted(state_of, [s, s + 1]).tolist())
                add((s, slot), Fraction(1, 16), [in_sector[c] for c in cols],
                    [residual[:, c].tolist() for c in cols])
    out = np.zeros((len(basis), len(nodes) + 1))
    for (s, member), (exact, cross) in norm2.items():
        out[s, member] = math.sqrt(max(float(exact) + cross, 0.0))
    return out
