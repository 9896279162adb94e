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

``check_forms`` checks a whole basis of expanded states exactly, as the
engine's integer forms stream in: each state is sqrt(r) times coprime
integers, one integer column of its popcount sector. Four times a
Casimir minus its eigenvalue maps integer columns to integer columns, so
every (Casimir, block of sectors) is one integer product shared by all
the block's states, and a correct state gives exactly zero.
``verify_basis`` runs the same check on a list of (label, state) pairs.

The float form of the same operators, which applies P_ij as a bit swap
on dense vectors, is the test oracle of ``check_forms``
(tests/oracle_verify.py, with the sector-by-sector check that came
before it), beside the scipy Kronecker products of
tests/oracle_operators.py. ``verify_eigenstate`` takes either one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .coupling import CoupledLabel, CouplingTree, Form, IntegerAmplitudes, StateVector

__all__ = ["verify_eigenstate", "LabeledOperator", "commuting_set", "check_forms",
           "verify_basis"]

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
    eigenvalue. It reads the ``slot``-th doubled value of a label, the
    intermediate spins in postorder, then 2m; the k-th Casimir is that of
    ``tree.node_particles()[k]`` and reads slot k."""

    name: str
    slot: int
    eigenvalue_at: Callable[[int], float]  # the eigenvalue, from the doubled value read

    def eigenvalue_of(self, label: CoupledLabel) -> float:
        if self.slot < len(label.intermediates):
            return self.eigenvalue_at(label.intermediates[self.slot].two_j)
        return self.eigenvalue_at(label.total_m.two_m)


def commuting_set(tree: CouplingTree) -> list[LabeledOperator]:
    """The commuting operators a tree's coupled states diagonalize.

    One Casimir per internal node in postorder (the root Casimir is the
    total squared spin) plus the total z projection. Expected eigenvalues
    are read off a label: s(s+1) for each intermediate spin and m for the
    projection.
    """
    names = tree.node_names()
    members = [LabeledOperator(f"{name}^2", k, lambda two: two * (two + 2) / 4)
               for k, name in enumerate(names)]
    members.append(LabeledOperator("S_z", len(names), lambda two: two / 2))
    return members


# --------------------------------------------------------------------------
# The exact, block-batched check

# Most bytes of one block's int64 matrix. Every n <= 11 is one block; at
# n = 12 the three middle sectors stand alone and the rest make two blocks,
# since gathers over one wider matrix cost more than they save.
_BLOCK_BYTES = 8_000_000

# Integers a block holds, as its states' own dicts, before it scatters
# them into its matrix.
_FLUSH_INTS = 1 << 16


def _blocks(n: int) -> list[tuple[int, int]]:
    """The blocks of n particles as (first sector, last sector + 1): runs
    of consecutive popcount sectors, each sector C(n, w) rows of a matrix
    as wide as the block's widest sector, of at most _BLOCK_BYTES."""
    blocks: list[tuple[int, int]] = []
    rows = width = 0
    for w in range(n + 1):
        size = math.comb(n, w)
        if blocks and (rows + size) * max(width, size) * 8 <= _BLOCK_BYTES:
            blocks[-1] = (blocks[-1][0], w + 1)
            rows, width = rows + size, max(width, size)
        else:
            blocks.append((w, w + 1))
            rows, width = size, size
    return blocks


def check_forms(tree: CouplingTree, forms: Iterable[Form]) -> np.ndarray:
    """Exact residual of each state of ``forms``, integer forms (doubled
    intermediates, two_m, p, q, {mask: k}) as ``coupled_forms`` yields
    them, under each member of ``commuting_set(tree)``, as a (states,
    members) float array in the order of ``forms``.

    A residual is ||(op - eigenvalue) psi||, with the eigenvalue read off
    the state's label. It is exactly 0.0 for an eigenvector. S_z is
    checked too: a state outside its label's popcount sector has norm 1,
    so its residual is |delta m|. A state is one integer column of its
    popcount sector, C(n, w) of which fit in the sector. Consecutive
    sectors make one block (``_blocks``): one int64 matrix whose rows are
    the configurations sorted by popcount and whose columns are each
    sector's states, padded with zeros to the widest. A state's integers
    are buffered in its block as it arrives and scattered into the matrix
    in batches, so only its label and radicand are held. The Casimir of a
    node over particles A is checked per block as R = 4 X + (3|A| -
    |A|(|A| - 1) - 2s(2s + 2)) M, with X the sum of P_ij M over i < j in
    A, built up the tree by position: X_node = X_left + X_right + (P_ij M
    over i in left, j in right), one row gather per pair and block, with
    every swap index built at once. A failing check reports sqrt(r *
    sum(R^2) / 16), the float square root of the exact squared residual.
    Raises ValueError for a state that spans several popcount sectors,
    more states in a sector than it has configurations, or an integer of
    2^40 or more.
    """
    n = tree.n
    particles, nodes = tree._postorder
    if not nodes:
        raise ValueError("a coupled label needs a tree of at least two particles")
    sizes = [math.comb(n, w) for w in range(n + 1)]
    starts = list(itertools.accumulate(sizes, initial=0))
    # The configurations by row, sorted by popcount, and each one's row.
    config = np.arange(1 << n)
    popcount = sum(config >> bit & 1 for bit in range(n))
    order = np.argsort(popcount, kind="stable")
    row_of = np.argsort(order)
    # The row that P_ij takes each row to, for each pair that crosses a
    # node, node by node in postorder.
    pairs = [(i, j) for left, right, _ in nodes for i in particles[left] for j in particles[right]]
    shift_i, shift_j = (n - np.array(side)[:, None] for side in zip(*pairs))
    differ = (order >> shift_i ^ order >> shift_j) & 1
    swaps = row_of[order ^ differ * (1 << shift_i | 1 << shift_j)]
    crossing = list(itertools.accumulate(
        (len(particles[left]) * len(particles[right]) for left, right, _ in nodes), initial=0))

    blocks = _blocks(n)
    block_of = [b for b, (lo, hi) in enumerate(blocks) for _ in range(lo, hi)]
    matrices = [np.zeros((starts[hi] - starts[lo], max(sizes[lo:hi])), dtype=np.int64)
                for lo, hi in blocks]
    # Per block: the states not yet scattered, as (column, sector, ints),
    # and how many integers they hold.
    pending: list[list[tuple[int, int, dict[int, int]]]] = [[] for _ in blocks]
    held = [0] * len(blocks)
    owners: list[list[int]] = [[] for _ in sizes]  # each sector's states by column
    labels: list[tuple[tuple[int, ...], int, int, int, int]] = []

    def scatter(b: int) -> None:
        if not pending[b]:
            return
        columns, weights, dicts = zip(*pending[b])
        lengths, count = list(map(len, dicts)), held[b]
        masks = np.fromiter(itertools.chain.from_iterable(dicts), np.int64, count)
        try:
            values = np.fromiter(itertools.chain.from_iterable(ints.values() for ints in dicts),
                                 np.int64, count)
        except OverflowError:  # an integer of 2^63 or more
            raise ValueError("a state needs integers of 2^40 or more") from None
        if values.max() >= _INT_LIMIT or values.min() <= -_INT_LIMIT:
            raise ValueError("a state needs integers of 2^40 or more")
        if (popcount[masks] != np.repeat(weights, lengths)).any():
            raise ValueError("a state spans several popcount sectors")
        matrices[b][row_of[masks] - starts[blocks[b][0]], np.repeat(columns, lengths)] = values
        pending[b], held[b] = [], 0

    for intermediates, two_m, p, q, ints in forms:
        w = next(iter(ints)).bit_count()
        column = len(owners[w])
        if column == sizes[w]:
            raise ValueError(f"popcount sector {w} holds more than its {sizes[w]} states")
        owners[w].append(len(labels))
        labels.append((intermediates, two_m, p, q, w))
        b = block_of[w]
        pending[b].append((column, w, ints))
        held[b] += len(ints)
        if held[b] >= _FLUSH_INTS:
            scatter(b)

    out = np.zeros((len(labels), len(nodes) + 1))
    for s, (_, two_m, _, _, w) in enumerate(labels):  # S_z: |delta m| off the label's sector
        out[s, -1] = abs(w - (n + two_m) // 2)
    for b, (lo, hi) in enumerate(blocks):
        scatter(b)
        matrix = matrices[b]
        matrices[b] = None
        local = swaps[:, starts[lo]:starts[hi]] - starts[lo]
        # Each state's doubled spins by (sector, column), padded with zeros.
        spins = np.zeros((hi - lo, matrix.shape[1], len(nodes)), dtype=np.int64)
        for w in range(lo, hi):
            if owners[w]:
                spins[w - lo, :len(owners[w])] = [labels[s][0] for s in owners[w]]
        sector_rows = [start - starts[lo] for start in starts[lo:hi]]
        # Two scratch matrices: a gather, then a residual and its product.
        gathered, residual = np.empty_like(matrix), np.empty_like(matrix)
        exchanges: dict[int, np.ndarray] = {}  # by position, until the parent takes it
        for slot, (left, right, _) in enumerate(nodes):
            below = [exchanges.pop(child) for child in (left, right) if child in exchanges]
            total = below[0] if below else np.zeros_like(matrix)
            for other in below[1:]:
                total += other
            for swap in local[crossing[slot]:crossing[slot + 1]]:
                total += np.take(matrix, swap, axis=0, out=gathered, mode="clip")
            exchanges[n + slot] = total
            size = len(particles[n + slot])
            two = spins[:, :, slot]
            coefficient = 3 * size - size * (size - 1) - two * (two + 2)
            if hi - lo > 1:  # one sector broadcasts its row of coefficients
                coefficient = np.repeat(coefficient, sizes[lo:hi], axis=0)
            np.multiply(total, 4, out=residual)
            residual += np.multiply(coefficient, matrix, out=gathered)
            if not residual.any():
                continue
            failing = np.logical_or.reduceat(residual != 0, sector_rows, axis=0)
            for k, column in zip(*np.nonzero(failing)):
                s = owners[lo + k][column]
                _, _, p, q, _ = labels[s]
                rows = residual[sector_rows[k]:sector_rows[k] + sizes[lo + k], column]
                squares = sum(x * x for x in rows.tolist())
                out[s, slot] = math.sqrt(p * squares / (16 * q))
    return out


def verify_basis(tree: CouplingTree,
                 basis: Sequence[tuple[CoupledLabel, StateVector]]) -> np.ndarray:
    """Exact residual of each state of ``basis`` under each member of
    ``commuting_set(tree)``, as a (states, members) float array: the
    check of ``check_forms`` on each state's integer form.

    Every state must be an expanded one, sqrt(r) times coprime integers
    (``IntegerAmplitudes``), with all its masks in one popcount sector.
    Raises ValueError for any other state, before anything is checked,
    and as ``check_forms`` does.
    """
    n = tree.n
    if any(state.n != n or not isinstance(state.amplitudes, IntegerAmplitudes)
           for _, state in basis):
        raise ValueError(f"verification needs expanded states of {n} particles")
    return check_forms(tree, (
        (tuple(spin.two_j for spin in label.intermediates), label.total_m.two_m,
         state.amplitudes.radicand.numerator, state.amplitudes.radicand.denominator,
         state.amplitudes.ints)
        for label, state in basis))
