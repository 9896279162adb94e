"""A tree's commuting spin operators, and the exact check of a coupled basis.

hbar is set to 1, so squared-spin eigenvalues read s(s+1) and projections
read m. Vectors live in the dense up-first basis order (index 0 is all
spins up), matching ``StateVector.to_array``.

Two spins 1/2 obey s_i . s_j = P_ij / 2 - 1/4, with P_ij their exchange
(Dirac, Proc. R. Soc. A 123, 714 (1929)). So the Casimir of a particle
set A is 3|A|/4 - |A|(|A| - 1)/4 + (the sum over i < j in A of P_ij), and
S_z is the diagonal popcount(config) - n/2.

``verify_basis`` checks a whole basis exactly. Each state is a sum, over
squarefree kernels k, of sqrt(k) times a rational vector; scaled to
coprime integers, each such vector is one integer column of its popcount
sector. Four times a Casimir minus its eigenvalue maps integer columns to
integer columns, so every (Casimir, sector) is one integer product shared
by all the sector's states, and a correct state gives exactly zero.

``ExchangeOperator.apply`` is the float form of the same operators, on
dense vectors: P_ij swaps bits n - i and n - j of a dense index (the
dense index is the bit complement of the configuration, and a bit swap
commutes with the complement). With ``verify_eigenstate`` it now serves
as the test oracle of ``verify_basis``; the scipy Kronecker products are a
second oracle, in tests/.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .coupling import CoupledLabel, CouplingTree, StateVector, _PerCall
from .exactnum import SignedRadical

__all__ = ["ExchangeOperator", "verify_eigenstate", "LabeledOperator", "commuting_set",
           "verify_basis"]

# Every integer of a column stays below this, so 4 X + c M (X a sum of at
# most C(n, 2) gathered entries, |c| < 4 n^2) cannot reach 2^63 for n <= 64.
_INT_LIMIT = 1 << 40


@dataclass(frozen=True, eq=False)
class ExchangeOperator:
    """On ``n`` qubits: the Casimir of the particles ``sites``, a constant
    plus one exchange per pair, or the total S_z, a diagonal, when
    ``sites`` is None. The dense diagonal and swap rows are built on the
    first ``apply``; ``verify_basis`` never needs them."""

    n: int
    sites: tuple[int, ...] | None = None

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


def verify_eigenstate(op: ExchangeOperator, psi: StateVector | np.ndarray,
                      eigenvalue: float, tol: float = 1e-12) -> tuple[bool, float]:
    """Residual norm ||op psi - eigenvalue psi|| in floats, and whether it
    is <= tol."""
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

    One Casimir per internal node in postorder (the root Casimir is the
    total squared spin) plus the total z projection. Expected eigenvalues
    are read off a label: s(s+1) for each intermediate spin and m for the
    projection.
    """
    n = tree.n
    members = [
        LabeledOperator(f"{name}^2", ExchangeOperator(n, tree.node_particles(node)),
                        lambda lab, k=k: float(lab.intermediates[k].casimir_eigenvalue()))
        for k, (node, name) in enumerate(zip(tree.internal_nodes(), tree.node_names()))
    ]
    members.append(LabeledOperator("S_z", ExchangeOperator(n), lambda lab: float(lab.total_m.m)))
    return members


# --------------------------------------------------------------------------
# The exact, sector-batched check


@dataclass
class _Columns:
    """A basis split into integer columns, one per (state, popcount,
    squarefree kernel) group of its entries; columns are ordered by state.
    Column c belongs to basis state state[c] and has popcount weight[c].
    Its entry e is amplitude sqrt(kernel[c]) * gcd[c] / lcm[c] * value[e]
    at configuration mask[e], and its values are coprime integers. Entries
    are stored by column: column c is entries bounds[c]:bounds[c + 1]."""

    mask: np.ndarray
    value: np.ndarray
    column: np.ndarray
    bounds: np.ndarray
    state: np.ndarray
    weight: np.ndarray
    kernel: list[int]
    gcd: np.ndarray
    lcm: np.ndarray

    def scale(self, c: int) -> Fraction:
        return Fraction(int(self.gcd[c]), int(self.lcm[c]))


def _integer_columns(n: int, basis: Sequence[tuple[CoupledLabel, StateVector]],
                     popcount: np.ndarray) -> _Columns:
    states = [state.amplitudes for _, state in basis]
    if any(state.n != n or not state.exact for _, state in basis):
        raise ValueError(f"verification needs exact states of {n} particles")
    lengths = [len(amps) for amps in states]
    total = sum(lengths)
    mask = np.fromiter(itertools.chain.from_iterable(states), np.int64, total)
    amps = list(itertools.chain.from_iterable(amps.values() for amps in states))
    # Expanded states share their value instances: one canonical form is
    # looked up per distinct instance, and computed once per value.
    _, first, distinct = np.unique(np.fromiter(map(id, amps), np.uint64, total),
                                   return_index=True, return_inverse=True)
    canonical = _PerCall(SignedRadical.canonical)
    kernel_index = _PerCall(lambda kernel: len(kernel_index))
    numerators, denominators, kernel_ids = [], [], []
    for i in first.tolist():
        coefficient, kernel = canonical[amps[i]]
        numerators.append(coefficient.numerator)
        denominators.append(coefficient.denominator)
        kernel_ids.append(kernel_index[kernel])
    del amps
    if max(denominators) >= _INT_LIMIT:
        raise ValueError("an amplitude needs integers of 2^40 or more")
    distinct = distinct.reshape(-1)
    kernels = len(kernel_index)
    state = np.repeat(np.arange(len(states)), lengths)
    keys, column, counts = np.unique(
        (state * (n + 1) + popcount[mask]) * kernels + np.array(kernel_ids)[distinct],
        return_inverse=True, return_counts=True)
    column = column.reshape(-1)
    # Each column's lcm, over its distinct denominators.
    den_values, den_ids = np.unique(denominators, return_inverse=True)
    pairs = np.unique(column * len(den_values) + den_ids.reshape(-1)[distinct])
    lcm = [1] * len(keys)
    for c, d in zip(*(part.tolist() for part in np.divmod(pairs, len(den_values)))):
        lcm[c] = math.lcm(lcm[c], int(den_values[d]))
    if max(lcm) >= _INT_LIMIT:
        raise ValueError("a state needs integers of 2^40 or more")
    lcm = np.array(lcm, dtype=np.int64)
    dens = np.array(denominators, dtype=np.int64)[distinct]
    # |numerator / denominator| <= 1 in a normalized state, so these stay
    # below the lcm.
    value = np.array(numerators, dtype=np.int64)[distinct] * (lcm[column] // dens)
    order = np.argsort(column, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(counts)))
    gcd = np.gcd.reduceat(value[order], bounds[:-1])
    owner, kernel_id = np.divmod(keys, kernels)
    index = list(kernel_index)
    return _Columns(mask[order], value[order] // gcd[column[order]], column[order], bounds,
                    owner // (n + 1), owner % (n + 1),
                    [index[k] for k in kernel_id.tolist()], gcd, lcm)


def _norm2(columns: _Columns, cols: list[int],
           vectors: list[np.ndarray]) -> tuple[Fraction, float]:
    """||sum over cols of sqrt(kernel) * scale * vector||^2 for integer
    vectors, as an exact part plus a float part.

    Columns of distinct kernels add cross terms with sqrt(k k'), which go
    to the float part; a single column gives an exact square."""
    lists = [vector.tolist() for vector in vectors]
    exact = sum((columns.kernel[c] * columns.scale(c) ** 2 * sum(x * x for x in v)
                 for c, v in zip(cols, lists)), Fraction(0))
    cross = 0.0
    for (a, va), (b, vb) in itertools.combinations(zip(cols, lists), 2):
        dot = sum(x * y for x, y in zip(va, vb))
        if dot:
            cross += (2 * float(columns.scale(a) * columns.scale(b) * dot)
                      * math.sqrt(columns.kernel[a] * columns.kernel[b]))
    return exact, cross


def verify_basis(tree: CouplingTree,
                 basis: Sequence[tuple[CoupledLabel, StateVector]]) -> np.ndarray:
    """Exact residual of each state of ``basis`` under each member of
    ``commuting_set(tree)``, as a (states, members) float array.

    A residual is ||(op - eigenvalue) psi||, with the eigenvalue read off
    the state's label. It is exactly 0.0 for an eigenvector; otherwise it
    is the float square root of the exact squared norm (for a state of one
    kernel) or of a float sum of exact terms (for several). S_z is checked
    too: an entry outside the label's popcount adds (delta m)^2 amp^2. The
    Casimir of a node over particles A is checked per popcount sector as
    R = 4 X + (3|A| - |A|(|A| - 1) - 2s(2s + 2)) M, with M the sector's
    integer columns and X the sum of P_ij M over i < j in A, built up the
    tree: X_node = X_left + X_right + (P_ij M over i in left, j in right),
    C(n, 2) row gathers per sector in all. Raises ValueError if an integer
    of a column reaches 2^40.
    """
    n = tree.n
    nodes = tree.internal_nodes()
    particles = {id(node): tree.node_particles(node) for node in nodes + tree.leaves()}
    config = np.arange(1 << n)
    popcount = sum(config >> bit & 1 for bit in range(n))
    rank = np.empty(1 << n, dtype=np.intp)
    for w in range(n + 1):
        rank[popcount == w] = np.arange(math.comb(n, w))
    columns = _integer_columns(n, basis, popcount)
    two_j = np.array([[spin.two_j for spin in label.intermediates] for label, _ in basis])
    label_weight = np.array([(n + label.total_m.two_m) // 2 for label, _ in basis])
    norm2: dict[tuple[int, int], list] = {}

    def add(key: tuple[int, int], factor: Fraction, cols: list[int], vectors) -> None:
        exact, cross = _norm2(columns, cols, vectors)
        total = norm2.setdefault(key, [Fraction(0), 0.0])
        total[0] += factor * exact
        total[1] += float(factor) * cross

    bounds = columns.bounds
    for c in np.flatnonzero(columns.weight != label_weight[columns.state]).tolist():
        s = int(columns.state[c])  # entries off the label's S_z sector
        add((s, len(nodes)), Fraction(int(columns.weight[c] - label_weight[s]) ** 2),
            [c], [columns.value[bounds[c]:bounds[c + 1]]])
    entry_weight = popcount[columns.mask]
    for w in np.unique(columns.weight).tolist():
        in_sector = np.flatnonzero(columns.weight == w)
        local = np.empty(len(columns.weight), dtype=np.intp)
        local[in_sector] = np.arange(len(in_sector))
        entries = entry_weight == w
        configs = config[popcount == w]
        matrix = np.zeros((len(configs), len(in_sector)), dtype=np.int64)
        matrix[rank[columns.mask[entries]], local[columns.column[entries]]] = columns.value[entries]
        state_of = columns.state[in_sector]  # sorted: columns are ordered by state
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
                add((s, slot), Fraction(1, 16), [int(in_sector[c]) for c in cols],
                    [residual[:, c] for c in cols])
    out = np.zeros((len(basis), len(nodes) + 1))
    for (s, member), (exact, cross) in norm2.items():
        out[s, member] = math.sqrt(max(float(exact) + cross, 0.0))
    return out
