"""Entanglement diagnostics for multiqubit pure states.

Covers reduced density matrices, the Meyer-Wallach global measure in its
single-site linear-entropy form, Wootters concurrence, the residual
three-tangle, projective measurement branching over the three Pauli
bases, persistency of entanglement and pairwise connectedness searches.

Every measurement branch comes from one engine (``_branch_blocks``) that
works a level, a number k of measured sites, at a time: one integer gather
lays out all given k-site sets as one matrix, and one ``matmul`` with the
k-fold Kronecker product of the Pauli projectors gives every outcome of
every basis assignment of every site set, unnormalized. It runs in three
blocks, one per basis of the first measured site, to keep memory flat.
Persistency makes one engine call per level, connectedness one for all
pairs at level n - 2, and ``is_pair_connectable`` and ``measure_branches``
are one-site-set calls. A level holds 6**k * 2**(n-k) complex values per
site set, which is why the searches accept at most MAX_SEARCH_QUBITS
particles.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .coupling import StateVector

__all__ = [
    "MeasurementBasis",
    "ThreeQubitClass",
    "DensityMatrix",
    "MeasurementBranch",
    "PairReport",
    "partial_trace",
    "meyer_wallach_q",
    "concurrence",
    "three_tangle",
    "classify_three_qubit",
    "measure_branches",
    "persistency",
    "is_pair_connectable",
    "maximal_connectedness",
]

# Fixed tolerances of the classification and both searches. "Pure" or
# "product" means reduced purity within PURITY_TOL of 1; a Bell pair means
# concurrence within BELL_TOL of 1; GHZ-class means residual tangle above
# TANGLE_TOL; branches with probability below PROB_CUTOFF are dropped.
PURITY_TOL = 1e-9
BELL_TOL = 1e-9
TANGLE_TOL = 1e-9
PROB_CUTOFF = 1e-12

# Largest particle count the persistency and connectedness searches accept.
MAX_SEARCH_QUBITS = 6

_DM_TOL = 1e-12


class MeasurementBasis(enum.Enum):
    """Single-qubit projective bases along the three Pauli directions."""

    Z = "z"
    X = "x"
    Y = "y"

    def vectors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """Outcome labels and eigenvectors in the up-first basis."""
        s = 1 / np.sqrt(2)
        if self is MeasurementBasis.Z:
            return (("u", np.array([1.0, 0.0], dtype=complex)),
                    ("d", np.array([0.0, 1.0], dtype=complex)))
        if self is MeasurementBasis.X:
            return (("+", np.array([s, s], dtype=complex)),
                    ("-", np.array([s, -s], dtype=complex)))
        return (("+i", np.array([s, 1j * s], dtype=complex)),
                ("-i", np.array([s, -1j * s], dtype=complex)))


# Outcome labels and eigenvectors of every basis, built once for the searches,
# and the conjugated vectors stacked as (basis, outcome, component).
_OUTCOMES = {basis: basis.vectors() for basis in MeasurementBasis}
_PROJECTOR = np.array([[vec.conj() for _, vec in _OUTCOMES[basis]]
                       for basis in MeasurementBasis])


class ThreeQubitClass(enum.Enum):
    PRODUCT = "product"
    BISEPARABLE = "biseparable"
    W = "W"
    GHZ = "GHZ"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, positive."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > _DM_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > _DM_TOL:
            raise ValueError(f"density matrix trace is {np.trace(m)!r}, expected 1")
        if np.linalg.eigvalsh(m).min() < -_DM_TOL:
            raise ValueError("density matrix has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def _as_array(psi: StateVector | np.ndarray) -> tuple[np.ndarray, int]:
    if isinstance(psi, StateVector):
        return psi.to_array(), psi.n
    arr = np.asarray(psi, dtype=complex).ravel()
    n = int(arr.size).bit_length() - 1
    if 1 << n != arr.size:
        raise ValueError(f"array length {arr.size} is not a power of two")
    return arr, n


def _reduced(arr: np.ndarray, n: int, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix on the kept particles (ascending order)."""
    keep0 = [k - 1 for k in keep]
    rest0 = [k for k in range(n) if k not in keep0]
    t = arr.reshape([2] * n).transpose(keep0 + rest0)
    m = t.reshape(1 << len(keep0), -1)
    return m @ m.conj().T


def partial_trace(psi: StateVector | np.ndarray, keep: Iterable[int]) -> DensityMatrix:
    """Trace out everything except the given particles (1-based indices)."""
    arr, n = _as_array(psi)
    keep = sorted(set(keep))
    if not keep or len(keep) >= n:
        raise ValueError("keep must be a non-empty proper subset of the particles")
    if keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"kept particles {keep} out of range for n={n}")
    return DensityMatrix(_reduced(arr, n, keep))


def _site_purities(arr: np.ndarray, n: int) -> list[float]:
    out = []
    for k in range(n):
        rho = _reduced(arr, n, [k + 1])
        out.append(float(np.real(np.trace(rho @ rho))))
    return out


def meyer_wallach_q(psi: StateVector | np.ndarray) -> float:
    """Global entanglement Q = 2 (1 - mean single-site reduced purity).

    Zero exactly for product states and 1 when every qubit is maximally
    mixed.
    """
    arr, n = _as_array(psi)
    purities = _site_purities(arr, n)
    return 2.0 * (1.0 - sum(purities) / n)


_SY_SY = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)


def concurrence(rho: DensityMatrix | np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4), with l the decreasing eigenvalues of the
    Hermitian matrix sqrt(sqrt(rho) rho~ sqrt(rho)), where
    rho~ = (Y x Y) rho* (Y x Y) (Wootters, PRL 80, 2245 (1998)).
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("concurrence needs a 4x4 two-qubit density matrix")
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    rho_tilde = _SY_SY @ m.conj() @ _SY_SY
    eigvals = np.linalg.eigvalsh(root @ rho_tilde @ root)
    lams = np.sqrt(np.clip(eigvals, 0.0, None))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def three_tangle(psi: StateVector | np.ndarray) -> float:
    """Residual tangle tau = 4 |d1 - 2 d2 + 4 d3| of a pure 3-qubit state.

    d1 - 2 d2 + 4 d3 is Cayley's hyperdeterminant of the amplitudes
    a_ijk (Coffman, Kundu & Wootters, PRA 61, 052306 (2000)): with p the
    four products a_ijk a_(1-i)(1-j)(1-k) of antipodal amplitudes, d1 is
    the sum of their squares, d2 the sum of their pairwise products and
    d3 = a000 a110 a101 a011 + a111 a001 a010 a100. It equals
    C^2(1|23) - C^2(12) - C^2(13), but as a polynomial in the amplitudes
    it takes no square root of vanishing eigenvalues, so W-class states
    in any local frame stay at rounding level, far below TANGLE_TOL.
    """
    arr, n = _as_array(psi)
    if n != 3:
        raise ValueError(f"three_tangle needs exactly 3 qubits, got {n}")
    a = arr.reshape(2, 2, 2)
    p = [a[i, j, k] * a[1 - i, 1 - j, 1 - k]
         for i, j, k in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))]
    d1 = sum(x * x for x in p)
    d2 = sum(x * y for x, y in itertools.combinations(p, 2))
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def classify_three_qubit(psi: StateVector | np.ndarray) -> ThreeQubitClass:
    """Sort a pure 3-qubit state into product, biseparable, W or GHZ.

    All three sites pure means product; exactly one pure site means
    biseparable; otherwise the residual tangle separates GHZ (positive)
    from W (zero).
    """
    arr, n = _as_array(psi)
    if n != 3:
        raise ValueError(f"classification needs exactly 3 qubits, got {n}")
    pure_sites = [p >= 1.0 - PURITY_TOL for p in _site_purities(arr, 3)]
    if all(pure_sites):
        return ThreeQubitClass.PRODUCT
    if sum(pure_sites) == 1:
        return ThreeQubitClass.BISEPARABLE
    if three_tangle(arr) > TANGLE_TOL:
        return ThreeQubitClass.GHZ
    return ThreeQubitClass.W


@dataclass(frozen=True)
class MeasurementBranch:
    probability: float
    outcome: str
    state: StateVector


def _index(n: int, site_sets: Sequence[Sequence[int]]) -> np.ndarray:
    """Dense-array indices that gather the k-site sets ``site_sets`` (each
    ascending) into one (2**(n-k) * S, 2**k) matrix.

    Row (c, s) holds value c of site set s's remaining particles (particle
    order); column a holds the measured bits, the lowest site most
    significant.
    """
    k = len(site_sets[0])
    positions = np.arange(1 << n).reshape([2] * n)
    groups = [
        positions.transpose([q - 1 for q in range(1, n + 1) if q not in sites]
                            + [q - 1 for q in sites]).reshape(1 << (n - k), 1 << k)
        for sites in site_sets
    ]
    return np.stack(groups, axis=1).reshape(-1, 1 << k)


@functools.cache
def _level_index(n: int, k: int) -> np.ndarray:
    """``_index`` of every k-site set, in ``itertools.combinations`` order.
    Only the searches use it, so n <= MAX_SEARCH_QUBITS bounds the cache."""
    index = _index(n, list(itertools.combinations(range(1, n + 1), k)))
    index.flags.writeable = False  # shared by every caller
    return index


@functools.cache
def _projector(k: int) -> np.ndarray:
    """The k-fold Kronecker product of _PROJECTOR, transposed and split by
    the basis of the first measured site: shape (3, 2**k, 3**(k-1) * 2**k).
    Columns run over the other sites' bases in product order, then over the
    outcomes of all k sites."""
    p = _PROJECTOR
    for _ in range(k - 1):
        p = np.einsum("BOC,boc->BbOoCc", p, _PROJECTOR).reshape(
            3 * len(p), 2 * p.shape[1], 2 * p.shape[2])
    p = np.ascontiguousarray(p.reshape(3, -1, 1 << k).transpose(0, 2, 1))
    p.flags.writeable = False  # shared by every caller
    return p


def _branch_blocks(arr: np.ndarray, n: int, index: np.ndarray) -> Iterator[np.ndarray]:
    """Unnormalized branches of measuring the site sets gathered by ``index``
    in every Pauli assignment: one block per basis (Z, X, Y) of the first
    measured site, so only a third of the level is held at once.

    A block has shape (2**(n-k), S, 3**(k-1), 2**k): the post-state's value
    on the remaining particles (original order), the site set, the bases of
    the other measured sites in ``itertools.product`` order, and the outcome
    in the product of each basis's outcomes. With the components leading,
    the product and Bell tests run over long contiguous rows of branches.
    """
    k = index.shape[1].bit_length() - 1
    gathered = arr[index]
    shape = (1 << (n - k), len(index) >> (n - k), -1, 1 << k)
    for projector in _projector(k):
        yield (gathered @ projector).reshape(shape)


def _separable_rows(branches: np.ndarray) -> np.ndarray:
    """Which (site set, assignment) rows of a branch block leave every
    outcome either below PROB_CUTOFF or fully product: every single-site
    reduced purity at least 1 - PURITY_TOL.

    The test runs on the unnormalized branches. A remaining site's reduced
    matrix has the weights w0, w1 of its two values on the diagonal and
    r = sum a0 conj(a1) off it; with p = w0 + w1 the branch probability,
    its purity (w0**2 + w1**2 + 2 |r|**2) / p**2 is at least 1 - PURITY_TOL
    exactly when w0 w1 - |r|**2 <= (PURITY_TOL / 2) p**2. Sites are tested
    in turn, stopping once no row is left.
    """
    dim = len(branches)
    good = np.ones(branches.shape[1:3], dtype=bool)
    if dim <= 2:
        return good  # a state on at most one particle is product
    weights = branches.real ** 2 + branches.imag ** 2
    p = weights.sum(axis=0)
    negligible = p < PROB_CUTOFF
    bound = (0.5 * PURITY_TOL) * p * p
    for site in range(dim.bit_length() - 1):
        # (earlier sites, value of this site, later sites, branch)
        shape = (1 << site, 2, dim >> (site + 1)) + branches.shape[1:]
        t = branches.reshape(shape)
        r = (t[:, 0] * t[:, 1].conj()).sum(axis=(0, 1))
        w0 = weights.reshape(shape)[:, 0].sum(axis=(0, 1))
        good &= (negligible | (w0 * (p - w0) - (r.real ** 2 + r.imag ** 2) <= bound)).all(axis=-1)
        if not good.any():
            break
    return good


def _bell_rows(branches: np.ndarray) -> np.ndarray:
    """Which (site set, assignment) rows of a two-qubit branch block leave
    every outcome either below PROB_CUTOFF or a Bell pair. An unnormalized
    branch a of probability p has concurrence 2 |a0 a3 - a1 a2| / p."""
    p = (branches.real ** 2 + branches.imag ** 2).sum(axis=0)
    a0, a1, a2, a3 = branches
    twice_det = 2.0 * np.abs(a0 * a3 - a1 * a2)
    return ((p < PROB_CUTOFF) | ~(twice_det < (1.0 - BELL_TOL) * p)).all(axis=-1)


def _first_bell_rows(arr: np.ndarray, n: int, index: np.ndarray) -> list[int | None]:
    """For each site set gathered by ``index`` (all but two sites), the
    first assignment in product order that leaves the other two a Bell pair
    on every branch, or None. Stops once every site set has one."""
    first: list[int | None] = [None] * (len(index) >> 2)
    offset = 0
    for block in _branch_blocks(arr, n, index):
        good = _bell_rows(block)
        for s in np.flatnonzero(good.any(axis=1)):
            if first[s] is None:
                first[s] = offset + int(np.argmax(good[s]))
        if None not in first:
            break
        offset += good.shape[1]
    return first


def _witness(sites: Sequence[int], row: int) -> tuple[tuple[int, MeasurementBasis], ...]:
    assignments = itertools.product(MeasurementBasis, repeat=len(sites))
    return tuple(zip(sites, next(itertools.islice(assignments, row, None))))


def measure_branches(psi: StateVector | np.ndarray, site: int,
                     basis: MeasurementBasis) -> list[MeasurementBranch]:
    """Born-rule branches of one single-site projective measurement.

    Post-states are renormalized on the remaining particles (original
    order); branches with probability below PROB_CUTOFF are dropped.
    """
    arr, n = _as_array(psi)
    if not 1 <= site <= n:
        raise ValueError(f"site {site} out of range for {n} particles")
    if n < 2:
        raise ValueError("measuring the only particle leaves no state behind")
    blocks = _branch_blocks(arr, n, _index(n, [[site]]))
    block = next(itertools.islice(blocks, list(MeasurementBasis).index(basis), None))
    posts = np.ascontiguousarray(block.reshape(-1, 2).T)
    probs = np.einsum("ci,ci->c", posts.conj(), posts).real
    return [
        MeasurementBranch(probability=float(prob), outcome=label,
                          state=StateVector.from_array(post / np.sqrt(prob)))
        for (label, _), prob, post in zip(_OUTCOMES[basis], probs, posts)
        if not prob < PROB_CUTOFF
    ]


def persistency(psi: StateVector | np.ndarray, *, k_max: int | None = None) -> int | None:
    """Minimum number of single-site Pauli measurements that always
    leave a fully product state.

    Searches sites and basis assignments non-adaptively: one assignment
    must make every nonzero-probability outcome branch product. Returns 0
    for product states and None when no k <= k_max works. Restricting to
    the Pauli bases makes this an upper bound on the unrestricted notion.
    """
    arr, n = _as_array(psi)
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"persistency search is exponential; n <= {MAX_SEARCH_QUBITS} only")
    if k_max is None:
        k_max = n
    if _separable_rows(arr.reshape(-1, 1, 1, 1)).all():
        return 0
    for k in range(1, min(k_max, n) + 1):
        if n - k <= 1:
            return k  # a post-state on at most one particle is product
        blocks = _branch_blocks(arr, n, _level_index(n, k))
        if any(_separable_rows(block).any() for block in blocks):
            return k
    return None


def is_pair_connectable(psi: StateVector | np.ndarray, i: int, j: int,
                        ) -> tuple[bool, tuple[tuple[int, MeasurementBasis], ...] | None]:
    """Can measuring all other sites always project (i, j) onto a Bell pair?

    Tries every Pauli basis assignment on the complement; a witness
    assignment must give concurrence within BELL_TOL of 1 on every
    nonzero-probability branch. Returns (verdict, witness or None); the
    witness is the first such assignment in product order.
    """
    arr, n = _as_array(psi)
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"connectedness search is exponential; n <= {MAX_SEARCH_QUBITS} only")
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"bad pair ({i}, {j}) for {n} particles")
    if n - 2 < 1:
        raise ValueError("need at least one particle outside the pair")
    others = [k for k in range(1, n + 1) if k not in (i, j)]
    [row] = _first_bell_rows(arr, n, _index(n, [others]))
    if row is None:
        return False, None
    return True, _witness(others, row)


@dataclass(frozen=True)
class PairReport:
    pair: tuple[int, int]
    connected: bool
    witness: tuple[tuple[int, MeasurementBasis], ...] | None


def maximal_connectedness(psi: StateVector | np.ndarray) -> tuple[bool, list[PairReport]]:
    """Whether every unordered pair is connectable, with per-pair detail.

    One search over all (n-2)-site sets at once gives each pair's verdict
    and witness, as ``is_pair_connectable`` would.
    """
    arr, n = _as_array(psi)
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"connectedness search is exponential; n <= {MAX_SEARCH_QUBITS} only")
    if n == 2:
        raise ValueError("need at least one particle outside the pair")
    reports = []
    if n > 2:
        rows = _first_bell_rows(arr, n, _level_index(n, n - 2))
        # Complements of the (n-2)-site sets, in combinations order, run
        # through the pairs in reverse combinations order.
        others = list(itertools.combinations(range(1, n + 1), n - 2))
        for pair, sites, row in zip(itertools.combinations(range(1, n + 1), 2),
                                    reversed(others), reversed(rows)):
            witness = None if row is None else _witness(sites, row)
            reports.append(PairReport(pair, row is not None, witness))
    return all(r.connected for r in reports), reports
