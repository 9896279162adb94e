"""Entanglement diagnostics for multiqubit pure states.

Covers reduced density matrices, the Meyer-Wallach global measure in its
single-site linear-entropy form, Wootters concurrence, the residual
three-tangle, projective measurement branching over the three Pauli
bases, persistency of entanglement and pairwise connectedness searches.

The searches enumerate measurement branches in one batched contraction per
site set (``_all_branches``): k ``tensordot`` calls against the stacked
(basis, outcome, component) projector give every outcome of every Pauli
basis assignment of the k measured sites at once. That tensor holds
6**k * 2**(n-k) complex values per site set, which is why the searches
accept at most MAX_SEARCH_QUBITS particles.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _all_branches(arr: np.ndarray, n: int, sites: Sequence[int],
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome branch of measuring ``sites`` in every Pauli assignment.

    Returns (probs, posts) of shapes (3**k, 2**k) and (3**k, 2**k, 2**(n-k)):
    the Born probability and the renormalized post-state on the remaining
    particles (original order), NaN where the probability is 0. Rows follow
    ``itertools.product(MeasurementBasis, repeat=k)`` over the sites in
    ascending order; outcomes within a row follow the product of each
    basis's outcomes.
    """
    k = len(sites)
    measured = sorted((site - 1 for site in sites), reverse=True)
    rest = [q for q in range(n) if q not in measured]
    t = arr.reshape([2] * n).transpose(measured + rest)
    # Contract the highest site first; each step appends (basis, outcome) axes.
    for _ in range(k):
        t = np.tensordot(t, _PROJECTOR, axes=([0], [2]))
    t = t.reshape((1 << (n - k),) + (3, 2) * k)
    bases = list(range(2 * k - 1, 0, -2))  # ascending sites
    outcomes = [axis + 1 for axis in bases]
    posts = t.transpose(bases + outcomes + [0]).reshape(3 ** k, 1 << k, 1 << (n - k))
    probs = np.einsum("rci,rci->rc", posts.conj(), posts).real
    with np.errstate(divide="ignore", invalid="ignore"):
        return probs, posts / np.sqrt(probs)[..., None]


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
    probs, posts = _all_branches(arr, n, [site])
    row = list(MeasurementBasis).index(basis)
    return [
        MeasurementBranch(probability=float(prob), outcome=label,
                          state=StateVector.from_array(post))
        for (label, _), prob, post in zip(_OUTCOMES[basis], probs[row], posts[row])
        if not prob < PROB_CUTOFF
    ]


def _fully_product(states: np.ndarray, m: int) -> np.ndarray:
    """Which of the m-qubit ``states`` (last axis) have every single-site
    reduced purity at least 1 - PURITY_TOL; states on one qubit always do.

    A site's reduced matrix has the weights w0, w1 of its two values on
    the diagonal and r = sum a0 conj(a1) off it, so its purity is
    w0**2 + w1**2 + 2 |r|**2.
    """
    if m <= 1:
        return np.ones(states.shape[:-1], dtype=bool)
    flat = states.reshape(-1, 1 << m)
    weights = flat.real ** 2 + flat.imag ** 2
    product = np.ones(len(flat), dtype=bool)
    for site in range(m):
        shape = (len(flat), 1 << site, 2, 1 << (m - 1 - site))
        diag = weights.reshape(shape).sum(axis=(1, 3))
        t = flat.reshape(shape)
        off = np.einsum("xab,xab->x", t[:, :, 0], t[:, :, 1].conj())
        purity = (diag ** 2).sum(axis=1) + 2.0 * (off.real ** 2 + off.imag ** 2)
        product &= purity >= 1.0 - PURITY_TOL
    return product.reshape(states.shape[:-1])


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
    if _fully_product(arr, n):
        return 0
    for k in range(1, min(k_max, n) + 1):
        if n - k <= 1:
            return k  # a post-state on at most one particle is product
        for sites in itertools.combinations(range(1, n + 1), k):
            probs, posts = _all_branches(arr, n, sites)
            product = _fully_product(posts, n - k)
            if ((probs < PROB_CUTOFF) | product).all(axis=1).any():
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
    probs, pairs = _all_branches(arr, n, others)
    conc = 2.0 * np.abs(pairs[..., 0] * pairs[..., 3] - pairs[..., 1] * pairs[..., 2])
    failing = ~(probs < PROB_CUTOFF) & (conc < 1.0 - BELL_TOL)
    rows = np.flatnonzero(~failing.any(axis=1))
    if rows.size == 0:
        return False, None
    assignments = itertools.product(MeasurementBasis, repeat=len(others))
    return True, tuple(zip(others, next(itertools.islice(assignments, int(rows[0]), None))))


@dataclass(frozen=True)
class PairReport:
    pair: tuple[int, int]
    connected: bool
    witness: tuple[tuple[int, MeasurementBasis], ...] | None


def maximal_connectedness(psi: StateVector | np.ndarray) -> tuple[bool, list[PairReport]]:
    """Whether every unordered pair is connectable, with per-pair detail."""
    arr, n = _as_array(psi)
    if n > MAX_SEARCH_QUBITS:
        raise ValueError(f"connectedness search is exponential; n <= {MAX_SEARCH_QUBITS} only")
    reports = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        connected, witness = is_pair_connectable(arr, i, j)
        reports.append(PairReport((i, j), connected, witness))
    return all(r.connected for r in reports), reports
