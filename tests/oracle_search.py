"""Scalar persistency and connectedness searches: the test oracle.

This is the branch-at-a-time loop that ``multiplets.measures`` used before
its searches were batched. It projects the measured sites onto one
outcome vector at a time (``_contract``), renormalizes each branch
(``branches``) and checks the branches one by one, by the reduced
purities of the normalized post-state. It shares only the basis vectors
and the tolerances with the package, so ``tests/test_search_oracle.py``
can check the batched searches against it. It lives here, not in
``src/``, because the package has one branch enumerator
(``measures._branch_blocks``, all site sets of one level at once).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from multiplets.measures import (
    BELL_TOL,
    PROB_CUTOFF,
    PURITY_TOL,
    MeasurementBasis,
)

_OUTCOMES = {basis: basis.vectors() for basis in MeasurementBasis}


def _contract(arr: np.ndarray, n: int, sites: Sequence[int],
              vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Project the given sites onto outcome vectors; unnormalized result.

    Contracting higher axes first keeps the remaining axis numbers valid;
    the surviving axes stay in particle order.
    """
    t = arr.reshape([2] * n)
    for site, vec in sorted(zip(sites, vectors), key=lambda sv: -sv[0]):
        t = np.tensordot(t, vec.conj(), axes=([site - 1], [0]))
    return t.ravel()


def branches(arr: np.ndarray, n: int, sites: Sequence[int],
             assignment: Sequence[MeasurementBasis],
             ) -> Iterator[tuple[tuple, float, np.ndarray]]:
    """Every outcome branch of measuring ``sites`` in the ``assignment`` bases.

    Yields (outcome combination, probability, renormalized post-state on
    the remaining particles); branches below PROB_CUTOFF are skipped.
    """
    for combo in itertools.product(*(_OUTCOMES[basis] for basis in assignment)):
        sub = _contract(arr, n, sites, [vec for _, vec in combo])
        prob = float(np.real(np.vdot(sub, sub)))
        if prob < PROB_CUTOFF:
            continue
        yield combo, prob, sub / np.sqrt(prob)


def _site_purities(arr: np.ndarray, n: int) -> list[float]:
    t = arr.reshape([2] * n)
    out = []
    for k in range(n):
        m = np.moveaxis(t, k, 0).reshape(2, -1)
        rho = m @ m.conj().T
        out.append(float(np.real(np.trace(rho @ rho))))
    return out


def _is_fully_product(arr: np.ndarray, n: int) -> bool:
    if n <= 1:
        return True
    return all(p >= 1.0 - PURITY_TOL for p in _site_purities(arr, n))


def persistency(arr: np.ndarray, n: int, k_max: int | None = None) -> int | None:
    """Smallest k such that some k sites and Pauli bases leave every branch product."""
    if k_max is None:
        k_max = n
    if _is_fully_product(arr, n):
        return 0
    for k in range(1, min(k_max, n) + 1):
        for sites in itertools.combinations(range(1, n + 1), k):
            for assignment in itertools.product(MeasurementBasis, repeat=k):
                if all(_is_fully_product(post, n - k)
                       for _, _, post in branches(arr, n, sites, assignment)):
                    return k
    return None


def is_pair_connectable(arr: np.ndarray, n: int, i: int, j: int,
                        ) -> tuple[bool, tuple[tuple[int, MeasurementBasis], ...] | None]:
    """First Pauli assignment of the other sites that leaves (i, j) a Bell pair on every branch."""
    others = [k for k in range(1, n + 1) if k not in (i, j)]
    for assignment in itertools.product(MeasurementBasis, repeat=len(others)):
        if not any(2.0 * abs(post[0] * post[3] - post[1] * post[2]) < 1.0 - BELL_TOL
                   for _, _, post in branches(arr, n, others, assignment)):
            return True, tuple(zip(others, assignment))
    return False, None
