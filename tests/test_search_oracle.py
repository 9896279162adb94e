"""Differential test: the batched searches of ``multiplets.measures`` against
the scalar branch-at-a-time oracle in ``tests/oracle_search.py``.

Both must give the same persistency for every ``k_max``, the same verdict
and witness for every pair, and the same single-site measurement branches;
``maximal_connectedness``, which searches all pairs at once, must agree
with ``is_pair_connectable`` pair by pair.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiplets.measures import (
    PROB_CUTOFF,
    MeasurementBasis,
    is_pair_connectable,
    maximal_connectedness,
    measure_branches,
    persistency,
)
from multiplets.registry import available_states, named_state

import oracle_search

_S = 2 ** -0.5
# Local unitaries taking the Z eigenbasis to itself, to X and to Y.
_FRAME_UNITARIES = (
    np.eye(2, dtype=complex),
    np.array([[_S, _S], [_S, -_S]], dtype=complex),
    np.array([[_S, _S], [1j * _S, -1j * _S]], dtype=complex),
)


def _dicke(n, k):
    arr = np.zeros(1 << n, dtype=complex)
    for ups in itertools.combinations(range(n), k):
        arr[sum(1 << (n - 1 - q) for q in ups)] = 1.0
    return arr / np.linalg.norm(arr)


def _ghz(n):
    arr = np.zeros(1 << n, dtype=complex)
    arr[0] = arr[-1] = _S
    return arr


def _in_frame(arr, n, frame):
    t = arr.reshape([2] * n)
    for site, choice in enumerate(frame):
        t = np.moveaxis(np.tensordot(_FRAME_UNITARIES[choice], t, axes=([1], [site])), 0, site)
    return t.ravel()


def _haar(rng, n):
    arr = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return arr / np.linalg.norm(arr)


def _product(rng, n):
    arr = np.ones(1, dtype=complex)
    for _ in range(n):
        arr = np.kron(arr, _haar(rng, 1))
    return arr


_TAIL = [0b01010, 0b01110, 0b10110, 0b11010, 0b11100]


def _with_tail(arr, weight):
    out = arr * np.sqrt(1.0 - weight)
    out[_TAIL] = np.sqrt(weight / len(_TAIL))
    return out


def _cases():
    cases = [(f"named-{name}", named_state(name).to_array()) for name in available_states()]
    # Z on sites 1, 2 leaves |000>, |011> or |101>, and outcome 11 has
    # probability 0: persistency 2 only if that branch is skipped.
    zero_branch = np.zeros(32, dtype=complex)
    zero_branch[[0b00000, 0b01011, 0b10101]] = 3 ** -0.5
    cases.append(("zero-branch5", zero_branch))
    # The same state with a tail of weight 10 * PROB_CUTOFF, which every
    # persistency-2 assignment leaves as a live non-product branch, and at
    # 0.1 * PROB_CUTOFF, where those branches are dropped. The package
    # tests unnormalized branches against p**2-scaled bounds, so these
    # check that scaling where p is smallest.
    for label, weight in (("live", 10 * PROB_CUTOFF), ("dropped", 0.1 * PROB_CUTOFF)):
        cases.append((f"tail5-{label}", _with_tail(zero_branch, weight)))
    rng = np.random.default_rng(2024)
    for n in range(3, 7):
        frames = [(0,) * n] + [tuple(rng.integers(0, 3, n)) for _ in range(2 if n < 6 else 1)]
        for kind, base in (("w", _dicke(n, 1)), ("dicke2", _dicke(n, 2)), ("ghz", _ghz(n))):
            for frame in frames:
                label = "".join("zxy"[c] for c in frame)
                cases.append((f"{kind}{n}-{label}", _in_frame(base, n, frame)))
        cases.append((f"product{n}", _product(rng, n)))
        cases.append((f"basis{n}", np.eye(1 << n, dtype=complex)[int(rng.integers(1 << n))]))
        for copy in range(2 if n < 6 else 1):
            cases.append((f"haar{n}-{copy}", _haar(rng, n)))
    return cases


def _assert_matches_oracle(arr):
    n = arr.size.bit_length() - 1
    for k_max in [None] + list(range(n + 1)):
        assert persistency(arr, k_max=k_max) == oracle_search.persistency(arr, n, k_max), k_max
    if n >= 3:
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        each = [is_pair_connectable(arr, i, j) for i, j in pairs]
        for (i, j), got in zip(pairs, each):
            assert got == oracle_search.is_pair_connectable(arr, n, i, j)
        connected, reports = maximal_connectedness(arr)
        assert [(r.pair, (r.connected, r.witness)) for r in reports] == list(zip(pairs, each))
        assert connected == all(verdict for verdict, _ in each)
    for site in range(1, n + 1):
        for basis in MeasurementBasis:
            got = measure_branches(arr, site, basis)
            want = list(oracle_search.branches(arr, n, [site], [basis]))
            assert [b.outcome for b in got] == [combo[0][0] for combo, _, _ in want]
            for branch, (_, prob, post) in zip(got, want):
                assert abs(branch.probability - prob) <= 1e-15
                np.testing.assert_allclose(branch.state.to_array(), post, atol=1e-14)


@pytest.mark.parametrize("arr", [pytest.param(arr, id=name) for name, arr in _cases()])
def test_batched_searches_match_oracle(arr):
    _assert_matches_oracle(arr)


def test_a_live_tail_above_the_cutoff_raises_persistency():
    cases = dict(_cases())
    assert persistency(cases["zero-branch5"]) == 2
    assert persistency(cases["tail5-dropped"]) == 2
    assert persistency(cases["tail5-live"]) == 3


# Gaussian-integer amplitudes, half of them zero: zero-probability branches,
# product factors and ties are common, and no branch probability lands
# near PROB_CUTOFF. Only n = 6 reaches the fourth search level (k = 4),
# whose blocks are the largest.
_amplitudes = st.one_of(st.just((0, 0)), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
_states = st.integers(3, 6).flatmap(
    lambda n: st.lists(_amplitudes, min_size=1 << n, max_size=1 << n)
).filter(lambda amps: any(re or im for re, im in amps))


@settings(max_examples=30, deadline=None)
@given(_states)
def test_batched_searches_match_oracle_fuzz(amps):
    arr = np.array([complex(re, im) for re, im in amps])
    _assert_matches_oracle(arr / np.linalg.norm(arr))
