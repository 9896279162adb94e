"""The exact, sector-batched ``verify`` against its float oracle.

``tests/oracle_verify.py`` runs the float loop (``to_array``, then
``verify_eigenstate`` per member). For every tree with n <= 5 and the
sequential and balanced n = 8 trees, ``run_verify`` must give the same
labels, operator names and order, eigenvalues and ``pass`` flags, and a
residual of exactly 0.0 wherever the oracle's is at most 1e-12. Mutated
bases (a sign flip or an integer moved inside its sector, built on the
engine's integer form, and two states of one multiplet swapped, one
popcount off their labels) must give the oracle's residuals to 1e-9
relative, and exactly 1.0 for the swapped states' S_z. A state scaled
in half of its integers and renormalized carries a new radicand; one of
radicand 1 + (2^39 - 1)^2 is read without factoring. Reversing the
states of one multiplet gives S_z residuals of exactly |delta m|.
``verify_basis`` takes only expanded states.

``oracle_verify.verify_basis_by_sector``, the exact check as it ran one
sector at a time on a whole list, must give bit-equal residual arrays on
every tree with n <= 5 and on the mutated bases, also when a small block
budget splits the sectors into several blocks and the integers are
scattered in small batches. ``run_verify`` reads the engine's stream:
a sign flip fed through that stream fails the report.

``emit_json``, the JSON writer of every report and state file, is
checked against its own oracle, ``json.dumps(value, indent=2)``, byte for
byte, on real reports and on ``hypothesis`` JSON values: nested dicts and
lists, one dict object reached at several depths, Unicode text, ints,
bools, None and arbitrary floats.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multiplets import operators
from multiplets.coupling import (
    CouplingTree,
    IntegerAmplitudes,
    StateVector,
    all_coupling_trees,
    coupled_forms,
    full_basis,
)
from multiplets.operators import verify_basis
from multiplets.report import emit_json, run_verify

import oracle_verify

SEQUENTIAL_8 = CouplingTree.parse("(((((((1 2) 3) 4) 5) 6) 7) 8)")
BALANCED_8 = CouplingTree.parse("(((1 2) (3 4)) ((5 6) (7 8)))")
TREES = ([t for n in (2, 3, 4, 5) for t in all_coupling_trees(range(1, n + 1))]
         + [SEQUENTIAL_8, BALANCED_8])


@pytest.mark.parametrize("tree", TREES, ids=CouplingTree.spec)
def test_report_matches_the_oracle(tree):
    report = run_verify(tree, 1e-12)
    oracle = oracle_verify.run_verify(tree, 1e-12)
    assert (report["tree"], report["tol"], report["pass"]) == (tree.spec(), 1e-12, True)
    assert oracle["pass"] is True
    assert len(report["results"]) == len(oracle["results"]) == 1 << tree.n
    for row, reference in zip(report["results"], oracle["results"]):
        assert row["label"] == reference["label"]
        assert ([(c["operator"], c["eigenvalue"], c["pass"]) for c in row["checks"]]
                == [(c["operator"], c["eigenvalue"], c["pass"]) for c in reference["checks"]])
        for check, ref in zip(row["checks"], reference["checks"]):
            assert ref["residual"] <= 1e-12 and check["residual"] == 0.0


def _popcount(config: int) -> int:
    return bin(config).count("1")


def _flip_sign(rng, n, ints):
    config = rng.choice(sorted(ints))
    ints[config] = -ints[config]
    return ints


def _move_inside(rng, n, ints):
    """Swap one integer with another entry of its popcount sector (or move
    it there), where that changes the state."""
    config = rng.choice(sorted(ints))
    others = [c for c in range(1 << n) if _popcount(c) == _popcount(config)
              and c != config and ints.get(c) != ints[config]]
    if not others:
        return None
    other = rng.choice(others)
    ints[config], ints[other] = ints.get(other), ints[config]
    return {c: k for c, k in ints.items() if k is not None}


def _scale_half(rng, n, ints):
    """Double every other integer, then divide by the common factor: the
    state is renormalized with a new radicand."""
    ints = {c: 2 * k if i % 2 == 0 else k for i, (c, k) in enumerate(sorted(ints.items()))}
    common = math.gcd(*ints.values())
    return {c: k // common for c, k in ints.items()}


MUTATIONS = {"sign": _flip_sign, "inside": _move_inside, "outside": None,
             "scaled": _scale_half}
MUTATED_TREES = ["((1 2) 3)", "(((1 2) 3) (4 5))", "((1 2) ((3 4) (5 6)))",
                 "(((((1 2) 3) 4) 5) 6)"]


def _residuals(report: dict) -> np.ndarray:
    return np.array([[c["residual"] for c in row["checks"]] for row in report["results"]])


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("spec", MUTATED_TREES)
def test_mutated_residuals_match_the_oracle(spec, kind):
    tree = CouplingTree.parse(spec)
    basis = full_basis(tree)
    rng = random.Random(f"{spec}:{kind}")
    mutated = list(basis)
    if kind == "outside":
        # m = S and m = S - 1 of one multiplet, swapped: each state is still
        # a Casimir eigenvector, one popcount off its label.
        (label0, state0), (label1, state1) = basis[:2]
        assert label0.total_m.two_m - label1.total_m.two_m == 2
        mutated[:2] = [(label0, state1), (label1, state0)]
    else:
        candidates = [s for s, (_, state) in enumerate(basis) if len(state.amplitudes) > 1]
        for s in rng.sample(candidates, min(6, len(candidates))):
            label, state = basis[s]
            ints = MUTATIONS[kind](rng, tree.n, dict(state.amplitudes.ints))
            if ints is not None:
                r = Fraction(1, sum(k * k for k in ints.values()))
                mutated[s] = (label, StateVector(tree.n, IntegerAmplitudes(r, ints), True))
    got = verify_basis(tree, mutated)
    assert got.tobytes() == oracle_verify.verify_basis_by_sector(tree, mutated).tobytes()
    want = _residuals(oracle_verify.run_verify(tree, 1e-12, mutated))
    failing = want > 1e-12
    assert failing.any()
    np.testing.assert_allclose(got[failing], want[failing], rtol=1e-9, atol=0)
    assert (got[~failing] == 0.0).all()
    if kind == "outside":
        assert (got[:2, -1] == 1.0).all() and not failing[2:].any()


@pytest.mark.parametrize("spec", MUTATED_TREES)
def test_sz_residual_is_the_m_offset(spec):
    # The states of the first multiplet in reverse order: each is still a
    # Casimir eigenvector, |delta m| off its label's sector.
    tree = CouplingTree.parse(spec)
    basis = full_basis(tree)
    group = [s for s, (label, _) in enumerate(basis)
             if label.intermediates == basis[0][0].intermediates]
    assert len(group) == tree.n + 1
    mutated = list(basis)
    for s, t in zip(group, group[::-1]):
        mutated[s] = (basis[s][0], basis[t][1])
    got = verify_basis(tree, mutated)
    offsets = [abs(basis[s][0].total_m.two_m - basis[t][0].total_m.two_m) / 2
               for s, t in zip(group, group[::-1])]
    assert got[group, -1].tolist() == offsets and max(offsets) == tree.n
    assert (np.delete(got, group, axis=0) == 0.0).all() and (got[:, :-1] == 0.0).all()
    want = _residuals(oracle_verify.run_verify(tree, 1e-12, mutated))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_large_radicand_in_verify_matches_the_oracle():
    # sqrt(r) * (1, k) with k = 2^39 - 1, just under the integer limit:
    # r = 1 / (1 + k^2) is taken as it is, nothing is factored.
    tree = CouplingTree.parse("(1 2)")
    basis = full_basis(tree)
    label, _ = basis[1]  # S = 1, m = 0: ud and du
    k = (1 << 39) - 1
    ints = IntegerAmplitudes(Fraction(1, 1 + k * k), {0b10: 1, 0b01: k})
    basis[1] = (label, StateVector(2, ints, True))
    got = verify_basis(tree, basis)
    want = _residuals(oracle_verify.run_verify(tree, 1e-12, basis))
    assert want[1, 0] > 1
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_sign_flip_fails_the_report(monkeypatch):
    tree = CouplingTree.parse("((1 2) (3 4))")
    forms = list(coupled_forms(tree))
    intermediates, two_m, p, q, ints = forms[7]
    ints = dict(ints)
    config = min(ints)
    ints[config] = -ints[config]
    forms[7] = (intermediates, two_m, p, q, ints)
    monkeypatch.setattr("multiplets.report.coupled_forms", lambda _: iter(forms))
    report = run_verify(tree, 1e-12)
    assert report["pass"] is False
    failed = [c for c in report["results"][7]["checks"] if not c["pass"]]
    assert failed and all(c["residual"] > 0.1 for c in failed)
    assert all(c["pass"] for row in report["results"][:7] for c in row["checks"])


@pytest.mark.parametrize("tree", [t for t in TREES if t.n <= 5], ids=CouplingTree.spec)
def test_checker_matches_the_sector_oracle_bit_for_bit(tree):
    basis = full_basis(tree)
    got = verify_basis(tree, basis)
    assert got.tobytes() == oracle_verify.verify_basis_by_sector(tree, basis).tobytes()


def test_block_partition():
    # Every n <= 11 is one block; n = 12 splits into the three middle
    # sectors alone and the two runs around them.
    assert [len(operators._blocks(n)) for n in range(2, 12)] == [1] * 10
    assert operators._blocks(12) == [(0, 5), (5, 6), (6, 7), (7, 8), (8, 13)]


# The blocks of a budget that just holds the first two or three sectors
# as one padded block: two-sector and wider blocks, and blocks of one.
SPLITS = {
    (3, 2): [(0, 2), (2, 4)], (3, 3): [(0, 3), (3, 4)],
    (5, 2): [(0, 2), (2, 3), (3, 4), (4, 6)], (5, 3): [(0, 3), (3, 6)],
    (6, 2): [(0, 2), (2, 3), (3, 4), (4, 5), (5, 7)], (6, 3): [(0, 3), (3, 4), (4, 7)],
}


@pytest.mark.parametrize("first", [2, 3])
@pytest.mark.parametrize("spec", MUTATED_TREES)
def test_several_blocks_match_the_sector_oracle(spec, first, monkeypatch):
    # Scattering every three integers exercises the batches.
    tree = CouplingTree.parse(spec)
    n = tree.n
    sizes = [math.comb(n, w) for w in range(first)]
    monkeypatch.setattr(operators, "_BLOCK_BYTES", 8 * sum(sizes) * max(sizes))
    monkeypatch.setattr(operators, "_FLUSH_INTS", 3)
    assert operators._blocks(n) == SPLITS[n, first]
    basis = full_basis(tree)
    rng = random.Random(spec)
    mutated = list(basis)
    for s in rng.sample(range(len(basis)), 4):
        label, state = basis[s]
        if len(state.amplitudes) > 1:
            ints = _flip_sign(rng, tree.n, dict(state.amplitudes.ints))
            mutated[s] = (label, StateVector(tree.n, IntegerAmplitudes(
                state.amplitudes.radicand, ints), True))
    mutated[:2] = [(basis[0][0], basis[1][1]), (basis[1][0], basis[0][1])]
    for states in (basis, mutated):
        got = verify_basis(tree, states)
        assert got.tobytes() == oracle_verify.verify_basis_by_sector(tree, states).tobytes()
    assert (verify_basis(tree, basis) == 0.0).all() and verify_basis(tree, mutated).any()
    report = run_verify(tree, 1e-12)
    assert report["pass"] is True and len(report["results"]) == 1 << tree.n


def test_more_states_than_a_sector_holds_are_refused():
    tree = CouplingTree.parse("((1 2) 3)")
    basis = full_basis(tree)
    with pytest.raises(ValueError, match="popcount sector 3 holds more than its 1 states"):
        verify_basis(tree, basis + basis[:1])


def test_states_from_outside_the_engine_are_refused():
    tree = CouplingTree.parse("((1 2) 3)")
    basis = full_basis(tree)
    label, state = basis[1]
    copies = [StateVector.exact_state(3, state.amplitudes),
              StateVector.from_array(state.to_array())]
    for copy in copies:
        basis[1] = (label, copy)
        with pytest.raises(ValueError, match="expanded states of 3 particles"):
            verify_basis(tree, basis)


def test_a_state_across_two_sectors_is_refused():
    tree = CouplingTree.parse("(1 2)")
    basis = full_basis(tree)
    label, _ = basis[1]
    basis[1] = (label, StateVector(2, IntegerAmplitudes(Fraction(1, 2), {0b10: 1, 0b11: 1}), True))
    with pytest.raises(ValueError, match="several popcount sectors"):
        verify_basis(tree, basis)


@pytest.mark.parametrize("big", [1 << 41, 1 << 65, -(1 << 63)], ids=["2^41", "2^65", "-2^63"])
@pytest.mark.parametrize("big_first", [False, True], ids=["small_first", "big_first"])
def test_integers_of_2_40_are_refused(big_first, big):
    # Past 2^63 an integer does not fit int64; -2^63 does, but has no
    # int64 absolute value.
    tree = CouplingTree.parse("(1 2)")
    basis = full_basis(tree)
    label, _ = basis[1]  # S = 1, m = 0: ud and du
    ints = [(0b10, 1), (0b01, big)]
    ints = dict(ints[::-1] if big_first else ints)
    basis[1] = (label, StateVector(2, IntegerAmplitudes(Fraction(1, 1 + big * big), ints), True))
    with pytest.raises(ValueError, match="2\\^40"):
        verify_basis(tree, basis)


def _dumps(value) -> bytes:
    return (json.dumps(value, indent=2) + "\n").encode()


@pytest.mark.parametrize("spec", ["(1 2)", "((1 2) (3 4))", "(((1 2) (3 4)) ((5 6) (7 8)))",
                                  "(((((((1 2) 3) 4) 5) 6) 7) 8)"])
def test_writer_matches_json_dumps_on_reports(spec):
    report = run_verify(CouplingTree.parse(spec), 1e-12)
    assert emit_json(report) == _dumps(report)


_floats = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
     math.inf, -math.inf, math.nan, 1e16, 1e-7])
_scalars = st.none() | st.booleans() | st.integers() | _floats | st.text()
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


def test_a_dict_at_two_depths_keeps_each_depth():
    shared = {"a": 1, "b": [2.5, "x"]}
    value = {"x": shared, "y": [shared, {"z": shared}], "w": shared}
    assert emit_json(value) == _dumps(value)


@settings(max_examples=300, deadline=None)
@given(_values)
@example({"tree": "(1 2)", "tol": -0.0, "pass": True, "results": [
    {"label": {"S": "1", "m": "0"}, "checks": [
        {"operator": "S^2", "eigenvalue": 0.0, "residual": -0.0, "pass": True},
        {"operator": "S^2", "eigenvalue": -0.0, "residual": 0.0, "pass": True},
        {"operator": "S²\U0001f600\n\"", "eigenvalue": math.nan,
         "residual": math.inf, "pass": False}]}]})
@example([5e-324, -5e-324, 1e308, -0.0, math.nan, math.inf, -math.inf, True, None, -7, 2**70])
def test_writer_matches_json_dumps(value):
    assert emit_json(value) == _dumps(value)
    # The same objects again at three depths, twice at one of them: a dict
    # object is laid out at each depth it is reached at.
    nested = {"first": value, "again": [value, {"deeper": value}], "twice": [value, value]}
    assert emit_json(nested) == _dumps(nested)
