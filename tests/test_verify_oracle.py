"""The exact, sector-batched ``verify`` against its float oracle.

``tests/oracle_verify.py`` runs the float loop (``to_array``, then
``verify_eigenstate`` per member). For every tree with n <= 5 and the
sequential and balanced n = 8 trees, ``run_verify`` must give the same
labels, operator names and order, eigenvalues and ``pass`` flags, and a
residual of exactly 0.0 wherever the oracle's is at most 1e-12. Mutated
bases (a sign flip, an amplitude moved inside or out of its sector, and
half of a state scaled by sqrt(2/3), then renormalized, which mixes
kernels) must give the oracle's residuals to 1e-9 relative.

``emit_json``, the package's only JSON writer, is checked against its own
oracle, ``json.dumps(value, indent=2)``, byte for byte, on real reports
and on ``hypothesis`` JSON values: nested dicts and lists, one dict object
reached at several depths, Unicode text, ints, bools, None and arbitrary
floats.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multiplets.coupling import CouplingTree, StateVector, all_coupling_trees, full_basis
from multiplets.exactnum import SignedRadical
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


def _flip_sign(rng, n, amps):
    config = rng.choice(sorted(amps))
    amps[config] = -amps[config]
    return amps


def _move_inside(rng, n, amps):
    """Swap one amplitude with another entry of its popcount sector (or
    move it there), where that changes the state."""
    config = rng.choice(sorted(amps))
    others = [c for c in range(1 << n) if _popcount(c) == _popcount(config)
              and c != config and amps.get(c) != amps[config]]
    if not others:
        return None
    other = rng.choice(others)
    amps[config], amps[other] = amps.get(other), amps[config]
    return {c: a for c, a in amps.items() if a is not None}


def _move_outside(rng, n, amps):
    config = rng.choice(sorted(amps))
    free = [c for c in range(1 << n) if _popcount(c) != _popcount(config) and c not in amps]
    amps[rng.choice(free)] = amps.pop(config)
    return amps


def _mix_kernels(rng, n, amps):
    """Scale half of the entries by sqrt(2/3), then renormalize."""
    scale = SignedRadical(1, Fraction(2, 3))
    for config in sorted(amps)[::2]:
        amps[config] = amps[config] * scale
    norm = SignedRadical(1, 1 / sum(a.squared() for a in amps.values()))
    return {c: a * norm for c, a in amps.items()}


MUTATIONS = {"sign": _flip_sign, "inside": _move_inside, "outside": _move_outside,
             "mixed": _mix_kernels}
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
    candidates = [s for s, (_, state) in enumerate(basis) if len(state.amplitudes) > 1]
    for s in rng.sample(candidates, min(6, len(candidates))):
        label, state = basis[s]
        amps = MUTATIONS[kind](rng, tree.n, dict(state.amplitudes))
        if amps is not None:
            mutated[s] = (label, StateVector.exact_state(tree.n, amps))
    got = verify_basis(tree, mutated)
    want = _residuals(oracle_verify.run_verify(tree, 1e-12, mutated))
    failing = want > 1e-12
    assert failing.any()
    np.testing.assert_allclose(got[failing], want[failing], rtol=1e-9, atol=0)
    assert (got[~failing] == 0.0).all()
    if kind == "outside":
        assert failing[:, -1].any()  # S_z sees the moved amplitude


@pytest.mark.parametrize("spec", MUTATED_TREES)
def test_outside_copies_verify_exactly(spec):
    # The same states built through the validating constructor take the
    # outside path: amplitudes grouped by rational-square ratios.
    tree = CouplingTree.parse(spec)
    basis = full_basis(tree)
    copies = [(label, StateVector.exact_state(tree.n, state.amplitudes)) for label, state in basis]
    assert all(state._integer is None for _, state in copies)
    assert (verify_basis(tree, copies) == 0.0).all()


def test_sign_flip_fails_the_report(monkeypatch):
    tree = CouplingTree.parse("((1 2) (3 4))")
    basis = full_basis(tree)
    label, state = basis[7]
    amps = dict(state.amplitudes)
    config = min(amps)
    amps[config] = -amps[config]
    basis[7] = (label, StateVector.exact_state(4, amps))
    monkeypatch.setattr("multiplets.report.full_basis", lambda _: basis)
    report = run_verify(tree, 1e-12)
    assert report["pass"] is False
    failed = [c for c in report["results"][7]["checks"] if not c["pass"]]
    assert failed and all(c["residual"] > 0.1 for c in failed)
    assert all(c["pass"] for row in report["results"][:7] for c in row["checks"])


@pytest.mark.parametrize("shift", [82, 130])
@pytest.mark.parametrize("small_first", [True, False], ids=["small_first", "large_first"])
def test_integers_of_2_40_are_refused(small_first, shift):
    tree = CouplingTree.parse("(1 2)")
    basis = full_basis(tree)
    label, _ = basis[1]  # S = 1, m = 0: ud and du
    # rho and 2^shift rho differ by the square of 2^(shift / 2): one column,
    # of integers 1 and 2^(shift / 2) when rho comes first, else of the
    # denominator 2^(shift / 2). Past 2^63 the integers would overflow int64.
    rho = Fraction(1, 1 + (1 << shift))
    amps = [(0b10, SignedRadical(1, rho)), (0b01, SignedRadical(1, rho * (1 << shift)))]
    basis[1] = (label, StateVector.exact_state(2, dict(amps if small_first else amps[::-1])))
    with pytest.raises(ValueError, match="2\\^40"):
        verify_basis(tree, basis)


def test_denominators_of_irrational_ratios_stay_small():
    tree = CouplingTree.parse("(1 2)")
    basis = full_basis(tree)
    label, _ = basis[1]
    # sqrt(2^-81) and sqrt(1 - 2^-81) differ by an irrational factor: two
    # columns of one integer each, where a squarefree split needs 2^41.
    small = Fraction(1, 1 << 81)
    amps = {0b10: SignedRadical(1, small), 0b01: SignedRadical(1, 1 - small)}
    basis[1] = (label, StateVector.exact_state(2, amps))
    want = _residuals(oracle_verify.run_verify(tree, 1e-12, basis))
    assert want[1, 0] > 1
    np.testing.assert_allclose(verify_basis(tree, basis), want, rtol=1e-9, atol=1e-12)


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
