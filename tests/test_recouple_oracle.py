"""Differential tests of the memoized expansion paths.

``recouple`` works at the stretched member m = S: it expands the source
there and walks only the target's S sector, with one subtree memo shared
over it; ``full_basis`` shares one memo over all labels of a tree. Both
must give exactly what label-by-label ``expand`` gives:
``tests/oracle_recouple.py`` for ``recouple`` (bit-equal to its
expansion at the label's own m and to its exact oracle at every m; the
labels of its float oracle, in order, within 1e-15), and
``[(label, expand(label)) ...]`` for ``full_basis``. A corrupted target
must make ``recouple`` raise, and the CLI print one error line. Between trees
that differ by one rotation, every recoupling coefficient must also equal
Racah's single-6j formula, and between ((1 2) (3 4)) and ((1 3) (2 4))
the 9j formula.
"""

import random
import re
from fractions import Fraction

import pytest

from multiplets import coupling
from multiplets.cli import main
from multiplets.coupling import (
    CoupledLabel,
    CouplingTree,
    Spin,
    SpinProjection,
    StateVector,
    all_coupling_trees,
    enumerate_multiplets,
    expand,
    full_basis,
    recouple,
)

import oracle_recouple


def _j(spin):
    return Fraction(spin.two_j, 2)


def _bits(coefficients):
    """(label, float bits) in dict order: equal only for bit-equal floats."""
    return [(label, coeff.hex()) for label, coeff in coefficients.items()]


def _assert_matches_oracles(label, target):
    """Bit-equal to the exact oracle; the float oracle's labels, in its
    order, each value within 1e-15 of the float ``vdot``."""
    got = recouple(label, target)
    assert _bits(got) == _bits(oracle_recouple.recouple_exact(label, target))
    floats = oracle_recouple.recouple(label, target)
    assert list(got) == list(floats)
    assert all(abs(got[key] - value) <= 1e-15 for key, value in floats.items())


def _sequential(n):
    spec = "1"
    for i in range(2, n + 1):
        spec = f"({spec} {i})"
    return CouplingTree.parse(spec)


def _balanced(n):
    def build(items):
        if len(items) == 1:
            return str(items[0])
        half = len(items) // 2
        return f"({build(items[:half])} {build(items[half:])})"
    return CouplingTree.parse(build(list(range(1, n + 1))))


TREES4 = all_coupling_trees(range(1, 5))


class TestRecoupleAgainstOracle:
    @pytest.mark.parametrize("source", TREES4, ids=str)
    def test_every_four_qubit_label_into_every_other_tree(self, source):
        for label in enumerate_multiplets(source):
            for target in TREES4:
                if target == source:
                    continue
                _assert_matches_oracles(label, target)

    @pytest.mark.parametrize("n, samples", [(5, 60), (6, 25)])
    def test_sampled_labels(self, n, samples):
        rng = random.Random(n)
        trees = all_coupling_trees(range(1, n + 1))
        for _ in range(samples):
            source, target = rng.sample(trees, 2)
            label = rng.choice(enumerate_multiplets(source))
            _assert_matches_oracles(label, target)

    def test_into_the_same_tree(self):
        tree = _balanced(6)
        for label in enumerate_multiplets(tree)[::7]:
            _assert_matches_oracles(label, tree)


def _random_tree(rng, n):
    """A random tree shape over a random leaf order of particles 1..n."""
    particles = rng.sample(range(1, n + 1), n)

    def build(items):
        if len(items) == 1:
            return str(items[0])
        cut = rng.randrange(1, len(items))
        return f"({build(items[:cut])} {build(items[cut:])})"
    return CouplingTree.parse(build(particles))


class TestStretchedMember:
    @pytest.mark.parametrize("source", TREES4, ids=str)
    def test_every_four_qubit_label_matches_the_expansion_at_its_m(self, source):
        for label in enumerate_multiplets(source):
            for target in TREES4:
                assert _bits(recouple(label, target)) == _bits(
                    oracle_recouple.recouple_at_m(label, target))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_every_m_of_sampled_multiplets_in_random_leaf_orders(self, n):
        rng = random.Random(100 + n)
        for _ in range(3):
            source, target = _random_tree(rng, n), _random_tree(rng, n)
            two_s, intermediates = rng.choice(
                [(two_s, inter) for two_s, inter in coupling._assignments(source) if two_s])
            spins = tuple(map(Spin, intermediates))
            for two_m in range(two_s, -two_s - 1, -2):
                label = CoupledLabel(source, spins, SpinProjection(two_m))
                assert _bits(recouple(label, target)) == _bits(
                    oracle_recouple.recouple_exact(label, target))

    def test_labels_of_one_call_share_their_spins(self):
        label = enumerate_multiplets(_sequential(6))[40]
        spins = [spin for target in recouple(label, _balanced(6)) for spin in target.intermediates]
        assert len(spins) > len(set(spins))
        assert len(set(map(id, spins))) == len(set(spins))


# The sequential n = 4 label S12 = 1, S123 = 1/2, S = 1, m = 0 has the
# coefficient sqrt(2/3) on the balanced label S12 = S34 = 1, S = 1, whose
# root plan (j_left, j_right, J) = (1, 1, 1) no node of the source uses.
# Each corruption changes that plan's first branch, or the target's root
# expansion, so the source stays exact and only the target is wrong.
CORRUPTIONS = {
    # Norm 1 still, but the state leaves the S = 1 sector: Parseval fails.
    "sign": ("plan", lambda b: (b[0], b[1], -b[2], b[3], b[4]), "squared sum"),
    # The branch's coefficient doubled: the state is no longer of norm 1.
    "scale": ("plan", lambda b: (b[0], b[1], b[2], 4 * b[3], b[4]), "norm"),
    # A configuration of a fifth particle, with amplitude 0.
    "range": ("root", lambda ints: {**ints, 1 << 4: 0}, "out of range"),
}


@pytest.fixture(params=sorted(CORRUPTIONS))
def corrupted_target(request, monkeypatch):
    where, change, message = CORRUPTIONS[request.param]
    target = _balanced(4)
    if where == "plan":
        plan = coupling._branch_plan

        def corrupted(two_l, two_r, two_j, two_m):
            branches = plan(two_l, two_r, two_j, two_m)
            if (two_l, two_r, two_j) == (2, 2, 2):
                return (change(branches[0]),) + branches[1:]
            return branches
        monkeypatch.setattr(coupling, "_branch_plan", corrupted)
    else:
        expand_node = coupling._expand_node

        def corrupted(pos, postorder, spins, two_m, memo):
            p, q, ints = expand_node(pos, postorder, spins, two_m, memo)
            if postorder == target._postorder and pos == len(spins) - 1:
                ints = change(ints)
            return p, q, ints
        monkeypatch.setattr(coupling, "_expand_node", corrupted)
    return target, message


class TestCorruptedTarget:
    def test_recouple_raises(self, corrupted_target):
        target, message = corrupted_target
        label = CoupledLabel(_sequential(4), (Spin(2), Spin(1), Spin(2)), SpinProjection(0))
        with pytest.raises(ValueError, match=message):
            recouple(label, target)

    def test_the_cli_prints_one_error_line(self, corrupted_target, capsys):
        target, message = corrupted_target
        assert main(["recouple", _sequential(4).spec(), target.spec(), "--label", "1,1/2,1,0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_recouple_builds_no_dense_array(monkeypatch):
    def refuse(self):
        raise AssertionError("recouple built a dense array")

    source, target = _sequential(4), _balanced(4)
    labels = enumerate_multiplets(source)
    want = [oracle_recouple.recouple_exact(label, target) for label in labels]
    monkeypatch.setattr(StateVector, "to_array", refuse)
    assert [_bits(recouple(label, target)) for label in labels] == list(map(_bits, want))


def _assert_full_basis_matches_expand(tree):
    basis = full_basis(tree)
    labels = enumerate_multiplets(tree)
    assert [label for label, _ in basis] == labels
    for (label, state), oracle_label in zip(basis, labels):
        oracle = expand(oracle_label)
        assert state.n == oracle.n
        assert state.amplitudes == oracle.amplitudes


class TestFullBasisAgainstExpand:
    @pytest.mark.parametrize(
        "tree", [t for n in range(2, 6) for t in all_coupling_trees(range(1, n + 1))],
        ids=str)
    def test_every_tree_up_to_five_qubits(self, tree):
        _assert_full_basis_matches_expand(tree)

    @pytest.mark.parametrize("build", [_sequential, _balanced], ids=["seq", "bal"])
    def test_eight_qubits(self, build):
        _assert_full_basis_matches_expand(build(8))


# --------------------------------------------------------------------------
# Racah's formula for one rotation ((A B) C) <-> (A (B C))

def _node_spins(label):
    """Spin at every tree node of ``label``, leaves included, keyed by the
    node's particles in leaf order: a tree's nodes hold distinct particle
    sets, so the keys are distinct."""
    spins = {(index,): Spin(1) for index in label.tree.particles()}
    spins.update(zip(label.tree.node_particles(), label.intermediates))
    return spins


def _racah(sympy, a, b, c, j_ab, j_bc, total):
    """<(a b) j_ab, c; J | a, (b c) j_bc; J> from one Wigner 6j symbol
    (Racah, Phys. Rev. 62, 438 (1942))."""
    from sympy.physics.wigner import wigner_6j

    def rat(x):
        return sympy.Rational(x.numerator, x.denominator)

    six_j = wigner_6j(rat(a), rat(b), rat(j_ab), rat(c), rat(total), rat(j_bc))
    phase = a + b + c + total
    assert phase.denominator == 1
    return (-1) ** int(phase) * float(
        sympy.sqrt((2 * rat(j_ab) + 1) * (2 * rat(j_bc) + 1)) * six_j)


ROTATIONS = [
    # (A, B, C) as tree specs over disjoint particles
    ("1", "2", "3"),
    ("(1 2)", "3", "4"),
    ("1", "(2 3)", "4"),
    ("1", "2", "(3 4)"),
    ("(1 2)", "(3 4)", "5"),
    ("(1 3)", "2", "(4 5)"),
    ("1", "((2 3) 4)", "5"),
    ("(1 2)", "(3 4)", "(5 6)"),
]


@pytest.mark.parametrize("parts", ROTATIONS, ids=lambda p: "((%s %s) %s)" % p)
def test_single_rotation_matches_six_j(parts):
    sympy = pytest.importorskip("sympy")
    a_spec, b_spec, c_spec = parts
    source = CouplingTree.parse(f"(({a_spec} {b_spec}) {c_spec})")
    target = CouplingTree.parse(f"({a_spec} ({b_spec} {c_spec}))")
    # Each subtree's key: its particles in leaf order, as its spec lists them.
    a_node, b_node, c_node, ab_node, bc_node = (
        tuple(map(int, re.findall(r"\d+", spec)))
        for spec in (a_spec, b_spec, c_spec, f"({a_spec} {b_spec})", f"({b_spec} {c_spec})"))
    for label in enumerate_multiplets(source):
        spins = _node_spins(label)
        a, b, c = (_j(spins[node]) for node in (a_node, b_node, c_node))
        j_ab, total = _j(spins[ab_node]), _j(label.total_spin)
        coefficients = recouple(label, target)
        expected = {}
        for two_j_bc in range(int(2 * abs(b - c)), int(2 * (b + c)) + 1, 2):
            j_bc = Fraction(two_j_bc, 2)
            value = _racah(sympy, a, b, c, j_ab, j_bc, total)
            if abs(value) > 1e-12:
                expected[j_bc] = value
        got = {}
        for target_label, coeff in coefficients.items():
            target_spins = _node_spins(target_label)
            # The nodes both trees share are those of A, B and C; their
            # spins do not change under the rotation.
            shared = spins.keys() & target_spins.keys()
            assert {a_node, b_node, c_node} <= shared
            assert all(target_spins[node] == spins[node] for node in shared)
            got[_j(target_spins[bc_node])] = coeff
        assert got.keys() == expected.keys()
        for j_bc, value in expected.items():
            assert got[j_bc] == pytest.approx(value, abs=1e-12)



def test_two_pair_swap_matches_nine_j():
    # <(1 2) j12, (3 4) j34; S | (1 3) j13, (2 4) j24; S> is
    # sqrt((2j12+1)(2j34+1)(2j13+1)(2j24+1)) times one Wigner 9j symbol.
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import wigner_9j

    source = CouplingTree.parse("((1 2) (3 4))")
    target = CouplingTree.parse("((1 3) (2 4))")
    half = sympy.Rational(1, 2)
    nonzero = 0
    for label in enumerate_multiplets(source):
        j12, j34, total = (sympy.Rational(spin.two_j, 2) for spin in label.intermediates)
        expected = {}
        for j13 in (1, 0):
            for j24 in (1, 0):
                value = sympy.sqrt((2 * j12 + 1) * (2 * j34 + 1) * (2 * j13 + 1) * (2 * j24 + 1)) \
                    * wigner_9j(half, half, j12, half, half, j34, j13, j24, total)
                if value != 0:
                    expected[2 * j13, 2 * j24] = float(value)
        got = {(target_label.intermediates[0].two_j, target_label.intermediates[1].two_j): coeff
               for target_label, coeff in recouple(label, target).items()}
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-15)
        nonzero += len(got)
    assert nonzero == 33
