import itertools
from fractions import Fraction

import numpy as np
import pytest

from multiplets import coupling
from multiplets.coupling import (
    HALF,
    CoupledLabel,
    CouplingTree,
    Leaf,
    Node,
    Spin,
    SpinProjection,
    StateVector,
    all_coupling_trees,
    allowed_couplings,
    cg,
    config_from_string,
    config_to_string,
    dense_index,
    enumerate_multiplets,
    expand,
    full_basis,
    projections,
    recouple,
    triangle_ok,
    _half_text,
)
from multiplets.exactnum import SignedRadical
from multiplets.statefile import emit_state_file, parse_state_file

from exact_sums import radical_sum


def rad(text):
    """Parse amplitudes like '+sqrt(1/6)', '-1/2', '1'."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    elif text.startswith("+"):
        text = text[1:]
    if text.startswith("sqrt(") and text.endswith(")"):
        return SignedRadical.sqrt(Fraction(text[5:-1]), sign)
    return SignedRadical.from_rational(sign * Fraction(text))


def amp_map(state):
    return {config_to_string(c, state.n): a for c, a in state.amplitudes.items()}


PAIR = CouplingTree.parse("(1 2)")
TRIPLE = CouplingTree.parse("((1 2) 3)")
TRIPLE_ALT = CouplingTree.parse("((2 3) 1)")
PAIR_PAIR = CouplingTree.parse("((1 2) (3 4))")
SEQUENTIAL = CouplingTree.parse("(((1 2) 3) 4)")


def label_of(tree, *values):
    return CoupledLabel(
        tree,
        tuple(Spin.of(v) for v in values[:-1]),
        SpinProjection.of(values[-1]),
    )


class TestSpinTypes:
    def test_spin_value(self):
        assert Spin.of("3/2").two_j == 3
        assert Spin.of(2).j == 2
        assert str(HALF) == "1/2"

    def test_negative_spin_rejected(self):
        with pytest.raises(ValueError):
            Spin(-1)

    def test_non_half_integer_rejected(self):
        with pytest.raises(ValueError):
            Spin.of("1/3")

    def test_projections_descend(self):
        assert [p.two_m for p in projections(Spin(2))] == [2, 0, -2]

    @pytest.mark.parametrize("two", range(-41, 42))
    def test_half_text_matches_fraction(self, two):
        text = str(Fraction(two, 2))
        assert _half_text(two) == text
        assert str(SpinProjection(two)) == text
        if two >= 0:
            assert str(Spin(two)) == text


class TestCg:
    def test_triplet_component(self):
        assert cg(HALF, SpinProjection(1), HALF, SpinProjection(-1),
                  Spin(2), SpinProjection(0)) == rad("+sqrt(1/2)")

    def test_singlet_component(self):
        assert cg(HALF, SpinProjection(-1), HALF, SpinProjection(1),
                  Spin(0), SpinProjection(0)) == rad("-sqrt(1/2)")

    def test_projection_mismatch_is_zero(self):
        assert cg(HALF, SpinProjection(1), HALF, SpinProjection(1),
                  Spin(2), SpinProjection(0)) == SignedRadical.zero()

    def test_triangle_violation_is_zero(self):
        assert cg(HALF, SpinProjection(1), HALF, SpinProjection(1),
                  Spin(6), SpinProjection(2)) == SignedRadical.zero()

    @pytest.mark.parametrize("two_j1,two_j2", [(1, 1), (2, 1), (3, 2), (4, 3)])
    def test_stretched_state_is_one(self, two_j1, two_j2):
        j_top = Spin(two_j1 + two_j2)
        assert cg(Spin(two_j1), SpinProjection(two_j1),
                  Spin(two_j2), SpinProjection(two_j2),
                  j_top, SpinProjection(j_top.two_j)) == SignedRadical.one()

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cg(HALF, SpinProjection(0), HALF, SpinProjection(1),
               Spin(1), SpinProjection(1))

    def test_branch_plans_are_the_nonzero_terms_in_ascending_m(self):
        # Every pair of doubled spins up to 12 and every (J, M) they allow.
        for tj1, tj2 in itertools.product(range(13), repeat=2):
            j1, j2 = Spin(tj1), Spin(tj2)
            for j in allowed_couplings(j1, j2):
                for m in projections(j):
                    expected = []
                    for m1 in reversed(projections(j1)):
                        m2 = SpinProjection(m.two_m - m1.two_m)
                        coeff = abs(m2.two_m) <= tj2 and cg(j1, m1, j2, m2, j, m)
                        if coeff:
                            radicand = coeff.radicand
                            expected.append((m1.two_m, m2.two_m, coeff.sign,
                                             radicand.numerator, radicand.denominator))
                    assert coupling._branch_plan(tj1, tj2, j.two_j, m.two_m) == tuple(expected)

    def test_orthogonality_exact(self):
        # Sum over m1+m2=M of products for two total spins is delta_{JJ'}.
        for tj1, tj2 in itertools.product(range(0, 5), repeat=2):
            j1, j2 = Spin(tj1), Spin(tj2)
            for j_a, j_b in itertools.product(allowed_couplings(j1, j2), repeat=2):
                for m_total in projections(j_a):
                    if abs(m_total.two_m) > j_b.two_j:
                        continue
                    terms = []
                    for m1 in projections(j1):
                        tm2 = m_total.two_m - m1.two_m
                        if abs(tm2) > j2.two_j:
                            continue
                        m2 = SpinProjection(tm2)
                        terms.append(cg(j1, m1, j2, m2, j_a, m_total)
                                     * cg(j1, m1, j2, m2, j_b, m_total))
                    total = radical_sum(terms)
                    expected = SignedRadical.one() if j_a == j_b else SignedRadical.zero()
                    assert total == expected


class TestAllowedCouplings:
    def test_half_half(self):
        assert allowed_couplings(HALF, HALF) == [Spin(2), Spin(0)]

    def test_one_with_half(self):
        assert allowed_couplings(Spin(2), HALF) == [Spin(3), Spin(1)]

    def test_zero_with_anything(self):
        assert allowed_couplings(Spin(0), Spin(5)) == [Spin(5)]

    def test_triangle_rule(self):
        assert triangle_ok(HALF, HALF, Spin(2))
        assert not triangle_ok(HALF, HALF, Spin(1))  # parity
        assert not triangle_ok(HALF, HALF, Spin(4))


class TestTrees:
    def test_parse_round_trip(self):
        for spec in ["(1 2)", "((1 2) 3)", "((1 2) (3 4))", "(((1 2) 3) 4)", "((2 3) 1)"]:
            tree = CouplingTree.parse(spec)
            assert CouplingTree.parse(tree.spec()) == tree

    def test_whitespace_insensitive(self):
        assert CouplingTree.parse("((1 2)(3 4))") == CouplingTree.parse(" ( (1   2) ( 3 4 ) ) ")

    def test_node_names(self):
        assert PAIR_PAIR.node_names() == ("S12", "S34", "S")
        assert SEQUENTIAL.node_names() == ("S12", "S123", "S")
        assert TRIPLE_ALT.node_names() == ("S23", "S")

    def test_bad_specs_rejected(self):
        for bad in ["(1 2", "(1 2))", "(1 1)", "(1 3)", "()", "(1 (2)"]:
            with pytest.raises(ValueError):
                CouplingTree.parse(bad)

    def test_equal_trees_stay_equal_and_hash_equal(self):
        for n in range(2, 6):
            for tree in all_coupling_trees(range(1, n + 1)):
                twin = CouplingTree.parse(tree.spec())
                assert twin is not tree and twin == tree
                # The dataclass's own hash, taken once per tree.
                assert hash(twin) == hash(tree) == hash((tree.root,))
                tree._postorder  # cached state on one side changes neither
                assert hash(tree) == hash(twin) and twin == tree
                label = enumerate_multiplets(tree)[-1]
                assert {label: 1}[enumerate_multiplets(twin)[-1]] == 1
        assert CouplingTree.parse("((1 2) 3)") != CouplingTree.parse("((1 3) 2)")
        assert len({CouplingTree.parse(spec) for spec in ["((1 2) 3)", "((1 3) 2)", "((1 2) 3)"]}) == 2

    def test_duplicate_particle_rejected(self):
        with pytest.raises(ValueError):
            CouplingTree(Node(Leaf(1), Leaf(1)))

    def test_all_trees_counts(self):
        # (2n-3)!! binary coupling orders over n labelled particles.
        assert len(all_coupling_trees((1, 2))) == 1
        assert len(all_coupling_trees((1, 2, 3))) == 3
        assert len(all_coupling_trees((1, 2, 3, 4))) == 15


def _assignments_by_recursion(node):
    """(subtree spin, intermediate spins postorder) of each assignment, as
    ``Spin``s, earlier spins descending first: the unpruned walk."""
    if isinstance(node, Leaf):
        yield node.spin, ()
        return
    for left_spin, left_inter in _assignments_by_recursion(node.left):
        for right_spin, right_inter in _assignments_by_recursion(node.right):
            for total in allowed_couplings(left_spin, right_spin):
                yield total, left_inter + right_inter + (total,)


class TestEnumerate:
    def test_two_qubit_multiplets(self):
        labels = enumerate_multiplets(PAIR)
        assert [(l.intermediates[-1].j, l.total_m.m) for l in labels] == [
            (1, 1), (1, 0), (1, -1), (0, 0)
        ]

    def test_pair_pair_assignments_in_order(self):
        labels = enumerate_multiplets(PAIR_PAIR)
        triples = []
        for label in labels:
            t = tuple(s.j for s in label.intermediates)
            if t not in triples:
                triples.append(t)
        assert triples == [(1, 1, 2), (1, 1, 1), (1, 1, 0),
                           (1, 0, 1), (0, 1, 1), (0, 0, 0)]
        assert len(labels) == 16

    def test_a_walk_held_to_one_total_is_the_filtered_full_walk(self):
        mixed = [CouplingTree(Node(Node(Leaf(1, Spin(2)), Leaf(2)), Node(Leaf(3, Spin(3)), Leaf(4)))),
                 CouplingTree(Node(Node(Node(Leaf(1, Spin(4)), Leaf(2, Spin(2))), Leaf(3)), Leaf(4)))]
        trees = [tree for n in range(2, 7) for tree in all_coupling_trees(range(1, n + 1))]
        for tree in trees + mixed:
            walk = [(total.two_j, tuple(spin.two_j for spin in inter))
                    for total, inter in _assignments_by_recursion(tree.root)]
            assert list(coupling._assignments(tree)) == walk
            top = sum(leaf.spin.two_j for leaf in tree.leaves())
            for two_s in range(top + 2):
                assert list(coupling._assignments(tree, two_s)) == [
                    (total, inter) for total, inter in walk if total == two_s]

    @pytest.mark.parametrize("tree,n", [(PAIR, 2), (TRIPLE, 3), (PAIR_PAIR, 4), (SEQUENTIAL, 4)])
    def test_dimension_count(self, tree, n):
        assert len(enumerate_multiplets(tree)) == 2 ** n

    def test_m_descends_within_multiplet(self):
        labels = enumerate_multiplets(PAIR_PAIR)
        assert [l.total_m.m for l in labels[:5]] == [2, 1, 0, -1, -2]

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError, match=r"triangle rule fails at node over \(1, 2, 3, 4\)"):
            label_of(PAIR_PAIR, 1, 1, 3, 0)  # triangle violation at root
        with pytest.raises(ValueError, match=r"triangle rule fails at node over \(1, 2\)"):
            label_of(PAIR_PAIR, 2, 1, 1, 0)  # above the two spins' sum
        with pytest.raises(ValueError, match=r"triangle rule fails at node over \(1, 2, 3, 4\)"):
            label_of(PAIR_PAIR, 1, 1, "3/2", "1/2")  # parity
        with pytest.raises(ValueError):
            label_of(PAIR, 1, 2)  # m out of range


class TestExpand:
    def test_singlet(self):
        state = expand(label_of(PAIR, 0, 0))
        assert amp_map(state) == {"ud": rad("+sqrt(1/2)"), "du": rad("-sqrt(1/2)")}

    def test_three_qubit_mixed_symmetry(self):
        state = expand(label_of(TRIPLE, 1, "1/2", "1/2"))
        assert amp_map(state) == {
            "udu": rad("-sqrt(1/6)"),
            "duu": rad("-sqrt(1/6)"),
            "uud": rad("+sqrt(2/3)"),
        }

    def test_four_qubit_dicke(self):
        state = expand(label_of(PAIR_PAIR, 1, 1, 2, 0))
        assert set(amp_map(state)) == {"uudd", "udud", "uddu", "duud", "dudu", "dduu"}
        assert all(a == rad("+sqrt(1/6)") for a in state.amplitudes.values())

    def test_four_qubit_ghz_sign_follows_convention(self):
        state = expand(label_of(PAIR_PAIR, 1, 1, 1, 0))
        assert amp_map(state) == {"uudd": rad("+sqrt(1/2)"), "dduu": rad("-sqrt(1/2)")}

    def test_m_sector_support(self):
        # Support only on configurations whose up-count is n/2 + m.
        for tree in (TRIPLE, PAIR_PAIR, SEQUENTIAL):
            for label in enumerate_multiplets(tree):
                ups = tree.n + label.total_m.two_m  # 2 * (n/2 + m)
                for config in expand(label).amplitudes:
                    assert 2 * config.bit_count() == ups


def gram_is_identity(tree):
    basis = full_basis(tree)
    for (_, a), (_, b) in itertools.combinations_with_replacement(basis, 2):
        terms = []
        for config, amp in a.amplitudes.items():
            other = b.amplitudes.get(config)
            if other is not None:
                terms.append(amp * other)
        inner = radical_sum(terms)
        expected = SignedRadical.one() if a is b else SignedRadical.zero()
        if inner != expected:
            return False
    return True


class TestFullBasis:
    def test_two_qubit_table(self):
        rows = {str(label): amp_map(state) for label, state in full_basis(PAIR)}
        assert rows == {
            "S=1 m=1": {"uu": rad("1")},
            "S=1 m=0": {"ud": rad("+sqrt(1/2)"), "du": rad("+sqrt(1/2)")},
            "S=1 m=-1": {"dd": rad("1")},
            "S=0 m=0": {"ud": rad("+sqrt(1/2)"), "du": rad("-sqrt(1/2)")},
        }

    @pytest.mark.parametrize("tree", [PAIR, TRIPLE, TRIPLE_ALT, PAIR_PAIR, SEQUENTIAL])
    def test_gram_identity_exact(self, tree):
        assert gram_is_identity(tree)

    def test_gram_identity_five_qubits(self):
        tree = CouplingTree.parse("(((1 2) (3 4)) 5)")
        assert gram_is_identity(tree)

    def test_general_spin_leaf_not_expandable(self):
        tree = CouplingTree(Node(Leaf(1, Spin(2)), Leaf(2, Spin(2))))
        label = enumerate_multiplets(tree)[0]
        qubits = enumerate_multiplets(PAIR)[0]
        for refused in (lambda: expand(label), lambda: full_basis(tree),
                        lambda: recouple(label, PAIR), lambda: recouple(qubits, tree)):
            with pytest.raises(ValueError, match="needs spin-1/2 leaves"):
                refused()

    def test_general_spin_multiplets_still_enumerate(self):
        tree = CouplingTree(Node(Leaf(1, Spin(2)), Leaf(2, Spin(2))))
        labels = enumerate_multiplets(tree)
        assert len(labels) == 9  # 5 + 3 + 1


class TestRecouple:
    def test_identity_on_same_tree(self):
        label = label_of(TRIPLE, 1, "3/2", "1/2")
        coeffs = recouple(label, TRIPLE)
        assert set(coeffs) == {label}
        assert coeffs[label] == pytest.approx(1.0, abs=1e-14)

    def test_stretched_state_maps_to_itself(self):
        label = label_of(PAIR_PAIR, 1, 1, 2, 2)
        coeffs = recouple(label, SEQUENTIAL)
        assert len(coeffs) == 1
        ((target, value),) = coeffs.items()
        assert target.total_spin == Spin(4) and value == pytest.approx(1.0, abs=1e-14)

    def test_three_qubit_change_of_tree(self):
        # Frozen from the expansion-inner-product oracle below.
        label = label_of(TRIPLE, 0, "1/2", "1/2")
        coeffs = {str(k): v for k, v in recouple(label, TRIPLE_ALT).items()}
        assert coeffs["S23=1 S=1/2 m=1/2"] == pytest.approx(-np.sqrt(3) / 2, abs=1e-12)
        assert coeffs["S23=0 S=1/2 m=1/2"] == pytest.approx(-0.5, abs=1e-12)
        assert sum(v ** 2 for v in coeffs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_against_inner_product_oracle(self):
        # Direct float inner products of both exact expansions.
        label = label_of(TRIPLE, 0, "1/2", "1/2")
        source = expand(label).to_array()
        oracle = {}
        for target in enumerate_multiplets(TRIPLE_ALT):
            value = float(np.real(np.vdot(expand(target).to_array(), source)))
            if abs(value) > 1e-12:
                oracle[target] = value
        assert {k: pytest.approx(v, abs=1e-13) for k, v in oracle.items()} == recouple(label, TRIPLE_ALT)

    def test_sectors_do_not_mix(self):
        for label in enumerate_multiplets(TRIPLE):
            for target, value in recouple(label, TRIPLE_ALT).items():
                assert target.total_spin == label.total_spin
                assert target.total_m == label.total_m
                assert abs(value) > 1e-12

    def test_coefficient_vectors_have_unit_norm(self):
        for label in enumerate_multiplets(TRIPLE):
            coeffs = recouple(label, TRIPLE_ALT)
            assert sum(v ** 2 for v in coeffs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_particle_mismatch_rejected(self):
        with pytest.raises(ValueError):
            recouple(label_of(PAIR, 0, 0), TRIPLE)


class TestStateVector:
    def test_exact_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector.exact_state(1, {1: SignedRadical.sqrt(Fraction(1, 3))})

    def test_numeric_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector.numeric_state(1, {0: 0.9, 1: 0.1})

    def test_zero_amplitudes_dropped(self):
        state = StateVector.exact_state(
            1, {1: SignedRadical.one(), 0: SignedRadical.zero()}
        )
        assert list(state.amplitudes) == [1]

    def test_array_round_trip(self):
        state = expand(label_of(PAIR_PAIR, 1, 1, 2, 0))
        back = StateVector.from_array(state.to_array())
        assert set(back.amplitudes) == set(state.amplitudes)
        for config, amp in state.amplitudes.items():
            assert back.amplitudes[config] == pytest.approx(amp.to_float(), abs=1e-15)

    def test_dense_order_puts_all_up_first(self):
        state = StateVector.exact_state(
            2, {config_from_string("uu"): SignedRadical.one()}
        )
        assert state.to_array()[0] == 1.0 + 0j

    def test_config_strings(self):
        assert config_to_string(config_from_string("udu"), 3) == "udu"
        with pytest.raises(ValueError):
            config_from_string("uxd")


def _per_amplitude_array(state):
    """The dense array built one amplitude at a time, as ``to_array`` once did."""
    arr = np.zeros(1 << state.n, dtype=complex)
    for config, amp in state.amplitudes.items():
        arr[dense_index(config, state.n)] = amp.to_float() if state.exact else amp
    return arr


class TestToArray:
    @pytest.mark.parametrize("spec", ["((((1 2) 3) 4) 5)", "(((1 2) (3 4)) ((5 6) 7))"])
    def test_full_basis_states(self, spec):
        for _, state in full_basis(CouplingTree.parse(spec)):
            assert np.array_equal(state.to_array(), _per_amplitude_array(state))

    def test_exact_state_file_state(self):
        w3 = expand(label_of(TRIPLE, 1, "3/2", "1/2"))
        state = parse_state_file(emit_state_file(w3))
        assert len({id(amp) for amp in state.amplitudes.values()}) == 3
        assert np.array_equal(state.to_array(), _per_amplitude_array(state))
        assert np.array_equal(state.to_array(), w3.to_array())

    def test_numeric_state(self):
        state = StateVector.numeric_state(
            3, {0: 0.6, 5: 0.48j, 7: -0.64, 2: 0.0}
        )
        assert np.array_equal(state.to_array(), _per_amplitude_array(state))


def _names_by_walk(tree):
    """Node names walked from the tree, as every label used to compute them."""
    names = []
    for node in tree.internal_nodes():
        if node is tree.root:
            names.append("S")
        else:
            idx = sorted(tree.node_particles(node))
            sep = "," if any(i > 9 for i in idx) else ""
            names.append("S" + sep.join(str(i) for i in idx))
    return tuple(names)


class TestNodeNames:
    @pytest.mark.parametrize(
        "tree",
        [tree for n in range(2, 6) for tree in all_coupling_trees(range(1, n + 1))],
        ids=str,
    )
    def test_names_unchanged(self, tree):
        assert tree.node_names() == _names_by_walk(tree)
        assert tree.node_names() is tree.node_names()
        for label in enumerate_multiplets(tree):
            assert list(label.quantum_numbers()) == list(tree.node_names()) + ["m"]

    def test_two_digit_particles(self):
        tree = CouplingTree.parse("((((((((((1 2) 3) 4) 5) 6) 7) 8) 9) 10) 11)")
        assert tree.node_names() == _names_by_walk(tree)
        assert tree.node_names()[-2] == "S1,2,3,4,5,6,7,8,9,10"
        shuffled = CouplingTree.parse("(((12 3) (10 (1 7))) ((5 11) ((2 9) ((8 4) 6))))")
        assert shuffled.node_names() == _names_by_walk(shuffled)
        assert shuffled.node_names()[:3] == ("S3,12", "S17", "S1,7,10")

    def test_a_single_particle_has_no_names(self):
        tree = CouplingTree.parse("1")
        assert tree.node_names() == _names_by_walk(tree) == ()
