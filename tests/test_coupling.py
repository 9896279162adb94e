import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from multiplets import coupling
from multiplets.coupling import (
    CoupledLabel,
    CouplingTree,
    Leaf,
    Node,
    Spin,
    SpinProjection,
    StateVector,
    all_coupling_trees,
    cg,
    config_from_string,
    config_to_string,
    dense_index,
    enumerate_multiplets,
    expand,
    full_basis,
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
    return SignedRadical.sqrt(Fraction(text) ** 2, sign)


HALF = Spin(1)


def projections(j):
    """All projections of j, descending (m = j, j-1, ..., -j)."""
    return [SpinProjection(two_m) for two_m in range(j.two_j, -j.two_j - 1, -2)]


def allowed_couplings(j1, j2):
    """The total spins that j1 and j2 couple to, descending, by ``triangle_ok``."""
    return [Spin(t) for t in range(j1.two_j + j2.two_j, -1, -1) if triangle_ok(j1, j2, Spin(t))]


def j_of(spin):
    return Fraction(spin.two_j, 2)


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
        assert j_of(Spin.of(2)) == 2
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
                  j_top, SpinProjection(j_top.two_j)) == SignedRadical(1, Fraction(1))

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
                    expected = SignedRadical(1, Fraction(1)) if j_a == j_b else SignedRadical.zero()
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


def _walk_leaves(node):
    if isinstance(node, Leaf):
        yield node
    else:
        yield from _walk_leaves(node.left)
        yield from _walk_leaves(node.right)


def _walk_nodes(node):
    """Internal nodes in postorder; the root comes last."""
    if isinstance(node, Node):
        yield from _walk_nodes(node.left)
        yield from _walk_nodes(node.right)
        yield node


def _table_by_node_walk(tree):
    """``CouplingTree._postorder`` as the ``Node`` walk through ``id()``
    maps built it before the table: (particles by position, (left, right,
    first) by internal node)."""
    leaves = tuple(_walk_leaves(tree.root))
    n = len(leaves)
    position = {id(leaf): k for k, leaf in enumerate(leaves)}
    particles = [(leaf.index,) for leaf in leaves]
    nodes = []
    for node in _walk_nodes(tree.root):
        left, right = position[id(node.left)], position[id(node.right)]
        own = position[id(node)] = len(position)
        firsts = [nodes[child - n][2] for child in (left, right) if child >= n]
        nodes.append((left, right, firsts[0] if firsts else own))
        particles.append(tuple(leaf.index for leaf in _walk_leaves(node)))
    return tuple(particles), tuple(nodes)


def _shuffled_spec(n, seed):
    """A random tree over a random order of 1..n."""
    rng = random.Random(seed)
    items = [str(i) for i in rng.sample(range(1, n + 1), n)]
    while len(items) > 1:
        k = rng.randrange(len(items) - 1)
        items[k:k + 2] = [f"({items[k]} {items[k + 1]})"]
    return items[0]


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

    def test_leaf_reads_use_the_cached_walk(self):
        trees = [tree for n in range(1, 6) for tree in all_coupling_trees(range(1, n + 1))]
        expected = [(tree.particles(), tree.n, tree.node_particles(), tree.node_names())
                    for tree in trees]
        for tree, (particles, n, node_particles, names) in zip(trees, expected):
            # With its root gone, a tree can only answer from its table.
            object.__setattr__(tree, "root", None)
            assert tree.particles() == particles and tree.n == n
            assert tree.node_particles() == node_particles and tree.node_names() == names
            if n > 1:
                assert len(full_basis(tree)) == 2 ** n

    def test_table_matches_the_node_walk(self):
        trees = [tree for n in range(1, 7) for tree in all_coupling_trees(range(1, n + 1))]
        shuffled = [CouplingTree.parse(_shuffled_spec(n, seed))
                    for n in (10, 11, 12) for seed in range(4)]
        for tree in trees + shuffled:
            particles, nodes = _table_by_node_walk(tree)
            assert tree._postorder == (particles, nodes)
            assert tree.particles() == particles[-1]
            assert tree.node_particles() == particles[tree.n:]

    @pytest.mark.parametrize("root,message", [
        (Node(Leaf(True), Leaf(2)), "leaf index must be an int, got True"),
        (Node(Leaf(1.0), Leaf(2)), "leaf index must be an int, got 1.0"),
        (Node(Leaf(1), Leaf(np.int64(2))), "leaf index must be an int"),
        (Node(Leaf(1), (2,)), r"Leaf and Node objects, got \(2,\)"),
        (Node(Leaf(1), None), "Leaf and Node objects, got None"),
        ("(1 2)", r"Leaf and Node objects, got '\(1 2\)'"),
    ], ids=["bool", "float", "numpy-int", "tuple-child", "none-child", "str-root"])
    def test_leaf_indices_are_ints_and_children_are_nodes(self, root, message):
        with pytest.raises(ValueError, match=message):
            CouplingTree(root)

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
        yield HALF, ()
        return
    for left_spin, left_inter in _assignments_by_recursion(node.left):
        for right_spin, right_inter in _assignments_by_recursion(node.right):
            for total in allowed_couplings(left_spin, right_spin):
                yield total, left_inter + right_inter + (total,)


class TestEnumerate:
    def test_two_qubit_multiplets(self):
        labels = enumerate_multiplets(PAIR)
        assert [(j_of(l.intermediates[-1]), l.total_m.m) for l in labels] == [
            (1, 1), (1, 0), (1, -1), (0, 0)
        ]

    def test_pair_pair_assignments_in_order(self):
        labels = enumerate_multiplets(PAIR_PAIR)
        triples = []
        for label in labels:
            t = tuple(map(j_of, label.intermediates))
            if t not in triples:
                triples.append(t)
        assert triples == [(1, 1, 2), (1, 1, 1), (1, 1, 0),
                           (1, 0, 1), (0, 1, 1), (0, 0, 0)]
        assert len(labels) == 16

    def test_a_walk_held_to_one_total_is_the_filtered_full_walk(self):
        trees = [tree for n in range(2, 7) for tree in all_coupling_trees(range(1, n + 1))]
        for tree in trees:
            walk = [(total.two_j, tuple(spin.two_j for spin in inter))
                    for total, inter in _assignments_by_recursion(tree.root)]
            assert list(coupling._assignments(tree)) == walk
            for two_s in range(tree.n + 2):
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

    def test_a_multiplet_checks_its_assignment_once(self):
        # The members of a multiplet share the spins tuple that the first
        # one checked; an assignment that fails is refused every time.
        tree = CouplingTree.parse("(((1 2) 3) (4 5))")
        labels = enumerate_multiplets(tree)
        spins = {}
        for label in labels:
            assert spins.setdefault(label.intermediates, label._spins) is label._spins
        assert len(spins) == len(list(coupling._assignments(tree)))
        again = CoupledLabel(tree, labels[-1].intermediates, labels[-1].total_m)
        assert again._spins is labels[-1]._spins
        for _ in range(2):
            with pytest.raises(ValueError, match=r"triangle rule fails at node over \(1, 2, 3\)"):
                label_of(tree, 1, "5/2", 1, "3/2", "1/2")


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
        expected = SignedRadical(1, Fraction(1)) if a is b else SignedRadical.zero()
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

    @pytest.mark.parametrize("nan", [math.nan, complex(math.nan, 0), complex(0, math.nan)],
                             ids=["real", "complex_re", "complex_im"])
    def test_nan_amplitude_rejected(self, nan):
        with pytest.raises(ValueError, match="norm"):
            StateVector.numeric_state(2, {0: nan, 3: 1.0})

    def test_from_array_keeps_nan_for_the_norm_check(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector.from_array(np.array([math.nan, 1, 0, 0]))

    @pytest.mark.parametrize("sign", [1, -1, True, 1.0], ids=["one", "minus_one", "true", "float"])
    def test_accepted_signs_round_trip_through_a_state_file(self, sign):
        # An amplitude the constructor accepts must come back from its file.
        try:
            amp = SignedRadical(sign, Fraction(1))
        except ValueError:
            return
        state = StateVector.exact_state(1, {1 if sign > 0 else 0: amp})
        assert parse_state_file(emit_state_file(state)) == state

    def test_zero_amplitudes_dropped(self):
        state = StateVector.exact_state(
            1, {1: SignedRadical(1, Fraction(1)), 0: SignedRadical.zero()}
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
            2, {config_from_string("uu"): SignedRadical(1, Fraction(1))}
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
    for node in _walk_nodes(tree.root):
        if node is tree.root:
            names.append("S")
        else:
            idx = sorted(leaf.index for leaf in _walk_leaves(node))
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
