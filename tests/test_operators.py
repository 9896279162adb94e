import itertools

import numpy as np
import pytest

from multiplets.coupling import (
    CoupledLabel,
    CouplingTree,
    Spin,
    SpinProjection,
    enumerate_multiplets,
    expand,
)
from multiplets.operators import commuting_set, verify_eigenstate
from multiplets.registry import named_state

from oracle_verify import ExchangeOperator

from oracle_operators import (
    SparseOperator,
    commuting_set as oracle_commuting_set,
    joint_eigenbasis,
    site_operator,
    subset_casimir,
    total_sz,
)

PAIR = CouplingTree.parse("(1 2)")
TRIPLE = CouplingTree.parse("((1 2) 3)")
PAIR_PAIR = CouplingTree.parse("((1 2) (3 4))")
SEQUENTIAL = CouplingTree.parse("(((1 2) 3) 4)")


def label_of(tree, *values):
    return CoupledLabel(
        tree,
        tuple(Spin.of(v) for v in values[:-1]),
        SpinProjection.of(values[-1]),
    )


class TestSiteOperator:
    def test_single_site_z_diagonal_up_first(self):
        dense = site_operator(1, 1, "z").to_dense()
        np.testing.assert_array_equal(dense, np.diag([0.5, -0.5]))

    def test_second_site_x_blocks(self):
        dense = site_operator(2, 2, "x").to_dense()
        block = np.array([[0, 0.5], [0.5, 0]])
        expected = np.block([
            [block, np.zeros((2, 2))],
            [np.zeros((2, 2)), block],
        ])
        np.testing.assert_allclose(dense, expected)

    def test_different_sites_commute(self):
        for a_axis, b_axis in itertools.product("xyz", repeat=2):
            a = site_operator(3, 1, a_axis).to_dense()
            b = site_operator(3, 3, b_axis).to_dense()
            np.testing.assert_allclose(a @ b - b @ a, 0, atol=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            site_operator(2, 3, "z")
        with pytest.raises(ValueError):
            site_operator(2, 1, "w")

    def test_hermitian_flag_validated(self):
        import scipy.sparse as sp

        bad = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError):
            SparseOperator(bad)


class TestCasimir:
    def test_singlet_annihilated(self):
        op = subset_casimir(2, {1, 2})
        singlet = named_state("singlet")
        np.testing.assert_allclose(op.apply(singlet), 0, atol=1e-15)

    def test_triplet_eigenvalue_two(self):
        op = subset_casimir(2, {1, 2})
        triplet = named_state("triplet0")
        np.testing.assert_allclose(op.apply(triplet), 2 * triplet.to_array(), atol=1e-14)

    def test_dicke_total_spin_two(self):
        op = subset_casimir(4, {1, 2, 3, 4})
        state = named_state("dicke42")
        np.testing.assert_allclose(op.apply(state), 6 * state.to_array(), atol=1e-13)

    def test_single_site_is_three_quarters_identity(self):
        for n, k in [(1, 1), (3, 2), (4, 4)]:
            dense = subset_casimir(n, {k}).to_dense()
            np.testing.assert_allclose(dense, 0.75 * np.eye(1 << n), atol=1e-15)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            subset_casimir(2, set())

    def test_commutes_with_total_sz(self):
        # Exact in floating point: entries are dyadic rationals.
        for n in (2, 3, 4):
            sz = total_sz(n).to_dense()
            subsets = [s for r in range(1, n + 1)
                       for s in itertools.combinations(range(1, n + 1), r)]
            for subset in subsets:
                ca = subset_casimir(n, subset).to_dense()
                norm = np.linalg.norm(ca @ sz - sz @ ca)
                assert norm <= 1e-13


class TestTotalSz:
    def test_all_up_eigenvalue(self):
        op = total_sz(4)
        arr = np.zeros(16, dtype=complex)
        arr[0] = 1.0  # dense order puts all-up first
        np.testing.assert_allclose(op.apply(arr), 2 * arr, atol=1e-15)

    def test_coupled_state_projection(self):
        state = expand(label_of(TRIPLE, 1, "1/2", "1/2"))
        op = total_sz(3)
        np.testing.assert_allclose(op.apply(state), 0.5 * state.to_array(), atol=1e-14)

    def test_traceless(self):
        for n in (1, 2, 3, 4):
            assert abs(np.trace(total_sz(n).to_dense())) < 1e-15


class TestApply:
    def test_identity(self):
        import scipy.sparse as sp

        eye = SparseOperator(sp.identity(4, dtype=complex, format="csr"))
        state = named_state("singlet")
        np.testing.assert_array_equal(eye.apply(state), state.to_array())

    def test_pair_casimir_on_singlet_times_rest(self):
        state = expand(label_of(PAIR_PAIR, 0, 1, 1, 1))  # singlet x uu
        op = subset_casimir(4, {1, 2})
        np.testing.assert_allclose(op.apply(state), 0, atol=1e-14)

    def test_total_sz_annihilates_m_zero(self):
        state = named_state("dicke42")
        np.testing.assert_allclose(total_sz(4).apply(state), 0, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            total_sz(2).apply(np.ones(8) / np.sqrt(8))


class TestVerifyEigenstate:
    def test_singlet_total_spin_zero(self):
        ok, residual = verify_eigenstate(
            subset_casimir(2, {1, 2}), named_state("singlet"), 0.0
        )
        assert ok and residual <= 1e-12

    def test_dicke_total_spin(self):
        ok, residual = verify_eigenstate(
            subset_casimir(4, {1, 2, 3, 4}), named_state("dicke42"), 6.0
        )
        assert ok and residual <= 1e-12

    def test_wrong_eigenvalue_fails_with_residual(self):
        ok, residual = verify_eigenstate(
            subset_casimir(4, {1, 2, 3, 4}), named_state("dicke42"), 2.0
        )
        assert not ok
        assert residual == pytest.approx(4.0, abs=1e-12)


class TestCommutingSet:
    @pytest.mark.parametrize("tree", [PAIR, TRIPLE, PAIR_PAIR, SEQUENTIAL])
    def test_every_label_verifies(self, tree):
        members = commuting_set(tree)
        names = [m.name for m in members]
        assert names[-1] == "S_z" and names[-2] == "S^2"
        for label in enumerate_multiplets(tree):
            arr = expand(label).to_array()
            for member in members:
                ok, residual = verify_eigenstate(
                    ExchangeOperator.of(tree, member), arr, member.eigenvalue_of(label)
                )
                assert ok, (str(label), member.name, residual)

    def test_members_mutually_commute(self):
        # Dense matrices of the exchange operators, one applied column at a time.
        operators = [ExchangeOperator.of(PAIR_PAIR, m) for m in commuting_set(PAIR_PAIR)]
        columns = np.eye(16, dtype=complex)
        for a, b in itertools.combinations(operators, 2):
            da, db = (np.array([op.apply(c) for c in columns]).T for op in (a, b))
            assert np.linalg.norm(da @ db - db @ da) <= 1e-13


class TestJointEigenbasis:
    @pytest.mark.parametrize("tree", [PAIR, TRIPLE, PAIR_PAIR, SEQUENTIAL])
    def test_reproduces_expansion_up_to_sign(self, tree):
        members = oracle_commuting_set(tree)
        basis = joint_eigenbasis([m.operator for m in members])
        assert len(basis) == 2 ** tree.n
        for label in enumerate_multiplets(tree):
            key = tuple(m.eigenvalue_of(label) for m in members)
            numeric = basis[key]
            exact = expand(label).to_array()
            delta = min(
                np.max(np.abs(numeric - exact)),
                np.max(np.abs(numeric + exact)),
            )
            assert delta <= 1e-10, (str(label), delta)
