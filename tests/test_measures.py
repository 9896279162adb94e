import itertools

import numpy as np
import pytest

from multiplets.coupling import (
    CoupledLabel,
    CouplingTree,
    Spin,
    SpinProjection,
    StateVector,
    config_from_string,
    expand,
)
from multiplets.measures import (
    DensityMatrix,
    MeasurementBasis,
    ThreeQubitClass,
    classify_three_qubit,
    concurrence,
    is_pair_connectable,
    maximal_connectedness,
    measure_branches,
    meyer_wallach_q,
    partial_trace,
    persistency,
    three_tangle,
)
from multiplets.registry import named_state


def product_state(bits):
    return StateVector.numeric_state(len(bits), {config_from_string(bits): 1.0})


def haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local(arr, n, site, u):
    t = arr.reshape([2] * n)
    t = np.moveaxis(np.tensordot(u, t, axes=([1], [site - 1])), 0, site - 1)
    return t.ravel()


PAIR_PAIR = CouplingTree.parse("((1 2) (3 4))")


def label_of(tree, *values):
    return CoupledLabel(
        tree,
        tuple(Spin.of(v) for v in values[:-1]),
        SpinProjection.of(values[-1]),
    )


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_purity(self):
        assert DensityMatrix(np.eye(2) / 2).purity() == pytest.approx(0.5)


class TestPartialTrace:
    def test_bell_pair_is_maximally_mixed(self):
        rho = partial_trace(named_state("singlet"), {1})
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_product_state_projector(self):
        rho = partial_trace(product_state("uuuu"), {2, 3})
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0  # |uu><uu| in up-first order
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_dicke_single_site_by_direct_summation(self):
        # Oracle: sum the six configurations' contributions by hand.
        state = named_state("dicke42")
        rho_oracle = np.zeros((2, 2), dtype=complex)
        amps = {c: a.to_float() for c, a in state.amplitudes.items()}
        for c1, a1 in amps.items():
            for c2, a2 in amps.items():
                if c1 & 0b0111 == c2 & 0b0111:  # particles 2..4 agree
                    i = 0 if c1 & 0b1000 else 1  # up-first index of particle 1
                    j = 0 if c2 & 0b1000 else 1
                    rho_oracle[i, j] += a1 * np.conj(a2)
        np.testing.assert_allclose(rho_oracle, np.eye(2) / 2, atol=1e-15)
        rho = partial_trace(state, {1})
        np.testing.assert_allclose(rho.matrix, rho_oracle, atol=1e-14)

    def test_trace_preserved_and_positive(self):
        state = named_state("seq_s1m0")
        for keep in [{1}, {2, 4}, {1, 2, 3}]:
            rho = partial_trace(state, keep)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12

    def test_bad_subsets_rejected(self):
        state = named_state("singlet")
        with pytest.raises(ValueError):
            partial_trace(state, set())
        with pytest.raises(ValueError):
            partial_trace(state, {1, 2})
        with pytest.raises(ValueError):
            partial_trace(state, {3})


class TestMeyerWallach:
    def test_product_state_is_zero(self):
        assert meyer_wallach_q(product_state("udud")) == pytest.approx(0.0, abs=1e-15)

    def test_ghz4_is_one(self):
        assert meyer_wallach_q(named_state("ghz4")) == pytest.approx(1.0, abs=1e-12)

    def test_w4_is_three_quarters(self):
        assert meyer_wallach_q(named_state("w4")) == pytest.approx(0.75, abs=1e-12)

    def test_dicke_is_one(self):
        # Cross-check: every single-site reduction is maximally mixed.
        state = named_state("dicke42")
        for k in (1, 2, 3, 4):
            np.testing.assert_allclose(
                partial_trace(state, {k}).matrix, np.eye(2) / 2, atol=1e-14
            )
        assert meyer_wallach_q(state) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_qubit_permutation(self):
        state = named_state("seq_s1m0").to_array()
        q0 = meyer_wallach_q(state)
        t = state.reshape([2] * 4)
        for perm in itertools.permutations(range(4)):
            assert meyer_wallach_q(t.transpose(perm).ravel()) == pytest.approx(q0, abs=1e-12)

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(7)
        for name in ("w4", "dicke42", "ghz4"):
            arr = named_state(name).to_array()
            q0 = meyer_wallach_q(arr)
            for _ in range(5):
                rotated = arr
                for site in range(1, 5):
                    rotated = apply_local(rotated, 4, site, haar_unitary(rng))
                assert abs(meyer_wallach_q(rotated) - q0) <= 1e-10


class TestConcurrence:
    def test_bell_state_is_one(self):
        bell = named_state("singlet").to_array()
        # Oracle for pure states: 2|ad - bc|.
        assert 2 * abs(bell[0] * bell[3] - bell[1] * bell[2]) == pytest.approx(1.0)
        rho = np.outer(bell, bell.conj())
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_pure_state_is_zero(self):
        arr = product_state("ud").to_array()
        assert concurrence(np.outer(arr, arr.conj())) == pytest.approx(0.0, abs=1e-12)

    def test_separable_mixture_is_zero(self):
        # 1/2 identity on qubit 1 tensor a pure qubit 2: separable by construction.
        single = np.array([[0.7, 0.3 + 0.1j], [0.3 - 0.1j, 0.3]])
        single = single / np.trace(single)
        rho = np.kron(np.eye(2) / 2, single)
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(8) / 8)

    def test_matches_pure_state_formula_on_random_states(self):
        # Three vanishing eigenvalues pass through a square root: ~1e-8 noise.
        rng = np.random.default_rng(5)
        for _ in range(50):
            vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            vec /= np.linalg.norm(vec)
            oracle = 2 * abs(vec[0] * vec[3] - vec[1] * vec[2])
            assert concurrence(np.outer(vec, vec.conj())) == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.4, 0.5, 0.75, 0.9, 1.0])
    def test_werner_state(self, p):
        # p |singlet><singlet| + (1 - p) I/4 has C = max(0, (3p - 1)/2).
        bell = named_state("singlet").to_array()
        rho = p * np.outer(bell, bell.conj()) + (1 - p) * np.eye(4) / 4
        assert concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)


def pair_concurrence_tangle(arr):
    """Independent oracle: tau = C^2(1|23) - C^2(12) - C^2(13), with
    C^2(1|23) = 4 det(rho_1) and Wootters concurrence on the pair states,
    clamped at zero (the form ``three_tangle`` used before it took the
    hyperdeterminant)."""
    c2_one_rest = float(np.real(4.0 * np.linalg.det(partial_trace(arr, {1}).matrix)))
    c12 = concurrence(partial_trace(arr, {1, 2}).matrix)
    c13 = concurrence(partial_trace(arr, {1, 3}).matrix)
    return max(0.0, c2_one_rest - c12 ** 2 - c13 ** 2)


def hyperdeterminant_tangle(arr):
    """Independent oracle: tau = 4 |d1 - 2 d2 + 4 d3| from the degree-4
    polynomial in the eight amplitudes (up-first ordering)."""
    a = {format(i, "03b"): arr[i] for i in range(8)}
    d1 = (a["000"] ** 2 * a["111"] ** 2 + a["001"] ** 2 * a["110"] ** 2
          + a["010"] ** 2 * a["101"] ** 2 + a["100"] ** 2 * a["011"] ** 2)
    d2 = (a["000"] * a["111"] * a["011"] * a["100"]
          + a["000"] * a["111"] * a["101"] * a["010"]
          + a["000"] * a["111"] * a["110"] * a["001"]
          + a["011"] * a["100"] * a["101"] * a["010"]
          + a["011"] * a["100"] * a["110"] * a["001"]
          + a["101"] * a["010"] * a["110"] * a["001"])
    d3 = (a["000"] * a["110"] * a["101"] * a["011"]
          + a["111"] * a["001"] * a["010"] * a["100"])
    return float(4 * abs(d1 - 2 * d2 + 4 * d3))


class TestThreeTangle:
    def test_ghz_is_one(self):
        state = named_state("ghz3")
        assert hyperdeterminant_tangle(state.to_array()) == pytest.approx(1.0, abs=1e-12)
        assert three_tangle(state) == pytest.approx(1.0, abs=1e-9)

    def test_w_is_zero(self):
        state = named_state("w3")
        assert hyperdeterminant_tangle(state.to_array()) == pytest.approx(0.0, abs=1e-12)
        assert three_tangle(state) == pytest.approx(0.0, abs=1e-9)

    def test_product_is_zero(self):
        assert three_tangle(product_state("udu")) == pytest.approx(0.0, abs=1e-12)

    def test_matches_hyperdeterminant_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            arr = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            arr /= np.linalg.norm(arr)
            assert three_tangle(arr) == pytest.approx(
                hyperdeterminant_tangle(arr), abs=1e-7
            )

    def test_matches_pair_concurrence_oracle_on_random_states(self):
        # The two smallest Wootters eigenvalues vanish for the rank-2 pair
        # states of a pure 3-qubit state; the square root turns their
        # rounding into ~1e-8 noise in the oracle, so this cross-check is
        # looser than the exact named-state assertions above.
        rng = np.random.default_rng(11)
        for _ in range(20):
            arr = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            arr /= np.linalg.norm(arr)
            assert three_tangle(arr) == pytest.approx(
                pair_concurrence_tangle(arr), abs=1e-7
            )

    @pytest.mark.parametrize("name, expected", [
        ("w3", ThreeQubitClass.W), ("ghz3", ThreeQubitClass.GHZ)])
    def test_class_invariant_under_local_unitaries(self, name, expected):
        # W3 in a generic local frame keeps a residual tangle of 0; the
        # pair-concurrence form read up to ~4e-8 there, above TANGLE_TOL,
        # and called every such state GHZ.
        rng = np.random.default_rng(0)
        arr = named_state(name).to_array()
        for _ in range(500):
            rotated = arr
            for site in range(1, 4):
                rotated = apply_local(rotated, 3, site, haar_unitary(rng))
            assert classify_three_qubit(rotated) is expected

    def test_ckw_inequality_on_named_suite(self):
        for name in ("ghz3", "w3"):
            arr = named_state(name).to_array()
            c2_one_rest = 4 * np.linalg.det(partial_trace(arr, {1}).matrix).real
            c12 = concurrence(partial_trace(arr, {1, 2}).matrix)
            c13 = concurrence(partial_trace(arr, {1, 3}).matrix)
            assert c2_one_rest >= c12 ** 2 + c13 ** 2 - 1e-9
            assert -1e-9 <= three_tangle(arr) <= 1 + 1e-9

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            three_tangle(named_state("w4"))


class TestClassification:
    def test_w3(self):
        assert classify_three_qubit(named_state("w3")) is ThreeQubitClass.W

    def test_ghz3(self):
        assert classify_three_qubit(named_state("ghz3")) is ThreeQubitClass.GHZ

    def test_biseparable_singlet_times_up(self):
        tree = CouplingTree.parse("((1 2) 3)")
        state = expand(label_of(tree, 0, "1/2", "1/2"))  # singlet x up
        assert classify_three_qubit(state) is ThreeQubitClass.BISEPARABLE

    def test_product(self):
        assert classify_three_qubit(product_state("udu")) is ThreeQubitClass.PRODUCT

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            classify_three_qubit(named_state("singlet"))


class TestMeasureBranches:
    def test_dicke_z_measurement_gives_w_branches(self):
        state = named_state("dicke42")
        for site in (1, 2, 3, 4):
            branches = measure_branches(state, site, MeasurementBasis.Z)
            assert len(branches) == 2
            for branch in branches:
                assert branch.probability == pytest.approx(0.5, abs=1e-12)
                assert classify_three_qubit(branch.state) is ThreeQubitClass.W

    def test_w4_branch_probabilities_sum_to_one(self):
        state = named_state("w4")
        for basis in MeasurementBasis:
            branches = measure_branches(state, 1, basis)
            assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_branch(self):
        branches = measure_branches(product_state("uu"), 1, MeasurementBasis.Z)
        assert len(branches) == 1
        assert branches[0].probability == pytest.approx(1.0, abs=1e-12)
        assert branches[0].outcome == "u"
        assert list(branches[0].state.amplitudes) == [1]  # remaining |u>

    def test_branches_reconstruct_reduced_state(self):
        state = named_state("seq_s1m0")
        rho = partial_trace(state, {2, 3, 4}).matrix
        for basis in MeasurementBasis:
            acc = np.zeros_like(rho)
            for branch in measure_branches(state, 1, basis):
                vec = branch.state.to_array()
                acc += branch.probability * np.outer(vec, vec.conj())
            np.testing.assert_allclose(acc, rho, atol=1e-10)

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError):
            measure_branches(named_state("w4"), 5, MeasurementBasis.Z)


class TestPersistency:
    def test_named_state_values(self):
        assert persistency(named_state("ghz4")) == 1
        assert persistency(named_state("w4")) == 3
        assert persistency(named_state("dicke42")) == 3

    def test_product_state_is_zero(self):
        assert persistency(product_state("udud")) == 0

    def test_w3_needs_two(self):
        assert persistency(named_state("w3")) == 2

    def test_k_max_cutoff_returns_none(self):
        assert persistency(named_state("w4"), k_max=2) is None

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValueError):
            persistency(np.ones(128) / np.sqrt(128))

    def test_never_increases_after_z_branch(self):
        for name in ("triplet0", "w3", "ghz4", "w4", "dicke42", "seq_s1m0"):
            state = named_state(name)
            base = persistency(state)
            for site in range(1, state.n + 1):
                for branch in measure_branches(state, site, MeasurementBasis.Z):
                    assert persistency(branch.state) <= base


class TestConnectedness:
    def test_ghz4_pair_via_x_oracle(self):
        # Oracle: enumerate the four X-outcome branches on the complement
        # of pair (1, 3) and check each is a Bell pair.
        arr = named_state("ghz4").to_array().reshape([2] * 4)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        for v2, v4 in itertools.product([plus, minus], repeat=2):
            sub = np.einsum("abcd,b,d->ac", arr, v2.conj(), v4.conj()).ravel()
            sub = sub / np.linalg.norm(sub)
            assert 2 * abs(sub[0] * sub[3] - sub[1] * sub[2]) == pytest.approx(1.0, abs=1e-12)
        connected, witness = is_pair_connectable(named_state("ghz4"), 1, 3)
        assert connected
        assert witness == ((2, MeasurementBasis.X), (4, MeasurementBasis.X))

    def test_w4_pairs_not_connectable(self):
        state = named_state("w4")
        for i, j in itertools.combinations(range(1, 5), 2):
            connected, witness = is_pair_connectable(state, i, j)
            assert not connected and witness is None

    def test_bell_times_product_pair_with_z(self):
        # Singlet on (1,2) tensor uu: measuring 3, 4 in Z leaves the Bell pair.
        state = expand(label_of(PAIR_PAIR, 0, 1, 1, 1))
        connected, witness = is_pair_connectable(state, 1, 2)
        assert connected
        assert witness == ((3, MeasurementBasis.Z), (4, MeasurementBasis.Z))

    def test_maximal_connectedness_verdicts(self):
        connected, reports = maximal_connectedness(named_state("ghz4"))
        assert connected and len(reports) == 6
        assert all(r.connected and r.witness is not None for r in reports)
        assert not maximal_connectedness(named_state("w4"))[0]
        assert not maximal_connectedness(named_state("dicke42"))[0]

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValueError, match="n <= 6"):
            is_pair_connectable(np.ones(128) / np.sqrt(128), 1, 2)

    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            is_pair_connectable(named_state("w4"), 2, 2)
        with pytest.raises(ValueError):
            is_pair_connectable(named_state("singlet"), 1, 2)


class TestToleranceBoundaries:
    """One value just inside and one just outside each tolerance, so that a
    tolerance moved by orders of magnitude changes a verdict."""

    @pytest.mark.parametrize("excess,accepted", [(0.9e-12, True), (1.1e-12, False)])
    def test_numeric_norm(self, excess, accepted):  # coupling._NORM_TOL = 1e-12
        amplitudes = {1: np.sqrt(1.0 + excess)}
        if accepted:
            assert StateVector.numeric_state(1, amplitudes).n == 1
        else:
            with pytest.raises(ValueError, match="norm"):
                StateVector.numeric_state(1, amplitudes)

    @pytest.mark.parametrize("small,kept", [(1e-13, True), (0.9e-15, False)])
    def test_from_array_drops_at_most_1e_15(self, small, kept):
        state = StateVector.from_array(np.array([1.0, small]))
        assert (config_from_string("d") in state.amplitudes) is kept
        assert state.amplitudes[config_from_string("u")] == 1.0

    @pytest.mark.parametrize("asymmetry,accepted", [(0.9e-12, True), (1.1e-12, False)])
    def test_density_matrix_hermiticity(self, asymmetry, accepted):  # measures._DM_TOL
        matrix = np.array([[0.5, 0.1 + asymmetry], [0.1, 0.5]])
        if accepted:
            assert DensityMatrix(matrix).dim == 2
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                DensityMatrix(matrix)

    @pytest.mark.parametrize("defect,verdict", [(0.9e-9, ThreeQubitClass.PRODUCT),
                                                (1.1e-9, ThreeQubitClass.BISEPARABLE)])
    def test_site_purity(self, defect, verdict):  # measures.PURITY_TOL = 1e-9
        # (cos t |uu> + sin t |dd>) |u>: sites 1 and 2 have purity
        # 1 - sin(2t)^2 / 2 = 1 - defect, site 3 is pure.
        t = np.arcsin(np.sqrt(2 * defect)) / 2
        state = StateVector.numeric_state(3, {config_from_string("uuu"): np.cos(t),
                                              config_from_string("ddu"): np.sin(t)})
        assert classify_three_qubit(state) is verdict

    @pytest.mark.parametrize("defect,product", [(0.9e-9, True), (1.1e-9, False)])
    def test_branch_purity(self, defect, product):  # the 0.5 of measures._separable_rows
        # The same state through the branch test: with PURITY_TOL / 2 as
        # its bound it is product, persistency 0, exactly when the defect
        # is at most PURITY_TOL; else one Z measurement on site 1 makes it so.
        t = np.arcsin(np.sqrt(2 * defect)) / 2
        state = StateVector.numeric_state(3, {config_from_string("uuu"): np.cos(t),
                                              config_from_string("ddu"): np.sin(t)})
        assert persistency(state) == (0 if product else 1)

    @pytest.mark.parametrize("shortfall,connected", [(0.9e-9, True), (1.1e-9, False)])
    def test_bell_pair(self, shortfall, connected):  # measures.BELL_TOL = 1e-9
        # (cos t |uu> + sin t |dd>) |u>: every branch of a measurement on
        # site 3 leaves sites 1 and 2 at concurrence sin(2t) = 1 - shortfall.
        t = np.arcsin(1.0 - shortfall) / 2
        state = StateVector.numeric_state(3, {config_from_string("uuu"): np.cos(t),
                                              config_from_string("ddu"): np.sin(t)})
        assert is_pair_connectable(state, 1, 2)[0] is connected

    @pytest.mark.parametrize("tangle,verdict", [(0.9e-9, ThreeQubitClass.W),
                                                (1.1e-9, ThreeQubitClass.GHZ)])
    def test_residual_tangle(self, tangle, verdict):  # measures.TANGLE_TOL = 1e-9
        # a (|udd> + |dud> + |ddu>) + b |uuu>: every site is mixed, and the
        # hyperdeterminant is b a^3, so the tangle is 16 b a^3.
        a = np.sqrt(1 / 3)
        b = tangle / (16 * a ** 3)
        a = np.sqrt((1 - b * b) / 3)
        amplitudes = {config_from_string(c): a for c in ("udd", "dud", "ddu")}
        amplitudes[config_from_string("uuu")] = b
        state = StateVector.numeric_state(3, amplitudes)
        assert three_tangle(state) == pytest.approx(tangle, rel=1e-6)
        assert classify_three_qubit(state) is verdict
