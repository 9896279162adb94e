"""Malformed input ends in one ``error:`` line and exit 1: never a
traceback, and never a silent NaN with exit 0."""

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import multiplets
from multiplets.cli import main
from multiplets.coupling import (
    MAX_DENSE_QUBITS,
    MAX_TREE_LEAVES,
    CoupledLabel,
    CouplingTree,
    Leaf,
    Node,
    Spin,
    SpinProjection,
    StateVector,
    recouple,
)
from multiplets.exactnum import SignedRadical
from multiplets.statefile import StateFileError, parse_state_file


def _run_cli_error(capsys, argv) -> str:
    """Run argv, assert the one-line error contract, return the line."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def _measure_file(tmp_path, capsys, doc) -> str:
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc))
    return _run_cli_error(capsys, ["measure", "--file", str(path)])


class TestStateFileHardening:
    # JSON's NaN, Infinity and -Infinity literals; the strings are not
    # numbers (test_numeric_amplitude_must_be_json_numbers).
    @pytest.mark.parametrize("value", [
        pytest.param(float("inf"), id="inf"),
        pytest.param(float("-inf"), id="-inf"),
        pytest.param(float("nan"), id="NaN"),
    ])
    def test_non_finite_numeric_amplitude(self, tmp_path, capsys, value):
        doc = {"n": 2, "flavor": "numeric", "amplitudes": [
            {"config": "ud", "amp": {"re": value, "im": 0.0}},
            {"config": "du", "amp": {"re": 1.0, "im": 0.0}},
        ]}
        assert "non-finite" in _measure_file(tmp_path, capsys, doc)

    def test_non_finite_numeric_amplitude_raises_state_file_error(self):
        doc = {"n": 1, "flavor": "numeric",
               "amplitudes": [{"config": "u", "amp": {"re": 1.0, "im": float("nan")}}]}
        with pytest.raises(StateFileError, match="non-finite"):
            parse_state_file(json.dumps(doc))

    # Each would be read as the amplitude 1 (or a non-finite one) if its
    # parts went through float(); only JSON numbers are numeric parts.
    @pytest.mark.parametrize("amp", [
        pytest.param({"re": True, "im": False}, id="bools"),
        pytest.param({"re": " 1 ", "im": "0"}, id="strings"),
        pytest.param({"re": 1.0, "im": "0"}, id="string-im"),
        pytest.param({"re": 1, "im": False}, id="bool-im"),
        pytest.param({"re": "nan", "im": 0.0}, id="nan-string"),
        pytest.param({"re": "inf", "im": 0.0}, id="inf-string"),
        pytest.param({"re": "-inf", "im": 0.0}, id="-inf-string"),
    ])
    def test_numeric_amplitude_must_be_json_numbers(self, tmp_path, capsys, amp):
        doc = {"n": 1, "flavor": "numeric", "amplitudes": [{"config": "u", "amp": amp}]}
        assert "must be JSON numbers" in _measure_file(tmp_path, capsys, doc)
        with pytest.raises(StateFileError, match="must be JSON numbers"):
            parse_state_file(json.dumps(doc))

    def test_numeric_amplitude_parts_may_be_json_integers(self):
        doc = {"n": 1, "flavor": "numeric", "amplitudes": [{"config": "u", "amp": {"re": 1, "im": 0}}]}
        assert parse_state_file(json.dumps(doc)).amplitudes == {1: 1 + 0j}

    def test_zero_denominator(self, tmp_path, capsys):
        doc = {"n": 1, "flavor": "exact", "amplitudes": [
            {"config": "u", "amp": {"sign": 1, "num": "1", "den": "0"}},
        ]}
        assert "malformed radical" in _measure_file(tmp_path, capsys, doc)

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError, match="malformed radical"):
            SignedRadical.from_json_dict({"sign": 1, "num": "1", "den": "0"})

    def test_deeply_nested_json(self):
        with pytest.raises(StateFileError):
            parse_state_file("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("field", ["n", "re"])
    def test_integer_beyond_the_digit_limit(self, tmp_path, capsys, field):
        # CPython refuses to read a JSON integer of more than 4,300 digits
        # (where it has that limit; without it, the huge n or amplitude is
        # refused as any other bad value).
        huge = "1" + "0" * 5000
        text = ('{"n": %s, "flavor": "numeric", "amplitudes": '
                '[{"config": "u", "amp": {"re": %s, "im": 0}}]}')
        text %= (huge, "1.0") if field == "n" else ("1", huge)
        with pytest.raises(StateFileError):
            parse_state_file(text)
        path = tmp_path / "state.json"
        path.write_text(text)
        _run_cli_error(capsys, ["measure", "--file", str(path)])

    # Each document would be valid with n = int(value); only a JSON
    # integer that is not a bool may give the particle count.
    @pytest.mark.parametrize("value, configs", [
        pytest.param(2.9, ["ud", "du"], id="float"),
        pytest.param(True, ["u", "d"], id="bool"),
        pytest.param("2", ["ud", "du"], id="string"),
    ])
    def test_particle_count_must_be_an_integer(self, tmp_path, capsys, value, configs):
        doc = {"n": value, "flavor": "numeric", "amplitudes": [
            {"config": config, "amp": {"re": 2 ** -0.5, "im": 0.0}} for config in configs
        ]}
        assert "n must be a JSON integer" in _measure_file(tmp_path, capsys, doc)
        with pytest.raises(StateFileError, match="n must be a JSON integer"):
            parse_state_file(json.dumps(doc))

    # Each radical would be read as a valid sqrt(1) amplitude if its fields
    # were rounded or trimmed; only the exact schema of ``to_json_dict`` is read.
    @pytest.mark.parametrize("amp", [
        pytest.param({"sign": 1.9, "num": "1", "den": "1"}, id="float-sign"),
        pytest.param({"sign": True, "num": "1", "den": "1"}, id="bool-sign"),
        pytest.param({"sign": "1", "num": "1", "den": "1"}, id="string-sign"),
        pytest.param({"sign": 1, "num": 1.5, "den": "1"}, id="float-num"),
        pytest.param({"sign": 1, "num": 1, "den": "1"}, id="int-num"),
        pytest.param({"sign": 1, "num": "1", "den": 1}, id="int-den"),
        pytest.param({"sign": 1, "num": " 1", "den": "1"}, id="space"),
        pytest.param({"sign": 1, "num": "1_0", "den": "10"}, id="underscore"),
        pytest.param({"sign": 1, "num": "1", "den": "+1"}, id="plus"),
        pytest.param({"sign": 1, "num": "١", "den": "1"}, id="non-ascii-digit"),
        pytest.param({"sign": 1, "num": "1", "den": "1", "note": 0}, id="extra-key"),
    ])
    def test_radical_must_match_the_schema(self, tmp_path, capsys, amp):
        doc = {"n": 1, "flavor": "exact", "amplitudes": [{"config": "u", "amp": amp}]}
        assert "malformed radical" in _measure_file(tmp_path, capsys, doc)
        with pytest.raises(StateFileError, match="malformed radical"):
            parse_state_file(json.dumps(doc))

    def test_bytes_that_are_not_utf8(self, tmp_path, capsys):
        with pytest.raises(StateFileError, match="not valid JSON"):
            parse_state_file(b"\xff")
        path = tmp_path / "state.json"
        path.write_bytes(b"\xff")
        _run_cli_error(capsys, ["measure", "--file", str(path)])


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from(["0", "1", "2", "-1", "nan", "inf", "1e999", "u", "ud", "du"]),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
_small = st.one_of(st.integers(-2, 4), st.integers(-2, 4).map(str), _values)
_amps = st.one_of(
    st.fixed_dictionaries({"sign": _small, "num": _small, "den": _small}),
    st.fixed_dictionaries({"re": _values, "im": _values}),
    _values,
)
_entries = st.one_of(
    st.fixed_dictionaries({"config": st.one_of(st.text("ud", max_size=3), _values),
                           "amp": _amps}),
    _values,
)
_documents = st.one_of(
    st.fixed_dictionaries({
        "n": st.one_of(st.integers(0, 3), _values),
        "flavor": st.one_of(st.sampled_from(["exact", "numeric"]), _values),
        "amplitudes": st.lists(_entries, max_size=4),
    }),
    _values,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_parse_state_file_raises_only_value_errors(doc):
    try:
        parse_state_file(json.dumps(doc))
    except ValueError:
        pass


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
    def test_tol_flag(self, capsys, tol):
        err = _run_cli_error(capsys, ["verify", "(1 2)", f"--tol={tol}"])
        assert "tolerance" in err

    def test_zero_tol_accepted(self, capsys):
        assert main(["verify", "(1 2)", "--tol=0"]) == 0
        assert json.loads(capsys.readouterr().out)["tol"] == 0.0

    def test_negative_zero_tol_reads_zero(self, capsys):
        assert main(["verify", "(1 2)", "--tol=-0.0"]) == 0
        assert '"tol": 0.0,' in capsys.readouterr().out


def _sequential_spec(n: int) -> str:
    spec = "1"
    for i in range(2, n + 1):
        spec = f"({spec} {i})"
    return spec


def _balanced_spec(leaves: list[int]) -> str:
    if len(leaves) == 1:
        return str(leaves[0])
    half = (len(leaves) + 1) // 2
    return f"({_balanced_spec(leaves[:half])} {_balanced_spec(leaves[half:])})"


class TestTreeSizeCap:
    def test_oversized_table_is_one_error_line(self, capsys):
        err = _run_cli_error(capsys, ["table", _sequential_spec(1200)])
        assert "1200 leaves" in err

    def test_limit_is_inclusive(self):
        assert CouplingTree.parse(_sequential_spec(MAX_TREE_LEAVES)).n == MAX_TREE_LEAVES
        with pytest.raises(ValueError, match="at most"):
            CouplingTree.parse(_sequential_spec(MAX_TREE_LEAVES + 1))

    def test_deep_nesting_without_leaves_is_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            CouplingTree.parse("(" * 5000 + "1 2)")

    def test_verify_takes_eleven_particles(self, capsys):
        assert main(["verify", _sequential_spec(11)]) == 0
        assert len(json.loads(capsys.readouterr().out)["results"]) == 2048

    def test_verify_refuses_thirteen_particles(self, capsys):
        err = _run_cli_error(capsys, ["verify", _sequential_spec(13)])
        assert "at most 12 particles" in err

    @pytest.mark.parametrize("command", ["table", "verify"])
    def test_single_particle_tree(self, capsys, command):
        err = _run_cli_error(capsys, [command, "1"])
        assert "two particles" in err

    def test_single_particle_label(self, capsys):
        _run_cli_error(capsys, ["expand", "1", "--label", "1/2"])

    @staticmethod
    def _built_sequential(n: int) -> CouplingTree:
        root = Leaf(1)
        for i in range(2, n + 1):
            root = Node(root, Leaf(i))
        return CouplingTree(root)

    def test_built_tree_takes_the_leaf_limit(self):
        tree = self._built_sequential(MAX_TREE_LEAVES)
        assert tree.n == MAX_TREE_LEAVES
        assert CouplingTree.parse(tree.spec()) == tree

    @pytest.mark.parametrize("n", [MAX_TREE_LEAVES + 1, 1199])
    def test_built_tree_past_the_leaf_limit_is_refused(self, n):
        # The walk is iterative: 1,199 levels raise ValueError, not
        # RecursionError, before spec, the hash or the engine recurse.
        with pytest.raises(ValueError, match=f"more than {MAX_TREE_LEAVES} leaves"):
            self._built_sequential(n)


def _run_capped_cli(argv) -> tuple[int, str, str]:
    """Run the CLI in a child process whose address space is capped at
    2 GiB, far below any dense array past MAX_DENSE_QUBITS particles."""
    src = os.path.dirname(os.path.dirname(multiplets.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run([sys.executable, "-m", "multiplets.cli", *argv], env=env,
                          capture_output=True, text=True, preexec_fn=cap, timeout=120)
    return done.returncode, done.stdout, done.stderr


class TestDenseCap:
    def test_to_array_refuses_before_allocating(self):
        state = StateVector.numeric_state(MAX_DENSE_QUBITS + 1, {0: 1.0})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {MAX_DENSE_QUBITS} particles"):
                state.to_array()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_measure_of_forty_particles_is_one_error_line(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 40, "flavor": "numeric", "amplitudes": [
            {"config": "u" * 40, "amp": {"re": 1.0, "im": 0.0}}]}))
        code, out, err = _run_capped_cli(["measure", "--file", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2**40" in err

    def test_recouple_of_thirty_particles_is_one_error_line(self):
        # The stretched S = m = 15 state of a sequential tree, into a
        # balanced tree: one amplitude, but 2**30 of them as a dense array.
        label = ",".join(str(Fraction(t + 1, 2)) for t in range(1, 30)) + ",15"
        balanced = _balanced_spec(list(range(1, 31)))
        code, out, err = _run_capped_cli(
            ["recouple", _sequential_spec(30), balanced, "--label", label])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2**30" in err

    def test_recouple_of_twenty_five_particles_is_refused_before_expanding(self):
        # S = m = 1/2 with alternating 1, 1/2 intermediates: the source has
        # C(25, 12) amplitudes, which the refusal must not build.
        tree = CouplingTree.parse(_sequential_spec(25))
        label = CoupledLabel(tree, tuple(Spin(2 - i % 2) for i in range(24)),
                             SpinProjection(1))
        target = CouplingTree.parse(_balanced_spec(list(range(1, 26))))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"2\*\*25 target labels"):
            recouple(label, target)
        assert time.perf_counter() - start < 1.0

    def test_the_stretched_label_of_twenty_four_particles_recouples_within_a_second(self):
        # S = m = 12: the target's S = 12 sector is its one stretched label,
        # which the walk must reach without walking the rest of its 2**24.
        tree = CouplingTree.parse(_sequential_spec(24))
        label = CoupledLabel(tree, tuple(Spin(k) for k in range(2, 25)), SpinProjection(24))
        target = CouplingTree.parse(_balanced_spec(list(range(1, 25))))
        stretched = CoupledLabel(target, tuple(Spin(len(particles))
                                               for particles in target.node_particles()),
                                 SpinProjection(24))
        start = time.perf_counter()
        assert recouple(label, target) == {stretched: 1.0}
        assert time.perf_counter() - start < 1.0


class TestLabelText:
    def test_huge_exponent_is_one_quick_error_line(self, capsys):
        # Fraction would expand 1e10000000 exactly: seconds and megabytes.
        start = time.perf_counter()
        err = _run_cli_error(capsys, ["expand", "(1 2)", "--label", "1e10000000,0"])
        assert time.perf_counter() - start < 1.0
        assert "1e10000000" in err

    @pytest.mark.parametrize("text", ["1/0", "1/00", "1e1", "1_0", "1/", "/2", ".", "inf", "nan"])
    def test_other_number_forms_are_error_lines(self, capsys, text):
        _run_cli_error(capsys, ["expand", "(1 2)", "--label", f"{text},0"])

    def test_integer_fraction_and_decimal_parse(self):
        assert Spin.of("3/2") == Spin.of("1.5") == Spin(3)
        assert Spin.of("1") == Spin.of(" 1 ") == Spin(2)
        assert SpinProjection.of("-1/2") == SpinProjection.of("-.5") == SpinProjection(-1)
