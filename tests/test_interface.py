import io
import json

import numpy as np
import pytest

from multiplets.cli import main
from multiplets.coupling import CouplingTree, StateVector, config_from_string, config_to_string
from multiplets.registry import available_states, named_state
from multiplets.report import emit_table, run_measures, run_verify
from multiplets.statefile import StateFileError, emit_state_file, parse_state_file

from oracle_table import streamed_table

PAIR = CouplingTree.parse("(1 2)")
PAIR_PAIR = CouplingTree.parse("((1 2) (3 4))")
SEQUENTIAL = CouplingTree.parse("(((1 2) 3) 4)")

SINGLET_JSON = json.dumps({
    "n": 2,
    "flavor": "exact",
    "amplitudes": [
        {"config": "ud", "amp": {"sign": 1, "num": "1", "den": "2"}},
        {"config": "du", "amp": {"sign": -1, "num": "1", "den": "2"}},
    ],
})


class TestStateFile:
    def test_parse_singlet(self):
        state = parse_state_file(SINGLET_JSON)
        assert state.exact and state.n == 2
        assert state.amplitudes[config_from_string("ud")].to_float() == pytest.approx(
            np.sqrt(0.5)
        )

    def test_round_trip_exact_is_identity(self):
        for name in available_states():
            state = named_state(name)
            assert parse_state_file(emit_state_file(state)) == state

    @pytest.mark.parametrize("state", [
        named_state("w4"),
        StateVector.numeric_state(2, {0b10: complex(-0.0, 0.6), 0b01: complex(0.8, -0.0)}),
    ], ids=["exact", "numeric"])
    def test_emitted_bytes_are_json_dumps(self, state):
        data = emit_state_file(state)
        assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode()
        if not state.exact:
            assert b'"re": -0.0' in data and b'"im": -0.0' in data

    def test_round_trip_numeric(self):
        state = StateVector.from_array(named_state("dicke42").to_array())
        back = parse_state_file(emit_state_file(state))
        assert set(back.amplitudes) == set(state.amplitudes)
        for config, amp in state.amplitudes.items():
            assert abs(back.amplitudes[config] - amp) <= 1e-15

    def test_not_normalized_rejected(self):
        doc = {
            "n": 1,
            "flavor": "numeric",
            "amplitudes": [{"config": "u", "amp": {"re": 0.9486832980505138, "im": 0.0}}],
        }
        with pytest.raises(StateFileError):
            parse_state_file(json.dumps(doc))

    def test_empty_amplitudes_rejected(self):
        with pytest.raises(StateFileError):
            parse_state_file(json.dumps({"n": 1, "flavor": "exact", "amplitudes": []}))

    def test_duplicate_config_rejected(self):
        doc = json.loads(SINGLET_JSON)
        doc["amplitudes"][1]["config"] = "ud"
        with pytest.raises(StateFileError):
            parse_state_file(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(StateFileError):
            parse_state_file(b"{not json")

    def test_wrong_config_length_rejected(self):
        doc = json.loads(SINGLET_JSON)
        doc["amplitudes"][0]["config"] = "udu"
        with pytest.raises(StateFileError):
            parse_state_file(json.dumps(doc))

    def test_unknown_flavor_rejected(self):
        doc = json.loads(SINGLET_JSON)
        doc["flavor"] = "mixed"
        with pytest.raises(StateFileError):
            parse_state_file(json.dumps(doc))


class TestRegistry:
    def test_registry_contents(self):
        assert set(available_states()) == {
            "singlet", "triplet0", "ghz3", "w3",
            "w4", "dicke42", "w4bar", "ghz4", "seq_s1m0",
        }

    def test_all_registry_states_exact_and_normalized(self):
        for name in available_states():
            state = named_state(name)
            assert state.exact
            assert sum(a.squared() for a in state.amplitudes.values()) == 1

    def test_w4bar_is_flipped_w(self):
        state = named_state("w4bar")
        assert {config_to_string(c, 4) for c in state.amplitudes} == {
            "dddu", "ddud", "dudd", "uddd"
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_state("bell7")


class TestEmitTable:
    def test_text_two_qubit_rows(self):
        text = streamed_table(PAIR, "text").decode()
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines == [
            "S=1 m=1  :  +1|uu>",
            "S=1 m=0  :  +sqrt(1/2)|ud>  +sqrt(1/2)|du>",
            "S=1 m=-1  :  +1|dd>",
            "S=0 m=0  :  +sqrt(1/2)|ud>  -sqrt(1/2)|du>",
        ]

    def test_byte_stable(self):
        for fmt in ("text", "json", "latex"):
            assert streamed_table(PAIR_PAIR, fmt) == streamed_table(PAIR_PAIR, fmt)

    def test_json_rows_match_full_basis(self):
        from multiplets.coupling import full_basis

        doc = json.loads(streamed_table(PAIR_PAIR, "json"))
        basis = full_basis(PAIR_PAIR)
        assert len(doc["rows"]) == len(basis)
        for row, (label, state) in zip(doc["rows"], basis):
            assert row["label"] == label.quantum_numbers()
            amps = {e["config"]: e["amp"] for e in row["amplitudes"]}
            assert amps == {
                config_to_string(c, 4): a.to_json_dict()
                for c, a in state.amplitudes.items()
            }

    def test_json_dicke_row(self):
        doc = json.loads(streamed_table(PAIR_PAIR, "json"))
        row = next(
            r for r in doc["rows"]
            if r["label"] == {"S12": "1", "S34": "1", "S": "2", "m": "0"}
        )
        assert len(row["amplitudes"]) == 6
        assert all(
            e["amp"] == {"sign": 1, "num": "1", "den": "6"}
            for e in row["amplitudes"]
        )

    def test_latex_uses_arrows(self):
        tex = streamed_table(PAIR, "latex").decode()
        assert r"\uparrow\downarrow" in tex
        assert r"\sqrt{\tfrac{1}{2}}" in tex
        assert tex.startswith(r"\begin{eqnarray}")

    def test_unknown_format(self):
        out = io.StringIO()
        with pytest.raises(ValueError):
            emit_table(PAIR, "csv", out)
        assert out.getvalue() == ""


class TestRunVerify:
    @pytest.mark.parametrize("tree", [PAIR_PAIR, SEQUENTIAL])
    def test_all_sixteen_pass(self, tree):
        report = run_verify(tree, 1e-12)
        assert report["pass"]
        assert len(report["results"]) == 16
        for row in report["results"]:
            assert all(check["pass"] for check in row["checks"])
            assert all(check["residual"] <= 1e-12 for check in row["checks"])

    def test_corrupted_state_fails(self):
        # Flip the sign of |udud>: still normalized, but that configuration
        # straddles the S12 = 0 and S12 = 1 sectors, so the intermediate
        # Casimir check must fail.
        from multiplets.coupling import dense_index
        from multiplets.operators import commuting_set, verify_eigenstate
        from oracle_operators import commuting_set as oracle_commuting_set
        from oracle_verify import ExchangeOperator

        state = named_state("dicke42").to_array()
        state[dense_index(config_from_string("udud"), 4)] *= -1
        package, oracle = commuting_set(PAIR_PAIR)[0], oracle_commuting_set(PAIR_PAIR)[0]
        assert package.name == oracle.name == "S12^2"
        for operator in (ExchangeOperator.of(PAIR_PAIR, package), oracle.operator):
            ok, residual = verify_eigenstate(operator, state, 2.0)
            assert not ok and residual > 0.1

    def test_default_tolerance(self, capsys):
        assert run_verify(PAIR)["tol"] == 1e-12
        assert main(["verify", "(1 2)"]) == 0
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-12


class TestRunMeasures:
    def test_ghz4_report(self):
        report = run_measures(named_state("ghz4"), name="ghz4")
        assert report["q"] == pytest.approx(1.0, abs=1e-12)
        assert report["persistency"] == 1
        assert report["maximally_connected"] is True
        assert len(report["pairs"]) == 6
        assert all(p["witness"] for p in report["pairs"])

    def test_w4_report(self):
        report = run_measures(named_state("w4"))
        assert report["q"] == pytest.approx(0.75, abs=1e-12)
        assert report["persistency"] == 3
        assert report["maximally_connected"] is False

    def test_dicke_report_with_branches(self):
        report = run_measures(named_state("dicke42"), z_branches=True)
        assert report["q"] == pytest.approx(1.0, abs=1e-12)
        assert report["persistency"] == 3
        assert report["maximally_connected"] is False
        assert len(report["z_branches"]) == 4
        for row in report["z_branches"]:
            assert [b["class"] for b in row["branches"]] == ["W", "W"]

    def test_report_is_json_serializable(self):
        report = run_measures(named_state("dicke42"), z_branches=True)
        json.dumps(report)


class TestCli:
    def test_table_stdout(self, capsys):
        assert main(["table", "((1 2) (3 4))"]) == 0
        out = capsys.readouterr().out
        assert "S12=1 S34=1 S=2 m=0" in out

    def test_table_formats(self, capsys):
        assert main(["table", "(1 2)", "--format", "latex"]) == 0
        assert r"\uparrow" in capsys.readouterr().out
        assert main(["table", "(1 2)", "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)

    def test_verify_ok_exit_zero(self, capsys):
        assert main(["verify", "(((1 2) 3) 4)"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_measure_named(self, capsys):
        assert main(["measure", "w4"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["q"] == pytest.approx(0.75)
        assert report["persistency"] == 3

    def test_measure_file(self, tmp_path, capsys):
        path = tmp_path / "singlet.json"
        path.write_bytes(emit_state_file(named_state("singlet")))
        assert main(["measure", "--file", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["q"] == pytest.approx(1.0)

    def test_measure_file_above_search_limit_skips_searches(self, tmp_path, capsys):
        # W7: Q = 2 (1 - (1 + 6^2) / 7^2) = 24/49; the searches stop at n = 6.
        configs = ["u" if i == j else "d" for j in range(7) for i in range(7)]
        amps = {config_from_string("".join(configs[7 * i:7 * i + 7])): 7 ** -0.5
                for i in range(7)}
        path = tmp_path / "w7.json"
        path.write_bytes(emit_state_file(StateVector.numeric_state(7, amps)))
        assert main(["measure", "--file", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        assert report["n"] == 7
        assert report["q"] == pytest.approx(24 / 49, abs=1e-12)
        assert report["persistency"] is None
        assert report["maximally_connected"] is None
        assert report["skipped"] == ["persistency", "connectedness"]

    def test_measure_requires_exactly_one_source(self, capsys):
        assert main(["measure"]) == 1
        assert "error" in capsys.readouterr().err

    def test_measure_unknown_name_errors(self, capsys):
        assert main(["measure", "nope"]) == 1
        assert "unknown state" in capsys.readouterr().err

    def test_expand(self, capsys):
        assert main(["expand", "((1 2) (3 4))", "--label", "1,1,2,0"]) == 0
        out = capsys.readouterr().out
        assert out.count("sqrt(1/6)") == 6

    def test_expand_bad_label_errors(self, capsys):
        assert main(["expand", "((1 2) (3 4))", "--label", "1,1,2"]) == 1
        err = capsys.readouterr().err
        assert "label needs 4 values" in err

    def test_recouple(self, capsys):
        assert main(["recouple", "((1 2) 3)", "((2 3) 1)", "--label", "0,1/2,1/2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        values = sorted(row["coefficient"] for row in doc["coefficients"])
        assert values[0] == pytest.approx(-np.sqrt(3) / 2, abs=1e-12)
        assert values[1] == pytest.approx(-0.5, abs=1e-12)

    def test_bad_tree_spec_errors(self, capsys):
        assert main(["table", "((1 2)"]) == 1
        assert "error" in capsys.readouterr().err
