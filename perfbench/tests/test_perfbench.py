"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_ops(workload, seed=3):
    rounds = workloads.rounds_for(workload, SPEC["run_seconds"])
    return workloads.generate(workload, seed, rounds)


def _cli(argv):
    from multiplets import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert _run_ops(workload, seed=11) == _run_ops(workload, seed=11)
    first = [op["argv"] for op in _run_ops(workload, seed=11)[0]]
    other = [op["argv"] for op in _run_ops(workload, seed=12)[0]]
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_run_has_40_distinct_ops_and_a_largest_op(workload, seed):
    ops, files = _run_ops(workload, seed)
    assert len(ops) >= 40
    assert len({tuple(op["argv"]) for op in ops}) == len(ops)
    assert len(set(files.values())) == len(files)
    assert any(op["largest"] for op in ops)
    assert all(path.startswith("states/") for path in files)


def test_verify_rounds_cover_each_n5_tree_once():
    ops, _ = workloads.generate("verify", 4, 3)
    n5 = [op["argv"][1] for op in ops if op["group"] == "n5"]
    assert len(n5) == len(set(n5)) == 105


def _drop_last_row(fmt, text):
    if fmt == "json":
        doc = json.loads(text)
        doc["rows"].pop()
        return json.dumps(doc)
    lines = text.splitlines()
    del lines[-2 if fmt == "latex" else -1]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_table_check_rejects_a_dropped_row(fmt):
    op = {"check": {"kind": "table", "n": 4, "format": fmt}}
    rc, text = _cli(["table", "((1 3) (2 4))", "--format", fmt])
    assert checks.check(op, rc, text) is None
    assert "rows" in checks.check(op, rc, _drop_last_row(fmt, text))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_norm_check_rejects_a_changed_amplitude(fmt):
    op = {"check": {"kind": "expand", "n": 4, "format": fmt}}
    rc, text = _cli(["expand", "((1 2) (3 4))", "--label", "1,1,2,0", "--format", fmt])
    assert checks.check(op, rc, text) is None
    corrupted = text.replace('"den": "6"', '"den": "7"') if fmt == "json" else \
        text.replace("sqrt(1/6)", "sqrt(1/7)", 1)
    assert corrupted != text
    assert "norm" in checks.check(op, rc, corrupted)


def test_measure_check_holds_known_values():
    op = {"check": {"kind": "measure", "n": None, "z_branches": True,
                    "expect": workloads.NAMED_EXPECT["ghz4"]}}
    rc, text = _cli(["measure", "ghz4", "--z-branches"])
    assert checks.check(op, rc, text) is None
    report = json.loads(text)
    report["persistency"] = 2
    assert "persistency" in checks.check(op, rc, json.dumps(report))


def test_verify_and_recouple_checks_reject_bad_reports():
    rc, text = _cli(["verify", "((1 2) 3)"])
    op = {"check": {"kind": "verify", "n": 3}}
    assert checks.check(op, rc, text) is None
    assert checks.check(op, rc, text.replace('"pass": true', '"pass": false')) is not None
    assert checks.check(op, 1, text) == "exit code 1"
    rc, text = _cli(["recouple", "((1 2) 3)", "((2 3) 1)", "--label", "0,1/2,1/2"])
    doc = json.loads(text)
    assert checks.check({"check": {"kind": "recouple"}}, rc, text) is None
    doc["coefficients"].pop()
    assert "sum" in checks.check({"check": {"kind": "recouple"}}, rc, json.dumps(doc))


def _small_ops():
    """A cheap op of every kind, so a worker run takes a few seconds."""
    picks = {"tables": ("seq4", "bal5"), "verify": ("n5",), "measure": ("named", "ghz5"),
             "recouple": ("recouple8-bal", "expand10")}
    ops, files = [], {}
    for workload, groups in picks.items():
        w_ops, w_files = workloads.generate(workload, 5, 1)
        ops.extend(next(op for op in w_ops if op["group"] == group) for group in groups)
        files.update(w_files)
    for index, op in enumerate(ops):
        op["id"] = f"t{index}"
    return ops, files


def test_traced_and_untraced_runs_give_identical_digests(tmp_path):
    ops, files = _small_ops()
    for rel, blob in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes(blob)
    plain, _ = run.run_worker(tmp_path, "plain", ops, traced=False)
    traced, summary = run.run_worker(tmp_path, "traced", ops, traced=True)
    plain_digests, plain_failures = run._judge(ops, plain)
    traced_digests, traced_failures = run._judge(ops, traced)
    assert plain_failures == traced_failures == {}
    assert plain_digests == traced_digests
    assert summary["missing_hooks"] == []
    layers = run.per_layer(traced, summary, sum(r["latency_s"] for r in plain))
    for name in ("cli.main", "coupling.expand", "operators.commuting_set",
                 "measures.persistency", "report.emit_table", "registry.named_state"):
        assert layers[f"{name}.calls"] > 0, name


def test_missing_hook_is_recorded_and_its_metrics_read_null():
    tracer = tracing.Tracer()
    tracer._hook("multiplets.coupling", "no_such_function", "coupling.gone", None)
    tracer._hook("multiplets.coupling", "NoSuchClass.method", "coupling.gone2", None)
    assert tracer.missing == ["coupling.gone", "coupling.gone2"]

    records = [{"latency_s": 1.0, "stdout": "x", "cg_before": None, "cg_after": None}]
    summary = {"spans": [["cli.main", 0.0, 1.0, None, "t0"]],
               "missing_hooks": ["coupling.expand", "exactnum.mul"], "counts": {"t0": {}}}
    values = run.per_layer(records, summary, untraced_wall=0.9)
    for name in ("coupling.expand.s", "coupling.expand.amplitudes", "exactnum.mul.calls",
                 "exactnum.mul.per_amplitude", "coupling.cg_cache.hit_ratio",
                 "coupling.recouple.targets"):
        assert values[name] is None, name
    assert values["cli.main.self_s"] == 1.0
    assert {m["name"] for m in SPEC["per_layer"]} <= set(values)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, None, "op"], ["b", 1.0, 4.0, 0, "op"],
             ["c", 2.0, 3.0, 1, "op"], ["b", 5.0, 6.0, 0, "op"]]
    table = tracing.summarize(spans)
    assert table["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert table["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
