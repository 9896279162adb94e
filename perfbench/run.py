"""Benchmark of the `multiplets` command line on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every metric, by name and unit

Run it from the root of a source tree of the package (it imports
`src/multiplets`). It generates the workload's inputs from the seed, runs
them in a fresh worker process, checks every output after the timed
region and prints one JSON object as its last line: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
full result, with machine details and a SHA-256 digest of every op's
stdout, goes to .perfbench_out/<workload>-seed<N>/result-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an op failure)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("MULTIPLETS_TOL", None)
    # One client and no threads: a spare BLAS thread would compete with the
    # op for the other core and make measure-heavy runs slower and noisier.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_worker(work: Path, tag: str, ops: list[dict], traced: bool) -> tuple[list, dict]:
    """Run the ops in a fresh worker; returns (per-op records, summary)."""
    out_dir = work / tag
    out_dir.mkdir()
    ops_path = out_dir / "ops.json"
    ops_path.write_text(json.dumps([{"id": op["id"], "argv": op["argv"]} for op in ops]))
    cmd = [sys.executable, str(HERE / "worker.py"), str(ops_path), str(out_dir)]
    proc = subprocess.run(cmd + (["--trace"] if traced else []), cwd=work,
                          env=_worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    summary = json.loads((out_dir / "summary.json").read_text())
    if not Path(summary["multiplets_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported multiplets from {summary['multiplets_file']}")
    outputs = out_dir / "outputs.jsonl"
    records = [json.loads(line) for line in outputs.read_text().splitlines()]
    outputs.unlink()
    if traced:
        summary["spans"] = json.loads((out_dir / "spans.json").read_text())
    return records, summary


def _judge(ops: list[dict], records: list[dict]) -> tuple[dict, dict]:
    """Digest and check every op's stdout: ({id: sha256}, {id: failure reason})."""
    digests, failures = {}, {}
    for op, rec in zip(ops, records, strict=True):
        digests[op["id"]] = hashlib.sha256(rec["stdout"].encode()).hexdigest()
        if rec["rc"] is None:
            reason = rec["error"]
        else:
            reason = checks.check(op, rec["rc"], rec["stdout"])
        if reason is not None:
            failures[op["id"]] = reason
    return digests, failures


def _cg_totals(records: list[dict]) -> dict | None:
    if any(rec["cg_before"] is None or rec["cg_after"] is None for rec in records):
        return None
    hits = sum(r["cg_after"][0] - r["cg_before"][0] for r in records)
    misses = sum(r["cg_after"][1] - r["cg_before"][1] for r in records)
    return {"hits": hits, "misses": misses, "size": records[-1]["cg_after"][2],
            "hit_ratio": _ratio(hits, hits + misses)}


def _ratio(part, whole):
    """part / whole; None when either is unknown, 0 when whole is 0."""
    if part is None or whole is None:
        return None
    return part / whole if whole else 0.0


def end_to_end(records: list[dict], ops: list[dict], setup_samples: list[float],
               summary: dict) -> dict:
    latencies = [rec["latency_s"] for rec in records]
    quartiles = statistics.quantiles(latencies, n=4, method="inclusive")
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(latencies),
        "op_p50_ms": 1000 * quartiles[1],
        "op_p75_ms": 1000 * quartiles[2],
        "largest_s": statistics.median(
            rec["latency_s"] for op, rec in zip(ops, records) if op["largest"]),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
    }


def per_layer(records: list[dict], summary: dict, untraced_wall: float) -> dict:
    spans = summary["spans"]
    table = tracing.summarize(spans)
    missing = set(summary["missing_hooks"])
    values: dict = {}
    for name in tracing.span_names():
        for field in ("s", "self_s", "calls"):
            values[f"{name}.{field}"] = (
                None if name in missing else table.get(name, {}).get(field, 0))

    def count(name, hook):
        if hook in missing or name in missing:
            return None
        return sum(op_counts.get(name, 0) for op_counts in summary["counts"].values())

    amplitudes = count("coupling.expand.amplitudes", "coupling.expand")
    muls = count("exactnum.mul.calls", "exactnum.mul")
    kept = count("coupling.recouple.kept", "coupling.recouple")
    # Targets expanded: expand calls inside recouple, less one source each.
    targets = None
    if not {"coupling.expand", "coupling.recouple"} & missing:
        inside = sum(1 for name, _, _, parent, _ in spans
                     if name == "coupling.expand" and parent is not None
                     and spans[parent][0] == "coupling.recouple")
        targets = inside - values["coupling.recouple.calls"]
    cg = _cg_totals(records) or {}
    values.update({
        "coupling.expand.amplitudes": amplitudes,
        "exactnum.mul.calls": muls,
        "exactnum.mul.per_amplitude": _ratio(muls, amplitudes),
        "coupling.cg_cache.hits": cg.get("hits"),
        "coupling.cg_cache.misses": cg.get("misses"),
        "coupling.cg_cache.hit_ratio": cg.get("hit_ratio"),
        "coupling.cg_cache.size": cg.get("size"),
        "coupling.recouple.targets": targets,
        "coupling.recouple.kept_ratio": _ratio(kept, targets),
        "cli.stdout_bytes": sum(len(rec["stdout"].encode()) for rec in records),
        "statefile.parse_state_file.bytes": count("statefile.parse_state_file.bytes",
                                                  "statefile.parse_state_file"),
        "trace.overhead_s": sum(rec["latency_s"] for rec in records) - untraced_wall,
    })
    return values


def _machine(summary: dict) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ,
                                             "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multiplets").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        **summary["versions"],
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full result (also written to disk)."""
    work = OUT / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    rounds = workloads.rounds_for(workload, seconds)
    ops, files = workloads.generate(workload, seed, rounds)
    work.mkdir(parents=True)
    for rel, blob in files.items():
        (work / rel).parent.mkdir(parents=True, exist_ok=True)
        (work / rel).write_bytes(blob)

    records, summary = run_worker(work, "plain", ops, traced=False)
    digests, failures = _judge(ops, records)
    setup = [summary["setup_s"]]
    if not trace:
        for sample in range(SETUP_SAMPLES - 1):
            setup.append(run_worker(work, f"setup{sample}", [], traced=False)[1]["setup_s"])
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "rounds": rounds,
        "trace": int(trace), "machine": _machine(summary),
        "ops": len(ops), "groups": {op["id"]: op["group"] for op in ops},
        "end_to_end": end_to_end(records, ops, setup, summary),
        "setup_samples_s": setup,
        "work_sharing": {
            "coupling.cg_cache.hit_ratio": (_cg_totals(records) or {}).get("hit_ratio")},
        "latencies_s": {rec["id"]: rec["latency_s"] for rec in records},
        "digests": digests,
    }
    if trace:
        traced_records, traced_summary = run_worker(work, "traced", ops, traced=True)
        traced_digests, traced_failures = _judge(ops, traced_records)
        failures.update(traced_failures)
        for op_id, digest in traced_digests.items():
            if digest != digests[op_id]:
                failures.setdefault(op_id, "traced output differs from untraced output")
        spans = traced_summary["spans"]
        by_group: dict[str, set] = {}
        for op in ops:
            by_group.setdefault(op["group"], set()).add(op["id"])
        result.update({
            "per_layer": per_layer(traced_records, traced_summary,
                                   result["end_to_end"]["wall_s"]),
            "missing_hooks": traced_summary["missing_hooks"],
            "layers_by_group": {group: tracing.summarize(spans, ids)
                                for group, ids in by_group.items()},
        })
    argv_of = {op["id"]: op["argv"] for op in ops}
    result["failures"] = [{"id": op_id, "argv": argv_of[op_id], "reason": reason}
                          for op_id, reason in sorted(failures.items())]
    result["failed"] = len(failures)
    result["fail_frac"] = len(failures) / len(ops)
    result_path = work / f"result-trace{int(trace)}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def _metrics(result: dict, spec: dict) -> dict:
    key = "per_layer" if result["trace"] else "end_to_end"
    return {m["name"]: {"value": result[key][m["name"]], "unit": m["unit"]}
            for m in spec[key]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multiplets" / "cli.py").is_file():
        print(f"error: no multiplets source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, seconds, bool(args.trace))
                   for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for result in results:
            print(f"{result['workload']}  (seed {args.seed}, {result['ops']} ops)")
            for name, metric in _metrics(result, spec).items():
                print(f"  {name:36s} {metric['value']!s:>24} {metric['unit']}")
            print(f"  {'fail_frac':36s} {result['fail_frac']:>24} ratio")
            for failure in result["failures"]:
                argv = " ".join(failure["argv"])
                print(f"    FAILED {failure['id']} {argv}: {failure['reason']}")
        return 0
    result = results[0]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": _metrics(result, spec),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
