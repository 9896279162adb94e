"""Run one workload's ops in this fresh process and record each result.

    python3 worker.py OPS_JSON OUT_DIR [--trace]

The ops run one at a time through `multiplets.cli.main(argv)`: a closed
loop with one client and no threads. Only the call itself is timed. Its
stdout goes to OUT_DIR/outputs.jsonl after the clock stops, so output
checks happen later, in another process. The run's CG cache and any other
cache the program keeps start cold here and are shared by the ops.
Standard-library imports only come before `multiplets.cli`, so the
import time is the program's own set-up, numpy and scipy included.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import tracing


def _cg_cache(coupling):
    """CG cache (hits, misses, size), or None when the cache is gone."""
    try:
        info = coupling._cg_doubled.cache_info()
        return [info.hits, info.misses, info.currsize]
    except AttributeError:
        return None


def _peak_rss_kb() -> int:
    """High-water RSS of this process image. Linux carries the parent's
    pages into ru_maxrss across fork and exec, so VmHWM comes first."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    ops_path, out_dir = Path(argv[0]), Path(argv[1])
    traced = "--trace" in argv[2:]
    ops = json.loads(ops_path.read_text())

    start = time.perf_counter()
    import multiplets.cli as cli
    setup_s = time.perf_counter() - start
    from multiplets import coupling

    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()

    with open(out_dir / "outputs.jsonl", "w") as out:
        for op in ops:
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            if tracer is not None:
                tracer.begin(op["id"])
            cache_before = _cg_cache(coupling)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(op["argv"])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # a failed op is counted, not fatal
                    rc, error = None, f"{type(exc).__name__}: {exc}"
                latency = time.perf_counter() - t0
            out.write(json.dumps({
                "id": op["id"],
                "latency_s": latency,
                "rc": rc,
                "error": error or stderr.getvalue() or None,
                "cg_before": cache_before,
                "cg_after": _cg_cache(coupling),
                "stdout": stdout.getvalue(),
            }) + "\n")

    summary = {
        "setup_s": setup_s,
        "peak_rss_kb": _peak_rss_kb(),
        "multiplets_file": cli.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
            "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        },
    }
    if tracer is not None:
        summary["missing_hooks"] = tracer.missing
        summary["counts"] = tracer.counts
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans))
    (out_dir / "summary.json").write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
