"""Spans around the calls into each `multiplets` module, recorded from outside.

`Tracer.install` rebinds each hooked function wherever the package's
modules look its name up (`report` imports `expand` from `coupling`, so
both names are rebound) and replaces hooked methods on their class. No
file of the program changes. A hook that a later version of the program
removes or renames is listed by name in `missing`, and every metric that
needs it reads `None` instead of failing the run.

Spans stay in memory as (name, start, end, parent, op id) and are written
when the run ends. The program is single-threaded and has no queues, so a
span is busy time only; there is no waiting time to record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name); "Class.method" attributes hook a method.
SPAN_HOOKS = (
    ("multiplets.cli", "main", "cli.main"),
    ("multiplets.coupling", "CouplingTree.parse", "coupling.parse"),
    ("multiplets.coupling", "enumerate_multiplets", "coupling.enumerate_multiplets"),
    ("multiplets.coupling", "expand", "coupling.expand"),
    ("multiplets.coupling", "full_basis", "coupling.full_basis"),
    ("multiplets.coupling", "recouple", "coupling.recouple"),
    ("multiplets.coupling", "StateVector.to_array", "coupling.to_array"),
    ("multiplets.operators", "commuting_set", "operators.commuting_set"),
    ("multiplets.operators", "verify_eigenstate", "operators.verify_eigenstate"),
    ("multiplets.measures", "meyer_wallach_q", "measures.meyer_wallach_q"),
    ("multiplets.measures", "persistency", "measures.persistency"),
    ("multiplets.measures", "maximal_connectedness", "measures.maximal_connectedness"),
    ("multiplets.measures", "is_pair_connectable", "measures.is_pair_connectable"),
    ("multiplets.measures", "measure_branches", "measures.measure_branches"),
    ("multiplets.measures", "classify_three_qubit", "measures.classify_three_qubit"),
    ("multiplets.report", "emit_table", "report.emit_table"),
    ("multiplets.report", "emit_state_row", "report.emit_state_row"),
    ("multiplets.report", "emit_recoupling", "report.emit_recoupling"),
    ("multiplets.report", "run_verify", "report.run_verify"),
    ("multiplets.report", "run_measures", "report.run_measures"),
    ("multiplets.statefile", "parse_state_file", "statefile.parse_state_file"),
    ("multiplets.registry", "named_state", "registry.named_state"),
)

# Hot calls that are counted without a span, to keep the overhead small.
COUNT_HOOKS = (
    ("multiplets.exactnum", "SignedRadical.__mul__", "exactnum.mul"),
)


def _amplitudes(args, result):
    return len(getattr(result, "amplitudes", ()))


def _kept(args, result):
    return len(result)


def _input_bytes(args, result):
    return len(args[0]) if args else 0


# Extra counts taken from a hooked call's arguments and result.
EXTRA_COUNTS = {
    "coupling.expand": ("coupling.expand.amplitudes", _amplitudes),
    "coupling.recouple": ("coupling.recouple.kept", _kept),
    "statefile.parse_state_file": ("statefile.parse_state_file.bytes", _input_bytes),
}


class Tracer:
    """Records spans and counts for the op currently running."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.missing: list[str] = []
        self.op_id: str | None = None
        self._stack: list[int] = []

    def begin(self, op_id: str) -> None:
        self.op_id = op_id
        self.counts[op_id] = {}

    def _count(self, name: str, amount: int = 1) -> None:
        counts = self.counts[self.op_id]
        counts[name] = counts.get(name, 0) + amount

    def install(self) -> None:
        for module, attr, name in SPAN_HOOKS:
            self._hook(module, attr, name, self._span_wrapper)
        for module, attr, name in COUNT_HOOKS:
            self._hook(module, attr, name, self._count_wrapper)

    def _hook(self, module_name: str, attr: str, name: str, make) -> None:
        try:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
            else:
                raw = getattr(module, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(name)
            return
        if "." in attr:
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(make(name, raw.__func__)))
            else:
                setattr(cls, method, make(name, raw))
            return
        wrapper = make(name, raw)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "multiplets"
                                      or loaded_name.startswith("multiplets.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is raw:
                    setattr(loaded, key, wrapper)

    def _span_wrapper(self, name: str, fn):
        extra = EXTRA_COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op_id]
            if extra is not None:
                try:
                    self._count(extra[0], extra[1](args, result))
                except (TypeError, AttributeError, IndexError):
                    if extra[0] not in self.missing:
                        self.missing.append(extra[0])
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return wrapper


def span_names() -> set[str]:
    return {name for _, _, name in SPAN_HOOKS}


def summarize(spans: list[list], op_ids=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds `s` and `self_s`.

    Self time is a span's duration minus its direct children's; the
    program is single-threaded, so children never overlap. `op_ids`
    restricts the summary to those ops.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent, op) in enumerate(spans):
        if op_ids is not None and op not in op_ids:
            continue
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return out
