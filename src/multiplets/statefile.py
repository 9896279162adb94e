"""JSON state-file format: parse and emit StateVectors losslessly.

The schema is
    {"n": 2, "flavor": "exact" | "numeric",
     "amplitudes": [{"config": "ud", "amp": ...}, ...]}
where configs are u/d strings with particle 1 first, exact amplitudes are
signed-radical dicts and numeric ones are {"re": x, "im": y} with x and y
finite JSON numbers (not bools or strings). Emission
sorts configs descending (all-up first) so output is byte-stable, and
parsing rejects non-normalized data rather than renormalizing.
"""

from __future__ import annotations

import json
import math

from .coupling import StateVector, config_from_string, config_to_string
from .exactnum import SignedRadical
from .report import emit_json

__all__ = ["StateFileError", "parse_state_file", "emit_state_file"]


class StateFileError(ValueError):
    """The bytes do not describe a valid state file."""


def parse_state_file(data: bytes | str) -> StateVector:
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # ValueError: also bad UTF-8 and the digit limit
        raise StateFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("state file must be a JSON object")
    try:
        n = doc["n"]
        flavor = doc["flavor"]
        entries = doc["amplitudes"]
    except KeyError as exc:
        raise StateFileError(f"missing field: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise StateFileError(f"n must be a JSON integer, got {n!r}")
    if flavor not in ("exact", "numeric"):
        raise StateFileError(f"flavor must be 'exact' or 'numeric', got {flavor!r}")
    if not isinstance(entries, list) or not entries:
        raise StateFileError("amplitudes must be a non-empty list")

    amplitudes: dict[int, object] = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"config", "amp"}:
            raise StateFileError(f"bad amplitude entry {entry!r}")
        config_str = entry["config"]
        if not isinstance(config_str, str) or len(config_str) != n:
            raise StateFileError(f"config {config_str!r} must be {n} characters")
        try:
            config = config_from_string(config_str)
        except ValueError as exc:
            raise StateFileError(str(exc)) from exc
        if config in amplitudes:
            raise StateFileError(f"duplicate configuration {config_str!r}")
        amplitudes[config] = _parse_amp(entry["amp"], flavor)

    try:
        if flavor == "exact":
            return StateVector.exact_state(n, amplitudes)
        return StateVector.numeric_state(n, amplitudes)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFileError(str(exc)) from exc


def _parse_amp(raw: object, flavor: str) -> object:
    if flavor == "exact":
        if not isinstance(raw, dict):
            raise StateFileError(f"exact amplitude must be an object, got {raw!r}")
        try:
            return SignedRadical.from_json_dict(raw)
        except ValueError as exc:
            raise StateFileError(str(exc)) from exc
    if not isinstance(raw, dict) or set(raw) != {"re", "im"}:
        raise StateFileError(f"numeric amplitude must be {{re, im}}, got {raw!r}")
    # JSON numbers only: float() would also read true and " 1 " as 1.
    if not all(type(part) in (int, float) for part in raw.values()):
        raise StateFileError(f"numeric amplitude parts must be JSON numbers, got {raw!r}")
    try:
        real, imag = float(raw["re"]), float(raw["im"])
    except OverflowError as exc:
        raise StateFileError(f"bad numeric amplitude {raw!r}") from exc
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise StateFileError(f"non-finite numeric amplitude {raw!r}")
    return complex(real, imag)


def emit_state_file(state: StateVector) -> bytes:
    entries = [
        {"config": config_to_string(config, state.n),
         "amp": amp.to_json_dict() if state.exact else {"re": amp.real, "im": amp.imag}}
        for config, amp in state.items()
    ]
    doc = {
        "n": state.n,
        "flavor": "exact" if state.exact else "numeric",
        "amplitudes": entries,
    }
    return emit_json(doc)
