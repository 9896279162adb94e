"""Output checks, run after the timed region on each op's recorded stdout.

`check(op, rc, stdout)` returns None when the output is right and a
one-line reason otherwise. Norms are summed exactly as Fractions.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

TOL = 1e-9

_TEXT_TERM = re.compile(r"([+-])(?:sqrt\((\d+(?:/\d+)?)\)|(\d+(?:/\d+)?))\|([ud]+)>")


def check(op: dict, rc, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    spec = op["check"]
    try:
        return _CHECKS[spec["kind"]](spec, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _text_row_norm(row: str, n: int) -> Fraction:
    _, sep, terms = row.partition("  :  ")
    if not sep:
        raise ValueError(f"row without separator: {row[:60]!r}")
    norm, configs = Fraction(0), set()
    for term in terms.split("  "):
        match = _TEXT_TERM.fullmatch(term)
        if match is None or len(match.group(4)) != n or match.group(4) in configs:
            raise ValueError(f"bad term {term!r}")
        configs.add(match.group(4))
        radicand, rational = match.group(2), match.group(3)
        norm += Fraction(radicand) if radicand else Fraction(rational) ** 2
    return norm


def _json_row_norm(row: dict, n: int) -> Fraction:
    norm, configs = Fraction(0), set()
    for entry in row["amplitudes"]:
        config, amp = entry["config"], entry["amp"]
        if len(config) != n or config in configs or amp["sign"] not in (1, -1):
            raise ValueError(f"bad amplitude {entry!r}")
        configs.add(config)
        norm += Fraction(int(amp["num"]), int(amp["den"]))
    return norm


def _rows(spec: dict, stdout: str) -> list:
    fmt = spec["format"]
    if fmt == "json":
        return json.loads(stdout)["rows"]
    lines = stdout.splitlines()
    if fmt == "text":
        if not lines[0].startswith("# coupled basis"):
            raise ValueError("missing table header")
        return lines[1:]
    if lines[0] != r"\begin{eqnarray}" or lines[-1] != r"\end{eqnarray}":
        raise ValueError("missing eqnarray environment")
    return lines[1:-1]


def _table(spec: dict, stdout: str) -> str | None:
    n = spec["n"]
    rows = _rows(spec, stdout)
    if len(rows) != 1 << n:
        return f"{len(rows)} rows, expected {1 << n}"
    if spec["format"] == "latex":
        return None
    norm = _json_row_norm if spec["format"] == "json" else _text_row_norm
    labels = set()
    for row in rows:
        label = (json.dumps(row["label"]) if spec["format"] == "json"
                 else row.split("  :  ")[0])
        if label in labels:
            return f"repeated label {label}"
        labels.add(label)
        if norm(row, n) != 1:
            return f"row {label} does not have unit norm"
    return None


def _expand(spec: dict, stdout: str) -> str | None:
    n = spec["n"]
    if spec["format"] == "json":
        norm = _json_row_norm(json.loads(stdout), n)
    else:
        lines = stdout.splitlines()
        if len(lines) != 1:
            return f"{len(lines)} lines, expected 1"
        norm = _text_row_norm(lines[0], n)
    return None if norm == 1 else f"norm^2 {norm}, expected 1"


def _verify(spec: dict, stdout: str) -> str | None:
    report = json.loads(stdout)
    if report["pass"] is not True:
        return "report does not pass"
    if len(report["results"]) != 1 << spec["n"]:
        return f"{len(report['results'])} labels, expected {1 << spec['n']}"
    return None


def _measure(spec: dict, stdout: str) -> str | None:
    report = json.loads(stdout)
    n = report["n"]
    if spec["n"] is not None and n != spec["n"]:
        return f"n = {n}, expected {spec['n']}"
    if not 0.0 <= report["q"] <= 1.0 + TOL:
        return f"q = {report['q']} outside [0, 1]"
    for key, want in spec["expect"].items():
        got = report.get(key)
        if isinstance(want, float) and isinstance(got, float):
            if not math.isclose(got, want, abs_tol=TOL):
                return f"{key} = {got}, expected {want}"
        elif got != want:
            return f"{key} = {got}, expected {want}"
    if spec["z_branches"]:
        sites = report["z_branches"]
        if len(sites) != n:
            return f"{len(sites)} measured sites, expected {n}"
        for site in sites:
            total = sum(b["probability"] for b in site["branches"])
            if not math.isclose(total, 1.0, abs_tol=TOL):
                return f"site {site['site']} branch probabilities sum to {total}"
    return None


def _recouple(spec: dict, stdout: str) -> str | None:
    rows = json.loads(stdout)["coefficients"]
    total = sum(row["coefficient"] ** 2 for row in rows)
    if not math.isclose(total, 1.0, abs_tol=TOL):
        return f"squared coefficients sum to {total}"
    return None


_CHECKS = {"table": _table, "expand": _expand, "verify": _verify,
           "measure": _measure, "recouple": _recouple}
