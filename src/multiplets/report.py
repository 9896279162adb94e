"""Table emitters and the verification / measurement report builders.

Tables come in three formats: plain text, JSON and a LaTeX eqnarray that
mirrors the usual ket-equation layout with up/down arrows. All output is
deterministic: rows follow the multiplet enumeration order and amplitude
terms are sorted by descending configuration (all-up first).
"""

from __future__ import annotations

import functools
import json
import math
import os
from fractions import Fraction

from .coupling import (
    CoupledLabel,
    CouplingTree,
    StateVector,
    _PerCall,
    config_to_string,
    expand,
    full_basis,
)
from .exactnum import SignedRadical
from .measures import (
    MAX_SEARCH_QUBITS,
    MeasurementBasis,
    classify_three_qubit,
    maximal_connectedness,
    measure_branches,
    meyer_wallach_q,
    persistency,
)
from .operators import commuting_set, verify_eigenstate

__all__ = [
    "default_tolerance",
    "emit_table",
    "emit_state_row",
    "emit_recoupling",
    "run_verify",
    "run_measures",
]

TOLERANCE_ENV_VAR = "MULTIPLETS_TOL"


def default_tolerance() -> float:
    """Default verification tolerance, overridable via MULTIPLETS_TOL."""
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    return float(raw) if raw else 1e-12


# --------------------------------------------------------------------------
# Amplitude and label formatting


def _amp_text(amp: SignedRadical) -> str:
    return ("+" if amp.sign > 0 else "") + str(amp)


def _frac_latex(value) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return rf"\tfrac{{{value.numerator}}}{{{value.denominator}}}"


def _amp_latex(amp: SignedRadical) -> str:
    if amp.sign == 0:
        return "0"
    sign = "-" if amp.sign < 0 else "+"
    if amp.is_rational():
        return sign + _frac_latex(abs(amp.as_rational()))
    return sign + rf"\sqrt{{{_frac_latex(amp.radicand)}}}"


def _ket_latex(config: int, n: int) -> str:
    arrows = "".join(
        r"\uparrow" if ch == "u" else r"\downarrow"
        for ch in config_to_string(config, n)
    )
    return rf"\left|{arrows}\right\rangle"


def _name_latex(name: str) -> str:
    if name.startswith("S") and len(name) > 1:
        return rf"S_{{{name[1:]}}}"
    return name


def _label_latex(label: CoupledLabel) -> str:
    parts = []
    for name, value in label.quantum_numbers().items():
        frac = _frac_latex(Fraction(value))
        parts.append(_name_latex(name) + r"{=}" + frac)
    sep = r",\;"
    return r"\left|" + sep.join(parts) + r"\right\rangle"


# --------------------------------------------------------------------------
# Rows and tables


def _row_text(label: CoupledLabel, state: StateVector, amps: _PerCall, kets: _PerCall) -> str:
    terms = "  ".join(f"{amps[amp]}|{kets[config]}>" for config, amp in state.items())
    return f"{label}  :  {terms}"


def _row_latex(label: CoupledLabel, state: StateVector, amps: _PerCall, kets: _PerCall,
               eq: str) -> str:
    terms = "".join(f"{amps[amp]}\\,{kets[config]}" for config, amp in state.items())
    return rf"{_label_latex(label)} {eq} {terms.lstrip('+')}"


def _row_json(label: CoupledLabel, state: StateVector, amps: _PerCall, kets: _PerCall) -> dict:
    return {
        "label": label.quantum_numbers(),
        "amplitudes": [
            {"config": kets[config], "amp": amps[amp]}
            for config, amp in state.items()
        ],
    }


# The amplitude and configuration formatters of each format's rows.
_TERM_FORMATS = {
    "text": (_amp_text, config_to_string),
    "latex": (_amp_latex, _ket_latex),
    "json": (SignedRadical.to_json_dict, config_to_string),
}


def _term_memos(fmt: str, n: int) -> tuple[_PerCall, _PerCall]:
    """Fresh memos of ``fmt``'s amplitude and configuration strings, so one
    call formats each distinct amplitude and configuration once."""
    amp_fn, ket_fn = _TERM_FORMATS[fmt]
    return _PerCall(amp_fn), _PerCall(functools.partial(ket_fn, n=n))


def emit_table(tree: CouplingTree, fmt: str = "text") -> bytes:
    """All coupled states of a tree, one row per multiplet member."""
    basis = full_basis(tree)
    if fmt not in _TERM_FORMATS:
        raise ValueError(f"unknown table format {fmt!r}")
    amps, kets = _term_memos(fmt, tree.n)
    if fmt == "json":
        rows = [_row_json(label, state, amps, kets) for label, state in basis]
        text = json.dumps({"tree": tree.spec(), "rows": rows}, indent=2)
    elif fmt == "latex":
        rows = [_row_latex(label, state, amps, kets, "&=&") for label, state in basis]
        text = "\n".join([r"\begin{eqnarray}", (r"\\" + "\n").join(rows), r"\end{eqnarray}"])
    else:
        rows = [_row_text(label, state, amps, kets) for label, state in basis]
        text = "\n".join([f"# coupled basis of tree {tree.spec()}"] + rows)
    return (text + "\n").encode("utf-8")


def emit_state_row(label: CoupledLabel, fmt: str = "text") -> bytes:
    """One expanded coupled state in any of the table formats."""
    state = expand(label)
    if fmt not in _TERM_FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    amps, kets = _term_memos(fmt, state.n)
    if fmt == "json":
        text = json.dumps(_row_json(label, state, amps, kets), indent=2)
    elif fmt == "latex":
        text = _row_latex(label, state, amps, kets, "=")
    else:
        text = _row_text(label, state, amps, kets)
    return (text + "\n").encode("utf-8")


def emit_recoupling(coefficients: dict[CoupledLabel, float]) -> bytes:
    rows = [
        {"label": label.quantum_numbers(), "coefficient": coeff}
        for label, coeff in coefficients.items()
    ]
    return (json.dumps({"coefficients": rows}, indent=2) + "\n").encode("utf-8")


# --------------------------------------------------------------------------
# Verification and measurement reports


def run_verify(tree: CouplingTree, tol: float | None = None) -> dict:
    """Check every coupled state against the tree's full commuting set.

    Each label is verified as an eigenstate of every internal-node
    Casimir and the total z projection, with eigenvalues read off the
    label. Returns a JSON-ready report with per-check residuals.
    """
    if tree.n > 10:
        raise ValueError("verification supports at most 10 particles")
    if tol is None:
        tol = default_tolerance()
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    members = commuting_set(tree)
    results = []
    all_ok = True
    for label, exact in full_basis(tree):
        state = exact.to_array()
        checks = []
        for member in members:
            expected = member.eigenvalue_of(label)
            ok, residual = verify_eigenstate(member.operator, state, expected, tol)
            all_ok = all_ok and ok
            checks.append({
                "operator": member.name,
                "eigenvalue": expected,
                "residual": residual,
                "pass": ok,
            })
        results.append({"label": label.quantum_numbers(), "checks": checks})
    return {"tree": tree.spec(), "tol": tol, "pass": all_ok, "results": results}


def _witness_json(witness) -> list | None:
    if witness is None:
        return None
    return [[site, basis.value] for site, basis in witness]


def run_measures(state: StateVector, name: str | None = None,
                 z_branches: bool = False) -> dict:
    """Entanglement report: Q, persistency, connectedness, pair detail.

    Above MAX_SEARCH_QUBITS particles the two searches are skipped: their
    fields are null and ``skipped`` names them. With ``z_branches`` (meant
    for 4-qubit states) the report also classifies the 3-qubit branches of
    a Z measurement on each site.
    """
    searchable = state.n <= MAX_SEARCH_QUBITS
    report: dict = {
        "name": name,
        "n": state.n,
        "q": meyer_wallach_q(state),
        "persistency": persistency(state) if searchable else None,
    }
    if not searchable:
        report["maximally_connected"] = None
        report["pairs"] = None
        report["skipped"] = ["persistency", "connectedness"]
    elif state.n >= 3:
        connected, pairs = maximal_connectedness(state)
        report["maximally_connected"] = connected
        report["pairs"] = [
            {
                "pair": list(r.pair),
                "connected": r.connected,
                "witness": _witness_json(r.witness),
            }
            for r in pairs
        ]
    if z_branches:
        branch_rows = []
        for site in range(1, state.n + 1):
            branches = []
            for branch in measure_branches(state, site, MeasurementBasis.Z):
                entry = {
                    "outcome": branch.outcome,
                    "probability": branch.probability,
                }
                if branch.state.n == 3:
                    entry["class"] = classify_three_qubit(branch.state).value
                branches.append(entry)
            branch_rows.append({"site": site, "branches": branches})
        report["z_branches"] = branch_rows
    return report
