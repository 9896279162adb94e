"""Table emitters and the verification / measurement report builders.

Tables come in three formats: plain text, JSON and a LaTeX eqnarray that
mirrors the usual ket-equation layout with up/down arrows. All output is
deterministic: rows follow the multiplet enumeration order and amplitude
terms are sorted by descending configuration (all-up first).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .coupling import (
    CoupledLabel,
    CouplingTree,
    StateVector,
    _radical,
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
from .operators import commuting_set, verify_basis

__all__ = [
    "emit_table",
    "emit_state_row",
    "emit_recoupling",
    "run_verify",
    "emit_json",
    "run_measures",
]

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


def _row_text(label: CoupledLabel, terms: list[tuple], eq: str) -> str:
    return f"{label}  :  " + "  ".join(f"{amp}|{ket}>" for ket, amp in terms)


def _row_latex(label: CoupledLabel, terms: list[tuple], eq: str) -> str:
    text = "".join(f"{amp}\\,{ket}" for ket, amp in terms)
    return rf"{_label_latex(label)} {eq} {text.lstrip('+')}"


def _row_json(label: CoupledLabel, terms: list[tuple], eq: str) -> dict:
    return {"label": label.quantum_numbers(),
            "amplitudes": [{"config": ket, "amp": amp} for ket, amp in terms]}


# The amplitude, configuration and row formatters of each format.
_TERM_FORMATS = {
    "text": (_amp_text, config_to_string, _row_text),
    "latex": (_amp_latex, _ket_latex, _row_latex),
    "json": (SignedRadical.to_json_dict, config_to_string, _row_json),
}


def _format_rows(pairs, n: int, fmt: str, what: str, eq: str) -> list:
    """The rows of (label, expanded state) pairs in ``fmt``, read from each
    state's integer form; ``eq`` is the LaTeX relation, which the other
    formats ignore. One call formats each distinct configuration and each
    distinct (r, k) once; terms come by descending configuration."""
    if fmt not in _TERM_FORMATS:
        raise ValueError(f"unknown {what} {fmt!r}")
    amp_fn, ket_fn, row_fn = _TERM_FORMATS[fmt]
    amps = functools.cache(lambda r: functools.cache(lambda k: amp_fn(_radical(r, k))))
    kets = functools.cache(functools.partial(ket_fn, n=n))
    rows = []
    for label, state in pairs:
        r, ints = state.amplitudes.radicand, state.amplitudes.ints
        amp = amps(r)
        terms = [(kets(config), amp(k)) for config, k in sorted(ints.items(), reverse=True)]
        rows.append(row_fn(label, terms, eq))
    return rows


def emit_table(tree: CouplingTree, fmt: str = "text") -> bytes:
    """All coupled states of a tree, one row per multiplet member."""
    rows = _format_rows(full_basis(tree), tree.n, fmt, "table format", "&=&")
    if fmt == "json":
        return emit_json({"tree": tree.spec(), "rows": rows})
    if fmt == "latex":
        text = "\n".join([r"\begin{eqnarray}", (r"\\" + "\n").join(rows), r"\end{eqnarray}"])
    else:
        text = "\n".join([f"# coupled basis of tree {tree.spec()}"] + rows)
    return (text + "\n").encode("utf-8")


def emit_state_row(label: CoupledLabel, fmt: str = "text") -> bytes:
    """One expanded coupled state in any of the table formats."""
    state = expand(label)
    row, = _format_rows([(label, state)], state.n, fmt, "format", "=")
    return emit_json(row) if fmt == "json" else (row + "\n").encode("utf-8")


def emit_recoupling(coefficients: dict[CoupledLabel, float]) -> bytes:
    rows = [
        {"label": label.quantum_numbers(), "coefficient": coeff}
        for label, coeff in coefficients.items()
    ]
    return emit_json({"coefficients": rows})


# --------------------------------------------------------------------------
# Verification and measurement reports


MAX_VERIFY_QUBITS = 12


def run_verify(tree: CouplingTree, tol: float = 1e-12) -> dict:
    """Check every coupled state against the tree's full commuting set.

    Each label is checked as an eigenstate of every internal-node Casimir
    and the total z projection, with eigenvalues read off the label, by
    the exact integer check of ``operators.verify_basis`` on the integer
    form of each ``full_basis`` state: the residual of a correct state is
    exactly 0.0, so it passes at any tolerance, ``tol = 0`` included.
    Returns a JSON-ready report with per-check residuals; equal checks
    share one dict. The float path (``to_array``, then
    ``verify_eigenstate`` per member) is the test oracle, in
    tests/oracle_verify.py. At most MAX_VERIFY_QUBITS particles.
    """
    if tree.n > MAX_VERIFY_QUBITS:
        raise ValueError(f"verification supports at most {MAX_VERIFY_QUBITS} particles")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    tol = abs(tol)  # -0.0 passed the check above; report it as 0.0
    members = commuting_set(tree)
    basis = full_basis(tree)
    residuals = verify_basis(tree, basis).tolist()
    # A check depends on the label only through the spin (or m) that its
    # member reads, so each distinct check is built once.
    checks: dict[tuple, dict] = {}
    results = []
    for (label, _), row in zip(basis, residuals):
        reads = [spin.two_j for spin in label.intermediates] + [label.total_m.two_m]
        row_checks = []
        for k, (member, read, residual) in enumerate(zip(members, reads, row)):
            key = (k, read, residual)
            check = checks.get(key)
            if check is None:
                check = checks[key] = {
                    "operator": member.name,
                    "eigenvalue": member.eigenvalue_of(label),
                    "residual": residual,
                    "pass": residual <= tol,
                }
            row_checks.append(check)
        results.append({"label": label.quantum_numbers(), "checks": row_checks})
    all_ok = all(check["pass"] for check in checks.values())
    return {"tree": tree.spec(), "tol": tol, "pass": all_ok, "results": results}


def _json_scalar(value) -> str:
    """A str, None, bool, int or float as the ``json`` module writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_indented(value, indent: str, dicts: dict[tuple[int, int], str]) -> str:
    """``value`` as the ``json`` module lays it out with ``indent=2``, at
    the depth of ``indent``. Dicts need str keys; each dict object is
    formatted once per depth, then looked up in ``dicts`` by identity and
    depth."""
    if isinstance(value, dict):
        key = (id(value), len(indent))
        text = dicts.get(key)
        if text is None:
            inner = indent + "  "
            fields = [encode_basestring_ascii(name) + ": " + (
                encode_basestring_ascii(item) if type(item) is str
                else _json_indented(item, inner, dicts)) for name, item in value.items()]
            text = dicts[key] = _json_block("{", fields, "}", indent)
        return text
    if isinstance(value, list):
        inner = indent + "  "
        return _json_block("[", [_json_indented(item, inner, dicts) for item in value], "]",
                           indent)
    return _json_scalar(value)


def _json_block(open_: str, items: list[str], close: str, indent: str) -> str:
    if not items:
        return open_ + close
    inner = "\n" + indent + "  "
    return open_ + inner + ("," + inner).join(items) + "\n" + indent + close


def emit_json(value) -> bytes:
    """``value`` as the ``json`` module writes it with ``indent=2``, plus a
    newline, without the pure-Python encoder that ``indent`` selects.

    This is the package's only JSON writer; ``json`` is its oracle in
    ``tests/``. Strings go through ``encode_basestring_ascii``, floats
    through ``float.__repr__``, and a dict met several times at one depth
    (the shared checks of ``verify``, the amplitudes of a table) is
    formatted once per call.
    """
    return (_json_indented(value, "", {}) + "\n").encode("ascii")


def run_measures(state: StateVector, name: str | None = None,
                 z_branches: bool = False) -> dict:
    """Entanglement report: Q, persistency, connectedness, pair detail.

    Above MAX_SEARCH_QUBITS particles the two searches are skipped: their
    fields are null and ``skipped`` names them. With ``z_branches`` (meant
    for 4-qubit states) the report also classifies the 3-qubit branches of
    a Z measurement on each site.
    """
    searchable = state.n <= MAX_SEARCH_QUBITS
    arr = state.to_array()
    report: dict = {
        "name": name,
        "n": state.n,
        "q": meyer_wallach_q(arr),
        "persistency": persistency(arr) if searchable else None,
    }
    if not searchable:
        report["maximally_connected"] = None
        report["pairs"] = None
        report["skipped"] = ["persistency", "connectedness"]
    elif state.n >= 3:
        connected, pairs = maximal_connectedness(arr)
        report["maximally_connected"] = connected
        report["pairs"] = [
            {
                "pair": list(r.pair),
                "connected": r.connected,
                "witness": None if r.witness is None
                else [[site, basis.value] for site, basis in r.witness],
            }
            for r in pairs
        ]
    if z_branches:
        branch_rows = []
        for site in range(1, state.n + 1):
            branches = []
            for branch in measure_branches(arr, site, MeasurementBasis.Z):
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
