"""Table emitters and the verification / measurement report builders.

Tables come in three formats: plain text, JSON and a LaTeX eqnarray that
mirrors the usual ket-equation layout with up/down arrows. All output is
deterministic: rows follow the multiplet enumeration order and amplitude
terms are sorted by descending configuration (all-up first).

Each format has one row writer, shared by ``emit_table`` and
``emit_state_row``. It writes a row straight to its final text from the
doubled label values and the state's integer form (p, q, ints): the ket
of each configuration, the amplitude of each (r, k) and each label value
are formatted once per call and kept, so a row is one sort of the
state's masks and a join of kept pieces. A JSON row is written as
``emit_json`` would lay it out at its depth; every other JSON document
(``verify``, ``measure``, ``recouple``, state files) goes through
``emit_json``.

``table`` and ``verify`` read the engine's stream, ``coupled_forms``,
and hold no basis: ``emit_table`` writes each row to its output stream
as its state arrives, and ``run_verify`` keeps each state's label while
``operators.check_forms`` takes its integers into the sector blocks.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from operator import add
from typing import TextIO

from .coupling import (
    CoupledLabel,
    CouplingTree,
    StateVector,
    _half_text,
    config_to_string,
    coupled_forms,
    expand,
)
from .exactnum import radical_parts, radical_text
from .measures import (
    MAX_SEARCH_QUBITS,
    MeasurementBasis,
    classify_three_qubit,
    maximal_connectedness,
    measure_branches,
    meyer_wallach_q,
    persistency,
)
from .operators import check_forms, commuting_set

__all__ = [
    "emit_table",
    "emit_state_row",
    "emit_recoupling",
    "run_verify",
    "emit_json",
    "run_measures",
]

# --------------------------------------------------------------------------
# Amplitude, ket and label pieces


def _ratio_latex(p: int, q: int) -> str:
    return str(p) if q == 1 else rf"\tfrac{{{p}}}{{{q}}}"


def _amp_text(sign: int, num: int, den: int, root) -> str:
    return ("+" if sign > 0 else "-") + radical_text(num, den, root)


def _amp_latex(sign: int, num: int, den: int, root) -> str:
    value = _ratio_latex(*root) if root else r"\sqrt{" + _ratio_latex(num, den) + "}"
    return ("+" if sign > 0 else "-") + value


_ARROWS = str.maketrans({"u": r"\uparrow", "d": r"\downarrow"})


def _ket_latex(config: int, n: int) -> str:
    return r"\left|" + config_to_string(config, n).translate(_ARROWS) + r"\right\rangle"


def _name_latex(name: str) -> str:
    if name.startswith("S") and len(name) > 1:
        return rf"S_{{{name[1:]}}}"
    return name


def _half_latex(two: int) -> str:
    return rf"\tfrac{{{two}}}{{2}}" if two % 2 else _half_text(two)


class _Pieces(dict):
    """Text pieces of one call's rows: a missing key's piece is built by
    ``build(key)`` and kept, so each distinct piece is formatted once."""

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        piece = self[key] = self.build(key)
        return piece


def _label_writer(tree: CouplingTree, piece, sep: str):
    """The label text of a label of ``tree`` from its doubled values, the
    intermediate spins then 2m: ``piece(name, two)`` of each quantum
    number, joined by ``sep``."""
    names = tree.node_names() + ("m",)
    pieces = _Pieces(lambda key: piece(*key))

    def write(twos: tuple[int, ...]) -> str:
        return sep.join([pieces[key] for key in zip(names, twos)])
    return write


def _terms(pq: tuple[int, int], ints: dict[int, int], amps: _Pieces, kets: _Pieces) -> tuple:
    """The amplitude and the ket pieces of a state's terms, by descending
    configuration; ``amps[p, q][k]`` is the piece of sqrt(p/q) * k."""
    masks = sorted(ints, reverse=True)
    amp = amps[pq]
    return map(amp.__getitem__, map(ints.__getitem__, masks)), map(kets.__getitem__, masks)


def _amp_pieces(write) -> _Pieces:
    """``amps[p, q][k]``: ``write`` of the ``radical_parts`` of sqrt(p/q) * k."""
    return _Pieces(lambda pq: _Pieces(lambda k: write(*radical_parts(*pq, k))))


# --------------------------------------------------------------------------
# Row writers: one per format, each a function of (the label's doubled
# values, the state's (p, q), its ints) with its pieces kept for the call.


def _text_writer(tree: CouplingTree, eq: str, indent: str):
    n = tree.n
    label_text = _label_writer(tree, lambda name, two: f"{name}={_half_text(two)}", " ")
    amps = _amp_pieces(_amp_text)
    kets = _Pieces(lambda config: "|" + config_to_string(config, n) + ">")

    def row(twos: tuple[int, ...], pq: tuple[int, int], ints: dict[int, int]) -> str:
        return label_text(twos) + "  :  " + "  ".join(map(add, *_terms(pq, ints, amps, kets)))
    return row


def _latex_writer(tree: CouplingTree, eq: str, indent: str):
    n = tree.n
    label_text = _label_writer(
        tree, lambda name, two: _name_latex(name) + "{=}" + _half_latex(two), r",\;")
    amps = _amp_pieces(_amp_latex)
    kets = _Pieces(lambda config: r"\," + _ket_latex(config, n))
    relation = r"\right\rangle " + eq + " "

    def row(twos: tuple[int, ...], pq: tuple[int, int], ints: dict[int, int]) -> str:
        terms = "".join(map(add, *_terms(pq, ints, amps, kets)))
        return r"\left|" + label_text(twos) + relation + terms.lstrip("+")
    return row


def _json_writer(tree: CouplingTree, eq: str, indent: str):
    """Rows as ``emit_json`` lays out {"label": ..., "amplitudes": [{"config":
    ..., "amp": ...}, ...]} at the depth of ``indent``."""
    n = tree.n
    in1, in2, in3 = indent + "  ", indent + "    ", indent + "      "
    label_text = _label_writer(
        tree, lambda name, two: encode_basestring_ascii(name) + ": "
        + encode_basestring_ascii(_half_text(two)), ",\n" + in2)
    amps = _amp_pieces(lambda sign, num, den, root: _json_indented(
        {"sign": sign, "num": str(num), "den": str(den)}, in3, {}) + "\n" + in2 + "}")
    kets = _Pieces(lambda config: "{\n" + in3 + '"config": '
                   + encode_basestring_ascii(config_to_string(config, n))
                   + ",\n" + in3 + '"amp": ')
    label_open = "{\n" + in1 + '"label": {\n' + in2
    terms_open = "\n" + in1 + "},\n" + in1 + '"amplitudes": [\n' + in2
    term_sep = ",\n" + in2
    close = "\n" + in1 + "]\n" + indent + "}"

    def row(twos: tuple[int, ...], pq: tuple[int, int], ints: dict[int, int]) -> str:
        amp_pieces, ket_pieces = _terms(pq, ints, amps, kets)
        return (label_open + label_text(twos) + terms_open
                + term_sep.join(map(add, ket_pieces, amp_pieces)) + close)
    return row


_ROW_WRITERS = {"text": _text_writer, "latex": _latex_writer, "json": _json_writer}


def _row_writer(tree: CouplingTree, fmt: str, what: str, eq: str, indent: str):
    """The row writer of ``fmt`` for labels of ``tree``; ``eq`` is the LaTeX
    relation and ``indent`` the JSON depth of a row, which the other
    formats ignore."""
    if fmt not in _ROW_WRITERS:
        raise ValueError(f"unknown {what} {fmt!r}")
    return _ROW_WRITERS[fmt](tree, eq, indent)


# --------------------------------------------------------------------------
# Tables


def emit_table(tree: CouplingTree, fmt: str, out: TextIO) -> None:
    """All coupled states of a tree, one row per multiplet member, written
    to the text stream ``out`` row by row as the engine yields each state.

    An unknown format and a tree of one particle raise ValueError before
    anything is written. An engine check that fails mid-stream (a state
    out of range or not of norm 1) raises ValueError after some rows: the
    CLI then still exits 1 with one ``error:`` line on stderr, after a
    partial table on stdout.
    """
    row = _row_writer(tree, fmt, "table format", "&=&", "    ")
    forms = coupled_forms(tree)
    if fmt == "json":
        head = '{\n  "tree": ' + encode_basestring_ascii(tree.spec()) + ',\n  "rows": [\n    '
        sep, tail = ",\n    ", "\n  ]\n}\n"
    elif fmt == "latex":
        head, sep, tail = r"\begin{eqnarray}" + "\n", r"\\" + "\n", "\n" + r"\end{eqnarray}" + "\n"
    else:
        head, sep, tail = f"# coupled basis of tree {tree.spec()}\n", "\n", "\n"
    rows = (row(intermediates + (two_m,), (p, q), ints)
            for intermediates, two_m, p, q, ints in forms)
    write = out.write
    write(head + next(rows))
    for text in rows:
        write(sep)
        write(text)
    write(tail)


def emit_state_row(label: CoupledLabel, fmt: str = "text") -> bytes:
    """One expanded coupled state in any of the table formats."""
    row = _row_writer(label.tree, fmt, "format", "=", "")
    amplitudes = expand(label).amplitudes
    r = amplitudes.radicand
    twos = tuple(spin.two_j for spin in label.intermediates) + (label.total_m.two_m,)
    return (row(twos, (r.numerator, r.denominator), amplitudes.ints) + "\n").encode("utf-8")


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
    the exact integer check of ``operators.check_forms`` on the integer
    forms that ``coupled_forms`` streams: the residual of a correct state
    is exactly 0.0, so it passes at any tolerance, ``tol = 0`` included.
    Only each state's doubled label values are held for the report.
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
    forms = coupled_forms(tree)
    labels: list[tuple[int, ...]] = []  # each state's doubled values, spins then 2m

    def labelled():
        for form in forms:
            labels.append(form[0] + (form[1],))
            yield form
    residuals = check_forms(tree, labelled()).tolist()
    names = tree.node_names() + ("m",)
    half = _Pieces(_half_text)
    # A check depends on the label only through the spin (or m) that its
    # member reads, so each distinct check is built once.
    checks: dict[tuple, dict] = {}
    results = []
    for twos, row in zip(labels, residuals):
        row_checks = []
        for k, (member, two, residual) in enumerate(zip(members, twos, row)):
            key = (k, two, residual)
            check = checks.get(key)
            if check is None:
                check = checks[key] = {
                    "operator": member.name,
                    "eigenvalue": member.eigenvalue_at(two),
                    "residual": residual,
                    "pass": residual <= tol,
                }
            row_checks.append(check)
        results.append({"label": dict(zip(names, map(half.__getitem__, twos))),
                        "checks": row_checks})
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

    It writes every JSON document except the table and ``expand`` rows,
    whose writer follows its layout; ``json`` is its oracle in ``tests/``.
    Strings go through ``encode_basestring_ascii``, floats through
    ``float.__repr__``, and a dict met several times at one depth (the
    shared checks of ``verify``) is formatted once per call.
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
