"""Table and ``expand`` rows through row dicts: the test oracle for the
row writers of ``multiplets.report``.

This is the path that ``report`` ran before it wrote rows through per-call
string templates: each amplitude is a ``SignedRadical`` built from its
(r, k), as ``IntegerAmplitudes`` builds it, and formatted through its
``str`` and ``to_json_dict``, each row is built from a list of (ket,
amplitude) term tuples, each label value is parsed back through
``Fraction`` for LaTeX, and a JSON row is a dict of fresh ``{"config",
"amp"}`` dicts, laid out by ``emit_json``. It lives here, not in
``src/``, because the package has one row writer per format;
``tests/test_table_oracle.py`` requires equal bytes from both.
"""

from __future__ import annotations

import functools
import io
import math
from fractions import Fraction

from multiplets.coupling import (
    CoupledLabel,
    CouplingTree,
    config_to_string,
    expand,
    full_basis,
)
from multiplets.exactnum import SignedRadical
from multiplets.report import _ket_latex, _name_latex, emit_json
from multiplets.report import emit_table as emit_table_to


def streamed_table(tree: CouplingTree, fmt: str) -> bytes:
    """The package's table of ``tree``, streamed to a text buffer, as
    bytes: what ``emit_table`` below returns."""
    out = io.StringIO()
    emit_table_to(tree, fmt, out)
    return out.getvalue().encode("utf-8")


def _amp_text(amp: SignedRadical) -> str:
    return ("+" if amp.sign > 0 else "") + str(amp)


def _frac_latex(value) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return rf"\tfrac{{{value.numerator}}}{{{value.denominator}}}"


def _is_rational(amp: SignedRadical) -> bool:
    p, q = amp.radicand.numerator, amp.radicand.denominator
    return math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q


def _amp_latex(amp: SignedRadical) -> str:
    if amp.sign == 0:
        return "0"
    sign = "-" if amp.sign < 0 else "+"
    if _is_rational(amp):
        return sign + _frac_latex(abs(amp.as_rational()))
    return sign + rf"\sqrt{{{_frac_latex(amp.radicand)}}}"


def _label_latex(label: CoupledLabel) -> str:
    parts = []
    for name, value in label.quantum_numbers().items():
        frac = _frac_latex(Fraction(value))
        parts.append(_name_latex(name) + r"{=}" + frac)
    sep = r",\;"
    return r"\left|" + sep.join(parts) + r"\right\rangle"


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
    """The rows of (label, expanded state) pairs in ``fmt``; ``eq`` is the
    LaTeX relation, which the other formats ignore. Terms come by
    descending configuration."""
    if fmt not in _TERM_FORMATS:
        raise ValueError(f"unknown {what} {fmt!r}")
    amp_fn, ket_fn, row_fn = _TERM_FORMATS[fmt]
    amps = functools.cache(lambda r: functools.cache(
        lambda k: amp_fn(SignedRadical(1 if k > 0 else -1, r * (k * k)))))
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
