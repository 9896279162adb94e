"""Curated transcription of the source multiplet tables this project reproduces.

Each row records the source's right-hand side verbatim (as (config, amp)
pairs, so duplicated kets are representable) together with the quantum
numbers the row belongs to. Where the source disagrees with the
Clebsch-Gordan recursion, ``expected`` carries the recursion's ground
truth and ``note`` documents the deviation; rows without a note are
faithful, and the comparison tests treat ``expected = printed`` for them.

Row ids: q2-N (two qubits), q3-N (three qubits), pp-N (four qubits,
pair-pair coupling) and sq-N (four qubits, sequential coupling), numbered
in the source's print order. Amplitudes are strings like "+sqrt(1/6)",
"-1/2", "1".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from multiplets.exactnum import SignedRadical


def rad(text: str) -> SignedRadical:
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    elif text.startswith("+"):
        text = text[1:]
    if text.startswith("sqrt(") and text.endswith(")"):
        return SignedRadical.sqrt(Fraction(text[5:-1]), sign)
    return SignedRadical.sqrt(Fraction(text) ** 2, sign)


@dataclass(frozen=True)
class ReferenceRow:
    row_id: str
    label: tuple                                  # intermediates..., m
    printed: tuple[tuple[str, str], ...]          # (config, amp) as printed
    expected: tuple[tuple[str, str], ...] | None = None  # recursion truth
    note: str | None = None
    printed_label: tuple | None = None            # only when the print differs

    def truth(self) -> dict[str, SignedRadical]:
        terms = self.expected if self.expected is not None else self.printed
        out: dict[str, SignedRadical] = {}
        for config, amp in terms:
            assert config not in out, f"duplicate config in expected terms of {self.row_id}"
            out[config] = rad(amp)
        return out

    def deviates(self) -> bool:
        return self.expected is not None or self.printed_label is not None


TWO_QUBIT_TREE = "(1 2)"
TWO_QUBIT_ROWS = (
    ReferenceRow("q2-1", (1, 1), (("uu", "1"),)),
    ReferenceRow("q2-2", (1, 0), (("ud", "+sqrt(1/2)"), ("du", "+sqrt(1/2)"))),
    ReferenceRow("q2-3", (1, -1), (("dd", "1"),)),
    ReferenceRow("q2-4", (0, 0), (("ud", "+sqrt(1/2)"), ("du", "-sqrt(1/2)"))),
)

THREE_QUBIT_TREE = "((1 2) 3)"
THREE_QUBIT_ROWS = (
    ReferenceRow("q3-1", (1, "3/2", "3/2"), (("uuu", "1"),)),
    ReferenceRow("q3-2", (1, "3/2", "1/2"),
                 (("udu", "+sqrt(1/3)"), ("duu", "+sqrt(1/3)"), ("uud", "+sqrt(1/3)"))),
    ReferenceRow("q3-3", (1, "3/2", "-1/2"),
                 (("ddu", "+sqrt(1/3)"), ("udd", "+sqrt(1/3)"), ("dud", "+sqrt(1/3)"))),
    ReferenceRow("q3-4", (1, "3/2", "-3/2"), (("ddd", "1"),)),
    ReferenceRow("q3-5", (1, "1/2", "1/2"),
                 (("udu", "-sqrt(1/6)"), ("duu", "-sqrt(1/6)"), ("uud", "+sqrt(2/3)"))),
    ReferenceRow("q3-6", (1, "1/2", "-1/2"),
                 (("udd", "+sqrt(1/6)"), ("dud", "+sqrt(1/6)"), ("ddu", "-sqrt(2/3)"))),
    ReferenceRow("q3-7", (0, "1/2", "1/2"),
                 (("udu", "+sqrt(1/2)"), ("duu", "-sqrt(1/2)"))),
    ReferenceRow("q3-8", (0, "1/2", "-1/2"),
                 (("udd", "+sqrt(1/2)"), ("dud", "-sqrt(1/2)"))),
)

PAIR_PAIR_TREE = "((1 2) (3 4))"
PAIR_PAIR_ROWS = (
    ReferenceRow("pp-1", (1, 1, 2, 2), (("uuuu", "1"),)),
    ReferenceRow("pp-2", (1, 1, 2, 1),
                 (("uduu", "+1/2"), ("duuu", "+1/2"), ("uuud", "+1/2"), ("uudu", "+1/2"))),
    ReferenceRow("pp-3", (1, 1, 2, 0),
                 (("dduu", "+sqrt(1/6)"), ("udud", "+sqrt(1/6)"), ("uddu", "+sqrt(1/6)"),
                  ("duud", "+sqrt(1/6)"), ("dudu", "+sqrt(1/6)"), ("uudd", "+sqrt(1/6)"))),
    ReferenceRow("pp-4", (1, 1, 2, -1),
                 (("ddud", "+1/2"), ("dddu", "+1/2"), ("uddd", "+1/2"), ("dudd", "+1/2"))),
    ReferenceRow("pp-5", (1, 1, 2, -2), (("dddd", "1"),),
                 printed_label=(1, 1, 2, 2),
                 note="the source repeats the m=+2 ket label of row pp-1; "
                      "the content |dddd> forces m=-2"),
    ReferenceRow("pp-6", (1, 1, 1, 1),
                 (("uduu", "+1/2"), ("duuu", "+1/2"), ("uuud", "-1/2"), ("uudu", "-1/2"))),
    ReferenceRow("pp-7", (1, 1, 1, 0),
                 (("dduu", "+sqrt(1/2)"), ("uudd", "-sqrt(1/2)"))),
    ReferenceRow("pp-8", (1, 1, 1, -1),
                 (("ddud", "+1/2"), ("dddu", "+1/2"), ("uddd", "-1/2"), ("dudd", "-1/2"))),
    ReferenceRow("pp-9", (1, 1, 0, 0),
                 (("uudd", "+sqrt(1/3)"), ("dduu", "+sqrt(1/3)"),
                  ("udud", "-sqrt(1/12)"), ("uddu", "-sqrt(1/12)"),
                  ("duud", "-sqrt(1/12)"), ("duud", "-sqrt(1/12)")),
                 expected=(("uudd", "+sqrt(1/3)"), ("dduu", "+sqrt(1/3)"),
                           ("udud", "-sqrt(1/12)"), ("uddu", "-sqrt(1/12)"),
                           ("duud", "-sqrt(1/12)"), ("dudu", "-sqrt(1/12)")),
                 note="the source lists |duud> twice; the second occurrence is "
                      "|dudu> by the recursion (and by normalization)"),
    ReferenceRow("pp-10", (0, 1, 1, 1),
                 (("uduu", "+sqrt(1/2)"), ("duuu", "-sqrt(1/2)"))),
    ReferenceRow("pp-11", (0, 1, 1, 0),
                 (("udud", "+1/2"), ("uddu", "+1/2"), ("duud", "-1/2"), ("dudu", "-1/2"))),
    ReferenceRow("pp-12", (0, 1, 1, -1),
                 (("uddd", "+sqrt(1/2)"), ("dudd", "-sqrt(1/2)"))),
    ReferenceRow("pp-13", (1, 0, 1, 1),
                 (("uuud", "+sqrt(1/2)"), ("uudu", "-sqrt(1/2)"))),
    ReferenceRow("pp-14", (1, 0, 1, 0),
                 (("udud", "+1/2"), ("uddu", "-1/2"), ("duud", "+1/2"), ("dudu", "-1/2"))),
    ReferenceRow("pp-15", (1, 0, 1, -1),
                 (("ddud", "+sqrt(1/2)"), ("dddu", "-sqrt(1/2)"))),
    ReferenceRow("pp-16", (0, 0, 0, 0),
                 (("udud", "+1/2"), ("uddu", "-1/2"), ("duud", "-1/2"), ("dudu", "+1/2"))),
)

SEQUENTIAL_TREE = "(((1 2) 3) 4)"
SEQUENTIAL_ROWS = (
    ReferenceRow("sq-1", (1, "3/2", 2, 2), (("uuuu", "1"),)),
    ReferenceRow("sq-2", (1, "3/2", 2, 1),
                 (("uduu", "+1/2"), ("duuu", "+1/2"), ("uuud", "+1/2"), ("uudu", "+1/2"))),
    ReferenceRow("sq-3", (1, "3/2", 2, 0),
                 (("dduu", "+sqrt(1/6)"), ("udud", "+sqrt(1/6)"), ("uddu", "+sqrt(1/6)"),
                  ("duud", "+sqrt(1/6)"), ("dudu", "+sqrt(1/6)"), ("uudd", "+sqrt(1/6)"))),
    ReferenceRow("sq-4", (1, "3/2", 2, -1),
                 (("ddud", "+1/2"), ("dddu", "+1/2"), ("uddd", "+1/2"), ("dudd", "+1/2"))),
    ReferenceRow("sq-5", (1, "3/2", 2, -2), (("dddd", "1"),)),
    ReferenceRow("sq-6", (1, "3/2", 1, 1),
                 (("uduu", "-sqrt(1/12)"), ("duuu", "-sqrt(1/12)"),
                  ("uudu", "-sqrt(1/12)"), ("uuud", "+sqrt(3/4)"))),
    ReferenceRow("sq-7", (1, "3/2", 1, 0),
                 (("uudd", "+sqrt(1/6)"), ("udud", "+sqrt(1/6)"), ("duud", "+sqrt(1/6)"),
                  ("dduu", "-sqrt(1/6)"), ("uddu", "-sqrt(1/6)"), ("dudu", "-sqrt(1/6)"))),
    ReferenceRow("sq-8", (1, "3/2", 1, -1),
                 (("dddu", "-sqrt(3/4)"), ("ddud", "+sqrt(1/12)"),
                  ("uddd", "+sqrt(1/12)"), ("dudd", "+sqrt(1/12)"))),
    ReferenceRow("sq-9", (1, "1/2", 1, 1),
                 (("uudd", "+sqrt(1/3)"), ("dduu", "+sqrt(1/3)"),
                  ("udud", "-sqrt(1/12)"), ("uddu", "-sqrt(1/12)"),
                  ("duud", "-sqrt(1/12)"), ("duud", "-sqrt(1/12)")),
                 expected=(("uudu", "+sqrt(2/3)"), ("uduu", "-sqrt(1/6)"),
                           ("duuu", "-sqrt(1/6)")),
                 note="the source's right-hand side lists |duud> twice and is "
                      "an m=0 superposition, inconsistent with the m=1 label; "
                      "it reproduces the S=0 row's true content (see sq-12), "
                      "while the recursion gives the state recorded in expected"),
    ReferenceRow("sq-10", (1, "1/2", 1, 0),
                 (("uduu", "+sqrt(1/2)"), ("duuu", "-sqrt(1/2)")),
                 expected=(("uudd", "+sqrt(1/3)"), ("dduu", "-sqrt(1/3)"),
                           ("udud", "-sqrt(1/12)"), ("uddu", "+sqrt(1/12)"),
                           ("duud", "-sqrt(1/12)"), ("dudu", "+sqrt(1/12)")),
                 note="the source's right-hand side is the singlet(12) x |uu> "
                      "state, i.e. the content of the (S12=0, S=1, m=1) row "
                      "sq-13; the recursion gives the expected terms"),
    ReferenceRow("sq-11", (1, "1/2", 1, -1),
                 (("udud", "+1/2"), ("uddu", "+1/2"), ("duud", "-1/2"), ("dudu", "-1/2")),
                 expected=(("uddd", "+sqrt(1/6)"), ("dudd", "+sqrt(1/6)"),
                           ("ddud", "-sqrt(2/3)")),
                 note="the source's right-hand side is the content of the "
                      "(S12=0, S=1, m=0) row sq-14; the recursion gives the "
                      "expected terms"),
    ReferenceRow("sq-12", (1, "1/2", 0, 0),
                 (("uddd", "+sqrt(1/2)"), ("dudd", "-sqrt(1/2)")),
                 expected=(("uudd", "+sqrt(1/3)"), ("dduu", "+sqrt(1/3)"),
                           ("udud", "-sqrt(1/12)"), ("uddu", "-sqrt(1/12)"),
                           ("duud", "-sqrt(1/12)"), ("dudu", "-sqrt(1/12)")),
                 note="the source's right-hand side is the content of the "
                      "(S12=0, S=1, m=-1) row sq-15; the true content of this "
                      "row is what sq-9 prints (with its duplicated ket)"),
    ReferenceRow("sq-13", (0, "1/2", 1, 1),
                 (("uduu", "+sqrt(1/2)"), ("duuu", "-sqrt(1/2)"))),
    ReferenceRow("sq-14", (0, "1/2", 1, 0),
                 (("udud", "+1/2"), ("uddu", "+1/2"), ("duud", "-1/2"), ("dudu", "-1/2"))),
    ReferenceRow("sq-15", (0, "1/2", 1, -1),
                 (("uddd", "+sqrt(1/2)"), ("dudd", "-sqrt(1/2)"))),
    ReferenceRow("sq-16", (0, "1/2", 0, 0),
                 (("udud", "+1/2"), ("uddu", "-1/2"), ("duud", "-1/2"), ("dudu", "+1/2"))),
)

ALL_TABLES = (
    (TWO_QUBIT_TREE, TWO_QUBIT_ROWS),
    (THREE_QUBIT_TREE, THREE_QUBIT_ROWS),
    (PAIR_PAIR_TREE, PAIR_PAIR_ROWS),
    (SEQUENTIAL_TREE, SEQUENTIAL_ROWS),
)

DEVIATING_ROWS = {"pp-5", "pp-9", "sq-9", "sq-10", "sq-11", "sq-12"}
