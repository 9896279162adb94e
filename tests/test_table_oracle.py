"""The row writers of ``emit_table`` and ``emit_state_row`` against their
oracle, ``tests/oracle_table.py``, which builds rows from term tuples and
row dicts.

Both must give the same bytes in every format: for every tree with
n <= 5 and the sequential and balanced n = 8 trees (whole tables), and
for every label of the trees with n <= 4 (single rows). Every JSON table
must also be what ``json.dumps(..., indent=2)`` writes for its parsed
value, and an unknown format is a ``ValueError`` that names it.
"""

import io
import json

import pytest

from multiplets.coupling import all_coupling_trees, enumerate_multiplets
from multiplets.report import emit_state_row, emit_table

import oracle_table
from test_recouple_oracle import _balanced, _sequential

FORMATS = ("text", "latex", "json")
SMALL_TREES = [tree for n in range(2, 6) for tree in all_coupling_trees(range(1, n + 1))]
TREES = SMALL_TREES + [_sequential(8), _balanced(8)]
ROW_TREES = [tree for tree in SMALL_TREES if tree.n <= 4]


def test_tree_counts():
    assert len(SMALL_TREES) == 124
    assert sum(len(enumerate_multiplets(tree)) for tree in ROW_TREES) == 4 + 3 * 8 + 15 * 16


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("tree", TREES, ids=str)
def test_table_matches_oracle(tree, fmt):
    out = oracle_table.streamed_table(tree, fmt)
    assert out == oracle_table.emit_table(tree, fmt)
    if fmt == "json":
        assert out.decode("ascii") == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("tree", ROW_TREES, ids=str)
def test_state_rows_match_oracle(tree, fmt):
    for label in enumerate_multiplets(tree):
        assert emit_state_row(label, fmt) == oracle_table.emit_state_row(label, fmt)


def test_unknown_format_is_named():
    tree = ROW_TREES[0]
    out = io.StringIO()
    with pytest.raises(ValueError, match="unknown table format 'csv'"):
        emit_table(tree, "csv", out)
    assert out.getvalue() == ""
    with pytest.raises(ValueError, match="unknown format 'csv'"):
        emit_state_row(enumerate_multiplets(tree)[0], "csv")
