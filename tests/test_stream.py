"""The engine's stream, ``coupling.coupled_forms``, and what reads it.

``table`` writes each row as its state arrives. The streamed table must
be byte-equal to the list path of ``tests/oracle_table.py`` in all three
formats: every tree with n <= 5 is in ``tests/test_table_oracle.py``,
and random trees with n = 6..10 are here. The memo drops a leftmost-chain
entry once the walk has left its prefix: on the sequential n = 10 tree at
most one such entry per chain position is live at any time, counted
entry by entry. Bad input is refused before the first byte, and an
engine check that fails mid-stream still ends in one ``error:`` line and
exit 1.
"""

import io
from collections import Counter

import pytest

from multiplets import coupling
from multiplets.cli import main
from multiplets.coupling import CouplingTree, coupled_forms, enumerate_multiplets
from multiplets.report import emit_table

import oracle_table
from test_coupling import _shuffled_spec
from test_recouple_oracle import _balanced, _sequential

RANDOM_TREES = [CouplingTree.parse(_shuffled_spec(n, f"stream:{n}:{k}"))
                for n in range(6, 11) for k in range(2 if n <= 8 else 1)]


@pytest.mark.parametrize("fmt", ("text", "latex", "json"))
@pytest.mark.parametrize("tree", RANDOM_TREES, ids=str)
def test_streamed_table_matches_the_list_path(tree, fmt):
    assert oracle_table.streamed_table(tree, fmt) == oracle_table.emit_table(tree, fmt)


@pytest.mark.parametrize("tree", [_sequential(6), _balanced(7), RANDOM_TREES[0]], ids=str)
def test_forms_follow_the_labels(tree):
    labels = enumerate_multiplets(tree)
    forms = list(coupled_forms(tree))
    assert [(tuple(s.two_j for s in label.intermediates), label.total_m.two_m)
            for label in labels] == [form[:2] for form in forms]


def _chain(tree: CouplingTree) -> set[int]:
    """The internal positions below the root whose subtree holds the
    first internal node: the leftmost chain."""
    n = tree.n
    return {pos for pos, (_, _, first) in enumerate(tree._postorder[1][:-1], n) if first == n}


def test_the_memo_holds_one_entry_per_chain_position():
    tree = _sequential(10)
    chain = _chain(tree)
    assert len(chain) == 8  # every internal node but the root
    memo: dict = {}
    seen: set = set()
    states = 0
    for _ in coupling._coupled_forms(tree, memo):
        live = Counter(pos for pos, _ in memo)
        assert set(live) <= chain and max(live.values()) == 1
        seen.update(memo)
        states += 1
    assert states == 1 << 10
    # Far more entries were made than are ever live at once.
    assert len(seen) > 10 * len(chain)


def test_entries_off_the_chain_stay():
    # The balanced tree's right subtrees recur under every left
    # assignment, so their entries live for the whole call.
    tree = _balanced(8)
    chain = _chain(tree)
    memo: dict = {}
    made: set = set()
    for _ in coupling._coupled_forms(tree, memo):
        live = Counter(pos for pos, _ in memo if pos in chain)
        assert max(live.values(), default=0) <= 1
        made.update(key for key in memo if key[0] not in chain)
    assert made and made <= set(memo)


def test_a_single_particle_is_refused_before_the_first_byte():
    tree = CouplingTree.parse("1")
    with pytest.raises(ValueError, match="at least two particles"):
        coupled_forms(tree)
    for fmt in ("text", "latex", "json"):
        out = io.StringIO()
        with pytest.raises(ValueError, match="at least two particles"):
            emit_table(tree, fmt, out)
        assert out.getvalue() == ""


@pytest.mark.parametrize("command", ["table", "verify"])
def test_a_failure_mid_stream_is_one_error_line(monkeypatch, capsys, command):
    # The fifth state of the tree is doubled: it has norm^2 = 4.
    spec = "(((1 2) 3) 4)"
    expand_node = coupling._expand_node
    roots = []

    def corrupted(pos, postorder, spins, two_m, memo):
        p, q, ints = expand_node(pos, postorder, spins, two_m, memo)
        if pos == len(spins) - 1:
            roots.append(pos)
            if len(roots) == 5:
                return p, q, {mask: 2 * k for mask, k in ints.items()}
        return p, q, ints

    monkeypatch.setattr(coupling, "_expand_node", corrupted)
    assert main([command, spec]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: exact state has norm^2 = 4,") and err.count("\n") == 1
    if command == "table":
        # The header and the four rows before the failing state.
        lines = out.split("\n")
        assert lines[0] == f"# coupled basis of tree {spec}" and len(lines) == 5
    else:
        assert out == ""
