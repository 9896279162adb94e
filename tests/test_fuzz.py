"""Fuzzing of the tree-spec parser and of ``--label`` with ``hypothesis``.

``CouplingTree.parse`` may raise only ``ValueError`` subclasses, and the
``expand`` command must end with exit 0 or 1, never with a traceback,
whatever text it gets.
"""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from multiplets.cli import main
from multiplets.coupling import CouplingTree, all_coupling_trees

# Text that often looks like a tree spec or a label, plus arbitrary text.
_tree_like = st.text(alphabet="()0123456789 ", max_size=40)
_label_like = st.text(alphabet="0123456789/,-+. ", max_size=24)
_any_text = st.text(max_size=40)

_valid_specs = st.sampled_from(
    [t.spec() for n in range(1, 5) for t in all_coupling_trees(range(1, n + 1))])


@settings(max_examples=500, deadline=None)
@given(st.one_of(_tree_like, _any_text))
def test_parse_raises_only_value_errors(spec):
    try:
        tree = CouplingTree.parse(spec)
    except ValueError:
        return
    assert CouplingTree.parse(tree.spec()) == tree


def _expand_exit_code(tree: str, label: str) -> int:
    # "--label=..." and "--" keep argparse from reading either text as an option.
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["expand", f"--label={label}", "--", tree])
    if code == 1:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    return code


@settings(max_examples=300, deadline=None)
@given(st.one_of(_tree_like, _any_text, _valid_specs),
       st.one_of(_label_like, _any_text))
@example("1", "--")
def test_expand_exits_zero_or_one(tree, label):
    assert _expand_exit_code(tree, label) in (0, 1)


@settings(max_examples=300, deadline=None)
@given(_valid_specs, st.lists(
    st.sampled_from(["0", "1/2", "1", "3/2", "2", "-1/2", "-1", "5/2", "1/3", "x", ""]),
    max_size=5))
def test_expand_on_valid_trees_with_near_valid_labels(tree, values):
    assert _expand_exit_code(tree, ",".join(values)) in (0, 1)
