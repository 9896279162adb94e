"""Command line interface.

Subcommands
    table TREE [--format text|json|latex]     coupled-basis table of a tree
    verify TREE [--tol X]                     eigenstate verification report
    measure NAME | --file PATH [--z-branches] entanglement report
    expand TREE --label Q[,Q...] [--format]   one coupled state
    recouple SRC DST --label Q[,Q...]         change of coupling order

Tree specs use nested parentheses over particle indices, for example
"((1 2) (3 4))". Labels list the intermediate spins in postorder (the
last spin is the total S) followed by m, e.g. --label 1,1,2,0.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .coupling import CoupledLabel, CouplingTree, Spin, SpinProjection, recouple
from .registry import available_states, named_state
from .report import (
    emit_json,
    emit_recoupling,
    emit_state_row,
    emit_table,
    run_measures,
    run_verify,
)
from .statefile import parse_state_file

__all__ = ["main"]


def _parse_label(tree: CouplingTree, text: str) -> CoupledLabel:
    # argparse before Python 3.13 drops the "--" of "--label=--" and hands
    # back an empty list instead of the text.
    if not isinstance(text, str):
        raise ValueError("label must be text, got a bare '--'")
    values = [part.strip() for part in text.replace(",", " ").split()]
    names = list(tree.node_names()) + ["m"]
    if len(values) != len(names):
        raise ValueError(
            f"label needs {len(names)} values ({', '.join(names)}), got {len(values)}"
        )
    intermediates = tuple(Spin.of(v) for v in values[:-1])
    return CoupledLabel(tree, intermediates, SpinProjection.of(values[-1]))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiplets",
        description="Exact coupled-spin multiplet bases and entanglement reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit the coupled-basis table of a tree")
    p_table.add_argument("tree")
    p_table.add_argument("--format", default="text", choices=("text", "json", "latex"))

    p_verify = sub.add_parser("verify", help="verify every state of a tree")
    p_verify.add_argument("tree")
    p_verify.add_argument("--tol", type=float, default=1e-12)

    p_measure = sub.add_parser("measure", help="entanglement report for a state")
    p_measure.add_argument("name", nargs="?", default=None,
                           help=f"one of: {', '.join(available_states())}")
    p_measure.add_argument("--file", default=None, help="state-file path")
    p_measure.add_argument("--z-branches", action="store_true",
                           help="classify 3-qubit branches of Z measurements")

    p_expand = sub.add_parser("expand", help="expand one coupled state")
    p_expand.add_argument("tree")
    p_expand.add_argument("--label", required=True)
    p_expand.add_argument("--format", default="text", choices=("text", "json", "latex"))

    p_recouple = sub.add_parser("recouple", help="re-express a state in another tree")
    p_recouple.add_argument("source_tree")
    p_recouple.add_argument("target_tree")
    p_recouple.add_argument("--label", required=True)

    return parser


def _run(args: argparse.Namespace, out) -> int:
    if args.command == "table":
        tree = CouplingTree.parse(args.tree)
        emit_table(tree, args.format, out)
        return 0

    if args.command == "verify":
        tree = CouplingTree.parse(args.tree)
        report = run_verify(tree, args.tol)
        out.write(emit_json(report).decode("ascii"))
        return 0 if report["pass"] else 1

    if args.command == "measure":
        if (args.name is None) == (args.file is None):
            raise ValueError("give exactly one of a state name or --file")
        if args.file is not None:
            with open(args.file, "rb") as fh:
                state = parse_state_file(fh.read())
            name = args.file
        else:
            state = named_state(args.name)
            name = args.name
        report = run_measures(state, name=name, z_branches=args.z_branches)
        out.write(emit_json(report).decode("ascii"))
        return 0

    if args.command == "expand":
        tree = CouplingTree.parse(args.tree)
        label = _parse_label(tree, args.label)
        out.write(emit_state_row(label, args.format).decode("utf-8"))
        return 0

    if args.command == "recouple":
        source = CouplingTree.parse(args.source_tree)
        target = CouplingTree.parse(args.target_tree)
        label = _parse_label(source, args.label)
        out.write(emit_recoupling(recouple(label, target)).decode("utf-8"))
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
