"""Registry of named states used throughout the verification suites.

Every entry is exact, in the expansion engine's integer form. Coupled-basis
members are built by expanding the corresponding multiplet label so the
registry can never drift from the coupling engine; the GHZ states are
direct superpositions, sqrt(1/2) times the integers 1 and 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .coupling import (
    CoupledLabel,
    CouplingTree,
    IntegerAmplitudes,
    Spin,
    SpinProjection,
    StateVector,
    expand,
)

__all__ = ["named_state", "available_states", "NAMED_STATE_BUILDERS"]

PAIR_CHAIN = "(1 2)"
TRIPLE_CHAIN = "((1 2) 3)"
PAIR_PAIR = "((1 2) (3 4))"
SEQUENTIAL = "(((1 2) 3) 4)"


def coupled_state(tree_spec: str, intermediates: tuple, m) -> StateVector:
    """Expand the multiplet member with the given quantum numbers."""
    tree = CouplingTree.parse(tree_spec)
    label = CoupledLabel(
        tree,
        tuple(Spin.of(value) for value in intermediates),
        SpinProjection.of(m),
    )
    return expand(label)


def _ghz(n: int) -> StateVector:
    # All up, then all down.
    return StateVector(n, IntegerAmplitudes(Fraction(1, 2), {(1 << n) - 1: 1, 0: 1}), True)


NAMED_STATE_BUILDERS: dict[str, Callable[[], StateVector]] = {
    # Two qubits: the S=0 and S=1, m=0 coupled pair states.
    "singlet": lambda: coupled_state(PAIR_CHAIN, (0,), 0),
    "triplet0": lambda: coupled_state(PAIR_CHAIN, (1,), 0),
    # Three qubits.
    "ghz3": lambda: _ghz(3),
    "w3": lambda: coupled_state(TRIPLE_CHAIN, (1, "3/2"), "1/2"),
    # Four qubits, pair-pair coupling.
    "w4": lambda: coupled_state(PAIR_PAIR, (1, 1, 2), 1),
    "dicke42": lambda: coupled_state(PAIR_PAIR, (1, 1, 2), 0),
    "w4bar": lambda: coupled_state(PAIR_PAIR, (1, 1, 2), -1),
    "ghz4": lambda: coupled_state(PAIR_PAIR, (1, 1, 1), 0),
    # Four qubits, sequential coupling: the S=1, m=0 member.
    "seq_s1m0": lambda: coupled_state(SEQUENTIAL, (1, "3/2", 1), 0),
}


def available_states() -> tuple[str, ...]:
    return tuple(NAMED_STATE_BUILDERS)


def named_state(name: str) -> StateVector:
    try:
        builder = NAMED_STATE_BUILDERS[name]
    except KeyError:
        known = ", ".join(available_states())
        raise ValueError(f"unknown state {name!r}; known states: {known}") from None
    return builder()
