"""Exact coupled-spin multiplet bases for qubits, with entanglement diagnostics.

Builds the simultaneous eigenbasis of the commuting spin operators of any
binary coupling order over n spin-1/2 particles, with every amplitude an
exact signed square root of a rational, and evaluates the measures that
tell GHZ, W and Dicke-type states apart.
"""

from .coupling import (
    CoupledLabel,
    CouplingTree,
    Leaf,
    Node,
    Spin,
    SpinProjection,
    StateVector,
    all_coupling_trees,
    cg,
    config_from_string,
    config_to_string,
    dense_index,
    enumerate_multiplets,
    expand,
    full_basis,
    recouple,
    triangle_ok,
)
from .exactnum import NotClosedError, SignedRadical
from .measures import (
    DensityMatrix,
    MeasurementBasis,
    MeasurementBranch,
    PairReport,
    ThreeQubitClass,
    classify_three_qubit,
    concurrence,
    is_pair_connectable,
    maximal_connectedness,
    measure_branches,
    meyer_wallach_q,
    partial_trace,
    persistency,
    three_tangle,
)
from .operators import LabeledOperator, commuting_set, verify_eigenstate
from .registry import available_states, named_state
from .report import emit_table, run_measures, run_verify
from .statefile import StateFileError, emit_state_file, parse_state_file

__version__ = "0.1.0"
