"""The float ``verify`` loop: the test oracle for ``multiplets.report.run_verify``.

This is the loop that ``run_verify`` ran before its check became exact
and sector-batched: every state is made a dense float array with
``StateVector.to_array``, and each member of ``commuting_set`` is applied
to it with ``verify_eigenstate``, one mat-vec per (state, member). It
shares with the exact check only the tree, the labels and the member
list, so ``tests/test_verify_oracle.py`` can check one against the other.
It takes an optional basis, so that the oracle can also judge mutated
states, and it has no particle cap.
"""

from __future__ import annotations

from typing import Sequence

from multiplets.coupling import CoupledLabel, CouplingTree, StateVector, full_basis
from multiplets.operators import commuting_set, verify_eigenstate


def run_verify(tree: CouplingTree, tol: float = 1e-12,
               basis: Sequence[tuple[CoupledLabel, StateVector]] | None = None) -> dict:
    """The report of ``multiplets.report.run_verify``, with float residuals."""
    members = commuting_set(tree)
    results = []
    all_ok = True
    for label, exact in full_basis(tree) if basis is None else basis:
        state = exact.to_array()
        checks = []
        for member in members:
            expected = member.eigenvalue_of(label)
            ok, residual = verify_eigenstate(member.operator, state, expected, tol)
            all_ok = all_ok and ok
            checks.append({
                "operator": member.name,
                "eigenvalue": expected,
                "residual": residual,
                "pass": ok,
            })
        results.append({"label": label.quantum_numbers(), "checks": checks})
    return {"tree": tree.spec(), "tol": tol, "pass": all_ok, "results": results}
