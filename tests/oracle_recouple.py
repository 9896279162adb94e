"""Label-by-label recoupling: the test oracle for ``coupling.recouple``.

This is the loop that ``multiplets.coupling.recouple`` ran before it
enumerated only the source's (S, m) sector of the target and shared one
subtree memo over it: every target label from ``enumerate_multiplets``,
filtered on S and m, each expanded on its own by ``expand`` and projected
with the same float ``vdot`` and the same 1e-12 drop rule. It lives here,
not in ``src/``, because the package has one recoupling loop;
``tests/test_recouple_oracle.py`` requires equal dicts from both.
"""

from __future__ import annotations

import numpy as np

from multiplets.coupling import CoupledLabel, CouplingTree, enumerate_multiplets, expand


def recouple(label: CoupledLabel, target: CouplingTree) -> dict[CoupledLabel, float]:
    if set(label.tree.particles()) != set(target.particles()):
        raise ValueError("trees must couple the same particles")
    source = expand(label).to_array()
    out: dict[CoupledLabel, float] = {}
    for target_label in enumerate_multiplets(target):
        if (target_label.total_spin != label.total_spin
                or target_label.total_m != label.total_m):
            continue
        coeff = float(np.real(np.vdot(expand(target_label).to_array(), source)))
        if abs(coeff) > 1e-12:
            out[target_label] = coeff
    return out
