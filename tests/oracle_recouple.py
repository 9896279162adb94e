"""Label-by-label recoupling: the test oracles for ``coupling.recouple``.

``recouple`` enumerates only the source's (S, m) sector of the target,
shares one subtree memo over it and takes each coefficient from the
integer form. Both oracles here take every target label from
``enumerate_multiplets``, filtered on S and m, each expanded on its own by
``expand``:

- ``recouple`` is the float loop that the package ran before: dense
  ``to_array`` vectors, a float ``vdot`` and a 1e-12 drop rule. Its
  values may differ from the exact ones in the last bits;
- ``recouple_exact`` sums the ``SignedRadical`` products over the shared
  masks with ``exact_sums.radical_sum`` and rounds the sum once, through
  ``to_float``; a zero sum drops the label.

They live here, not in ``src/``, because the package has one recoupling
loop. ``tests/test_recouple_oracle.py`` requires bit-equal floats from
``recouple_exact``, and the labels of ``recouple`` in its order.
"""

from __future__ import annotations

import numpy as np

from exact_sums import radical_sum
from multiplets.coupling import CoupledLabel, CouplingTree, enumerate_multiplets, expand


def _sector(label: CoupledLabel, target: CouplingTree):
    if set(label.tree.particles()) != set(target.particles()):
        raise ValueError("trees must couple the same particles")
    for target_label in enumerate_multiplets(target):
        if (target_label.total_spin == label.total_spin
                and target_label.total_m == label.total_m):
            yield target_label


def recouple(label: CoupledLabel, target: CouplingTree) -> dict[CoupledLabel, float]:
    source = expand(label).to_array()
    out: dict[CoupledLabel, float] = {}
    for target_label in _sector(label, target):
        coeff = float(np.real(np.vdot(expand(target_label).to_array(), source)))
        if abs(coeff) > 1e-12:
            out[target_label] = coeff
    return out


def recouple_exact(label: CoupledLabel, target: CouplingTree) -> dict[CoupledLabel, float]:
    source = expand(label).amplitudes
    out: dict[CoupledLabel, float] = {}
    for target_label in _sector(label, target):
        state = expand(target_label).amplitudes
        coeff = radical_sum(source[mask] * state[mask] for mask in source.keys() & state.keys())
        if coeff:
            out[target_label] = coeff.to_float()
    return out
