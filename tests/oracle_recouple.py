"""Label-by-label recoupling: the test oracles for ``coupling.recouple``.

``recouple`` takes the source and the target's S sector at the stretched
member m = S, shares one subtree memo over the sector, reads each target
straight from the engine and takes each coefficient from the integer
forms. The oracles here work at the label's own m:

- ``recouple_at_m`` is the loop that the package ran before: the source
  through ``expand`` and each target label of the (S, m) sector through
  ``coupling._expansion`` with a shared memo, as a ``StateVector``, with
  the same integer dot product and rounding. ``recouple`` must give it
  bit-equal floats, the same labels and the same order;
- ``recouple`` is the float loop that the package ran before that: every
  target label from ``enumerate_multiplets``, filtered on S and m, each
  expanded on its own by ``expand``, dense ``to_array`` vectors, a float
  ``vdot`` and a 1e-12 drop rule. Its values may differ from the exact
  ones in the last bits;
- ``recouple_exact`` walks the same labels, sums the ``SignedRadical``
  products over the shared masks with ``exact_sums.radical_sum`` and
  rounds the sum once, through ``to_float``; a zero sum drops the label.

Since the last two expand each label at its own m, agreeing with them at
every m checks that the coefficients do not depend on m. They live here,
not in ``src/``, because the package has one recoupling loop.
``tests/test_recouple_oracle.py`` requires bit-equal floats from
``recouple_at_m`` and ``recouple_exact``, and the labels of ``recouple``
in its order.
"""

from __future__ import annotations

import numpy as np

from exact_sums import radical_sum
from multiplets.coupling import (
    CoupledLabel,
    CouplingTree,
    Spin,
    _assignments,
    _expansion,
    enumerate_multiplets,
    expand,
)
from multiplets.exactnum import radical_float


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


def recouple_at_m(label: CoupledLabel, target: CouplingTree) -> dict[CoupledLabel, float]:
    if set(label.tree.particles()) != set(target.particles()):
        raise ValueError("trees must couple the same particles")
    source = expand(label).amplitudes
    memo: dict[tuple, dict] = {}
    out: dict[CoupledLabel, float] = {}
    for _, intermediates in _assignments(target, label.total_spin.two_j):
        target_label = CoupledLabel(target, tuple(map(Spin, intermediates)), label.total_m)
        state = _expansion(target_label, memo).amplitudes
        small, large = sorted((source.ints, state.ints), key=len)
        dot = sum(k * large[mask] for mask, k in small.items() if mask in large)
        if dot:
            r = source.radicand * state.radicand
            out[target_label] = radical_float(r.numerator, r.denominator, dot)
    return out
