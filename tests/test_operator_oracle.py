"""The members of ``multiplets.operators.commuting_set`` against the oracle.

``tests/oracle_operators.py`` builds every member of a tree's commuting
set from scipy Kronecker products; ``tests/oracle_verify.py`` applies the
package's members, read from their particle sets, as a constant or a
diagonal plus particle exchanges. For every tree with
n <= 4, 20 sampled n = 5 trees and the sequential and balanced n = 8
trees, both must list the same members, with the same names and the same
eigenvalues, and give the same product on random real and complex
vectors and on every coupled state of the tree, to 1e-12 abs.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multiplets.coupling import CouplingTree, all_coupling_trees, full_basis
from multiplets.operators import commuting_set

import oracle_operators
from oracle_verify import ExchangeOperator

TREES = (
    [t for n in (2, 3, 4) for t in all_coupling_trees(range(1, n + 1))]
    + random.Random(5).sample(all_coupling_trees(range(1, 6)), 20)
    + [CouplingTree.parse("(((((((1 2) 3) 4) 5) 6) 7) 8)"),
       CouplingTree.parse("(((1 2) (3 4)) ((5 6) (7 8)))")]
)


def _random_vectors(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    vectors = [rng.standard_normal(dim) for _ in range(3)]
    vectors += [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(3)]
    return [v / np.linalg.norm(v) for v in vectors]


@pytest.mark.parametrize("tree", TREES, ids=CouplingTree.spec)
def test_members_match_the_oracle(tree):
    members = commuting_set(tree)
    oracle = oracle_operators.commuting_set(tree)
    assert [m.name for m in members] == [m.name for m in oracle]
    basis = full_basis(tree)
    for label, _ in basis:
        assert ([m.eigenvalue_of(label) for m in members]
                == [m.eigenvalue_of(label) for m in oracle])
    vectors = _random_vectors(np.random.default_rng(tree.n), 1 << tree.n)
    vectors += [state.to_array() for _, state in basis]
    for member, reference in zip(members, oracle):
        for vector in vectors:
            np.testing.assert_allclose(ExchangeOperator.of(tree, member).apply(vector),
                                       reference.operator.apply(vector),
                                       rtol=0, atol=1e-12, err_msg=member.name)


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency: only the oracle above may import it.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import multiplets.cli, sys; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
