"""Clebsch-Gordan coefficients and coupled bases over coupling trees.

Angular momenta are tracked as doubled integers (``two_j``, ``two_m``) so
half-integer spins stay exact. Coefficients follow the Condon-Shortley
phase convention and are evaluated with Racah's factorial sum over exact
rationals, so every amplitude is a :class:`~multiplets.exactnum.SignedRadical`.

A ``Leaf`` is a particle index and nothing else, so a tree is made of
qubits by construction: each leaf's doubled spin is 1, and a subtree's
largest doubled spin is its particle count. Labels and expansions index
a tree's nodes by position: the leaves, then the internal nodes in
postorder. One walk of the root, cached per tree as the table
``CouplingTree._postorder``, holds the particles of each position and
(left, right, first) of each internal node, and every reader here and in
``multiplets.operators`` reads it; only a tree's spec, hash and equality
look at its ``Node`` objects again.

Expansion recurses top-down, and a memo keyed by (position, the
subtree's doubled spins) holds each subtree expansion by 2m, except the
root's. The memo lives for one call: one label in ``expand``, every
label of the tree in ``coupled_forms``, the target's S sector at m = S
in ``recouple``. ``coupled_forms`` is the one loop over a tree's basis:
it yields each state's integer form in enumeration order as it is
built, and drops a memo entry of the leftmost chain once the walk has
left that entry's prefix, so it holds one such entry per chain position
and no state. ``table`` and ``verify`` read it; ``full_basis`` is the
list of labels and states over it.

Each coupled state, of a subtree or of the tree, is the only common
eigenvector of integer Casimirs, so it is sqrt(r) times a vector of
coprime integers: the one form that expansions make, (r, {bitmask: k}).
An expanded ``StateVector`` holds it as ``IntegerAmplitudes``, whose
integers ``to_array``, the table rows, ``verify`` and ``recouple`` read;
``recouple`` takes each target's (p, q, ints) straight from the engine.
The radical of an (r, k) is reduced, compared and rounded only by the
int functions of ``multiplets.exactnum``, the same ones that
``SignedRadical`` uses, so there is one rounding of each amplitude.

Two caches live for the process, both keyed by doubled spins alone: the
CG cache (``_cg_doubled``) and the branch plans built from it
(``_branch_plan``, the nonzero CG terms of one (j_left, j_right, j, m)
as int tuples). Everything else that an expansion keeps, the subtree
memo included, lives for one call.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .exactnum import SignedRadical, radical_float, ratio_root

__all__ = [
    "Spin",
    "SpinProjection",
    "triangle_ok",
    "cg",
    "Leaf",
    "Node",
    "CouplingTree",
    "all_coupling_trees",
    "CoupledLabel",
    "IntegerAmplitudes",
    "StateVector",
    "dense_index",
    "config_to_string",
    "config_from_string",
    "enumerate_multiplets",
    "expand",
    "coupled_forms",
    "full_basis",
    "recouple",
]


# Text a spin-like value may be given as: an integer, p/q with a nonzero q,
# or a short decimal. ``Fraction`` alone would also take exponents, which it
# expands exactly, so "1e10000000" would cost time and memory without bound.
_SPIN_TEXT = re.compile(r"\s*[+-]?(\d{1,9}(/(?=0*[1-9])\d{1,9}|\.\d{0,9})?|\.\d{1,9})\s*")


def _two_of(value) -> int:
    """Doubled integer for a spin-like value given as int, Fraction or str."""
    if isinstance(value, str) and not _SPIN_TEXT.fullmatch(value):
        raise ValueError(f"{value!r} is not an integer, p/q or short decimal")
    doubled = 2 * Fraction(value)
    if doubled.denominator != 1:
        raise ValueError(f"{value!r} is not a half-integer")
    return int(doubled)


def _half_text(two: int) -> str:
    """The doubled value ``two`` halved, as ``str(Fraction(two, 2))`` writes
    it ("1", "-3/2"), without building a ``Fraction``."""
    return f"{two}/2" if two % 2 else str(two // 2)


@dataclass(frozen=True, order=True)
class Spin:
    """A spin quantum number j, stored as two_j = 2j."""

    two_j: int

    def __post_init__(self) -> None:
        if self.two_j < 0:
            raise ValueError(f"two_j must be >= 0, got {self.two_j}")

    @classmethod
    def of(cls, value) -> "Spin":
        return cls(_two_of(value))

    def casimir_eigenvalue(self) -> Fraction:
        """j(j+1), the squared-spin eigenvalue with hbar = 1."""
        return Fraction(self.two_j * (self.two_j + 2), 4)

    def __str__(self) -> str:
        return _half_text(self.two_j)


@dataclass(frozen=True, order=True)
class SpinProjection:
    """A magnetic quantum number m, stored as two_m = 2m."""

    two_m: int

    @classmethod
    def of(cls, value) -> "SpinProjection":
        return cls(_two_of(value))

    @property
    def m(self) -> Fraction:
        return Fraction(self.two_m, 2)

    def __str__(self) -> str:
        return _half_text(self.two_m)


def _check_jm(j: Spin, m: SpinProjection) -> None:
    if abs(m.two_m) > j.two_j or (m.two_m - j.two_j) % 2 != 0:
        raise ValueError(f"projection m={m} is invalid for spin j={j}")


def triangle_ok(j1: Spin, j2: Spin, j: Spin) -> bool:
    """Triangle rule |j1-j2| <= j <= j1+j2 with matching parity."""
    return (
        abs(j1.two_j - j2.two_j) <= j.two_j <= j1.two_j + j2.two_j
        and (j1.two_j + j2.two_j + j.two_j) % 2 == 0
    )


def _fact2(doubled: int) -> int:
    """(doubled/2)! for an even, non-negative doubled integer."""
    if doubled < 0 or doubled % 2:
        raise ValueError(f"factorial argument {doubled}/2 is not a natural number")
    return math.factorial(doubled // 2)


@functools.lru_cache(maxsize=None)
def _cg_doubled(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> SignedRadical:
    if tm != tm1 + tm2:
        return SignedRadical.zero()
    if not triangle_ok(Spin(tj1), Spin(tj2), Spin(tj)):
        return SignedRadical.zero()

    # Racah's closed form: the square root of a rational prefactor times a
    # signed rational sum, so the result is a single signed radical. Both
    # are taken in ints, the sum over the lcm of its terms' denominators,
    # and meet in one Fraction.
    num = (
        (tj + 1)
        * _fact2(tj1 + tj2 - tj)
        * _fact2(tj1 - tj2 + tj)
        * _fact2(-tj1 + tj2 + tj)
        * _fact2(tj + tm)
        * _fact2(tj - tm)
        * _fact2(tj1 - tm1)
        * _fact2(tj1 + tm1)
        * _fact2(tj2 - tm2)
        * _fact2(tj2 + tm2)
    )
    den = _fact2(tj1 + tj2 + tj + 2)

    k_min = max(0, -(tj - tj2 + tm1) // 2, -(tj - tj1 - tm2) // 2)
    k_max = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    terms = [
        (-1 if k % 2 else 1,
         math.factorial(k)
         * _fact2(tj1 + tj2 - tj - 2 * k)
         * _fact2(tj1 - tm1 - 2 * k)
         * _fact2(tj2 + tm2 - 2 * k)
         * _fact2(tj - tj2 + tm1 + 2 * k)
         * _fact2(tj - tj1 - tm2 + 2 * k))
        for k in range(k_min, k_max + 1)
    ]
    lcm = math.lcm(*(denom for _, denom in terms))
    total = sum(sign * (lcm // denom) for sign, denom in terms)
    if total == 0:
        return SignedRadical.zero()
    return SignedRadical(1 if total > 0 else -1, Fraction(total * total * num, lcm * lcm * den))


def cg(j1: Spin, m1: SpinProjection, j2: Spin, m2: SpinProjection,
       j: Spin, m: SpinProjection) -> SignedRadical:
    """Condon-Shortley Clebsch-Gordan coefficient <j1 m1 j2 m2|j m>.

    Zero when m != m1 + m2 or the triangle rule fails; raises ValueError
    for malformed quantum numbers (parity or range).
    """
    _check_jm(j1, m1)
    _check_jm(j2, m2)
    _check_jm(j, m)
    return _cg_doubled(j1.two_j, m1.two_m, j2.two_j, m2.two_m, j.two_j, m.two_m)


# --------------------------------------------------------------------------
# Coupling trees


@dataclass(frozen=True)
class Leaf:
    """One spin-1/2 particle; ``index``, an int, is its 1-based label."""

    index: int


@dataclass(frozen=True)
class Node:
    """Coupling of the two child subtrees."""

    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Node]

# Most leaves a tree may have, parsed or built from ``Node`` objects. The
# parser, ``spec``, the hash and the expansion recurse once per tree level,
# so this keeps them far below Python's recursion limit; an expansion at
# this size could never finish anyway.
MAX_TREE_LEAVES = 64


@dataclass(frozen=True)
class CouplingTree:
    """A binary coupling order over particles 1..n."""

    root: TreeNode

    def __post_init__(self) -> None:
        indices = list(self.particles())
        if sorted(indices) != list(range(1, len(indices) + 1)):
            raise ValueError(
                f"leaf indices must be a permutation of 1..n, got {indices}"
            )

    @property
    def n(self) -> int:
        return len(self._postorder[1]) + 1

    def particles(self) -> tuple[int, ...]:
        """Leaf indices in leaf order (left to right)."""
        return self._postorder[0][-1]

    def node_particles(self) -> tuple[tuple[int, ...], ...]:
        """The particles of each internal node, each in leaf order, in
        postorder: parallel to ``node_names()``, so the root's come last."""
        return self._postorder[0][self.n:]

    def node_names(self) -> tuple[str, ...]:
        """One name per internal node, postorder; the root is plain "S"."""
        return self._node_names

    @functools.cached_property
    def _node_names(self) -> tuple[str, ...]:
        names = []
        for idx in map(sorted, self.node_particles()[:-1]):
            names.append("S" + ("," if idx[-1] > 9 else "").join(map(str, idx)))
        return tuple(names) + (("S",) if self._postorder[1] else ())

    @classmethod
    def parse(cls, spec: str) -> "CouplingTree":
        """Parse a nested-parentheses tree spec such as "((1 2) (3 4))".

        Whitespace is optional except between adjacent indices. Specs with
        more than MAX_TREE_LEAVES leaves, or more tokens than a tree of
        that size has, raise ValueError before any parsing.
        """
        tokens = _tokenize(spec)
        leaves = sum(isinstance(tok, int) for tok in tokens)
        if leaves > MAX_TREE_LEAVES or len(tokens) > 3 * MAX_TREE_LEAVES - 2:
            raise ValueError(
                f"tree spec has {leaves} leaves in {len(tokens)} tokens; at most "
                f"{MAX_TREE_LEAVES} leaves ({3 * MAX_TREE_LEAVES - 2} tokens) are supported"
            )
        node, pos = _parse_node(tokens, 0)
        if pos != len(tokens):
            raise ValueError(f"trailing input in tree spec {spec!r}")
        return cls(node)

    def spec(self) -> str:
        """Canonical tree spec string; parses back to an equal tree."""
        def fmt(node: TreeNode) -> str:
            if isinstance(node, Leaf):
                return str(node.index)
            return f"({fmt(node.left)} {fmt(node.right)})"
        return fmt(self.root)

    def __str__(self) -> str:
        return self.spec()

    @functools.cached_property
    def _postorder(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int, int], ...]]:
        """(particles, nodes): each position's particles in leaf order, and
        (left, right, first) of each internal node in postorder.

        Positions count the leaves, then the internal nodes in postorder. A
        subtree's internal nodes are contiguous and end at its own position
        p, so ``spins[first:p + 1]`` is its whole intermediate assignment.
        One walk of the root builds both, without recursion. It raises
        ValueError at a child that is not a ``Leaf`` or a ``Node``, at a
        leaf index that is not an int, which ``spec`` could not write back,
        and past MAX_TREE_LEAVES leaves, so that ``spec``, the hash and the
        engine, which recurse once per tree level, never see a deeper tree.
        """
        particles: list[tuple[int, ...]] = []
        # Each internal node's two children; the k-th internal node in
        # postorder stands as -1 - k until the leaves are counted.
        children: list[tuple[int, int]] = []
        # An iterative walk: a node is pushed again, marked, below its
        # children, and taken up once their references are on ``done``.
        todo: list[tuple[object, bool]] = [(self.root, False)]
        done: list[int] = []
        while todo:
            node, ready = todo.pop()
            if ready:
                right = done.pop()
                children.append((done.pop(), right))
                done.append(-len(children))
            elif isinstance(node, Node):
                todo += ((node, True), (node.right, False), (node.left, False))
            elif not isinstance(node, Leaf):
                raise ValueError(f"a tree holds Leaf and Node objects, got {node!r}")
            elif type(node.index) is not int:
                raise ValueError(f"leaf index must be an int, got {node.index!r}")
            elif len(particles) == MAX_TREE_LEAVES:
                raise ValueError(f"a tree has more than {MAX_TREE_LEAVES} leaves; "
                                 f"at most {MAX_TREE_LEAVES} are supported")
            else:
                particles.append((node.index,))
                done.append(len(particles) - 1)
        n = len(particles)
        nodes: list[tuple[int, int, int]] = []
        for pos, pair in enumerate(children, n):
            left, right = (child if child >= 0 else n - 1 - child for child in pair)
            firsts = [nodes[child - n][2] for child in (left, right) if child >= n]
            nodes.append((left, right, firsts[0] if firsts else pos))
            particles.append(particles[left] + particles[right])
        return tuple(particles), tuple(nodes)

    @functools.cached_property
    def _checked_spins(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each intermediate assignment (doubled, postorder) whose triangle
        rules ``CoupledLabel`` has checked on this tree, mapped to its
        doubled spins by position: the 2S + 1 members of a multiplet check
        their assignment once and share one tuple."""
        return {}

    # A tree is immutable, so its hash, the dataclass's own hash((root,)),
    # is taken once rather than through every Node and Leaf at each lookup.
    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.root,))


def _tokenize(spec: str) -> list:
    tokens: list = []
    i = 0
    while i < len(spec):
        ch = spec[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(spec) and spec[j].isdigit():
                j += 1
            tokens.append(int(spec[i:j]))
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r} in tree spec")
    return tokens


def _parse_node(tokens: list, pos: int) -> tuple[TreeNode, int]:
    if pos >= len(tokens):
        raise ValueError("unexpected end of tree spec")
    tok = tokens[pos]
    if isinstance(tok, int):
        return Leaf(tok), pos + 1
    if tok != "(":
        raise ValueError(f"expected '(' or index, got {tok!r}")
    left, pos = _parse_node(tokens, pos + 1)
    right, pos = _parse_node(tokens, pos)
    if pos >= len(tokens) or tokens[pos] != ")":
        raise ValueError("expected ')' closing a coupling pair")
    return Node(left, right), pos + 1


def all_coupling_trees(particles: tuple[int, ...] | list[int]) -> list[CouplingTree]:
    """Every binary coupling order over the given particles, deterministically.

    Mirror-image duplicates are avoided by always keeping the smallest
    particle in the left subtree; there are (2n-3)!! trees for n particles.
    """
    particles = tuple(sorted(particles))

    def build(items: tuple[int, ...]) -> list[TreeNode]:
        if len(items) == 1:
            return [Leaf(items[0])]
        head, rest = items[0], items[1:]
        out: list[TreeNode] = []
        for mask in range(1 << len(rest)):
            left_items = (head,) + tuple(
                rest[i] for i in range(len(rest)) if mask >> i & 1
            )
            right_items = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
            if not right_items:
                continue
            for left in build(left_items):
                for right in build(right_items):
                    out.append(Node(left, right))
        return out

    return [CouplingTree(root) for root in build(particles)]


# --------------------------------------------------------------------------
# Labels and state vectors


_TWO_J = operator.attrgetter("two_j")


@dataclass(frozen=True)
class CoupledLabel:
    """One multiplet member: a tree, its intermediate spins and total m.

    ``intermediates`` holds the coupled spin at each internal node in
    postorder, so the last entry is the total spin S.
    """

    tree: CouplingTree
    intermediates: tuple[Spin, ...]
    total_m: SpinProjection
    # Doubled spins by tree position, the leaves' then the intermediates':
    # what the checks below and the expansion read.
    _spins: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        particles, nodes = self.tree._postorder
        if not nodes:
            raise ValueError("a coupled label needs a tree of at least two particles")
        if len(self.intermediates) != len(nodes):
            raise ValueError(
                f"need {len(nodes)} intermediate spins, got {len(self.intermediates)}"
            )
        twos = tuple(map(_TWO_J, self.intermediates))
        checked = self.tree._checked_spins
        spins = checked.get(twos)
        if spins is None:
            n = len(nodes) + 1
            spins = (1,) * n + twos
            for pos, (left, right, _) in enumerate(nodes, n):
                two_l, two_r, two_j = spins[left], spins[right], spins[pos]
                # The triangle rule of ``triangle_ok``, on the doubled ints.
                if not abs(two_l - two_r) <= two_j <= two_l + two_r or (two_l + two_r + two_j) % 2:
                    raise ValueError(f"triangle rule fails at node over {particles[pos]}")
            checked[twos] = spins
        _check_jm(self.total_spin, self.total_m)
        object.__setattr__(self, "_spins", spins)

    @property
    def total_spin(self) -> Spin:
        return self.intermediates[-1]

    def quantum_numbers(self) -> dict[str, str]:
        """Printable label, e.g. {"S12": "1", "S34": "1", "S": "2", "m": "0"}."""
        out = {
            name: str(spin)
            for name, spin in zip(self.tree.node_names(), self.intermediates)
        }
        out["m"] = str(self.total_m)
        return out

    def __str__(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.quantum_numbers().items())


def dense_index(config: int, n: int) -> int:
    """Dense-array position of a configuration (all-up sorts first).

    Configurations use bit = 1 for an up spin with particle 1 as the most
    significant bit; dense arrays order the basis up-first, so the map is
    the bit complement (and is its own inverse).
    """
    return (1 << n) - 1 - config


def config_to_string(config: int, n: int) -> str:
    """Configuration as a u/d string, particle 1 first."""
    return "".join("u" if config >> (n - k) & 1 else "d" for k in range(1, n + 1))


def config_from_string(s: str) -> int:
    config = 0
    for ch in s:
        config <<= 1
        if ch == "u":
            config |= 1
        elif ch != "d":
            raise ValueError(f"configuration {s!r} must use only 'u' and 'd'")
    return config


_NORM_TOL = 1e-12


class IntegerAmplitudes(Mapping):
    """Read-only mapping from mask to ``SignedRadical`` over the engine's
    form sqrt(radicand) * ints[mask], the ints nonzero and coprime. ``len``,
    iteration and ``in`` build nothing; a read builds each distinct k once."""

    __slots__ = ("radicand", "ints", "_values")

    def __init__(self, radicand: Fraction, ints: dict[int, int]) -> None:
        self.radicand, self.ints, self._values = radicand, ints, {}

    def __getitem__(self, mask: int) -> SignedRadical:
        k = self.ints[mask]
        if k not in self._values:
            self._values[k] = SignedRadical(1 if k > 0 else -1, self.radicand * (k * k))
        return self._values[k]

    def __len__(self) -> int:
        return len(self.ints)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ints)

    def __contains__(self, mask: object) -> bool:
        return mask in self.ints

    def __repr__(self) -> str:
        return f"IntegerAmplitudes({self.radicand!r}, {self.ints!r})"


# Most particles a state may have as a dense array: 2**24 complex values
# take 256 MB. ``StateVector.to_array`` refuses larger states before it
# allocates anything, and ``recouple`` larger trees (2**n labels to walk).
MAX_DENSE_QUBITS = 24


@dataclass(frozen=True)
class StateVector:
    """An n-qubit pure state, either exact (SignedRadical) or numeric.

    Amplitudes are keyed by configuration integers: bit = 1 means the
    particle is up and particle 1 is the most significant bit. Zero
    amplitudes are never stored and the norm is validated on construction.
    """

    n: int
    amplitudes: Mapping[int, object]
    exact: bool

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a state needs at least one particle")
        amps = self.amplitudes
        # An engine state is tested through its ints: no Python-level __len__.
        integer = isinstance(amps, IntegerAmplitudes)
        if not (amps.ints if integer else amps):
            raise ValueError("a state needs at least one amplitude")
        dim = 1 << self.n
        if self.exact and integer:
            r = amps.radicand
            _check_form(self.n, r.numerator, r.denominator, amps.ints, "exact state")
            norm2 = 1
        else:
            cleaned: dict[int, object] = {}
            norm2 = Fraction(0) if self.exact else 0.0
            for config, amp in amps.items():
                if not isinstance(config, int) or not 0 <= config < dim:
                    raise ValueError(f"configuration {config!r} out of range")
                if not self.exact:
                    amp = complex(amp)
                elif not isinstance(amp, SignedRadical):
                    raise TypeError("exact amplitudes must be SignedRadical")
                if amp:
                    cleaned[config] = amp
                    norm2 += amp.squared() if self.exact else abs(amp) ** 2
            object.__setattr__(self, "amplitudes", cleaned)
        if self.exact and norm2 != 1:
            raise ValueError(f"exact state has norm^2 = {norm2}, expected 1")
        # Written so that a NaN norm fails it.
        if not self.exact and not abs(norm2 - 1.0) <= _NORM_TOL:
            raise ValueError(f"numeric state has norm^2 = {norm2!r}, expected 1")

    @classmethod
    def exact_state(cls, n: int, amplitudes: Mapping[int, SignedRadical]) -> "StateVector":
        return cls(n, dict(amplitudes), exact=True)

    @classmethod
    def numeric_state(cls, n: int, amplitudes: Mapping[int, complex]) -> "StateVector":
        return cls(n, dict(amplitudes), exact=False)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "StateVector":
        """Numeric state from a dense array in up-first basis order.

        Amplitudes of magnitude at most 1e-15 are dropped; a NaN is kept,
        so that the norm check refuses it.
        """
        array = np.asarray(array).ravel()
        n = int(array.size).bit_length() - 1
        if 1 << n != array.size:
            raise ValueError(f"array length {array.size} is not a power of two")
        amps = {
            dense_index(i, n): complex(a)
            for i, a in enumerate(array)
            if not abs(a) <= 1e-15
        }
        return cls.numeric_state(n, amps)

    def items(self) -> list[tuple[int, object]]:
        """Amplitudes sorted by descending configuration (all-up first)."""
        return sorted(self.amplitudes.items(), reverse=True)

    def to_array(self) -> np.ndarray:
        """Dense complex array in up-first basis order. Each distinct exact
        value is rounded once, by ``exactnum.radical_float``: an engine
        state's from its (r, k), any other through ``SignedRadical.to_float``.
        Raises ValueError above MAX_DENSE_QUBITS particles."""
        if self.n > MAX_DENSE_QUBITS:
            raise ValueError(
                f"a dense array of {self.n} particles needs 2**{self.n} amplitudes; "
                f"at most {MAX_DENSE_QUBITS} particles are supported"
            )
        # Each cache lives for this call only.
        amps = self.amplitudes
        if isinstance(amps, IntegerAmplitudes):
            p, q, amps = amps.radicand.numerator, amps.radicand.denominator, amps.ints
            value = functools.cache(lambda k: radical_float(p, q, k))
        else:
            value = functools.cache(SignedRadical.to_float) if self.exact else complex
        count = len(amps)
        arr = np.zeros(1 << self.n, dtype=complex)
        configs = np.fromiter(amps, dtype=np.int64, count=count)
        arr[dense_index(configs, self.n)] = np.fromiter(map(value, amps.values()), dtype=complex,
                                                        count=count)
        return arr


# --------------------------------------------------------------------------
# Multiplet enumeration and expansion


def _assignments(tree: CouplingTree, two_s: int | None = None
                 ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(doubled total spin, doubled intermediate spins postorder) of each
    label assignment, earlier spins descending first.

    With ``two_s``, only the assignments of total two_s, in the same order.
    Each subtree's spin is then held to the range from which the total can
    still reach two_s, so the walk never enters a branch that cannot.
    """
    particles, nodes = tree._postorder
    n = len(nodes) + 1
    # A subtree's largest doubled spin is its particle count.
    most = tuple(map(len, particles))

    def walk(pos: int, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        if pos < n:
            if lo <= most[pos] <= hi:
                yield most[pos], ()
            return
        # A parent total t in [lo, hi] needs |j_l - j_r| <= t <= j_l + j_r.
        left, right, _ = nodes[pos - n]
        for two_l, inter_l in walk(left, lo - most[right], hi + most[right]):
            for two_r, inter_r in walk(right, max(lo - two_l, two_l - hi), two_l + hi):
                top = min(two_l + two_r, hi - (hi - two_l - two_r) % 2)
                for total in range(top, max(abs(two_l - two_r), lo) - 1, -2):
                    yield total, inter_l + inter_r + (total,)

    root = len(most) - 1
    return walk(root, 0, most[root]) if two_s is None else walk(root, two_s, two_s)


def enumerate_multiplets(tree: CouplingTree) -> list[CoupledLabel]:
    """Every multiplet member of the tree in deterministic order.

    Intermediate-spin assignments come out with earlier (postorder-left)
    spins descending first, and each multiplet fans out over descending m.
    The labels always count the full product-space dimension.
    """
    labels = []
    spin = functools.cache(Spin)  # for this call: labels share their Spins
    for total, intermediates in _assignments(tree):
        spins = tuple(map(spin, intermediates))
        for two_m in range(total, -total - 1, -2):
            labels.append(CoupledLabel(tree, spins, SpinProjection(two_m)))
    return labels


@functools.lru_cache(maxsize=None)
def _branch_plan(two_j_left: int, two_j_right: int, two_j: int,
                 two_m: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The nonzero CG branches of |j m> over (j_left, j_right), ascending
    in m_left, as (two_ml, two_mr, sign, num, den): the coefficient is
    sign * sqrt(num/den). Read once per process from ``_cg_doubled``, with
    the same coefficients that a scan of every m_left asks it for."""
    plan = []
    for two_ml in range(-two_j_left, two_j_left + 1, 2):
        two_mr = two_m - two_ml
        if abs(two_mr) > two_j_right:
            continue
        coeff = _cg_doubled(two_j_left, two_ml, two_j_right, two_mr, two_j, two_m)
        if coeff:
            radicand = coeff.radicand
            plan.append((two_ml, two_mr, coeff.sign, radicand.numerator, radicand.denominator))
    return tuple(plan)


def _expand_node(pos: int, postorder: tuple, spins: tuple[int, ...], two_m: int,
                 memo: dict[tuple, dict]) -> tuple[int, int, dict[int, int]]:
    """Expansion of the node at ``pos`` as (p, q, {configuration bitmask:
    k}): amplitude sqrt(p/q) * k, p/q in lowest terms, the k coprime ints.

    ``spins`` holds the doubled spins by position. Leaf projections fix
    every intermediate projection, so each mask is reached once; sibling
    subtrees hold disjoint particles, so a parent ORs their masks. A
    branch, one nonzero CG c times its two subtrees, has radicand
    c^2 r_left r_right, which must be the first branch's times a rational
    square (a/b)^2, else ValueError. The branches, scaled by a/b, are
    brought to the lcm of the b and divided by the gcd of their factors:
    the gcd of the result, as each subtree's ints are coprime. ``memo``
    maps (pos, the subtree's slice of ``spins``) to {two_m: the subtree's
    expansion}, so a subtree reached again, by another path or another
    label of the same tree, is not expanded twice. The root's key is
    unique per label: never stored. A parent writes its leaf children
    itself and looks its subtree children up in the memo, so neither a
    leaf nor a memo hit costs a call.
    """
    particles, nodes = postorder
    n = len(nodes) + 1
    if pos < n:
        return 1, 1, {1 << (n - particles[pos][0]) if two_m > 0 else 0: 1}
    left, right, first = nodes[pos - n]
    stored = pos < len(spins) - 1
    if stored:
        known = memo.setdefault((pos, spins[first:pos + 1]), {})
        if two_m in known:
            return known[two_m]
    if left < n:
        known_left = {1: (1, 1, {1 << (n - particles[left][0]): 1}), -1: (1, 1, {0: 1})}
    else:
        known_left = memo.setdefault((left, spins[nodes[left - n][2]:left + 1]), {})
    if right < n:
        known_right = {1: (1, 1, {1 << (n - particles[right][0]): 1}), -1: (1, 1, {0: 1})}
    else:
        known_right = memo.setdefault((right, spins[nodes[right - n][2]:right + 1]), {})
    branches = []
    for two_ml, two_mr, sign, num, den in _branch_plan(spins[left], spins[right], spins[pos],
                                                       two_m):
        p_left, q_left, ints_left = (known_left.get(two_ml)
                                     or _expand_node(left, postorder, spins, two_ml, memo))
        p_right, q_right, ints_right = (known_right.get(two_mr)
                                        or _expand_node(right, postorder, spins, two_mr, memo))
        p, q = num * p_left * p_right, den * q_left * q_right
        if branches:
            root = ratio_root(p, q, p_first, q_first)
            if root is None:
                raise ValueError(f"branch radicands {p}/{q} and {p_first}/{q_first} "
                                 "differ by an irrational factor")
            a, b = root
        else:
            p_first, q_first, a, b = p, q, 1, 1
        if len(ints_left) <= len(ints_right):
            branches.append((sign * a, b, ints_left, ints_right))
        else:
            branches.append((sign * a, b, ints_right, ints_left))
    lcm = math.lcm(*(b for _, b, _, _ in branches))
    factors = [a * (lcm // b) for a, b, _, _ in branches]
    gcd = math.gcd(*factors)
    # Scaling the smaller side first takes one product per pair; a leaf
    # side makes it one product per amplitude.
    pairs = [(mask_s, factor // gcd * k_s, large)
             for factor, (_, _, small, large) in zip(factors, branches)
             for mask_s, k_s in small.items()]
    ints = {mask_s | mask_l: scaled * k_l
            for mask_s, scaled, large in pairs for mask_l, k_l in large.items()}
    p, q = p_first * gcd * gcd, q_first * lcm * lcm
    common = math.gcd(p, q)
    out = p // common, q // common, ints
    if stored:
        known[two_m] = out
    return out


def _expansion(label: CoupledLabel, memo: dict[tuple, dict]) -> StateVector:
    """``expand`` with a subtree memo that the caller may share between
    labels of one tree."""
    tree, spins = label.tree, label._spins
    p, q, ints = _expand_node(len(spins) - 1, tree._postorder, spins, label.total_m.two_m, memo)
    return StateVector(tree.n, IntegerAmplitudes(Fraction(p, q), ints), True)


def expand(label: CoupledLabel) -> StateVector:
    """Exact product-basis expansion of one coupled state.

    Its subtree memo lives for this one call: a label reaches the same
    (subtree, m) by many paths.
    """
    return _expansion(label, {})


def _check_form(n: int, p: int, q: int, ints: dict[int, int], what: str) -> None:
    """The checks that ``StateVector`` makes on an engine state, in ints:
    every mask in range for ``n`` particles and r * sum(k^2) == 1, with
    r = p/q; a Fraction only for the message. Raises ValueError."""
    if min(ints) < 0 or max(ints) >= 1 << n:
        raise ValueError(f"configuration out of range for {n} particles")
    ks = ints.values()
    squares = sum(map(operator.mul, ks, ks)) * p
    if squares != q:
        raise ValueError(f"{what} has norm^2 = {Fraction(squares, q)}, expected 1")


# A coupled state in the engine's integer form: (doubled intermediate spins
# postorder, two_m, p, q, {configuration bitmask: k}), amplitude sqrt(p/q) k.
Form = tuple[tuple[int, ...], int, int, int, dict[int, int]]


def coupled_forms(tree: CouplingTree) -> Iterator[Form]:
    """Every coupled state of a tree in its integer form, in the order of
    ``enumerate_multiplets``, one at a time.

    Raises ValueError for a tree of one particle at the call, before
    anything is expanded; a state that fails the checks of
    ``StateVector`` raises when it is reached.
    """
    if not tree._postorder[1]:
        raise ValueError("a coupled label needs a tree of at least two particles")
    return _coupled_forms(tree, {})


def _coupled_forms(tree: CouplingTree, memo: dict[tuple, dict]) -> Iterator[Form]:
    """``coupled_forms`` over the subtree memo ``memo``.

    The enumeration varies the earliest postorder spins slowest, so a
    memo entry whose spin slice starts at the first internal position,
    that of a subtree on the leftmost chain, is never read again once
    the walk has left its prefix: it is dropped then. Each chain position
    keeps at most one live entry; every other entry recurs and stays for
    the call.
    """
    postorder, n = tree._postorder, tree.n
    root, leaf_spins = 2 * n - 2, (1,) * n
    # The internal positions on the leftmost chain below the root, whose
    # memo key is (pos, intermediates[:pos - n + 1]).
    chain = [pos for pos, (_, _, first) in enumerate(postorder[1][:-1], n) if first == n]
    previous: tuple[int, ...] = ()
    for total, intermediates in _assignments(tree):
        for pos in chain:
            prefix = previous[:pos - n + 1]
            if prefix != intermediates[:pos - n + 1]:
                memo.pop((pos, prefix), None)
        previous = intermediates
        spins = leaf_spins + intermediates
        for two_m in range(total, -total - 1, -2):
            p, q, ints = _expand_node(root, postorder, spins, two_m, memo)
            _check_form(n, p, q, ints, "exact state")
            yield intermediates, two_m, p, q, ints


def full_basis(tree: CouplingTree) -> list[tuple[CoupledLabel, StateVector]]:
    """All 2**n coupled states of a tree, expanded exactly: the labels and
    states over ``coupled_forms``, in its order."""
    spin = functools.cache(Spin)  # for this call: labels share their Spins
    return [(CoupledLabel(tree, tuple(map(spin, intermediates)), SpinProjection(two_m)),
             StateVector(tree.n, IntegerAmplitudes(Fraction(p, q), ints), True))
            for intermediates, two_m, p, q, ints in coupled_forms(tree)]


def recouple(label: CoupledLabel, target: CouplingTree) -> dict[CoupledLabel, float]:
    """Coefficients of a coupled state in another tree's coupled basis.

    Only target labels with the same total S and m can appear, and their
    coefficients, Racah's recoupling coefficients, do not depend on m. So
    both sides are taken at the stretched member m = S, whose sector has
    the fewest configurations: the source through ``expand``, and each
    target label of the S sector straight from the engine, with one
    subtree memo shared over them for this call. Each coefficient is
    sqrt(r_s r_t) times the integer dot product of the two forms, kept
    when nonzero, rounded once to a float and keyed by the target label at
    the source's m. Raises ValueError above MAX_DENSE_QUBITS particles,
    whose 2**n labels could not be walked, before expanding anything; when
    a target form is out of range or not of norm 1; and unless the squared
    coefficients sum to exactly 1, as they must for a state of the
    target's (S, S) sector (Parseval).
    """
    if set(label.tree.particles()) != set(target.particles()):
        raise ValueError("trees must couple the same particles")
    if target.n > MAX_DENSE_QUBITS:
        raise ValueError(f"recoupling {target.n} particles walks up to 2**{target.n} "
                         f"target labels; at most {MAX_DENSE_QUBITS} particles are supported")
    two_s = label.total_spin.two_j
    source = expand(CoupledLabel(label.tree, label.intermediates, SpinProjection(two_s))).amplitudes
    p_source, q_source = source.radicand.numerator, source.radicand.denominator
    postorder, n = target._postorder, target.n
    leaf_spins, root = (1,) * n, 2 * n - 2
    spin = functools.cache(Spin)  # for this call: labels share their Spins
    memo: dict[tuple, dict] = {}
    out: dict[CoupledLabel, float] = {}
    norm2 = Fraction(0)
    for _, intermediates in _assignments(target, two_s):
        p, q, ints = _expand_node(root, postorder, leaf_spins + intermediates, two_s, memo)
        _check_form(n, p, q, ints, "target state")
        small, large = sorted((source.ints, ints), key=len)
        dot = sum(k * large[mask] for mask, k in small.items() if mask in large)
        if dot:
            r = Fraction(p_source * p, q_source * q)
            target_label = CoupledLabel(target, tuple(map(spin, intermediates)), label.total_m)
            out[target_label] = radical_float(r.numerator, r.denominator, dot)
            norm2 += r * (dot * dot)
    if norm2 != 1:
        raise ValueError(f"recoupling coefficients have squared sum {norm2}, expected 1")
    return out
